"""The grid search of scripts/run_leukemia.py on a synthetic stratified
split, so that it runs without the leukemia data."""

import pytest

from conftest import SCRIPTS, load_file
from sparsemsvm import solvers
from sparsemsvm.data import make_synthetic, split
from sparsemsvm.evaluate import evaluate_model
from sparsemsvm.linop import operator_norm
from sparsemsvm.model import RegularizerSpec

# out of order, so that the winner is neither the first nor the last alpha;
# on this split two or more alphas tie at the fewest errors for both solvers
ALPHAS = [10.0, 1.0, 0.1, 0.01, 100.0]


@pytest.mark.parametrize("solver_id", ["fbpd-reg", "fbpd-con"])
def test_best_over_grid_takes_the_first_fewest_errors(monkeypatch, solver_id):
    train, test = split(make_synthetic(3, 20, 30, seed=0), per_class=4, seed=0)
    spec = RegularizerSpec("l1")
    norm_T = operator_norm(train).value
    solve, runs = solvers.SOLVERS[solver_id], []

    def recording(dataset, spec, cfg):
        runs.append((cfg, solve(dataset, spec, cfg)))
        return runs[-1][1]

    monkeypatch.setitem(solvers.SOLVERS, solver_id, recording)
    run_leukemia = load_file(SCRIPTS / "run_leukemia.py", "run_leukemia")
    errors, alpha, report, _, _ = run_leukemia.best_over_grid(
        solver_id, spec, train, test, ALPHAS, 1e-5, 2000, norm_T)

    counts = [evaluate_model(r.model, test, spec).error_count for _, r in runs]
    first = counts.index(min(counts))
    assert counts.count(min(counts)) >= 2, counts
    assert (errors, alpha) == (min(counts), ALPHAS[first]) and report is runs[first][1]
    configs = [cfg for cfg, _ in runs]
    assert configs == [solvers.SolverConfig.for_alpha(solver_id, a, train.n_samples,
                                                      max_iter=2000, rel_tol=1e-5, norm_T=norm_T)
                       for a in ALPHAS]
    if solver_id == "fbpd-con":  # the hinge budget is alpha times the training set size
        assert [cfg.eta for cfg in configs] == [a * train.n_samples for a in ALPHAS]


@pytest.mark.parametrize("option, value", [("--solvers", "hinge,bogus"), ("--regs", "l3")])
def test_unknown_list_entry_is_usage_error(tmp_path, capsys, option, value):
    # the data directory is empty: a usage error must come before any read
    run_leukemia = load_file(SCRIPTS / "run_leukemia.py", "run_leukemia")
    with pytest.raises(SystemExit) as exc:
        run_leukemia.main(["--data-dir", str(tmp_path), option, value])
    assert exc.value.code == 2
    assert f"{option[2:]} must name one or more of" in capsys.readouterr().err
