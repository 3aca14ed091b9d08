"""The grid search of scripts/run_leukemia.py on a synthetic stratified
split, so that it runs without the leukemia data."""

import numpy as np
import pytest

from conftest import SCRIPTS, load_file
from sparsemsvm import solvers
from sparsemsvm.data import make_synthetic, save_dense_csv, split
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


def _diverging_at(monkeypatch, lams):
    """fista-square, raising DivergenceError for every lam in `lams`."""
    solve = solvers.SOLVERS["fista-square"]

    def diverging(dataset, spec, cfg):
        if cfg.lam in lams:
            raise solvers.DivergenceError("diverged: objective=inf")
        return solve(dataset, spec, cfg)

    monkeypatch.setitem(solvers.SOLVERS, "fista-square", diverging)


def test_a_diverged_alpha_is_skipped(monkeypatch):
    train, test = split(make_synthetic(3, 20, 30, seed=0), per_class=4, seed=0)
    spec = RegularizerSpec("l1")
    norm_T = operator_norm(train).value
    run_leukemia = load_file(SCRIPTS / "run_leukemia.py", "run_leukemia")
    args = ("fista-square", spec, train, test)
    kept = [a for a in ALPHAS if a != 1.0]
    expected = run_leukemia.best_over_grid(*args, kept, 1e-5, 2000, norm_T)
    _diverging_at(monkeypatch, {1.0})
    got = run_leukemia.best_over_grid(*args, ALPHAS, 1e-5, 2000, norm_T)
    assert got[:2] == expected[:2]
    np.testing.assert_array_equal(got[2].model.augmented(), expected[2].model.augmented())


def test_every_alpha_diverged_is_said(monkeypatch, tmp_path, capsys):
    pool = make_synthetic(3, 20, 30, seed=0)
    for name, part in zip(("train", "test"), split(pool, per_class=4, seed=0)):
        save_dense_csv(tmp_path / f"leukemia_{name}.csv", part)
    _diverging_at(monkeypatch, {1.0, 10.0})
    run_leukemia = load_file(SCRIPTS / "run_leukemia.py", "run_leukemia")
    out = tmp_path / "out.csv"
    run_leukemia.main(["--data-dir", str(tmp_path), "--solvers", "square", "--regs", "l1,l2sq",
                       "--alphas", "1,0.1", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert "square      l1     diverged at every alpha" in lines
    assert "square      l2sq   diverged at every alpha" in lines
    assert out.read_text() == "solver,regularizer,errors,nonzeros,alpha\n"


@pytest.mark.parametrize("option, value", [("--solvers", "hinge,bogus"), ("--regs", "l3")])
def test_unknown_list_entry_is_usage_error(tmp_path, capsys, option, value):
    # the data directory is empty: a usage error must come before any read
    run_leukemia = load_file(SCRIPTS / "run_leukemia.py", "run_leukemia")
    with pytest.raises(SystemExit) as exc:
        run_leukemia.main(["--data-dir", str(tmp_path), option, value])
    assert exc.value.code == 2
    assert f"{option[2:]} must name one or more of" in capsys.readouterr().err
