"""Tests of the benchmark itself: span arithmetic, failure accounting and
the input generator. Run with `python -m pytest perfbench` from the root
of the repository."""

import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import calibrate
import checks
import launch
import run
from spans import ROOT, Tracer, self_times
from workloads import WORKLOADS, Shape, Workload, write_csv, write_inputs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_times_of_a_hand_built_tree():
    spans = [
        ["cli", 0.0, 10.0, ROOT, None],
        ["data.load", 1.0, 3.0, 0, None],
        ["solvers", 4.0, 9.0, 0, None],
        ["linop.norm", 4.5, 5.5, 2, None],
    ]
    counters = [["linop.T", 2, 10, 1.0, 0.0], ["prox.reg", 2, 10, 1.5, 0.0],
                ["linop.T", 3, 7, 0.25, 0.0]]
    assert self_times(spans, counters) == pytest.approx([3.0, 2.0, 1.5, 0.75])


def test_tracer_nests_spans_and_charges_counters_to_the_open_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    hot = tracer.counter("linop.T", lambda x: x, flops=lambda x: 2.0 * x)
    inner = tracer.span("linop.norm", lambda: hot(3), note=lambda r: {"iters": r})
    outer = tracer.span("solvers", lambda: (inner(), hot(1), hot(1)))
    tracer.span("cli", outer)()
    out = tracer.to_json()
    assert [s[0] for s in out["spans"]] == ["cli", "solvers", "linop.norm"]
    assert [s[3] for s in out["spans"]] == [ROOT, 0, 1]
    assert out["spans"][2][4] == {"iters": 3}
    counters = {(c[0], c[1]): c[2:] for c in out["counters"]}
    assert counters[("linop.T", 2)] == [1, 1.0, 6.0]
    assert counters[("linop.T", 1)] == [2, 2.0, 4.0]
    own = self_times(out["spans"], out["counters"])
    assert sum(own) + 3.0 == pytest.approx(out["spans"][0][2] - out["spans"][0][1])


def test_layer_self_times_add_up_to_the_wall_time():
    spans = [["cli", 0.5, 9.5, ROOT, None],
             ["solvers", 2.0, 8.0, 0, {"iters": 4, "converged": False}],
             ["linop.norm", 2.0, 3.0, 1, {"iters": 50, "converged": True}]]
    counters = [["linop.T", 1, 4, 1.0, 8e9], ["linop.T", 2, 50, 0.5, 1e9],
                ["prox.reg", 1, 4, 2.0, 0.0]]
    m = run.layer_metrics([({"spans": spans, "counters": counters}, 10.0)])
    assert sum(m[names[0]] for names in run.LAYERS.values()) == pytest.approx(10.0)
    assert m["linop.norm.s"] == 1.0          # its T calls count toward the norm
    assert m["linop.T.s"] == 1.0 and m["linop.T.calls"] == 4
    assert m["linop.T.gflops"] == pytest.approx(8.0)
    assert m["solvers.solve_s"] == 5.0 and m["solvers.iters"] == 4
    assert m["solvers.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(4.0)


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    workload = WORKLOADS["leukemia-con"]
    files = {}
    for tag, seed in [("a", 5), ("b", 5), ("c", 6)]:
        d = tmp_path / tag
        d.mkdir()
        write_inputs(workload, seed, d)
        files[tag] = ((d / "train.csv").read_bytes(), (d / "test.csv").read_bytes())
    assert files["a"] == files["b"]
    assert files["a"][0] != files["c"][0]


# ---------------------------------------------------------------------------
# failure accounting

SMALL = Workload(name="small-con", shape=Shape(3, 4, 9, 6, 4.0),
                 solver_args=("--solver", "fbpd-con"),
                 alpha=0.5, reg="l1", constrained=True,
                 objective_rel_bound=0.01, budget_rel_bound=0.01)


def _save_model(path, aug):
    with open(path, "w") as fh:
        fh.write("sparsemsvm-model v1\nclasses 3\nfeatures 4\nend-header\n")
        for row in aug:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def _train_data():
    rng = np.random.default_rng(0)
    return rng.standard_normal((9, 4)), np.arange(9) % 3


def test_wrong_objective_fails_the_check(tmp_path):
    X, y = _train_data()
    aug = np.zeros((3, 5))
    aug[0, 0] = 0.5
    model = tmp_path / "model.txt"
    _save_model(model, aug)
    true_obj = 0.5  # constrained: the objective is the l1 penalty alone
    fails = checks.check_train(SMALL, f"objective {true_obj!r}\n", model, (X, y), 0.5)
    assert not any("recomputed" in f or "reference" in f for f in fails)
    fails = checks.check_train(SMALL, "objective 0.75\n", model, (X, y), None)
    assert any("recomputed" in f for f in fails)
    fails = checks.check_train(SMALL, f"objective {true_obj!r}\n", model, (X, y), 0.4)
    assert any("reference" in f for f in fails)


def test_infeasible_constrained_result_fails_the_check(tmp_path):
    X, y = _train_data()
    model = tmp_path / "model.txt"
    _save_model(model, np.zeros((3, 5)))  # hinge sum = L = 9 > eta = 4.5
    fails = checks.check_train(SMALL, "objective 0\n", model, (X, y), None)
    assert fails and "exceeds eta" in fails[0]


def test_failed_checks_are_counted_and_the_pass_goes_on(tmp_path, monkeypatch):
    X, y = _train_data()
    data = {"train": (X, y), "test": (X[:6], y[:6])}
    _save_model(tmp_path / "model.txt", np.zeros((3, 5)))
    outputs = iter([
        {"code": 0, "stdout": "objective 0\n"},                  # infeasible
        {"code": 1, "stdout": "", "stderr": "error: boom\n"},   # exit 1
    ])

    def fake_run_command(cli_args, env, work, traced):
        res = {"wall": 1.0, "rss_mb": 10.0, "stderr": "",
               "rec": {"main_start": 0.5, "first_iter": [0.75], "solves": [[3, False, 3]],
                       "missing": []}}
        res.update(next(outputs))
        return res

    monkeypatch.setattr(run, "run_command", fake_run_command)
    p = run.run_pass(SMALL, {}, str(tmp_path), data, None, traced=False)
    assert (p["attempted"], p["failed"]) == (2, 2)
    result = run.summarize({False: [p], True: []}, traced=False,
                           units=run.metric_units()["end_to_end"])
    assert result["correct"] is False
    assert result["metrics"]["pass_rate"]["value"] == 0.0
    assert result["metrics"]["unconverged_frac"]["value"] == 1.0
    assert result["metrics"]["setup_s"]["value"] == 0.25  # from cli.main entry


def test_sampling_is_taken_out_and_times_are_scaled_to_the_reference(tmp_path, monkeypatch):
    X, y = _train_data()
    data = {"train": (X, y), "test": (X[:6], y[:6])}
    ref = calibrate.REFERENCE_S
    # kernel runs at half the reference speed, once before and once after
    # the first iteration
    cal = [[0.6, 2 * ref], [5.0, 2 * ref]]

    def fake_run_command(cli_args, env, work, traced):
        return {"code": 1, "wall": 3.0, "rss_mb": 10.0, "stdout": "", "stderr": "",
                "rec": {"main_start": 0.5, "first_iter": [1.0], "solves": [],
                        "missing": [], "calibration": cal}}

    monkeypatch.setattr(run, "run_command", fake_run_command)
    p = run.run_pass(SMALL, {}, str(tmp_path), data, None, traced=False)
    assert p["speed"] == pytest.approx(0.5)
    assert p["total"] == pytest.approx(2 * (3.0 - 4 * ref))
    assert p["setup"] == pytest.approx(0.5 - 2 * ref)
    result = run.summarize({False: [p], True: []}, traced=False,
                           units=run.metric_units()["end_to_end"])
    assert result["metrics"]["total_s"]["value"] == pytest.approx(3.0 - 4 * ref)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx((0.5 - 2 * ref) / 2)


def test_sampler_runs_the_kernel_only_while_started():
    sampler = calibrate.Sampler(interval=0.01)
    sampler.start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    sampler.stop()
    n = len(sampler.samples)
    assert n >= 2 and all(secs > 0 for _, secs in sampler.samples)
    time.sleep(0.05)
    assert len(sampler.samples) == n


# ---------------------------------------------------------------------------
# end to end on a very small problem

def test_traced_pass_reports_every_layer(tmp_path):
    small = Workload(name="small-reg", shape=Shape(3, 10, 12, 6, 4.0),
                     solver_args=("--solver", "fbpd-reg", "--reg", "l1inf", "--blocks", "5",
                                  "--max-iter", "50"),
                     alpha=1.0, reg="l1inf", block_size=5)
    data = write_inputs(small, 0, tmp_path)
    env = run.child_env(os.path.join(REPO, "src"))
    p = run.run_pass(small, env, str(tmp_path), data, None, traced=True)
    assert (p["attempted"], p["failed"]) == (2, 0)
    m = run.layer_metrics(p["traces"])
    assert m["solvers.iters"] == 50 and m["prox.reg.calls"] == 50
    self_s = [m[names[0]] for names in run.LAYERS.values()]
    assert all(v >= 0 for v in self_s)
    assert sum(self_s) == pytest.approx(m["trace.total_s"])


def test_outside_a_checkout_the_benchmark_exits_nonzero(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(REPO, "perfbench", "run.py"),
                           "--workload", "leukemia-con", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_missing_name_leaves_its_layer_out():
    solvers = types.SimpleNamespace(project_simplex_rows=lambda U, r: U)
    mods = {"cli": None, "solvers": solvers, "linop": None, "evaluate": None}
    missing = launch.install_tracer(Tracer(), mods)
    assert ["solvers.prox_regularizer_aug", "prox.reg"] in missing
    assert ["solvers.project_simplex_rows", "prox.simplex"] not in missing
    p = {"total": 1.0, "attempted": 1, "failed": 0, "missing": {("linop._apply_T_aug", "linop.T")},
         "traces": [({"spans": [["cli", 0.0, 0.5, ROOT, None]], "counters": []}, 1.0)]}
    result = run.summarize({False: [p], True: [p]}, traced=True,
                           units=run.metric_units()["per_layer"])
    assert "linop.T.s" not in result["metrics"] and "linop.T.gflops" not in result["metrics"]
    assert result["metrics"]["cli.self_s"]["value"] == 1.0


def test_write_csv_round_trips_exactly(tmp_path):
    X, y = _train_data()
    write_csv(tmp_path / "d.csv", X, y)
    rows = [line.split(",") for line in (tmp_path / "d.csv").read_text().splitlines()]
    assert np.array_equal(np.array([[float(v) for v in r[1:]] for r in rows]), X)
    assert [int(r[0]) - 1 for r in rows] == list(y)
