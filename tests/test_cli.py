import contextlib
import dataclasses
import io
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import RelChanges, windowed_residual_check
from sparsemsvm import cli, linop, solvers
from sparsemsvm.cli import main
from sparsemsvm.data import (load_dense_csv, make_synthetic, save_dense_csv,
                             save_sparse_svmlight, split)
from sparsemsvm.evaluate import evaluate_model
from sparsemsvm.linop import NormEstimate
from sparsemsvm.model import Dataset, ModelVector, RegularizerSpec
from sparsemsvm.persist import PersistedModel, load_model, save_model
from sparsemsvm.solvers import SOLVERS, DivergenceError, SolverConfig


@pytest.fixture(scope="module")
def synthetic_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    pool = make_synthetic(3, 6, 90, separation=6.0, seed=7)
    train, test = split(pool, train_fraction=0.5, seed=1)
    train_p, test_p = base / "train.csv", base / "test.csv"
    save_dense_csv(train_p, train)
    save_dense_csv(test_p, test)
    return str(train_p), str(test_p)


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, rng):
        m = ModelVector(rng.standard_normal((3, 7)), rng.standard_normal(3))
        pm = PersistedModel(model=m, reg_kind="l1inf", block_size=3,
                            solver="fbpd-reg", alpha=0.7, lam=1 / 0.7,
                            iterations=42, converged=True, rel_change=3e-6)
        path = tmp_path / "m.model"
        save_model(path, pm)
        back = load_model(path)
        np.testing.assert_array_equal(back.model.weights, m.weights)
        np.testing.assert_array_equal(back.model.offsets, m.offsets)
        assert back.reg_kind == "l1inf" and back.block_size == 3
        assert back.alpha == 0.7 and back.lam == pm.lam and back.eta is None
        assert back.converged and back.iterations == 42
        spec = back.regularizer_spec()
        assert spec.kind == "l1inf" and spec.blocks.n_groups == 3

    def test_groups_text_round_trip(self, tmp_path):
        m = ModelVector(np.ones((2, 4)), np.zeros(2))
        pm = PersistedModel(model=m, reg_kind="l12", groups_text="1 3;2 4",
                            group_mode="cross-class")
        path = tmp_path / "g.model"
        save_model(path, pm)
        spec = load_model(path).regularizer_spec()
        assert spec.blocks.mode == "cross-class"
        np.testing.assert_array_equal(spec.blocks.groups[0], [0, 2])
        np.testing.assert_array_equal(spec.blocks.groups[1], [1, 3])

    @pytest.mark.parametrize("key", ["classes", "features"])
    def test_missing_dimension_line_is_value_error(self, tmp_path, key):
        path = tmp_path / "m.model"
        save_model(path, PersistedModel(model=ModelVector(np.ones((2, 3)), np.zeros(2)),
                                        reg_kind="l1"))
        lines = [l for l in path.read_text().splitlines() if not l.startswith(key + " ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=key):
            load_model(path)

    def test_unknown_header_key_is_ignored(self, tmp_path):
        path = tmp_path / "m.model"
        pm = PersistedModel(model=ModelVector(np.ones((2, 3)), np.zeros(2)), reg_kind="l1",
                            solver="fbpd-reg", alpha=0.5, lam=2.0, iterations=9)
        save_model(path, pm)
        path.write_text(path.read_text().replace("end-header", "stop_reason tol\nend-header"))
        back = load_model(path)
        np.testing.assert_array_equal(back.model.augmented(), pm.model.augmented())
        back.model = pm.model
        assert back == pm

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.model"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            load_model(path)


class TestTrain:
    def test_separable_reaches_zero_train_errors(self, synthetic_files, tmp_path, capsys):
        train_p, _ = synthetic_files
        out = tmp_path / "m.model"
        code = main(["train", "--data", train_p, "--solver", "fbpd-reg",
                     "--reg", "l1", "--alpha", "0.1", "--tol", "1e-7",
                     "--max-iter", "60000", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "train_errors 0" in text
        assert out.exists() and (str(out) + ".report.txt",)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_iter_below_one_is_usage_error(self, synthetic_files, tmp_path, value):
        # a run without iterations used to write the zero start as a model
        train_p, _ = synthetic_files
        out = tmp_path / "z.model"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", train_p, "--solver", "fista-square",
                  "--alpha", "1.0", "--max-iter", value, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unknown_solver_is_usage_error(self, synthetic_files, tmp_path):
        train_p, _ = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", train_p, "--solver", "newton",
                  "--alpha", "1.0", "--out", str(tmp_path / "m")])
        assert exc.value.code == 2

    def test_missing_file_is_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--solver", "fbpd-reg", "--alpha", "1.0",
                     "--out", str(tmp_path / "m")])
        assert code == 1

    def test_divergence_is_error_line(self, synthetic_files, tmp_path, capsys,
                                      monkeypatch):
        # an operator norm far below the true one makes the step diverge
        monkeypatch.setattr(solvers, "operator_norm",
                            lambda dataset: NormEstimate(1e-8, True, 1))
        train_p, _ = synthetic_files
        code = main(["train", "--data", train_p, "--solver", "fista-square",
                     "--alpha", "1.0", "--out", str(tmp_path / "d.model")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: diverged: ")

    def test_large_start_objective_is_not_divergence(self, tmp_path, capsys):
        # lam = 1e13 puts lam * loss at the zero start above 1e12; the
        # objective cap is relative to it
        data = tmp_path / "d.csv"
        save_dense_csv(data, make_synthetic(3, 5, 30, separation=5.0, seed=3))
        code = main(["train", "--data", str(data), "--solver", "fista-square",
                     "--alpha", "1e-13", "--out", str(tmp_path / "m.model")])
        assert code == 0
        assert "converged 1" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf", "x"])
    def test_non_positive_alpha_is_usage_error(self, synthetic_files, tmp_path,
                                               capsys, alpha):
        train_p, _ = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", train_p, "--solver", "fbpd-reg",
                  "--alpha", alpha, "--out", str(tmp_path / "m")])
        assert exc.value.code == 2
        assert "alpha must be a finite number > 0" in capsys.readouterr().err

    def test_signed_block_size_is_saved_as_size(self, synthetic_files, tmp_path):
        train_p, _ = synthetic_files
        out = tmp_path / "b.model"
        main(["train", "--data", train_p, "--solver", "fbpd-reg", "--reg", "l12",
              "--blocks", "+2", "--alpha", "1.0", "--max-iter", "10",
              "--out", str(out)])
        header = out.read_text().split("end-header")[0].splitlines()
        assert "block_size 2" in header
        assert not any(l.startswith("groups ") for l in header)

    def test_constrained_solver_eta_convention(self, synthetic_files, tmp_path):
        # eta = alpha * L for the constrained formulation
        train_p, _ = synthetic_files
        out = tmp_path / "c.model"
        main(["train", "--data", train_p, "--solver", "fbpd-con",
              "--alpha", "0.5", "--max-iter", "3000", "--out", str(out)])
        pm = load_model(out)
        assert pm.eta == 0.5 * 45
        assert pm.lam is None

    def test_standardize_writes_sidecar(self, synthetic_files, tmp_path):
        train_p, _ = synthetic_files
        out = tmp_path / "s.model"
        main(["train", "--data", train_p, "--solver", "fb-logit",
              "--alpha", "1.0", "--max-iter", "500", "--standardize",
              "--out", str(out)])
        assert (tmp_path / "s.model.stats").exists()


class TestEval:
    def test_zero_model_error_rate_balanced(self, synthetic_files, tmp_path, capsys):
        train_p, test_p = synthetic_files
        out = tmp_path / "z.model"
        # one fbpd-reg iteration from the zero dual leaves x at zero
        main(["train", "--data", train_p, "--solver", "fbpd-reg",
              "--alpha", "1.0", "--max-iter", "1", "--out", str(out)])
        assert np.all(load_model(out).model.augmented() == 0.0)
        capsys.readouterr()
        code = main(["eval", "--model", str(out), "--data", test_p,
                     "--emit", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("errors,")
        errors, rate = lines[1].split(",")[:2]
        # zero model predicts class 1; the test split is balanced over 3 classes
        assert abs(float(rate) - 2 / 3) < 0.02
        assert int(errors) == round(float(rate) * 45)

    def test_train_report_matches_eval_on_train_set(self, synthetic_files, tmp_path, capsys):
        train_p, _ = synthetic_files
        out = tmp_path / "m.model"
        main(["train", "--data", train_p, "--solver", "fista-square",
              "--alpha", "0.5", "--tol", "1e-8", "--max-iter", "20000",
              "--out", str(out)])
        train_text = capsys.readouterr().out
        hinge_line = next(l for l in train_text.splitlines() if l.startswith("hinge_sum"))
        code = main(["eval", "--model", str(out), "--data", train_p])
        assert code == 0
        eval_text = capsys.readouterr().out
        hinge_eval = next(l for l in eval_text.splitlines() if l.startswith("hinge_sum"))
        assert hinge_line.split()[1] == hinge_eval.split()[1]

    def test_model_without_classes_is_error_line(self, synthetic_files, tmp_path, capsys):
        train_p, _ = synthetic_files
        out = tmp_path / "m.model"
        main(["train", "--data", train_p, "--solver", "fbpd-reg",
              "--alpha", "1.0", "--max-iter", "1", "--out", str(out)])
        out.write_text("".join(l for l in out.read_text().splitlines(keepends=True)
                               if not l.startswith("classes ")))
        capsys.readouterr()
        assert main(["eval", "--model", str(out), "--data", train_p]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "classes" in err

    def test_missing_model_file(self, synthetic_files):
        _, test_p = synthetic_files
        assert main(["eval", "--model", "/nonexistent.model", "--data", test_p]) == 1


class TestSweep:
    def test_single_point_reduces_to_train_eval(self, synthetic_files, tmp_path, capsys):
        train_p, test_p = synthetic_files
        code = main(["sweep", "--data", train_p, "--test", test_p,
                     "--solver", "fista-square", "--alphas", "0.5",
                     "--tol", "1e-8", "--max-iter", "20000",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        sweep_lines = capsys.readouterr().out.strip().splitlines()
        assert len(sweep_lines) == 2

        # manual replication
        train = load_dense_csv(train_p)
        test = load_dense_csv(test_p)
        rep = SOLVERS["fista-square"](train, RegularizerSpec("l1"),
                                      SolverConfig(lam=2.0, rel_tol=1e-8,
                                                   max_iter=20000))
        ev = evaluate_model(rep.model, test, RegularizerSpec("l1"), lam=2.0)
        cells = sweep_lines[1].split(",")
        assert int(float(cells[1])) == ev.error_count
        assert int(float(cells[3])) == int(ev.nonzeros_per_class.sum())

    def test_row_count_matches_grid(self, synthetic_files, tmp_path, capsys):
        train_p, test_p = synthetic_files
        main(["sweep", "--data", train_p, "--test", test_p,
              "--solver", "fista-square", "--alphas", "0.1,1,10",
              "--max-iter", "2000", "--out", str(tmp_path / "s.csv")])
        lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "alpha,mean_errors,mean_error_rate,mean_nonzeros"

    def test_averaging_matches_manual_runs(self, synthetic_files, tmp_path, capsys):
        train_p, _ = synthetic_files
        main(["sweep", "--data", train_p, "--solver", "fista-square",
              "--alphas", "1.0", "--repeats", "2", "--train-per-class", "8",
              "--tol", "1e-7", "--max-iter", "10000", "--seed", "3",
              "--out", str(tmp_path / "s.csv")])
        capsys.readouterr()
        row = (tmp_path / "s.csv").read_text().strip().splitlines()[1]
        mean_errors = float(row.split(",")[1])

        pool = load_dense_csv(train_p)
        errs = []
        for rep_i in range(2):
            tr, te = split(pool, per_class=8, seed=3 + rep_i)
            rep = SOLVERS["fista-square"](tr, RegularizerSpec("l1"),
                                          SolverConfig(lam=1.0, rel_tol=1e-7,
                                                       max_iter=10000))
            errs.append(evaluate_model(rep.model, te, RegularizerSpec("l1"),
                                       lam=1.0).error_count)
        assert mean_errors == pytest.approx(np.mean(errs))


    def test_diverged_alpha_keeps_other_rows(self, synthetic_files, tmp_path,
                                             capsys, monkeypatch):
        solve = SOLVERS["fista-square"]

        def diverge_at_lam_2(dataset, spec, cfg, callback=None):
            if cfg.lam == 2.0:
                raise DivergenceError("diverged: objective=inf")
            return solve(dataset, spec, cfg, callback)

        monkeypatch.setitem(cli.SOLVERS, "fista-square", diverge_at_lam_2)
        train_p, test_p = synthetic_files
        out = tmp_path / "s.csv"
        code = main(["sweep", "--data", train_p, "--test", test_p,
                     "--solver", "fista-square", "--alphas", "0.1,0.5,10",
                     "--repeats", "2", "--max-iter", "2000", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: diverged at alpha 0.5: objective=inf\n"
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.10000000000000001", "0.5", "10"]
        assert rows[1][1:] == ["nan", "nan", "nan"]
        assert all(c != "nan" for r in (rows[0], rows[2]) for c in r)

    def test_zero_alpha_is_usage_error(self, synthetic_files, capsys):
        train_p, test_p = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", train_p, "--test", test_p,
                  "--solver", "fista-square", "--alphas", "1,0"])
        assert exc.value.code == 2
        assert "alpha must be a finite number > 0, got '0'" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "two"])
    def test_repeats_below_one_is_usage_error(self, synthetic_files, capsys, value):
        train_p, test_p = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", train_p, "--test", test_p,
                  "--solver", "fista-square", "--alphas", "1", "--repeats", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"repeats must be an integer >= 1, got {value!r}" in captured.err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_train_per_class_below_one_is_usage_error(self, synthetic_files, capsys, value):
        train_p, _ = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", train_p, "--solver", "fista-square", "--alphas", "1",
                  "--train-per-class", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"train-per-class must be an integer >= 1, got {value!r}" in captured.err


class TestBench:
    def test_distance_curve_and_determinism(self, synthetic_files, tmp_path, capsys):
        train_p, _ = synthetic_files
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        args = ["bench", "--data", train_p, "--solvers", "fbpd-reg,fista-square",
                "--reg", "l2sq", "--alpha", "0.5", "--tol", "1e-5",
                "--max-iter", "6000"]
        assert main(args + ["--out", str(out1)]) == 0
        capsys.readouterr()
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

        lines = out1.read_text().strip().splitlines()[1:]
        for name in ("fbpd-reg", "fista-square"):
            dists = np.array([float(l.split(",")[2]) for l in lines
                              if l.startswith(name)])
            assert len(dists) >= 2
            assert dists[-1] <= dists[0]

        # the monotone-window residual check from the solver invariants,
        # applied to the benchmarked configuration (the bench run is
        # deterministic, so a re-run watched by a callback retraces it)
        train = load_dense_csv(train_p)
        rels = RelChanges()
        rep = SOLVERS["fbpd-reg"](train, RegularizerSpec("l2sq"),
                                  SolverConfig(lam=2.0, rel_tol=1e-5,
                                               max_iter=6000),
                                  callback=rels)
        n_rows = sum(1 for l in lines if l.startswith("fbpd-reg"))
        assert rep.iterations == n_rows  # identical iterate counts
        assert windowed_residual_check(rels.values)


    def test_zero_alpha_is_usage_error(self, synthetic_files, capsys):
        train_p, _ = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", train_p, "--alpha", "0"])
        assert exc.value.code == 2
        assert "alpha must be a finite number > 0" in capsys.readouterr().err


# each command that takes the option, as (command, the rest of a valid
# argument list); the option under test is appended to it
def _commands(train_p, test_p, tmp_path):
    model = str(tmp_path / "m.model")
    return {
        "train": ["train", "--data", train_p, "--solver", "fbpd-reg", "--alpha", "1",
                  "--out", model],
        "eval": ["eval", "--model", model, "--data", test_p],
        "sweep": ["sweep", "--data", train_p, "--test", test_p, "--solver", "fbpd-reg",
                  "--alphas", "1"],
        "bench": ["bench", "--data", train_p, "--solvers", "fbpd-reg", "--alpha", "1"],
    }


@pytest.mark.parametrize("option, commands, values, message", [
    ("--tol", ("train", "sweep", "bench"), ["nan", "-1", "inf", "0", "tight"],
     "tol must be a finite number > 0"),
    ("--max-iter", ("train", "sweep", "bench"), ["0", "-3", "1e4"],
     "max-iter must be an integer >= 1"),
    ("--threshold", ("train", "eval", "sweep"), ["-1", "nan", "inf"],
     "threshold must be a finite number >= 0"),
    ("--ref-tol-factor", ("bench",), ["0", "-1", "inf"],
     "ref-tol-factor must be a finite number > 0"),
    ("--seed", ("sweep",), ["-1", "x", "1.5"],
     "seed must be an integer >= 0"),
    ("--alphas", ("sweep",), [",", ""], "alphas must name at least one entry"),
    ("--solvers", ("bench",), [",", "", "fbpd-reg,foo"],
     "solvers must name one or more of fb-logit, fbpd-con, fbpd-reg, fista-square, one-vs-all"),
])
def test_bad_option_value_is_usage_error(synthetic_files, tmp_path, capsys,
                                         option, commands, values, message):
    train_p, test_p = synthetic_files
    argvs = _commands(train_p, test_p, tmp_path)
    for command in commands:
        for value in values:
            with pytest.raises(SystemExit) as exc:
                main(argvs[command] + [option, value])
            assert exc.value.code == 2, (command, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{message}, got {value!r}" in captured.err
    assert not (tmp_path / "m.model").exists()


@pytest.mark.parametrize("command", ["train", "bench"])
def test_seed_is_a_sweep_option(synthetic_files, tmp_path, capsys, command):
    # only sweep draws random splits; train and bench have no --seed
    train_p, test_p = synthetic_files
    with pytest.raises(SystemExit) as exc:
        main(_commands(train_p, test_p, tmp_path)[command] + ["--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_unconverged_norm_is_error_line(synthetic_files, tmp_path, capsys, monkeypatch):
    # Grams kept off the exact path, and a Lanczos run that gives up after
    # five products in all
    def eigsh(operator, v0, **_):
        for _ in range(4):
            operator.matvec(v0)
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), None)

    monkeypatch.setattr(linop, "EXACT_GRAM_MAX_SIDE", 0)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
    train_p, test_p = synthetic_files
    argvs = _commands(train_p, test_p, tmp_path)
    out = str(tmp_path / "o")
    one_vs_all = [a if a != "fbpd-reg" else "one-vs-all" for a in argvs["train"]]
    for argv in (argvs["train"], one_vs_all, argvs["sweep"] + ["--out", out],
                 argvs["bench"] + ["--out", out]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the operator-norm estimate did not converge "
                                "in 5 Lanczos products\n")
    assert not (tmp_path / "m.model").exists() and not (tmp_path / "o").exists()


def test_a_zero_operator_above_the_exact_limit_trains(tmp_path, capsys):
    # one class makes T zero; both of its Grams have side over 400
    rng = np.random.default_rng(0)
    data, model = tmp_path / "one.csv", tmp_path / "m.model"
    save_dense_csv(data, Dataset.from_arrays(rng.standard_normal((401, 400)),
                                             np.zeros(401, dtype=int), n_classes=1))
    assert main(["train", "--data", str(data), "--solver", "fbpd-reg", "--alpha", "1",
                 "--max-iter", "50", "--out", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "objective 0\n" in captured.out
    assert not load_model(model).model.weights.any()


def test_the_wide_shape_with_close_top_eigenvalues_trains(tmp_path, monkeypatch, capsys):
    # the two largest eigenvalues of T^T T lie 0.26 % apart on this valid
    # input (K=20, M=L=2000), too close for a 1000-step power iteration; the
    # data are handed to `train` directly, as their CSV would be about 80 MB
    wide = make_synthetic(20, 2000, 2000, seed=1)
    monkeypatch.setattr(cli, "_load_dataset", lambda path, fmt: wide)
    model = tmp_path / "m.model"
    assert main(["train", "--data", "wide.csv", "--solver", "fbpd-reg", "--alpha", "1",
                 "--max-iter", "3", "--out", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "" and "iterations 3\n" in captured.out
    assert load_model(model).model.weights.shape == (20, 2000)


def test_out_of_memory_is_error_line(tmp_path, capsys):
    # K = 10^15 classes: the first array of K rows cannot be allocated, so
    # the failure is immediate and no memory is touched
    data = tmp_path / "huge.csv"
    data.write_text("1000000000000000,0.5,1.0\n1,0.25,2.0\n")
    model = tmp_path / "m.model"
    assert main(["train", "--data", str(data), "--solver", "fbpd-reg", "--alpha", "1",
                 "--out", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not model.exists()


def test_zero_threshold_counts_every_nonzero(synthetic_files, tmp_path, capsys):
    train_p, _ = synthetic_files
    out = tmp_path / "m.model"
    assert main(["train", "--data", train_p, "--solver", "fbpd-reg", "--alpha", "1",
                 "--max-iter", "50", "--threshold", "0", "--out", str(out)]) == 2
    weights = load_model(out).model.weights
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("nonzeros "))
    assert line == "nonzeros " + "+".join(str(int(c)) for c in (weights != 0).sum(axis=1))


def test_sweep_byte_determinism(synthetic_files, tmp_path, capsys):
    train_p, test_p = synthetic_files
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--data", train_p, "--test", test_p, "--solver", "fbpd-reg",
            "--alphas", "0.5,2", "--repeats", "2", "--train-per-class", "6",
            "--max-iter", "3000", "--seed", "5"]
    main(args + ["--out", str(out1)])
    capsys.readouterr()
    main(args + ["--out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# scipy is imported only for sparse data

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code, tmp_path):
    """Run `code` in a new interpreter with the package on its path and
    `tmp_path` as sys.argv[1]; return its last line of standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_dense_train_and_eval_never_import_scipy(tmp_path):
    code = """
import sys
from sparsemsvm import cli
from sparsemsvm.data import make_synthetic, save_dense_csv
d = sys.argv[1]
save_dense_csv(d + "/train.csv", make_synthetic(3, 40, 24, seed=0))
codes = [cli.main(["train", "--data", d + "/train.csv", "--solver", "fbpd-con",
                   "--alpha", "0.1", "--max-iter", "200", "--standardize",
                   "--out", d + "/m.model"]),
         cli.main(["eval", "--model", d + "/m.model", "--data", d + "/train.csv"])]
print(codes, "scipy.sparse" in sys.modules)
"""
    assert _fresh_python(code, tmp_path) == "[2, 0] False"


def test_norms_at_the_exact_limit_never_import_scipy(tmp_path):
    # both Grams of T have side 400 (L*K and K*(M+1)), the limit, and those
    # of [F, 1] under one-vs-all side 40: exact norms, which need no scipy
    code = """
import sys
from sparsemsvm import cli
from sparsemsvm.data import make_synthetic, save_dense_csv
d = sys.argv[1]
save_dense_csv(d + "/train.csv", make_synthetic(10, 39, 40, seed=0))
codes = [cli.main(["train", "--data", d + "/train.csv", "--solver", solver, "--alpha", "1",
                   "--max-iter", "20", "--out", d + "/m.model"])
         for solver in ("fbpd-reg", "one-vs-all")]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(code, tmp_path) == "[2, 2] []"


SPARSE_IN_A_FRESH_PROCESS = {
    "svmlight": r"""
import sys
from sparsemsvm import cli
d = sys.argv[1]
with open(d + "/train.txt", "w") as fh:
    fh.write("1 1:1.5 3:0.5\n2 2:2.0\n3 3:-1.0 4:0.25\n1 1:1.0\n2 2:1.0 4:-0.5\n3 3:-2.0\n")
codes = [cli.main(["train", "--data", d + "/train.txt", "--format", "svmlight",
                   "--solver", "fbpd-reg", "--alpha", "1", "--max-iter", "50",
                   "--out", d + "/m.model"]),
         cli.main(["eval", "--model", d + "/m.model", "--data", d + "/train.txt",
                   "--format", "svmlight"])]
print(codes)
""",
    "standardize": """
import numpy as np
import scipy.sparse as sp
from sparsemsvm.data import make_synthetic, standardize
from sparsemsvm.model import Dataset
ds = make_synthetic(3, 6, 20, seed=2)
X = ds.dense_features().copy()
X[np.abs(X) < 0.8] = 0.0
scaled, stats = standardize(Dataset(sp.csr_matrix(X), ds.labels, ds.n_classes, ds.margins))
print(sp.issparse(scaled.features),
      np.allclose(scaled.dense_features(), X / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)))
""",
    "dataset": """
import numpy as np
import scipy.sparse as sp
from sparsemsvm.model import Dataset
ds = Dataset.from_arrays(sp.coo_matrix(np.array([[0.0, 2.0], [1.0, 0.0]])), [1, 2], one_based=True)
print(ds.features.format, ds.features.dtype, ds.dense_features().tolist())
""",
}


@pytest.mark.parametrize("case, expected", [
    ("svmlight", "[2, 0]"),
    ("standardize", "True True"),
    ("dataset", "csr float64 [[0.0, 2.0], [1.0, 0.0]]"),
])
def test_sparse_inputs_work_in_a_fresh_process(tmp_path, case, expected):
    assert _fresh_python(SPARSE_IN_A_FRESH_PROCESS[case], tmp_path) == expected


# ---------------------------------------------------------------------------
# fuzzing the CSV reader through `train`

def _small_labels(content, largest=20):
    """False when a line's label parses to an integer above `largest` that
    fits int64: such a file is valid, and training on that many classes
    only costs time. A label beyond int64 is a data error."""
    try:
        lines = content.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return True
    for line in lines:
        try:
            if largest < int(line.strip().split(",")[0]) < 2 ** 63:
                return False
        except ValueError:
            pass
    return True


def _train_on(content):
    """(exit code, stderr) of `train` on a CSV file holding `content`."""
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "x.csv")
        with open(data, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["train", "--data", data, "--solver", "fbpd-reg", "--alpha", "1",
                         "--max-iter", "3", "--out", os.path.join(tmp, "m.model")])
        return code, err.getvalue().replace(data, "x.csv")


CELL = st.one_of(
    st.sampled_from(["1", "2", "0.5", "-3e-2", "nan", "99999999999999999999999"]),
    st.text(st.sampled_from(list("0123456789.-+eE_xnaifINF \t\x00") + ["\u0661", "\xe9"]),
            max_size=6))
CSV_TEXT = st.lists(st.lists(CELL, min_size=1, max_size=5), max_size=5).map(
    lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8"))


@given(st.one_of(st.binary(max_size=120), CSV_TEXT))
@settings(max_examples=300, deadline=None)
def test_fuzzed_csv_ends_in_a_result_or_one_error_line(content):
    assume(_small_labels(content))
    code, err = _train_on(content)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        # a file that happens to be valid trains; 3 iterations do not converge
        assert code in (0, 2) and err == ""


def _rejects(parse, token):
    try:
        parse(token)
    except ValueError:
        return True
    return False


PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=","),
                    max_size=6)


@given(rows=st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                     min_size=2, max_size=5),
       blank=st.integers(0, 2), where=st.data(),
       defect=st.sampled_from(["cell", "non-finite", "ragged", "label", "label<1"]))
@settings(max_examples=200, deadline=None)
def test_a_bad_row_is_one_error_line_naming_its_line(rows, blank, where, defect):
    r = where.draw(st.integers(1, len(rows) - 1))
    lines = [[str(i % 3 + 1)] + [format(v, ".17g") for v in row] for i, row in enumerate(rows)]
    if defect == "cell":
        lines[r][where.draw(st.integers(1, 3))] = where.draw(
            PRINTABLE.filter(lambda t: _rejects(float, t)))
    elif defect == "non-finite":
        lines[r][where.draw(st.integers(1, 3))] = where.draw(
            st.sampled_from(["nan", "-inf", "Infinity", "1e999"]))
    elif defect == "ragged":
        del lines[r][-1]
    elif defect == "label":
        lines[r][0] = where.draw(PRINTABLE.filter(lambda t: _rejects(int, t)))
    else:
        lines[r][0] = where.draw(st.sampled_from(["0", "-1", "-12"]))
    text = "\n" * blank + "\n".join(",".join(cells) for cells in lines) + "\n"
    code, err = _train_on(text.encode("ascii"))
    assert code == 1
    assert err.startswith(f"error: x.csv:{blank + r + 1}: ") and err.count("\n") == 1, err


def _undecodable_at(path, line):
    """Put a 0xff byte, never valid UTF-8, at the start of line `line`."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("line", [1, 2])
@pytest.mark.parametrize("reader", ["csv", "svmlight", "stats", "model", "blocks"])
def test_an_undecodable_byte_is_one_error_line_naming_its_line(
        synthetic_files, tmp_path, capsys, reader, line):
    train_p, _ = synthetic_files
    data, model = tmp_path / "train.csv", tmp_path / "m.model"
    data.write_bytes(pathlib.Path(train_p).read_bytes())
    train = ["train", "--data", str(data), "--solver", "fbpd-reg", "--alpha", "1",
             "--max-iter", "2", "--out", str(model)]
    evaluate = ["eval", "--model", str(model), "--data", str(data)]
    if reader == "svmlight":
        save_sparse_svmlight(tmp_path / "train.svm", load_dense_csv(data))
        bad, command = tmp_path / "train.svm", train + ["--format", "svmlight"]
        command[2] = str(bad)
    elif reader == "blocks":
        bad = tmp_path / "groups.txt"
        bad.write_text("1 2 3\n4 5 6\n")
        command = train + ["--reg", "l12", "--blocks", str(bad)]
    elif reader in ("stats", "model"):
        main(train + ["--standardize"])
        bad = model if reader == "model" else pathlib.Path(str(model) + ".stats")
        command = evaluate
    else:
        bad, command = data, train
    _undecodable_at(bad, line)
    capsys.readouterr()
    assert main(command) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}:{line}: byte 0xff is not UTF-8 text\n"


# ---------------------------------------------------------------------------
# the model reader's header, and fuzzing it through `eval`

@pytest.fixture(scope="module")
def grouped_model(synthetic_files, tmp_path_factory):
    """The lines of an l1inf model over the groups 1 2 3;4 5 6 of the six
    features, and the data to evaluate it on."""
    train_p, _ = synthetic_files
    base = tmp_path_factory.mktemp("grouped")
    groups, model = base / "groups.txt", base / "m.model"
    groups.write_text("1 2 3\n4 5 6\n")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["train", "--data", train_p, "--solver", "fbpd-reg", "--reg", "l1inf",
              "--blocks", str(groups), "--alpha", "1", "--max-iter", "200",
              "--out", str(model)])
    lines = model.read_text().splitlines()
    assert "groups 1 2 3;4 5 6" in lines
    return lines, train_p


def _with_header(lines, key, value):
    """`lines` with the groups line dropped and `key value` put in its
    place (or in that of the line with `key`, if there is one)."""
    out = [l for l in lines if not l.startswith("groups ")]
    at = next((i for i, l in enumerate(out) if l.startswith(key + " ")), None)
    if at is None:
        out.insert(out.index("end-header"), f"{key} {value}")
    else:
        out[at] = f"{key} {value}"
    return out


def _eval_on(lines, data):
    """(exit code, stderr) of `eval` on a model file holding `lines`, the
    model's path in stderr read as m.model."""
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "m.model")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--model", model, "--data", data])
        return code, err.getvalue().replace(model, "m.model")


@pytest.mark.parametrize("key, value, message", [
    ("groups", "1 2 3;4 5 99", "group 2 holds feature index 99, outside 1..6"),
    ("groups", "1 2 3;4 5 6 0", "group 2 holds feature index 0, outside 1..6"),
    ("groups", "0 1 2 3;4 5 6", "group 1 holds feature index 0, outside 1..6"),
    ("groups", "1 1 2;3 4 5 6", "groups must partition the feature indices exactly"),
    ("groups", "1 2 3;4 5", "groups must partition the feature indices exactly"),
    ("groups", "1 2 3;;4 5 6", "group 2 is empty"),
    ("groups", "1 2 3;4 5 6;", "group 3 is empty"),
    ("groups", "1 2 3;4 5 six", "invalid literal for int() with base 10: 'six'"),
    ("groups", "1 2 3;4 5 " + "9" * 30, "group 2 holds feature index 9"),
    ("block_size", "0", "block size must be at least 1"),
    ("block_size", "-2", "block size must be at least 1"),
    ("block_size", "1.5", "invalid literal for int() with base 10: '1.5'"),
    ("group_mode", "diagonal", "unknown group mode 'diagonal'"),
    ("regularizer", "l0", "unknown regularizer 'l0'"),
    ("lam", "half", "could not convert string to float: 'half'"),
    ("lam", "nan", "lam must be finite and > 0, got 'nan'"),
    ("lam", "0", "lam must be finite and > 0, got '0'"),
    ("alpha", "inf", "alpha must be finite and > 0, got 'inf'"),
    ("alpha", "1e999", "alpha must be finite and > 0, got '1e999'"),
    ("eta", "-2", "eta must be finite and > 0, got '-2'"),
])
def test_a_bad_model_header_is_one_error_line_naming_the_file(grouped_model, key, value,
                                                                 message):
    lines, data = grouped_model
    code, err = _eval_on(_with_header(lines, key, value), data)
    assert code == 1
    assert err.startswith(f"error: m.model: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, value", [
    ("groups", "4 5 6;1 2 3"), ("groups", "1 3 5;2;4 6"), ("block_size", "4"),
])
def test_a_good_group_header_evaluates(grouped_model, key, value):
    lines, data = grouped_model
    code, err = _eval_on(_with_header(lines, key, value), data)
    assert (code, err) == (0, "")


def _body(lines):
    """The index of the first row of the parameter block in `lines`."""
    return lines.index("end-header") + 1


@pytest.mark.parametrize("defect, message", [
    ("extra row", "parameter block has more than the 3 class rows of its header"),
    ("classes 2", "parameter block has more than the 2 class rows of its header"),
    ("nan", "parameter block holds a non-finite weight or offset"),
    ("-inf", "parameter block holds a non-finite weight or offset"),
    ("1e999", "parameter block holds a non-finite weight or offset"),
    ("short row", "malformed parameter block"),
    ("missing row", "malformed parameter block"),
])
def test_a_bad_parameter_block_is_one_error_line_naming_the_file(grouped_model, defect,
                                                                 message):
    lines, data = grouped_model
    lines, body = list(lines), _body(lines)
    if defect == "extra row":
        lines.append(lines[body])
    elif defect == "classes 2":
        lines[lines.index("classes 3")] = "classes 2"
    elif defect == "short row":
        lines[body + 1] = lines[body + 1].rsplit(" ", 1)[0]
    elif defect == "missing row":
        del lines[-1]
    else:
        cells = lines[body + 2].split()
        cells[3] = defect
        lines[body + 2] = " ".join(cells)
    code, err = _eval_on(lines, data)
    assert code == 1
    assert err == f"error: m.model: {message}\n", err


def test_blank_lines_after_the_parameter_block_evaluate(grouped_model):
    lines, data = grouped_model
    code, err = _eval_on(list(lines) + ["", "  \t"], data)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("text, message", [
    ("1 2 3\n4 5 99\n", "group 2 holds feature index 99, outside 1..6"),
    ("1 1 2\n3 4 5 6\n", "groups must partition the feature indices exactly"),
    ("1 2 3\n4 5 x\n", "invalid literal for int() with base 10: 'x'"),
])
def test_a_bad_blocks_file_is_one_error_line_naming_it(synthetic_files, tmp_path, capsys,
                                                       text, message):
    train_p, _ = synthetic_files
    groups = tmp_path / "groups.txt"
    groups.write_text(text)
    code = main(["train", "--data", train_p, "--solver", "fbpd-reg", "--reg", "l12",
                 "--blocks", str(groups), "--alpha", "1", "--out", str(tmp_path / "m")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {groups}: {message}\n"


HEADER_KEYS = ["classes", "features", "regularizer", "block_size", "groups", "group_mode",
               "solver", "alpha", "lam", "eta", "iterations", "converged", "rel_change"]
GROUP_TEXT = st.lists(st.lists(st.integers(-2, 9), max_size=4), max_size=4).map(
    lambda groups: ";".join(" ".join(map(str, g)) for g in groups))
HEADER_VALUE = st.one_of(
    GROUP_TEXT,
    st.sampled_from(["0", "1", "2", "3", "4", "6", "7", "-1", "1.5", "nan", "inf", "",
                     "l1", "l12", "l1inf", "l2sq", "per-class", "cross-class",
                     "9" * 30, "1e999"]),
    st.text(st.sampled_from(list("0123456789 ;-+.exn_")), max_size=8))


@given(edits=st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert"]),
                                st.sampled_from(HEADER_KEYS), HEADER_VALUE,
                                st.integers(0, 20)),
                      min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_fuzzed_model_header_ends_in_a_result_or_one_error_line(grouped_model, edits):
    lines, data = grouped_model
    lines = list(lines)
    for op, key, value, where in edits:
        header = lines[1:lines.index("end-header")]
        at = [i for i, l in enumerate(lines) if l.startswith(key + " ")]
        if op == "insert" or not at:
            lines.insert(1 + where % (len(header) + 1), f"{key} {value}")
        elif op == "replace":
            lines[at[0]] = f"{key} {value}"
        else:
            del lines[at[0]]
    code, err = _eval_on(lines, data)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0 and err == "", err


CELL_VALUE = st.one_of(
    st.sampled_from(["0", "1", "-2.5", "1e-320", "1e300", "nan", "inf", "-inf", "1e999",
                     "", "x", "1,5", "0x10", "1_0", "9" * 30]),
    st.text(st.sampled_from(list("0123456789.-+eEnaif_ ")), max_size=6))


@given(edits=st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert", "copy row",
                                                 "drop row", "append"]),
                                st.integers(0, 20), st.integers(0, 20), CELL_VALUE),
                      min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_fuzzed_parameter_block_ends_in_a_result_or_one_error_line(grouped_model, edits):
    lines, data = grouped_model
    lines, body = list(lines), _body(lines)
    for op, row, cell, value in edits:
        rows = len(lines) - body
        if op == "append":
            lines.append(value)
            continue
        if not rows:
            continue
        at = body + row % rows
        if op == "copy row":
            lines.insert(at, lines[at])
        elif op == "drop row":
            del lines[at]
        else:
            cells = lines[at].split(" ")
            i = cell % (len(cells) + (op == "insert"))
            if op == "insert":
                cells.insert(i, value)
            elif op == "replace":
                cells[i] = value
            else:
                del cells[i]
            lines[at] = " ".join(cells)
    code, err = _eval_on(lines, data)
    if code == 1:
        assert err.startswith("error: m.model: ") and err.count("\n") == 1, err
    else:
        assert code == 0 and err == "", err


# ---------------------------------------------------------------------------
# fuzzing the svmlight reader through `train --format svmlight`

def _small_svmlight(content, largest_label=20, largest_index=50):
    """False when a line's label or a feature index parses to an integer
    above its bound: such a file is valid, and training on that many
    classes or features only costs time and memory."""
    try:
        lines = content.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return True
    for line in lines:
        tokens = line.split("#", 1)[0].split()
        for i, token in enumerate(tokens):
            parts = token.split(":") if i else [token]
            try:
                if len(parts) == (2 if i else 1) and \
                        int(parts[0]) > (largest_index if i else largest_label):
                    return False
            except ValueError:
                pass
    return True


SVM_TOKEN = st.one_of(
    st.builds("{}:{}".format, st.integers(-1, 8), CELL),
    st.text(st.sampled_from(list("0123456789:.-+eEnaif_# ")), max_size=6))
# a row's features: in increasing index order, as a valid file holds them,
# or any tokens
SVM_FEATURES = st.one_of(
    st.lists(st.tuples(st.integers(1, 8), CELL), unique_by=lambda p: p[0], max_size=4).map(
        lambda pairs: [f"{i}:{v}" for i, v in sorted(pairs)]),
    st.lists(SVM_TOKEN, max_size=4))
SVM_TEXT = st.lists(st.tuples(st.sampled_from(["1", "2", "3"] * 3 + ["0", "-1", "x", ""]),
                              SVM_FEATURES), max_size=5).map(
    lambda rows: "\n".join(" ".join([label] + tokens) for label, tokens in rows).encode("utf-8"))


@given(st.one_of(st.binary(max_size=120), SVM_TEXT))
@settings(max_examples=300, deadline=None)
def test_fuzzed_svmlight_ends_in_a_result_or_one_error_line(content):
    assume(_small_svmlight(content))
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "x.svm")
        with open(data, "wb") as fh:
            fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--data", data, "--format", "svmlight", "--solver",
                         "fbpd-reg", "--alpha", "1", "--max-iter", "3",
                         "--out", os.path.join(tmp, "m.model")])
        err = err.getvalue()
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        # a file that happens to be valid trains; 3 iterations do not converge
        assert code in (0, 2) and err == "", err


# ---------------------------------------------------------------------------
# the standardize-stats reader, and fuzzing it through `eval`

@pytest.fixture(scope="module")
def standardized_model(synthetic_files, tmp_path_factory):
    """The model and stats texts of a `--standardize` train, and the data
    to evaluate them on."""
    train_p, _ = synthetic_files
    model = tmp_path_factory.mktemp("standardized") / "m.model"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["train", "--data", train_p, "--solver", "fbpd-reg", "--alpha", "1",
              "--max-iter", "50", "--standardize", "--out", str(model)])
    return model.read_text(), pathlib.Path(str(model) + ".stats").read_text(), train_p


def _eval_with_stats(standardized_model, stats):
    """(exit code, stderr, warnings) of `eval` on the standardized model
    with a stats file holding `stats`, its path in stderr read as m.model.stats."""
    model_text, _, data = standardized_model
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "m.model")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(model_text)
        with open(model + ".stats", "w", encoding="utf-8") as fh:
            fh.write(stats)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--model", model, "--data", data])
        return code, err.getvalue().replace(model, "m.model"), caught


@pytest.mark.parametrize("line, value, message", [
    (1, "nan", "mean nan of feature 2 is not finite"),
    (1, "-inf", "mean -inf of feature 2 is not finite"),
    (1, "abc", "mean 'abc' is not a number"),
    (2, "0", "scale 0.0 of feature 2 is not finite and > 0"),
    (2, "-0.0", "scale -0.0 of feature 2 is not finite and > 0"),
    (2, "-1.5", "scale -1.5 of feature 2 is not finite and > 0"),
    (2, "nan", "scale nan of feature 2 is not finite and > 0"),
    (2, "inf", "scale inf of feature 2 is not finite and > 0"),
    (2, "1e-320", "standardizing feature 2 overflows the float range"),
])
def test_a_bad_stats_value_is_one_error_line_naming_its_line(standardized_model, line, value,
                                                             message):
    lines = standardized_model[1].splitlines()
    tokens = lines[line - 1].split()
    tokens[1] = value
    lines[line - 1] = " ".join(tokens)
    code, err, caught = _eval_with_stats(standardized_model, "\n".join(lines) + "\n")
    where = "m.model.stats" if "overflows" in message else f"m.model.stats:{line}"
    assert (code, err) == (1, f"error: {where}: {message}\n")
    assert caught == []


def test_stats_of_the_wrong_shape_are_one_error_line(standardized_model):
    means, scales = standardized_model[1].splitlines()
    for text, message in [("", "m.model.stats:1: no means"),
                          (f"{means}\n{scales} 1\n", "m.model.stats:2: 7 scales for 6 means"),
                          (f"{means} 0\n{scales} 1\n",
                           "m.model.stats: standardize stats cover 7 features, the data has 6")]:
        assert _eval_with_stats(standardized_model, text)[:2] == (1, f"error: {message}\n")


OVERFLOW = "the hinge sum is not finite: the model's scores on this data overflow"


def test_stats_whose_scores_overflow_are_one_error_line(standardized_model):
    lines = standardized_model[1].splitlines()
    means = lines[0].split()
    means[1] = "1e308"
    lines[0] = " ".join(means)
    code, err, caught = _eval_with_stats(standardized_model, "\n".join(lines) + "\n")
    assert (code, err) == (1, f"error: m.model.stats: {OVERFLOW}\n")
    assert caught == []


def test_huge_weights_whose_scores_overflow_are_one_error_line(tmp_path, capsys):
    data = make_synthetic(3, 6, 30, seed=0)
    save_dense_csv(tmp_path / "big.csv", Dataset(data.dense_features() * 1e9, data.labels,
                                                 data.n_classes, data.margins))
    model = tmp_path / "m.model"
    save_model(model, PersistedModel(model=ModelVector(np.full((3, 6), 1e300), np.zeros(3)),
                                     reg_kind="l1", solver="fbpd-reg", alpha=1.0, lam=1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--model", str(model), "--data", str(tmp_path / "big.csv")])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {OVERFLOW}\n"))
    assert caught == []


@pytest.mark.parametrize("kind, block_size, big", [("l2sq", None, [1e200]),
                                                   ("l12", 2, [1e200]),
                                                   ("l1", None, [1e308, 1e308])])
def test_weights_whose_penalty_overflows_are_one_error_line(tmp_path, capsys, kind, block_size,
                                                            big):
    # finite weights whose g overflows (a square, or a sum): g is computed
    # before the hinge, whose scores would overflow too
    save_dense_csv(tmp_path / "d.csv", make_synthetic(3, 4, 30, seed=0))
    model = str(tmp_path / "m.model")
    assert main(["train", "--data", str(tmp_path / "d.csv"), "--solver", "fbpd-reg",
                 "--alpha", "1", "--max-iter", "50", "--out", model]) == 2
    pm = load_model(model)
    weights = pm.model.weights.copy()
    weights.flat[:len(big)] = big
    save_model(model, dataclasses.replace(pm, model=ModelVector(weights, pm.model.offsets),
                                          reg_kind=kind, block_size=block_size))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--model", model, "--data", str(tmp_path / "d.csv")])
    assert (code, capsys.readouterr()) == (
        1, ("", "error: the regularizer value is not finite: the model's weights overflow it\n"))
    assert caught == []


STATS_VALUE = st.one_of(
    st.sampled_from(["0", "1", "-2.5", "1e-320", "1e-300", "1e300", "-1e308", "nan", "inf",
                     "-inf", "1e999", "", "x", "0x10", "1_0", "9" * 30]),
    st.text(st.sampled_from(list("0123456789.-+eEnaif_ \t")), max_size=6))


@given(edits=st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert", "drop line",
                                                 "append line"]),
                                st.integers(0, 3), st.integers(0, 7), STATS_VALUE),
                      min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_fuzzed_stats_end_in_a_result_or_one_error_line(standardized_model, edits):
    lines = [line.split() for line in standardized_model[1].splitlines()]
    for op, row, col, value in edits:
        if op == "append line":
            lines.append([value])
        elif not lines:
            continue
        elif op == "drop line":
            del lines[row % len(lines)]
        else:
            tokens = lines[row % len(lines)]
            at = col % (len(tokens) + 1)
            if op == "insert" or at == len(tokens):
                tokens.insert(at, value)
            elif op == "replace":
                tokens[at] = value
            else:
                del tokens[at]
    code, err, _ = _eval_with_stats(
        standardized_model, "".join(" ".join(tokens) + "\n" for tokens in lines))
    if code == 1:
        assert err.startswith("error: m.model.stats") and err.count("\n") == 1, err
    else:
        assert code == 0 and err == "", err


# ---------------------------------------------------------------------------
# held-out svmlight files narrower than the training data, and infinite
# hyperparameters from a finite alpha

HELD_OUT_TRAIN = "1 1:1.0 3:0.5\n2 2:1.0\n1 1:0.9\n2 2:1.1 3:0.2\n"


@pytest.fixture
def svmlight_model(tmp_path, capsys):
    train, model = tmp_path / "train.svm", tmp_path / "m.model"
    train.write_text(HELD_OUT_TRAIN)
    assert main(["train", "--data", str(train), "--format", "svmlight", "--solver", "fbpd-reg",
                 "--alpha", "1", "--tol", "1e-3", "--out", str(model)]) == 0
    capsys.readouterr()
    return train, model


def test_a_held_out_svmlight_file_lacking_the_last_feature_evaluates(svmlight_model, capsys):
    train, model = svmlight_model
    test = train.parent / "test.svm"
    test.write_text("1 1:1.0\n2 2:1.0\n")
    assert main(["eval", "--model", str(model), "--data", str(test), "--format", "svmlight"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.startswith("errors 0/2\n")
    # the held-out file scores as the training file would with its third
    # feature zeroed
    padded = train.parent / "padded.svm"
    padded.write_text("1 1:1.0 3:0\n2 2:1.0 3:0\n")
    assert main(["eval", "--model", str(model), "--data", str(padded),
                 "--format", "svmlight"]) == 0
    assert capsys.readouterr().out == out.out


def test_a_sweep_scores_a_narrower_svmlight_test_file(svmlight_model, capsys):
    train, _ = svmlight_model
    test = train.parent / "test.svm"
    test.write_text("1 1:1.0\n2 2:1.0\n")
    assert main(["sweep", "--data", str(train), "--test", str(test), "--format", "svmlight",
                 "--solver", "fbpd-reg", "--alphas", "1", "--tol", "1e-3"]) == 0
    out = capsys.readouterr()
    header, row = out.out.splitlines()
    assert out.err == "" and header == "alpha,mean_errors,mean_error_rate,mean_nonzeros"
    assert row.startswith("1,0,0,")


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_a_held_out_index_beyond_the_width_is_the_readers_error(svmlight_model, capsys, command):
    train, model = svmlight_model
    test = train.parent / "wide.svm"
    test.write_text("1 1:1.0\n2 4:1.0\n")
    argv = (["eval", "--model", str(model), "--data", str(test)] if command == "eval" else
            ["sweep", "--data", str(train), "--test", str(test), "--solver", "fbpd-reg",
             "--alphas", "1"])
    assert main(argv + ["--format", "svmlight"]) == 1
    assert capsys.readouterr() == ("", f"error: {test}: index 4 exceeds n_features=3\n")


def _score_held_out(tmp_path, command, fmt, pool, write_test):
    """Train on `pool` written as `fmt`, write the held-out file with
    `write_test(path)` and score it: `eval` of the model or a `sweep`."""
    train, test, model = tmp_path / f"train.{fmt}", tmp_path / f"test.{fmt}", tmp_path / "m.model"
    (save_dense_csv if fmt == "csv" else save_sparse_svmlight)(train, pool)
    write_test(test)
    common = ["--format", fmt, "--solver", "fbpd-reg", "--tol", "1e-3"]
    assert main(["train", "--data", str(train), "--alpha", "1", "--out", str(model)] + common) == 0
    argv = (["eval", "--model", str(model), "--data", str(test), "--format", fmt]
            if command == "eval" else
            ["sweep", "--data", str(train), "--test", str(test), "--alphas", "1"] + common)
    return test, argv


@pytest.mark.parametrize("fmt", ["csv", "svmlight"])
@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_a_held_out_file_lacking_the_highest_class_is_scored(tmp_path, capsys, command, fmt):
    # the held-out file is read at the model's (or the pool's) three
    # classes, not at the two its labels name
    pool = make_synthetic(3, 4, 30, seed=0)
    two = pool.subset(np.flatnonzero(pool.labels < 2))
    save = save_dense_csv if fmt == "csv" else save_sparse_svmlight
    _, argv = _score_held_out(tmp_path, command, fmt, pool, lambda path: save(path, two))
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("errors 0/20\n" if command == "eval" else "alpha,")


@pytest.mark.parametrize("fmt, text", [("csv", "1,0.5,1\n4,1,0\n"), ("svmlight", "1 1:0.5\n4 2:1\n")],
                         ids=["csv", "svmlight"])
@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_a_held_out_label_above_the_classes_names_its_line(tmp_path, capsys, command, fmt, text):
    test, argv = _score_held_out(tmp_path, command, fmt, make_synthetic(3, 2, 30, seed=0),
                                 lambda path: path.write_text(text))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {test}:2: label 4 exceeds n_classes=3\n")


@pytest.mark.parametrize("fmt, text", [("csv", "1,0.5\n99999999999999999999999,1\n"),
                                       ("svmlight", "1 1:0.5\n99999999999999999999999 1:1\n")],
                         ids=["csv", "svmlight"])
def test_a_label_beyond_int64_is_one_error_line_naming_its_line(tmp_path, capsys, fmt, text):
    data = tmp_path / f"d.{fmt}"
    data.write_text(text)
    assert main(["train", "--data", str(data), "--format", fmt, "--solver", "fbpd-reg",
                 "--alpha", "1", "--out", str(tmp_path / "m.model")]) == 1
    assert capsys.readouterr() == (
        "", f"error: {data}:2: label 99999999999999999999999 does not fit a 64-bit integer\n")


def test_an_objective_that_overflows_is_one_error_line(tmp_path, capsys):
    # g = 3 and the hinge sum 6e9 + 2 are finite; lam times the hinge is not
    data, model = tmp_path / "d.csv", tmp_path / "m.model"
    data.write_text("1,1e9,1e9\n1,1e9,1e9\n")
    save_model(model, PersistedModel(model=ModelVector(np.array([[0.0, 0.0], [1.0, 2.0]]),
                                                       np.zeros(2)),
                                     reg_kind="l1", solver="fbpd-reg", alpha=1e-300, lam=1e300))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--model", str(model), "--data", str(data)])
    assert (code, capsys.readouterr()) == (1, (
        "", "error: the objective is not finite: lam 1e+300 times the hinge sum 6000000002.0 "
            "overflows\n"))
    assert caught == []


def test_an_empty_csv_is_one_error_line(tmp_path, capsys):
    data = tmp_path / "e.csv"
    data.write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--solver", "fbpd-reg", "--alpha", "1",
                     "--out", str(tmp_path / "m.model")])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {data}: empty file\n"))
    assert caught == []


@pytest.mark.parametrize("solver, alpha, name", [("fbpd-con", "1e308", "eta"),
                                                 ("fbpd-reg", "1e-320", "lam")])
def test_a_finite_alpha_with_an_infinite_parameter_is_one_error_line(tmp_path, capsys, solver,
                                                                     alpha, name):
    # the error names the option the user set, and for fbpd-con the
    # sample count that multiplies it, never the config field
    data, model = tmp_path / "d.csv", tmp_path / "m.model"
    save_dense_csv(data, make_synthetic(3, 4, 30, seed=0))
    want = {"eta": "error: --alpha 1e+308 times the 30 samples overflows the hinge budget eta\n",
            "lam": "error: --alpha 1e-320 is too small: lam = 1/alpha overflows\n"}[name]
    for argv in (["train", "--alpha", alpha, "--out", str(model)],
                 ["sweep", "--alphas", alpha]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--data", str(data), "--solver", solver])
        assert (code, capsys.readouterr()) == (1, ("", want))
        assert caught == [] and not model.exists()
