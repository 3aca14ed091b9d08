"""End-to-end acceptance suite.

One test per criterion; each prints a single `[criterion N] PASS ...` line
(visible with `pytest tests/test_acceptance.py -s`). The leukemia
reproduction needs the prepared benchmark CSVs (scripts/fetch_leukemia.py)
and skips with instructions when they are absent.
"""

import os
import pathlib
import time

import numpy as np
import pytest

import oracles
from _frozen import SUBGRADIENT_REFERENCES
from conftest import SCRIPTS, load_file, random_dataset, spec_from_record, tiny_dataset
from sparsemsvm.cli import DEFAULT_ALPHAS, _alphas, main
from sparsemsvm.data import load_dense_csv, make_synthetic, save_dense_csv
from sparsemsvm.linop import _apply_T_adjoint_aug, _apply_T_aug, operator_norm
from sparsemsvm.model import (BlockStructure, ModelVector, RegularizerSpec,
                              make_margin_offsets)
from sparsemsvm.prox import (project_epigraph_max_rows, project_halfspace_sum,
                             project_l1_ball_rows, project_simplex_rows,
                             prox_regularizer_aug)
from sparsemsvm.solvers import (SolverConfig, _logistic_loss_grad,
                                _square_loss_grad, solve_constrained_fbpd,
                                solve_regularized_fbpd)

N_PROJ = 1000
N_PROX_INSTANCES = 200
N_COMPETITORS = 1000


def report(n, detail):
    print(f"\n[criterion {n}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. projections against brute-force oracles

def test_criterion_1_projection_oracles():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = {"simplex": 0.0, "l1ball": 0.0, "halfspace": 0.0, "epigraph": 0.0}

    for _ in range(N_PROJ):
        K = int(rng.integers(1, 9))
        u = rng.uniform(-5, 5, K)
        if rng.random() < 0.3:
            u = np.round(u, 1)  # ties
        radius = float(rng.uniform(0.05, 4.0))
        got = project_simplex_rows(u, radius)[0]
        want = oracles.simplex_projection_enum(u, radius)
        worst["simplex"] = max(worst["simplex"], np.max(np.abs(got - want)))

    for _ in range(N_PROJ):
        n = int(rng.integers(1, 9))
        v = rng.uniform(-5, 5, n)
        radius = float(rng.uniform(0.05, 4.0))
        got = project_l1_ball_rows(v, radius)[0]
        want = oracles.l1ball_projection_enum(v, radius)
        worst["l1ball"] = max(worst["l1ball"], np.max(np.abs(got - want)))

    for _ in range(N_PROJ):
        n = int(rng.integers(1, 9))
        z = rng.uniform(-4, 4, n)
        bound = float(rng.uniform(-3, 3))
        got = project_halfspace_sum(z, bound)
        want = oracles.halfspace_projection_qp(z, bound)
        worst["halfspace"] = max(worst["halfspace"], np.max(np.abs(got - want)))

    for _ in range(N_PROJ):
        K = int(rng.integers(1, 9))
        y = rng.uniform(-4, 4, K)
        r = rng.uniform(0, 2, K)
        zeta = float(rng.uniform(-4, 4))
        (p,), (theta,) = project_epigraph_max_rows(y, r, zeta)
        p1, t1 = oracles.epigraph_projection_exhaustive(y, r, zeta)
        p2, t2 = oracles.epigraph_projection_opt(y, r, zeta)
        err = max(np.max(np.abs(p - p1)), abs(theta - t1),
                  np.max(np.abs(p - p2)), abs(theta - t2))
        worst["epigraph"] = max(worst["epigraph"], err)

    elapsed = time.perf_counter() - t0
    assert all(v <= 1e-6 for v in worst.values()), worst
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    report(1, f"4 x {N_PROJ} instances, worst componentwise error "
              f"{max(worst.values()):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. prox optimality inequality, every branch

def _batch_hinge_psi(Q, r, lam):
    return lam * (Q + r).max(axis=1)


def _batch_reg_psi(Q, kind, K, B, s, mode, step):
    """step * g on a batch of flattened weight matrices (uniform group size)."""
    if kind == "l1":
        return step * np.abs(Q).sum(axis=1)
    if kind == "l2sq":
        return step * (Q ** 2).sum(axis=1)
    G = Q.reshape(len(Q), K, B, s)
    if mode == "cross-class":
        G = np.swapaxes(G, 1, 2).reshape(len(Q), B, K * s)
    else:
        G = G.reshape(len(Q), K * B, s)
    if kind == "l12":
        return step * np.sqrt((G ** 2).sum(axis=2)).sum(axis=1)
    return step * np.abs(G).max(axis=2).sum(axis=1)


def test_criterion_2_prox_inequalities():
    rng = np.random.default_rng(2002)
    slack = 1e-10
    total_checked = 0

    violations = 0
    for _ in range(N_PROX_INSTANCES):
        K = int(rng.integers(1, 7))
        y = rng.uniform(-3, 3, K)
        r = rng.uniform(0, 2, K)
        lam = float(rng.uniform(0.2, 3.0))
        p = y - project_simplex_rows(y + r, lam)[0]  # Moreau form of the hinge prox
        Q = oracles.competitor_cloud(p, y, rng, N_COMPETITORS)
        fq = 0.5 * ((Q - y) ** 2).sum(axis=1) + _batch_hinge_psi(Q, r, lam)
        fp = 0.5 * ((p - y) ** 2).sum() + lam * (p + r).max()
        violations += int((fq < fp - slack).sum())
        total_checked += len(Q)
    assert violations == 0, f"hinge prox violations: {violations}"

    for kind in ("l1", "l12", "l1inf", "l2sq"):
        for mode in ("per-class", "cross-class"):
            violations = 0
            for _ in range(N_PROX_INSTANCES // 2):
                K = int(rng.integers(1, 4))
                B = int(rng.integers(1, 4))
                s = int(rng.integers(1, 4))
                M = B * s
                blocks = BlockStructure.contiguous(M, s, mode=mode)
                spec = RegularizerSpec(kind, blocks)
                W = rng.uniform(-3, 3, (K, M))
                step = float(rng.uniform(0.1, 2.0))
                out = prox_regularizer_aug(np.column_stack([W, np.zeros(K)]), spec, step)
                p = out[:, :-1].ravel()
                Q = oracles.competitor_cloud(p, W.ravel(), rng, N_COMPETITORS)
                fq = 0.5 * ((Q - W.ravel()) ** 2).sum(axis=1) \
                    + _batch_reg_psi(Q, kind, K, B, s, mode, step)
                fp = 0.5 * ((p - W.ravel()) ** 2).sum() \
                    + _batch_reg_psi(p[None, :], kind, K, B, s, mode, step)[0]
                violations += int((fq < fp - slack).sum())
                total_checked += len(Q)
            assert violations == 0, f"{kind}/{mode} prox violations: {violations}"

    report(2, f"{total_checked} competitor comparisons across the hinge prox "
              f"and all regularizer branches, zero violations beyond {slack:g}")


# ---------------------------------------------------------------------------
# 3. adjoint identity and operator norm

def test_criterion_3_adjoint_and_norm():
    rng = np.random.default_rng(3003)
    worst_rel = 0.0
    for _ in range(100):
        ds = random_dataset(rng, sparse=bool(rng.random() < 0.3))
        x = ModelVector(rng.standard_normal((ds.n_classes, ds.n_features)),
                        rng.standard_normal(ds.n_classes))
        y = rng.standard_normal((ds.n_samples, ds.n_classes))
        lhs = np.vdot(_apply_T_aug(x.augmented(), ds), y)
        rhs = np.vdot(x.augmented(), _apply_T_adjoint_aug(y, ds))
        rel = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-10

    worst_norm = 0.0
    for _ in range(20):
        K = int(rng.integers(1, 6))
        M = int(rng.integers(1, 200 // K))  # keeps K*(M+1) <= 200
        ds = random_dataset(rng, L=int(rng.integers(1, 12)), M=M, K=K)
        truth = np.linalg.svd(oracles.dense_T_matrix(ds), compute_uv=False)
        truth = float(truth[0]) if truth.size else 0.0
        est = operator_norm(ds)
        if truth == 0.0:
            assert est.value == 0.0
            continue
        worst_norm = max(worst_norm, abs(est.value - truth) / truth)
    # the 1.01 safety inflation makes a tightly converged estimate sit
    # exactly at the 1% bound; the epsilon only absorbs float noise there
    assert worst_norm <= 0.01 + 1e-9
    report(3, f"adjoint worst rel {worst_rel:.2e}; norm worst rel dev "
              f"{worst_norm:.2e} vs dense SVD")


# ---------------------------------------------------------------------------
# 4. gradient checks

def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(10):
        ds = random_dataset(rng, L=int(rng.integers(3, 6)),
                            M=int(rng.integers(2, 5)), K=int(rng.integers(2, 4)))
        r = make_margin_offsets(ds)
        lam = float(rng.uniform(0.3, 2.0))
        x = 0.7 * rng.standard_normal((ds.n_classes, ds.n_features + 1))
        for fn in (_square_loss_grad, _logistic_loss_grad):
            _, grad = fn(x, ds, r, lam)
            fd = oracles.central_difference_grad(lambda z: fn(z, ds, r, lam)[0],
                                                 x, h=1e-6)
            rel = np.linalg.norm(grad - fd) / (1.0 + np.linalg.norm(fd))
            worst = max(worst, rel)
    assert worst <= 1e-5
    report(4, f"squared-hinge and logistic gradients vs central differences, "
              f"worst rel {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. desk-scale solver correctness

def test_criterion_5_solver_correctness_desk_scale():
    details = []
    for case, rec in sorted(SUBGRADIENT_REFERENCES.items()):
        ds = tiny_dataset(rec["seed"])
        spec = spec_from_record(rec)
        reg = solve_regularized_fbpd(
            ds, spec, SolverConfig(lam=rec["lam"], max_iter=400000, rel_tol=1e-11))
        ref = rec["objective"]
        rel = abs(reg.primal_objective - ref) / abs(ref)
        assert rel <= 1e-4, f"{case}: objective off by {rel:.2e}"

        if reg.hinge_sum > 1e-9:
            con = solve_constrained_fbpd(
                ds, spec, SolverConfig(eta=reg.hinge_sum, max_iter=400000,
                                       rel_tol=1e-11))
            assert con.constraint_violation <= 1e-6
            g_rel = abs(con.g_value - reg.g_value) / (1.0 + abs(reg.g_value))
            assert g_rel <= 1e-4, f"{case}: g mismatch {g_rel:.2e}"
        details.append(f"{case}:{rel:.1e}")
    report(5, "subgradient-reference agreement and Lagrangian equivalence: "
              + ", ".join(details))


# ---------------------------------------------------------------------------
# 6. duality gap for the squared-l2 penalty

def test_criterion_6_duality_gap():
    rec = SUBGRADIENT_REFERENCES["l2sq_a"]
    ds = tiny_dataset(rec["seed"])
    rep = solve_regularized_fbpd(
        ds, RegularizerSpec("l2sq"),
        SolverConfig(lam=rec["lam"], max_iter=400000, rel_tol=1e-11))
    gap_tol = 1e-3 * (1.0 + abs(rep.primal_objective))
    assert rep.dual_gap is not None and abs(rep.dual_gap) <= gap_tol
    # primal-dual link for g = sum ||w_k||^2 with free offsets:
    # the weight blocks satisfy 2w = -(T^T y)_w and the offset part of
    # T^T y vanishes (the classical x = -T^T y link holds for the
    # half-scaled penalty; this is the same relation with the factor of
    # this g)
    TtY = _apply_T_adjoint_aug(rep.dual_y, ds)
    xnorm = np.linalg.norm(rep.model.ravel())
    link_tol = 1e-3 * (1.0 + xnorm)
    w_res = np.linalg.norm(2.0 * rep.model.weights + TtY[:, :-1])
    b_res = np.linalg.norm(TtY[:, -1])
    assert w_res <= link_tol and b_res <= link_tol
    report(6, f"gap {rep.dual_gap:.2e} (tol {gap_tol:.2e}), link residuals "
              f"{w_res:.2e}/{b_res:.2e}")


# ---------------------------------------------------------------------------
# 7. leukemia benchmark reproduction (needs the prepared dataset)

LEUKEMIA_DIR = pathlib.Path(os.environ.get(
    "SPARSEMSVM_LEUKEMIA_DIR",
    pathlib.Path(__file__).resolve().parent.parent / "data" / "leukemia"))


@pytest.mark.skipif(
    not (LEUKEMIA_DIR / "leukemia_train.csv").exists(),
    reason=f"leukemia benchmark data not found under {LEUKEMIA_DIR}; this "
           "environment has no network access: run scripts/fetch_leukemia.py "
           "(optionally with manually downloaded Broad files) and re-run")
def test_criterion_7_leukemia_table():
    train = load_dense_csv(LEUKEMIA_DIR / "leukemia_train.csv")
    test = load_dense_csv(LEUKEMIA_DIR / "leukemia_test.csv")
    assert (train.n_samples, test.n_samples) == (38, 34)
    assert train.n_features == 7129 and train.n_classes == 3
    norm_T = operator_norm(train).value
    blocks5 = BlockStructure.contiguous(train.n_features, 5)
    details = []
    run_leukemia = load_file(SCRIPTS / "run_leukemia.py", "run_leukemia")

    def best(solver_id, spec):
        # the script's grid search over the CLI's default grid
        return run_leukemia.best_over_grid(solver_id, spec, train, test,
                                           _alphas(DEFAULT_ALPHAS), 1e-5, 30000, norm_T)[:4]

    errors, alpha, rep, ev = best("fbpd-reg", RegularizerSpec("l1inf", blocks5))
    assert errors <= 1, f"hinge l1inf: {errors} errors"
    details.append(f"hinge/l1inf {errors}/34 @ alpha={alpha:g}")

    errors, alpha, rep, ev = best("fbpd-reg", RegularizerSpec("l1"))
    total_nz = int(ev.nonzeros_per_class.sum())
    assert errors <= 3, f"hinge l1: {errors} errors"
    assert 1 <= total_nz < 1000, f"hinge l1 nonzeros {total_nz} (want tens)"
    details.append(f"hinge/l1 {errors}/34, nz={total_nz}")

    for solver_id, reg, bl in (("fista-square", "l1inf", blocks5),
                               ("fb-logit", "l12", blocks5),
                               ("one-vs-all", "l1inf", blocks5)):
        errors, alpha, rep, ev = best(solver_id, RegularizerSpec(reg, bl))
        assert errors <= 1, f"{solver_id}/{reg}: {errors} errors (reference: 0)"
        details.append(f"{solver_id}/{reg} {errors}/34")
    report(7, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. synthetic substitute for the large-scale figures

def test_criterion_8_synthetic_sparsity_profile(tmp_path, capsys):
    ds = make_synthetic(10, 15, 40, separation=10.0, seed=11)

    separable = solve_regularized_fbpd(
        ds, RegularizerSpec("l2sq"),
        SolverConfig(lam=1000.0, max_iter=300000, rel_tol=1e-10))
    assert separable.hinge_sum < 1e-6

    data_p = tmp_path / "k10.csv"
    save_dense_csv(data_p, ds)
    out_p = tmp_path / "sweep.csv"
    code = main(["sweep", "--data", str(data_p), "--solver", "fbpd-reg",
                 "--reg", "l1", "--max-iter", "120000", "--tol", "1e-9",
                 "--out", str(out_p)])
    capsys.readouterr()
    assert code in (0, 2)
    lines = out_p.read_text().strip().splitlines()[1:]
    assert len(lines) == 7  # default grid
    alphas = [float(l.split(",")[0]) for l in lines]
    counts = [float(l.split(",")[3]) for l in lines]
    assert alphas == sorted(alphas)
    # sparsity grows with alpha (lam = 1/alpha shrinks the hinge weight):
    # nonzero counts are non-increasing along the ascending default grid
    for a, b in zip(counts, counts[1:]):
        assert b <= a, f"nonzero counts not monotone over the grid: {counts}"
    assert counts[0] > 0 and counts[-1] == 0
    report(8, f"training hinge_sum {separable.hinge_sum:.1e} < 1e-6; sweep "
              f"nonzeros over default grid: {[int(c) for c in counts]}")


# ---------------------------------------------------------------------------
# 9. CLI determinism

def test_criterion_9_cli_determinism(tmp_path, capsys):
    data_p = tmp_path / "d.csv"
    save_dense_csv(data_p, make_synthetic(3, 5, 30, separation=5.0, seed=3))

    outs = []
    for tag in ("a", "b"):
        model_p = tmp_path / f"m_{tag}.model"
        main(["train", "--data", str(data_p), "--solver", "fbpd-reg",
              "--alpha", "0.5", "--max-iter", "2000",
              "--out", str(model_p)])
        capsys.readouterr()
        main(["eval", "--model", str(model_p), "--data", str(data_p),
              "--emit", "csv"])
        eval_out = capsys.readouterr().out
        sweep_p = tmp_path / f"s_{tag}.csv"
        main(["sweep", "--data", str(data_p), "--solver", "fista-square",
              "--alphas", "0.5,5", "--repeats", "2", "--train-per-class", "6",
              "--max-iter", "2000", "--seed", "7", "--out", str(sweep_p)])
        capsys.readouterr()
        bench_p = tmp_path / f"b_{tag}.csv"
        main(["bench", "--data", str(data_p), "--solvers", "fbpd-reg,fb-logit",
              "--alpha", "1.0", "--tol", "1e-4", "--max-iter", "2000",
              "--out", str(bench_p)])
        capsys.readouterr()
        outs.append((model_p.read_bytes(),
                     (tmp_path / f"m_{tag}.model.report.txt").read_bytes(),
                     eval_out, sweep_p.read_bytes(), bench_p.read_bytes()))

    assert outs[0] == outs[1]
    report(9, "train/eval/sweep/bench byte-identical across repeated "
              "seeded runs")
