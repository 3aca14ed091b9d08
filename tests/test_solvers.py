import numpy as np
import pytest

import oracles
from _frozen import SUBGRADIENT_REFERENCES
from conftest import (RelChanges, random_dataset, spec_from_record, tiny_dataset,
                      windowed_residual_check)
from sparsemsvm.evaluate import hinge_sum, predict
from sparsemsvm.linop import _apply_T_adjoint_aug, _effective_dual, features_aug_norm
from sparsemsvm.model import (BlockStructure, Dataset, ModelVector,
                              RegularizerSpec, make_margin_offsets)
from sparsemsvm.prox import regularizer_value
from sparsemsvm.solvers import (DivergenceError, SOLVERS, SolverConfig, _fista,
                                _logistic_loss_grad, _Screen, _square_loss_grad,
                                solve_constrained_fbpd, solve_one_vs_all,
                                solve_regularized_fbpd)
from test_screen import SCREENED, _shuffled_groups, _unit_columns

TIGHT = dict(max_iter=400000, rel_tol=1e-11)


# ---------------------------------------------------------------------------
# trivial iteration-count behavior

@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_zero_iterations_returns_zero_model(name):
    ds = tiny_dataset(0)
    cfg = SolverConfig(lam=1.0, eta=1.0, max_iter=0)
    rep = SOLVERS[name](ds, RegularizerSpec("l1"), cfg)
    assert rep.iterations == 0
    assert not rep.converged
    assert np.all(rep.model.weights == 0.0) and np.all(rep.model.offsets == 0.0)


def test_config_validation():
    ds = tiny_dataset(0)
    with pytest.raises(ValueError):
        solve_regularized_fbpd(ds, RegularizerSpec("l1"), SolverConfig(eta=1.0))
    with pytest.raises(ValueError):
        solve_constrained_fbpd(ds, RegularizerSpec("l1"), SolverConfig(lam=1.0))


@pytest.mark.parametrize("name", ["fbpd-reg", "fbpd-con", "fista-square", "fb-logit"])
@pytest.mark.parametrize("norm_T", [np.nan, np.inf, -1.0])
def test_bad_norm_T_rejected(name, norm_T):
    # every solver that reads a caller-supplied ||T|| refuses one that is
    # not finite and >= 0 before the first iteration
    cfg = SolverConfig(lam=1.0, eta=1.0, norm_T=norm_T)
    with pytest.raises(ValueError, match="norm_T must be finite and >= 0"):
        SOLVERS[name](tiny_dataset(0), RegularizerSpec("l1"), cfg)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_block_mismatch_rejected(name):
    # groups over 3 features do not partition the M = 2 of the tiny set;
    # every solver refuses them before the first iteration
    spec = RegularizerSpec("l12", BlockStructure.contiguous(3, 2))
    with pytest.raises(ValueError, match="partition"):
        SOLVERS[name](tiny_dataset(0), spec, SolverConfig(lam=1.0, eta=1.0))


# ---------------------------------------------------------------------------
# desk-scale correctness against the frozen long-run subgradient references

@pytest.mark.parametrize("case", sorted(SUBGRADIENT_REFERENCES))
def test_regularized_matches_subgradient_reference(case):
    rec = SUBGRADIENT_REFERENCES[case]
    ds = tiny_dataset(rec["seed"])
    spec = spec_from_record(rec)
    rep = solve_regularized_fbpd(ds, spec, SolverConfig(lam=rec["lam"], **TIGHT))
    assert rep.converged
    ref = rec["objective"]
    assert abs(rep.primal_objective - ref) <= 1e-4 * abs(ref)


@pytest.mark.parametrize("case", sorted(SUBGRADIENT_REFERENCES))
def test_constrained_matches_regularized_g_value(case):
    # Lagrangian equivalence: run eta at the achieved hinge sum
    rec = SUBGRADIENT_REFERENCES[case]
    ds = tiny_dataset(rec["seed"])
    spec = spec_from_record(rec)
    reg = solve_regularized_fbpd(ds, spec, SolverConfig(lam=rec["lam"], **TIGHT))
    if reg.hinge_sum <= 1e-9:
        pytest.skip("hinge vanished; eta=0 is out of the constrained domain")
    con = solve_constrained_fbpd(ds, spec, SolverConfig(eta=reg.hinge_sum, **TIGHT))
    assert con.constraint_violation <= 1e-6
    assert abs(con.g_value - reg.g_value) <= 1e-4 * (1.0 + abs(reg.g_value))


def test_regularized_with_margins_matches_lp_reference(rng):
    # per-sample margins flow through r; linprog solves the same problem
    ds = random_dataset(rng, L=5, M=2, K=3)
    assert not np.allclose(ds.margins, 1.0)
    lam = 1.3
    ref = oracles.regularized_lp_reference(ds, "l1", lam)
    rep = solve_regularized_fbpd(ds, RegularizerSpec("l1"),
                                 SolverConfig(lam=lam, **TIGHT))
    assert abs(rep.primal_objective - ref) <= 1e-4 * (1.0 + abs(ref))


def test_cross_class_grouping_matches_subgradient_oracle():
    ds = tiny_dataset(8)
    blocks = BlockStructure.contiguous(2, 1, mode="cross-class")
    spec = RegularizerSpec("l12", blocks)
    ref, _ = oracles.regularized_subgradient_reference(
        ds, "l12", 0.9, groups=[(0,), (1,)], mode="cross-class",
        n_rounds=35, steps_per_round=2500)
    rep = solve_regularized_fbpd(ds, spec, SolverConfig(lam=0.9, **TIGHT))
    assert abs(rep.primal_objective - ref) <= 1e-4 * (1.0 + abs(ref))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_sparse_features_end_to_end(name):
    import scipy.sparse as sp
    dense = tiny_dataset(12)
    sparse_ds = Dataset(sp.csr_matrix(dense.dense_features()), dense.labels,
                        dense.n_classes, dense.margins)
    # only fbpd-con reads eta: at 3.5 its solution is nonzero and it
    # converges in about 2000 iterations
    cfg = SolverConfig(lam=1.0, eta=3.5, max_iter=50000, rel_tol=1e-9)
    a = SOLVERS[name](dense, RegularizerSpec("l1"), cfg)
    b = SOLVERS[name](sparse_ds, RegularizerSpec("l1"), cfg)
    assert a.converged and b.converged
    np.testing.assert_allclose(b.model.weights, a.model.weights, atol=1e-7)
    assert b.primal_objective == pytest.approx(a.primal_objective, rel=1e-9)


def test_constrained_trivial_eta_yields_zero_model():
    # eta >= sum of margins makes x=0 feasible, and it is g-minimal for l1
    ds = tiny_dataset(1)
    eta = float(ds.margins.sum())
    rep = solve_constrained_fbpd(ds, RegularizerSpec("l1"),
                                 SolverConfig(eta=eta, max_iter=100000, rel_tol=1e-10))
    assert rep.g_value <= 1e-8
    assert rep.hinge_sum <= eta + 1e-6


# ---------------------------------------------------------------------------
# gradient checks for the smooth baselines

def test_square_gradient_matches_finite_differences(rng):
    for _ in range(5):
        ds = random_dataset(rng, L=4, M=3, K=3)
        r = make_margin_offsets(ds)
        lam = 0.7
        x = rng.standard_normal((3, 4))
        _, grad = _square_loss_grad(x, ds, r, lam)
        fd = oracles.central_difference_grad(
            lambda z: _square_loss_grad(z, ds, r, lam)[0], x, h=1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))


def test_logistic_gradient_matches_finite_differences(rng):
    for _ in range(5):
        ds = random_dataset(rng, L=4, M=3, K=3)
        r = make_margin_offsets(ds)
        lam = 0.9
        x = 0.5 * rng.standard_normal((3, 4))
        _, grad = _logistic_loss_grad(x, ds, r, lam)
        fd = oracles.central_difference_grad(
            lambda z: _logistic_loss_grad(z, ds, r, lam)[0], x, h=1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))


def test_logistic_value_spec_case():
    ds = Dataset.from_arrays(np.array([[0.5]]), [1], n_classes=2, one_based=True)
    r = make_margin_offsets(ds)
    value, _ = _logistic_loss_grad(np.zeros((2, 2)), ds, r, 1.0)
    assert value == pytest.approx(np.log(1.0 + np.e))


def test_one_vs_all_single_class_is_binary_problem(rng):
    # with K=1 the joint squared hinge and the one-vs-all coincide up to the
    # direction convention, and both objectives vanish (no rival class)
    ds = random_dataset(rng, L=5, M=3, K=1)
    rep = solve_one_vs_all(ds, RegularizerSpec("l1"),
                           SolverConfig(lam=1.0, max_iter=2000, rel_tol=1e-9))
    assert rep.hinge_sum == 0.0
    assert rep.model.weights.shape == (1, 3)


def _per_class_one_vs_all(ds, spec, cfg):
    """Reference for the stacked one-vs-all run: the per-class loop it
    replaced, class k against the rest as its own (1, M+1) FISTA solve.
    Returns the summed binary objective and the per-class loss functions."""
    lam = cfg.lam
    gamma = 1.0 / (2.0 * lam * features_aug_norm(ds).value ** 2)
    losses, total = [], 0.0
    for k in range(ds.n_classes):
        sign = np.where(ds.labels == k, 1.0, -1.0)

        def loss_grad(xb, sign=sign):
            s = ds.features @ xb[0, :-1] + xb[0, -1]
            gap = np.maximum(ds.margins - sign * s, 0.0)
            coeff = -2.0 * lam * sign * gap
            gw = np.asarray(ds.features.T @ coeff).ravel()
            return lam * float((gap ** 2).sum()), np.append(gw, coeff.sum())[None, :]

        xb, _, converged, _ = _fista(np.zeros((1, ds.n_features + 1)),
                                    loss_grad, spec, gamma, cfg)
        assert converged
        total += loss_grad(xb)[0] + regularizer_value(xb, spec)
        losses.append(loss_grad)
    return total, losses


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("kind", ["l1", "l12", "l2sq"])
def test_one_vs_all_matches_per_class_solves(kind, seed):
    ds = tiny_dataset(seed)
    blocks = BlockStructure.contiguous(ds.n_features, 2) if kind == "l12" else None
    spec = RegularizerSpec(kind, blocks)
    cfg = SolverConfig(lam=1.0, **TIGHT)
    reference, losses = _per_class_one_vs_all(ds, spec, cfg)
    rep = solve_one_vs_all(ds, spec, cfg)
    assert rep.converged
    x = rep.model.augmented()
    stacked = sum(f(x[k:k + 1])[0] for k, f in enumerate(losses)) + regularizer_value(x, spec)
    assert stacked == pytest.approx(reference, rel=1e-8)


def test_one_vs_all_rejects_cross_class_groups(rng):
    ds = random_dataset(rng, L=4, M=4, K=2)
    blocks = BlockStructure.contiguous(4, 2, mode="cross-class")
    with pytest.raises(ValueError):
        solve_one_vs_all(ds, RegularizerSpec("l12", blocks), SolverConfig(lam=1.0))


def test_one_vs_all_separates_balanced_classes():
    # each class must end up on the positive side of its own block
    ds = tiny_dataset(3)
    rep = solve_one_vs_all(ds, RegularizerSpec("l2sq"),
                           SolverConfig(lam=10.0, max_iter=20000, rel_tol=1e-10))
    preds = predict(rep.model, ds.features)
    errors = int(np.sum(preds != ds.labels + 1))
    assert errors <= 1  # tiny instance is nearly separable


# ---------------------------------------------------------------------------
# duality diagnostics for the squared-l2 penalty

def test_l2sq_dual_gap_and_link():
    rec = SUBGRADIENT_REFERENCES["l2sq_a"]
    ds = tiny_dataset(rec["seed"])
    rep = solve_regularized_fbpd(ds, RegularizerSpec("l2sq"),
                                 SolverConfig(lam=rec["lam"], **TIGHT))
    assert rep.dual_objective is not None
    assert abs(rep.dual_gap) <= 1e-3 * (1.0 + abs(rep.primal_objective))
    # linkage: weights satisfy 2w = -(T^T y)_w, offsets (T^T y)_b -> 0
    TtY = _apply_T_adjoint_aug(rep.dual_y, ds)
    xnorm = np.linalg.norm(rep.model.ravel())
    assert np.linalg.norm(2.0 * rep.model.weights + TtY[:, :-1]) <= 1e-3 * (1.0 + xnorm)
    assert np.linalg.norm(TtY[:, -1]) <= 1e-3 * (1.0 + xnorm)
    # dual feasibility: every simplex block sums to lam, entrywise >= 0
    assert np.all(rep.dual_y >= -1e-12)
    np.testing.assert_allclose(rep.dual_y.sum(axis=1), rec["lam"], atol=1e-9)


# ---------------------------------------------------------------------------
# stability and diagnostics

def test_boundary_step_sizes_stay_finite():
    ds = tiny_dataset(4)
    truth = np.linalg.svd(oracles.dense_T_matrix(ds), compute_uv=False)[0]
    # with the exact norm (about 4.8) as norm_T, both solvers step with
    # tau = sigma = 1/truth, at the bound tau * sigma * ||T||^2 = 1
    cfg = SolverConfig(lam=1.0, norm_T=truth, max_iter=3000, rel_tol=0.0)
    rep = solve_regularized_fbpd(ds, RegularizerSpec("l1"), cfg)
    assert np.all(np.isfinite(rep.model.ravel()))
    cfg = SolverConfig(eta=2.0, norm_T=truth, max_iter=3000, rel_tol=0.0)
    rep = solve_constrained_fbpd(ds, RegularizerSpec("l1"), cfg)
    assert np.all(np.isfinite(rep.model.ravel()))


def test_divergence_guard_raises():
    ds = tiny_dataset(2)
    # lying about the operator norm lets the step-size rule pass while the
    # true product is far beyond 1
    cfg = SolverConfig(lam=5.0, norm_T=1e-8, max_iter=50000, rel_tol=0.0)
    with pytest.raises(DivergenceError):
        solve_regularized_fbpd(ds, RegularizerSpec("l2sq"), cfg)


@pytest.mark.parametrize("mode", ["reg", "con"])
def test_windowed_residuals_nonincreasing(mode):
    # the smoothed residual must decay once the start-up transient (primal
    # pinned at zero while the dual warms up) has peaked
    ds = tiny_dataset(42)
    rels = RelChanges()
    if mode == "reg":
        cfg = SolverConfig(lam=1.0, max_iter=100000, rel_tol=1e-7)
        rep = solve_regularized_fbpd(ds, RegularizerSpec("l1"), cfg, callback=rels)
    else:
        warm = solve_regularized_fbpd(ds, RegularizerSpec("l1"),
                                      SolverConfig(lam=1.0, max_iter=100000,
                                                   rel_tol=1e-9))
        cfg = SolverConfig(eta=warm.hinge_sum, max_iter=100000, rel_tol=1e-7)
        rep = solve_constrained_fbpd(ds, RegularizerSpec("l1"), cfg, callback=rels)
    assert rep.iterations >= 150
    assert windowed_residual_check(rels.values)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_prediction_invariant_to_common_offset_shift(name, rng):
    ds = tiny_dataset(9)
    cfg = SolverConfig(lam=1.0, eta=2.0, max_iter=4000, rel_tol=1e-8)
    rep = SOLVERS[name](ds, RegularizerSpec("l1"), cfg)
    probe = rng.standard_normal((20, ds.n_features))
    base = predict(rep.model, probe)
    shifted = ModelVector(rep.model.weights, rep.model.offsets + 13.7)
    np.testing.assert_array_equal(predict(shifted, probe), base)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_callback_sees_every_iteration(name):
    ds = tiny_dataset(5)
    seen = []
    rep = SOLVERS[name](ds, RegularizerSpec("l1"),
                        SolverConfig(lam=1.0, eta=1.0, max_iter=20, rel_tol=0.0),
                        callback=lambda i, x: seen.append(i))
    assert seen == list(range(1, rep.iterations + 1))
    assert rep.iterations == 20


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_watching_a_run_does_not_change_it(name):
    ds = tiny_dataset(5)
    cfg = SolverConfig(lam=1.0, eta=1.0, max_iter=3000, rel_tol=1e-6)
    plain = SOLVERS[name](ds, RegularizerSpec("l1"), cfg)
    watched = SOLVERS[name](ds, RegularizerSpec("l1"), cfg, callback=lambda it, x: None)
    np.testing.assert_array_equal(watched.model.augmented(), plain.model.augmented())
    np.testing.assert_array_equal(watched.dual_y, plain.dual_y)  # None for the smooth solvers
    assert ((watched.iterations, watched.converged, watched.final_rel_change)
            == (plain.iterations, plain.converged, plain.final_rel_change))


def test_hinge_sum_nonnegative_across_solvers(rng):
    ds = tiny_dataset(6)
    for name in sorted(SOLVERS):
        cfg = SolverConfig(lam=0.5, eta=1.0, max_iter=2000, rel_tol=1e-7)
        rep = SOLVERS[name](ds, RegularizerSpec("l1"), cfg)
        assert rep.hinge_sum >= 0.0
        assert rep.hinge_sum == pytest.approx(hinge_sum(rep.model, ds), rel=1e-12)


# ---------------------------------------------------------------------------
# the screen's unit reductions

def _screen_case(rng, kind, mode, K, M, contiguous):
    X = rng.standard_normal((12, M))
    ds = Dataset.from_arrays(X, np.arange(12) % K, n_classes=K)
    blocks = None
    if mode is not None:
        blocks = (BlockStructure.contiguous(M, 3, mode=mode) if contiguous
                  else _shuffled_groups(rng, M, mode))
    return ds, RegularizerSpec(kind, blocks)


@pytest.mark.parametrize("kind, mode", SCREENED)
@pytest.mark.parametrize("contiguous", [True, False])
def test_the_screen_bounds_each_unit_by_its_column_norms(rng, kind, mode, contiguous):
    # a group's bound is the smaller of the column-norm bound and its top
    # singular value sigma (times sqrt(size) for l1inf), both times K or
    # sqrt(K) for cross-class groups; the screen bounds sigma from above,
    # by at most a factor size^(1/64), so the bound lies between the two
    # minima taken with sigma and with that multiple of it
    spectral_wins = 0
    for K in range(2, 6):
        ds, spec = _screen_case(rng, kind, mode, K, 31, contiguous)
        F = ds.dense_features()
        norms = np.linalg.norm(F, axis=0)
        screen = _Screen(ds, spec, 1.0, 1.0)
        scale = 1.0 if mode != "cross-class" else K if kind == "l1inf" else np.sqrt(K)
        low, high = [], []
        for u in range(screen.inv_lip.size):
            cols = _unit_columns(spec, np.arange(screen.inv_lip.size) == u)
            n = norms[cols]
            if kind == "l1":
                low.append(n[0])
                high.append(n[0])
                continue
            top = np.linalg.svd(F[:, cols], compute_uv=False)[0]
            column, c = ((np.sqrt(np.sum(n * n)), 1.0) if kind == "l12"
                         else (np.sum(n), np.sqrt(cols.size)))
            low.append(scale * min(column, c * top))
            high.append(scale * min(column, c * top * cols.size ** (1 / 64)))
            spectral_wins += c * top * cols.size ** (1 / 64) < column
        got = 1.0 / screen.inv_lip
        assert np.all(got >= np.array(low) * (1 - 1e-14))
        assert np.all(got <= np.array(high) * (1 + 1e-14))
    assert kind == "l1" or spectral_wins > 0


@pytest.mark.parametrize("kind", ["l12", "l1inf"])
def test_a_group_of_zero_features_never_bounds_its_slack(rng, kind):
    # its Gram has trace 0: the spectral bound is 0 like the column bound,
    # without a division warning, and its slack is infinite
    X = rng.standard_normal((12, 9))
    X[:, 3:6] = 0.0
    ds = Dataset.from_arrays(X, np.arange(12) % 3, n_classes=3)
    screen = _Screen(ds, RegularizerSpec(kind, BlockStructure.contiguous(9, 3)), 1.0, 1.0)
    np.testing.assert_array_equal(np.isinf(screen.inv_lip), [False, True, False])


@pytest.mark.parametrize("kind, mode", SCREENED)
def test_a_plan_keeps_a_unit_whose_only_weight_is_tiny(rng, kind, mode):
    # the square of 1e-170 underflows to 0, so an l12 norm of the weights
    # would miss the unit; the plan reads which columns hold a nonzero
    K, M = 3, 300
    ds, spec = _screen_case(rng, kind, mode, K, M, contiguous=False)
    screen = _Screen(ds, spec, 1.0, 1.0)
    y = rng.standard_normal((ds.n_samples, K))
    v = _apply_T_adjoint_aug(y, ds)
    slack = screen.slack(v / (2 * np.abs(v).max() * M))  # every unit far below 1
    u = int(np.argmax(slack))  # the last unit a plan would keep for its slack
    col = _unit_columns(spec, np.arange(slack.size) == u)[-1]
    x = np.zeros((K, M + 1))
    x[K - 1, col] = 1e-170
    plan = screen._plan(slack, x, _effective_dual(y, ds))
    assert plan is not None
    assert col in plan.flat % (M + 1)
