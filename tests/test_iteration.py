"""The primal-dual iterations against a plain reference, and the
divergence guard of the iteration loop.

The reference is the straightforward form of the two primal-dual solvers:
each step written as one numpy expression per line, `T` as
`features @ W.T`, `T^T` through `hstack`, the dual relative changes taken
every iteration and the guard's two entrywise passes on every iterate.
The solvers compute the same operations in the same order, in place and
with fewer passes, so their iterates must match it bit for bit, except
where `T` skips the iterate's zero weight columns or a step runs on the
screen's columns alone, which sum in another order.
"""

import functools
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import RelChanges, tiny_dataset
from sparsemsvm import linop, solvers
from sparsemsvm.data import make_synthetic, split
from sparsemsvm.model import BlockStructure, Dataset, RegularizerSpec, make_margin_offsets
from sparsemsvm.prox import (_block_soft_threshold_rows, _group_rows, _linf_prox_rows,
                             _ungroup_rows, project_halfspace_sum, project_simplex_rows,
                             regularizer_value)
from sparsemsvm.solvers import (OBJECTIVE_CAP, DivergenceError, SolverConfig, _guard,
                                _iterate, _no_dual_change, _rel_change,
                                solve_constrained_fbpd, solve_regularized_fbpd)


# ---------------------------------------------------------------------------
# reference operators, steps and loop

def _ref_T(x_aug, ds):
    scores = ds.features @ x_aug[:, :-1].T + x_aug[:, -1]
    own = scores[np.arange(ds.n_samples), ds.labels]
    return scores - own[:, None]


def _ref_T_adjoint(y, ds):
    y_eff = y.copy()
    y_eff[np.arange(ds.n_samples), ds.labels] -= y.sum(axis=1)
    W = np.asarray(y_eff.T @ ds.features)
    return np.hstack([W, y_eff.sum(axis=0)[:, None]])


def _ref_prox(x_aug, spec, step):
    W = x_aug[:, :-1]
    if spec.kind == "l1":
        Wp = np.sign(W) * np.maximum(np.abs(W) - step, 0.0)
    elif spec.kind == "l2sq":
        Wp = W / (1.0 + 2.0 * step)
    else:
        prox_rows = _block_soft_threshold_rows if spec.kind == "l12" else _linf_prox_rows
        batches = [prox_rows(rows, step) for rows in _group_rows(W, spec.blocks)]
        Wp = _ungroup_rows(batches, spec.blocks, W.copy())
    out = np.empty_like(x_aug)
    out[:, :-1] = Wp
    out[:, -1] = x_aug[:, -1]
    return out


def _ref_epigraph(Y, R, heights):
    """The epigraphical projection with explicit -inf/+inf sentinel columns."""
    L, K = Y.shape
    shifted = Y + R
    nu = np.sort(shifted, axis=1)
    suffix = np.zeros((L, K + 1))
    suffix[:, :K] = np.cumsum(nu[:, ::-1], axis=1)[:, ::-1]
    thetas = (heights[:, None] + suffix) / (K - np.arange(1, K + 2) + 2.0)
    lower = np.concatenate([np.full((L, 1), -np.inf), nu], axis=1)
    upper = np.concatenate([nu, np.full((L, 1), np.inf)], axis=1)
    ok = (lower < thetas) & (thetas <= upper)
    kbar_idx = np.argmax(ok, axis=1)
    no_hit = ~ok.any(axis=1)
    if np.any(no_hit):
        viol = np.maximum(lower - thetas, 0.0) + np.maximum(thetas - upper, 0.0)
        kbar_idx[no_hit] = np.argmin(viol[no_hit], axis=1)
    theta = thetas[np.arange(L), kbar_idx]
    inside = shifted.max(axis=1) <= heights
    theta = np.where(inside, heights, theta)
    P = np.where(inside[:, None], Y, np.minimum(Y, theta[:, None] - R))
    return P, theta


def _ref_rel_change(x_new, x):
    move, size = np.linalg.norm(x_new - x), np.linalg.norm(x)
    if size > 0.0:
        return float(move / size)
    return 0.0 if move == 0.0 else np.inf


def _ref_guard(x_aug, objective, cap):
    if not np.all(np.isfinite(x_aug)) or np.abs(x_aug).max(initial=0.0) > OBJECTIVE_CAP:
        raise DivergenceError("diverged: non-finite or runaway iterate")
    if objective is not None and (not np.isfinite(objective) or objective > cap):
        raise DivergenceError(f"diverged: objective={objective!r}")


def _ref_iterate(step, x0, cfg):
    x, rel, converged, it = x0, np.inf, False, 0
    for it in range(1, cfg.max_iter + 1):
        x_new, dual_rel = step(x)
        rel = _ref_rel_change(x_new, x)
        x = x_new
        _ref_guard(x, None, None)
        if rel <= cfg.rel_tol and (rel > 0.0 or dual_rel <= cfg.rel_tol):
            converged = True
            break
    return x, it, converged, rel if it else 0.0


def _ref_norm(ds):
    """1.01 times a power-iteration estimate of ||T||: a frozen step size,
    so the references keep their bits whatever rule `operator_norm` takes."""
    v = np.random.default_rng(0).standard_normal((ds.n_classes, ds.n_features + 1))
    v = v / np.linalg.norm(v)
    est = 0.0
    for _ in range(1000):
        w = _ref_T(v, ds)
        new_est = float(np.linalg.norm(w))
        v = _ref_T_adjoint(w, ds)
        v = v / np.linalg.norm(v)
        if abs(new_est - est) <= 1e-9 * new_est:
            break
        est = new_est
    return 1.01 * new_est


def _ref_regularized(ds, spec, lam, cfg):
    tau = sigma = 1.0 / max(_ref_norm(ds), 1e-8)
    r = make_margin_offsets(ds)
    y = np.zeros((ds.n_samples, ds.n_classes))

    def step(x):
        nonlocal y
        x_new = _ref_prox(x - tau * _ref_T_adjoint(y, ds), spec, tau)
        y_hat = y + sigma * _ref_T(2.0 * x_new - x, ds)
        y_new = project_simplex_rows(y_hat + sigma * r, lam)
        dual_rel = _ref_rel_change(y_new, y)
        y = y_new
        return x_new, dual_rel

    x, it, converged, rel = _ref_iterate(
        step, np.zeros((ds.n_classes, ds.n_features + 1)), cfg)
    return x, y, it, converged, rel


def _ref_constrained(ds, spec, eta, cfg):
    tau = sigma = 1.0 / max(_ref_norm(ds), 1.0)
    r = make_margin_offsets(ds)
    zeta, y, xi = np.zeros(ds.n_samples), np.zeros((ds.n_samples, ds.n_classes)), np.zeros(ds.n_samples)

    def step(x):
        nonlocal zeta, y, xi
        x_new = _ref_prox(x - tau * _ref_T_adjoint(y, ds), spec, tau)
        zeta_new = project_halfspace_sum(zeta - tau * xi, eta)
        y_hat = y + sigma * _ref_T(2.0 * x_new - x, ds)
        xi_hat = xi + sigma * (2.0 * zeta_new - zeta)
        y_tilde, xi_tilde = _ref_epigraph(y_hat / sigma, r, xi_hat / sigma)
        y_new = y_hat - sigma * y_tilde
        xi_new = xi_hat - sigma * xi_tilde
        dual_rel = max(_ref_rel_change(y_new, y), _ref_rel_change(xi_new, xi),
                       _ref_rel_change(zeta_new, zeta))
        zeta, y, xi = zeta_new, y_new, xi_new
        return x_new, dual_rel

    x, it, converged, rel = _ref_iterate(
        step, np.zeros((ds.n_classes, ds.n_features + 1)), cfg)
    return x, y, it, converged, rel


# ---------------------------------------------------------------------------
# bit identity with the reference

def _dataset(K, M, L, seed, csr):
    ds = make_synthetic(K, M, L, separation=3.0, seed=seed)
    if not csr:
        return ds
    X = ds.dense_features().copy()
    X[np.abs(X) < 0.7] = 0.0
    return Dataset(sp.csr_matrix(X), ds.labels, ds.n_classes, ds.margins)


def _assert_same_run(report, ref):
    x, y, it, converged, rel = ref
    np.testing.assert_array_equal(report.model.augmented(), x)
    np.testing.assert_array_equal(report.dual_y, y)
    assert (report.iterations, report.converged) == (it, converged)
    assert report.final_rel_change == rel  # exact, not approximate


SPECS = [("l1", None), ("l2sq", None)] + [
    (kind, mode) for kind in ("l12", "l1inf") for mode in ("per-class", "cross-class")]


@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("kind, mode", SPECS)
@pytest.mark.parametrize("K, M, L, seed", [(3, 12, 24, 0), (10, 15, 40, 1)])
def test_solvers_match_the_reference_bitwise(K, M, L, seed, kind, mode, csr):
    # For dense features the reference computes T as features @ W.T and the
    # solvers as (W @ features.T).T. That these round alike for K <= 10 was
    # measured on OpenBLAS 0.3.31; another BLAS, or another thread split,
    # may round the two GEMM orientations differently.
    ds = _dataset(K, M, L, seed, csr)
    blocks = None if mode is None else BlockStructure.contiguous(M, 3, mode=mode)
    spec = RegularizerSpec(kind, blocks)
    cfg = SolverConfig(lam=1.0, eta=0.3 * L, max_iter=400, rel_tol=1e-5, norm_T=_ref_norm(ds))
    _assert_same_run(solve_regularized_fbpd(ds, spec, cfg), _ref_regularized(ds, spec, 1.0, cfg))
    _assert_same_run(solve_constrained_fbpd(ds, spec, cfg), _ref_constrained(ds, spec, 0.3 * L, cfg))


@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
def test_converged_runs_match_the_reference_bitwise(csr):
    dense = tiny_dataset(12)
    ds = Dataset(sp.csr_matrix(dense.dense_features()), dense.labels, dense.n_classes,
                 dense.margins) if csr else dense
    spec = RegularizerSpec("l1")
    cfg = SolverConfig(lam=1.0, eta=3.5, max_iter=20000, rel_tol=1e-7, norm_T=_ref_norm(ds))
    reg = solve_regularized_fbpd(ds, spec, cfg)
    con = solve_constrained_fbpd(ds, spec, cfg)
    assert reg.converged and con.converged
    _assert_same_run(reg, _ref_regularized(ds, spec, 1.0, cfg))
    _assert_same_run(con, _ref_constrained(ds, spec, 3.5, cfg))


def test_sparse_iterates_take_T_over_their_active_columns():
    # M=2000 puts the iterates, 45-65 nonzero weight columns after the
    # first few iterations, below the share for which T skips the zero
    # columns; that sums in another order than the reference's full GEMM,
    # so the runs agree to rounding, not bit for bit
    ds = make_synthetic(3, 2000, 30, separation=3.0, seed=0)
    spec = RegularizerSpec("l1")
    cfg = SolverConfig(eta=3.0, max_iter=600, rel_tol=1e-12, norm_T=_ref_norm(ds))
    limit = linop.ACTIVE_COLUMNS_MAX_SHARE * ds.n_features
    active = []
    report = solve_constrained_fbpd(
        ds, spec, cfg, callback=lambda it, x: active.append(np.count_nonzero(x[:, :-1].any(axis=0))))
    x, _, it, converged, _ = _ref_constrained(ds, spec, 3.0, cfg)
    assert (report.iterations, report.converged) == (it, converged) == (600, False)
    assert sum(n <= limit for n in active) >= 590 and max(active) > limit
    got = report.model.augmented()
    assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)
    assert report.g_value == pytest.approx(regularizer_value(x, spec), rel=1e-9, abs=0.0)


@functools.cache
def _wide(csr):
    """The M=2000 instance and its reference norm, shared by the cases."""
    ds = _dataset(3, 2000, 30, 0, csr)
    return ds, _ref_norm(ds)


@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("kind, mode", SPECS)
@pytest.mark.parametrize("solver", ["fbpd-reg", "fbpd-con"])
def test_screened_steps_match_the_reference_to_rounding(monkeypatch, solver, kind, mode, csr):
    # at M=2000 the iterates keep 45-250 nonzero weight columns, and most
    # steps run on the screen's columns alone; those sum over fewer columns
    # than the reference's full products, so the runs agree to rounding
    # (bitwise for CSR, whose products sum the stored entries alike)
    ds, norm = _wide(csr)
    blocks = None if mode is None else BlockStructure.contiguous(2000, 2, mode=mode)
    spec = RegularizerSpec(kind, blocks)
    cfg = SolverConfig(lam=1.0, eta=3.0, max_iter=400, rel_tol=1e-12, norm_T=norm)
    widths = []

    def adjoint(y, dataset, y_eff=None, inner=solvers._apply_T_adjoint_aug):
        widths.append(dataset.n_features)
        return inner(y, dataset, y_eff=y_eff)

    monkeypatch.setattr(solvers, "_apply_T_adjoint_aug", adjoint)
    if solver == "fbpd-reg":
        report = solve_regularized_fbpd(ds, spec, cfg)
        x, _, it, converged, _ = _ref_regularized(ds, spec, 1.0, cfg)
    else:
        report = solve_constrained_fbpd(ds, spec, cfg)
        x, _, it, converged, _ = _ref_constrained(ds, spec, 3.0, cfg)
    assert (report.iterations, report.converged) == (it, converged) == (400, False)
    narrow = sum(w < ds.n_features for w in widths)
    assert narrow == 0 if kind == "l2sq" else narrow >= 0.6 * it
    got = report.model.augmented()
    assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)
    np.testing.assert_array_equal(got != 0.0, x != 0.0)


@pytest.mark.parametrize("kind, mode", [("l1", None), ("l1inf", "cross-class")])
@pytest.mark.parametrize("solve", [solve_regularized_fbpd, solve_constrained_fbpd])
def test_the_loop_stops_on_the_relative_changes_of_the_full_iterates(monkeypatch, solve,
                                                                      kind, mode):
    # a screened step hands the loop the norms of x_new and of its move
    # over its columns alone; they must be those of the full iterates, up
    # to the order in which the sums run
    ds, norm = _wide(False)
    blocks = None if mode is None else BlockStructure.contiguous(2000, 2, mode=mode)
    cfg = SolverConfig(lam=1.0, eta=3.0, max_iter=400, rel_tol=1e-12, norm_T=norm)
    read, narrow = [], []

    def relative(move, size, inner=solvers._relative):
        rel = inner(move, size)
        if sys._getframe(1).f_code is _iterate.__code__:
            read.append(rel)
        return rel

    def adjoint(y, dataset, y_eff=None, inner=solvers._apply_T_adjoint_aug):
        narrow.append(dataset.n_features < ds.n_features)
        return inner(y, dataset, y_eff=y_eff)

    monkeypatch.setattr(solvers, "_relative", relative)
    monkeypatch.setattr(solvers, "_apply_T_adjoint_aug", adjoint)
    rels = RelChanges()
    report = solve(ds, RegularizerSpec(kind, blocks), cfg, callback=rels)
    assert report.iterations == len(read) == len(rels.values) == 400
    assert sum(narrow) >= 0.6 * report.iterations
    np.testing.assert_allclose(read, rels.values, rtol=1e-12, atol=0.0)
    assert report.final_rel_change == read[-1]


@pytest.mark.parametrize("kind, mode", [("l1", None), ("l1inf", "per-class"),
                                        ("l12", "cross-class")])
@pytest.mark.parametrize("solve", [solve_regularized_fbpd, solve_constrained_fbpd])
def test_the_kept_compact_iterate_is_the_gathered_one(monkeypatch, solve, kind, mode):
    # a screened step after one of the same plan starts from the compact
    # iterate it kept, not from a gather of x on the plan's columns: the
    # two must hold the same bits at every such step
    ds, norm = _wide(False)
    blocks = None if mode is None else BlockStructure.contiguous(2000, 2, mode=mode)
    cfg = SolverConfig(lam=1.0, eta=3.0, max_iter=400, rel_tol=1e-12, norm_T=norm)
    kept = []

    def screened(self, x, y, y_eff, inner=solvers._Screen._screened):
        if self.xc is not None:
            gathered = x.take(self.plan.flat).reshape(self.plan.ext.shape)
            assert self.xc.shape == gathered.shape and self.xc.tobytes() == gathered.tobytes()
            assert self.spare is not self.xc
        kept.append(self.xc is not None)
        return inner(self, x, y, y_eff)

    monkeypatch.setattr(solvers._Screen, "_screened", screened)
    report = solve(ds, RegularizerSpec(kind, blocks), cfg)
    assert report.iterations == 400
    assert sum(kept) >= 0.5 * report.iterations and not all(kept)


def test_frozen_primal_waits_for_the_dual_as_the_reference_does():
    # with this slack budget x stops moving bit for bit before the duals
    # do: the first iteration with a zero relative change of x reads a
    # moving dual and goes on, a later one stops
    ds = make_synthetic(3, 6, 30, separation=3.0, seed=0)
    eta = 1.5 * float(ds.margins.sum())
    spec = RegularizerSpec("l1")
    cfg = SolverConfig(eta=eta, max_iter=5000, rel_tol=1e-6, norm_T=_ref_norm(ds))
    rels = RelChanges()
    report = solve_constrained_fbpd(ds, spec, cfg, callback=rels)
    assert report.converged and report.final_rel_change == 0.0
    assert rels.values.count(0.0) >= 2
    _assert_same_run(report, _ref_constrained(ds, spec, eta, cfg))


def test_a_move_off_a_zero_state_is_not_small():
    zero, tiny = np.zeros(3), np.full(3, 1e-19)
    assert _rel_change(tiny, zero) == np.inf
    assert _rel_change(zero, zero) == 0.0
    assert _rel_change(2.0 * tiny, tiny) == 1.0  # no floor under a tiny state


def test_a_run_does_not_stop_on_a_rounding_move_off_zero():
    # after two steps x is still about 7e-19 in size; measured against a
    # floor of 1e-12 its move looked like convergence, with the hinge at
    # 18 against a budget of 1.8
    ds = split(split(make_synthetic(3, 8, 60, separation=4.0, seed=5),
                     train_fraction=0.5, seed=2)[0], per_class=6, seed=4)[0]
    report = solve_constrained_fbpd(ds, RegularizerSpec("l1"),
                                    SolverConfig(eta=1.8, max_iter=1000, rel_tol=1e-5))
    assert (report.iterations, report.converged) == (1000, False)
    assert report.hinge_sum < 2.0 and np.abs(report.model.augmented()).max() > 0.1


def _assert_kept_iterates_intact(solve, ds, cfg):
    """Every iterate the callback keeps holds, after the solve, the values
    it had when the callback got it."""
    kept, copies = [], []

    def keep(it, x):
        kept.append(x)
        copies.append(x.copy())

    report = solve(ds, RegularizerSpec("l1"), cfg, callback=keep)
    n = cfg.max_iter
    assert report.iterations == n
    assert len(kept) == n and len({id(x) for x in kept}) == n
    for x, snapshot in zip(kept, copies):
        np.testing.assert_array_equal(x, snapshot)


@pytest.mark.parametrize("solve", [solve_regularized_fbpd, solve_constrained_fbpd])
def test_kept_iterates_are_not_overwritten(solve):
    ds = make_synthetic(3, 12, 24, separation=3.0, seed=0)
    _assert_kept_iterates_intact(
        solve, ds, SolverConfig(lam=1.0, eta=7.0, max_iter=50, rel_tol=0.0))


@pytest.mark.parametrize("solve", [solve_regularized_fbpd, solve_constrained_fbpd])
def test_kept_screened_iterates_are_not_overwritten(monkeypatch, solve):
    # a screened step scatters its compact iterate into x_new, which must
    # be a fresh array for every step
    ds, norm = _wide(False)
    screened = []

    def count(self, x, y, y_eff, inner=solvers._Screen._screened):
        screened.append(None)
        return inner(self, x, y, y_eff)

    monkeypatch.setattr(solvers._Screen, "_screened", count)
    _assert_kept_iterates_intact(
        solve, ds, SolverConfig(lam=1.0, eta=3.0, max_iter=100, rel_tol=0.0, norm_T=norm))
    assert len(screened) >= 60


# ---------------------------------------------------------------------------
# the divergence guard

def _run(iterates, objectives=None, max_iter=None):
    """Drive `_iterate` with a stub step that hands out `iterates` in turn."""
    seq = iter(zip(iterates, objectives or [None] * len(iterates)))

    def step(x):
        x_new, obj = next(seq)
        return np.array(x_new, dtype=float), _no_dual_change, obj, None

    cfg = SolverConfig(max_iter=max_iter or len(iterates), rel_tol=0.0)
    return _iterate(step, np.zeros(4), cfg)


BIG = 0.9 * OBJECTIVE_CAP


@pytest.mark.parametrize("bad", [
    [1.0, np.nan, 0.0, 0.0],
    [1.0, np.inf, 0.0, 0.0],
    [-np.inf, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, np.nextafter(OBJECTIVE_CAP, np.inf)],
    [0.0, -1.5 * OBJECTIVE_CAP, 0.0, 0.0],
    [1e300, 1e300, 0.0, 0.0],
])
def test_guard_raises_on_a_bad_entry(bad):
    with np.errstate(over="ignore"), \
            pytest.raises(DivergenceError, match="non-finite or runaway iterate"):
        _run([[1.0, 2.0, 3.0, 4.0], bad])


def test_guard_passes_a_large_norm_with_small_entries():
    # the norm, 1.8 times the cap, is over it; no entry is
    x, it, _, _ = _run([[1.0, 0.0, 0.0, 0.0], [BIG, BIG, BIG, -BIG],
                        [OBJECTIVE_CAP, 0.0, 0.0, 0.0]])
    assert it == 3
    assert np.linalg.norm([BIG] * 4) > OBJECTIVE_CAP


def test_guard_agrees_with_the_entrywise_passes(rng):
    specials = [np.nan, np.inf, -np.inf, OBJECTIVE_CAP, -OBJECTIVE_CAP,
                np.nextafter(OBJECTIVE_CAP, np.inf), BIG, 0.0, -0.0, 1e-300]
    for _ in range(2000):
        x = rng.standard_normal(int(rng.integers(1, 6))) * 10.0 ** rng.integers(0, 14)
        x[rng.random(x.size) < 0.3] = rng.choice(specials)
        try:
            _ref_guard(x, None, None)
            expected = None
        except DivergenceError as exc:
            expected = str(exc)
        try:
            _guard(x, np.linalg.norm(x), None, None)
            got = None
        except DivergenceError as exc:
            got = str(exc)
        assert got == expected, x


def test_objective_cap_is_relative_to_the_first_objective():
    moving = [[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0], [3.0, 3.0, 3.0, 3.0]]
    # a start objective of 1e3 puts the cap at 1e15
    _run(moving, [1e3, 5e14, 1e15])
    with pytest.raises(DivergenceError, match="objective=2000000000000000.0"):
        _run(moving, [1e3, 5e14, 2e15])
    # below 1 the cap stays OBJECTIVE_CAP
    with pytest.raises(DivergenceError, match="objective="):
        _run(moving, [0.5, 2.0 * OBJECTIVE_CAP, 1.0])
    with pytest.raises(DivergenceError, match="objective=nan"):
        _run(moving, [1.0, np.nan, 1.0])
