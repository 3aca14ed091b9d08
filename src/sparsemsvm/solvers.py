"""The two primal-dual proximal solvers for the exact multiclass hinge
(regularized and constrained formulations) and three smooth-loss baselines
(squared hinge via accelerated forward-backward, multinomial logistic via
forward-backward, and one-vs-all squared hinge)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evaluate import objective_value
from .linop import (_apply_T_adjoint_aug, _apply_T_aug, _effective_dual, _scores_adjoint_aug,
                    _scores_aug, features_aug_norm, operator_norm)
from .model import Dataset, ModelVector, RegularizerSpec, issparse, make_margin_offsets
from .prox import (dual_norm, project_epigraph_max_rows, project_halfspace_sum,
                   project_simplex_rows, prox_regularizer_aug, regularizer_value)

OBJECTIVE_CAP = 1e12


class DivergenceError(RuntimeError):
    """Raised when an iterate goes non-finite or the objective blows up."""


@dataclass
class SolverConfig:
    """Hyperparameters and stopping rule shared by all solvers.

    Exactly one of `lam` (regularized / penalized formulations) or `eta`
    (constrained formulation) is used by a given solver; `for_alpha` sets
    the one a solver reads. `norm_T`, when set, is a precomputed ||T||,
    finite and >= 0, that saves re-estimating the operator norm for each
    point of an alpha grid over one training set.
    """

    lam: float | None = None
    eta: float | None = None
    max_iter: int = 10000
    rel_tol: float = 1e-5
    norm_T: float | None = None

    @classmethod
    def for_alpha(cls, solver, alpha, n_samples, *, max_iter, rel_tol, norm_T=None):
        """The configuration of `solver` at the sweep parameter `alpha`:
        the hinge budget eta = alpha * n_samples for the constrained
        formulation, the hinge weight lam = 1 / alpha for the others."""
        if solver == "fbpd-con":
            return cls(eta=alpha * n_samples, max_iter=max_iter, rel_tol=rel_tol, norm_T=norm_T)
        return cls(lam=1.0 / alpha, max_iter=max_iter, rel_tol=rel_tol, norm_T=norm_T)


@dataclass
class SolveReport:
    """Solution plus convergence diagnostics."""

    model: ModelVector
    iterations: int
    converged: bool
    final_rel_change: float
    g_value: float
    hinge_sum: float
    primal_objective: float
    constraint_violation: float | None = None
    dual_y: np.ndarray | None = None
    dual_objective: float | None = None
    dual_gap: float | None = None


def _require(cfg, name):
    value = getattr(cfg, name)
    if value is None or not (math.isfinite(value) and value > 0):
        raise ValueError(f"this solver needs a finite cfg.{name} > 0, got {value!r}")
    return float(value)


def _norm_T(dataset, cfg):
    """||T||: the caller's `cfg.norm_T`, finite and >= 0, else
    `operator_norm`'s value, which must not be a non-converged estimate."""
    if cfg.norm_T is None:
        return operator_norm(dataset).checked()
    if not (np.isfinite(cfg.norm_T) and cfg.norm_T >= 0):
        raise ValueError(f"cfg.norm_T must be finite and >= 0, got {cfg.norm_T!r}")
    return float(cfg.norm_T)


def _relative(move, size):
    """`move / size` for a state of norm `size`, with no floor under size:
    a move off an exactly-zero state is infinite, no move at all is 0."""
    if size > 0.0:
        return float(move / size)
    return 0.0 if move == 0.0 else np.inf


def _rel_change(x_new, x):
    d = x_new - x
    return _relative(math.sqrt(np.vdot(d, d)), math.sqrt(np.vdot(x, x)))


def _guard(x_aug, norm, objective, cap):
    """Divergence guard: abort on a non-finite or runaway iterate, or on an
    objective (None when unknown) that is non-finite or beyond `cap`.

    `norm` is the Euclidean norm of x_aug. A finite norm at most
    OBJECTIVE_CAP bounds every entry, so the entrywise passes run only
    when it is not."""
    if not norm <= OBJECTIVE_CAP and (
            not np.all(np.isfinite(x_aug)) or np.abs(x_aug).max(initial=0.0) > OBJECTIVE_CAP):
        raise DivergenceError("diverged: non-finite or runaway iterate")
    if objective is not None and (not np.isfinite(objective) or objective > cap):
        raise DivergenceError(f"diverged: objective={objective!r}")


def _iterate(step, z0, cfg, callback=None):
    """The iteration loop shared by every solver, owner of its state z: a
    tuple (x, y) for `fbpd-reg`, (x, y, xi, zeta) for `fbpd-con`, (x,) for
    the smooth solvers, whose momentum stays in their step.

    `step(z) -> (z_new, obj, sizes)` advances one iteration and must not
    change z. The iterate x_new = z_new[0] must be a fresh array, since
    callers may keep every iterate. `obj` is the objective at x_new when
    the step computes it anyway (the FISTA steps), else None. `sizes` is
    None, or the pair (||x_new - x||, ||x_new||) when the step has it for
    less than the loop's passes over every entry: a screened primal-dual
    step takes it from the columns it ran on, since x and x_new are zero
    off them (the same norms, their sums run over fewer zeros). The loop
    owns the relative change, the divergence guard, the callback and the
    stopping rule; the norm of x_new serves the guard and, one iteration
    later, the relative change. When x did not move, the stopping rule
    reads the largest `_rel_change` of the other entries of the state; it
    is decided before z is rebound, so no earlier state (z0 too) outlives the step.
    `callback(it, x)` sees every iterate the guard passed and must not
    change it. The objective cap applies to the steps that hand an
    objective: OBJECTIVE_CAP times the first one (at least 1), so a large
    `lam * loss` at the start is not mistaken for divergence.

    Returns (z, iterations, converged, final relative change).
    """
    z, rel, converged, it, cap = z0, np.inf, False, 0, None
    norm_x = math.sqrt(np.vdot(z0[0], z0[0]))
    diff = np.empty_like(z0[0])
    del z0
    for it in range(1, cfg.max_iter + 1):
        z_new, obj, sizes = step(z)
        if sizes is None:
            np.subtract(z_new[0], z[0], out=diff)
            sizes = math.sqrt(np.vdot(diff, diff)), math.sqrt(np.vdot(z_new[0], z_new[0]))
        move, norm_new = sizes
        rel = _relative(move, norm_x)
        # a bit-exact frozen primal only counts as converged once the dual
        # is stationary too (prox can pin x while y still warms up)
        converged = rel <= cfg.rel_tol and (
            rel > 0.0 or max(map(_rel_change, z_new[1:], z[1:]), default=0.0) <= cfg.rel_tol)
        z, norm_x = z_new, norm_new
        if cap is None and obj is not None:
            cap = OBJECTIVE_CAP * max(1.0, abs(obj))
        _guard(z[0], norm_x, obj, cap)
        if callback is not None:
            callback(it, z[0])
        if converged:
            break
    return z, it, converged, rel if it else 0.0


def _report(run, dataset, spec, lam=None, eta=None):
    """Build the SolveReport of an `_iterate` result.

    The model is the first entry of the final state, the dual iterate y
    its second (None for the smooth solvers, whose state is x alone).
    `lam` None is the constrained formulation: the objective is g alone
    and, with `eta` set, the report carries the hinge budget violation.
    The squared-l2 penalty with a dual iterate also gets its Fenchel gap.
    """
    z, it, converged, rel = run
    x, dual_y = z[0], (z[1] if len(z) > 1 else None)
    obj = objective_value(x, dataset, spec, lam)
    report = SolveReport(model=ModelVector.from_augmented(x), iterations=it,
                         converged=converged, final_rel_change=rel,
                         g_value=obj.g_value, hinge_sum=obj.hinge_sum,
                         primal_objective=obj.total, dual_y=dual_y)
    if eta is not None:
        report.constraint_violation = max(0.0, obj.hinge_sum - eta)
    if lam is not None and dual_y is not None and spec.kind == "l2sq":
        report.dual_objective, report.dual_gap = _l2sq_dual_gap(
            x, dual_y, dataset, obj.total)
    return report


# In-place pieces of the primal-dual step. Each keeps the operations and
# their order of the plain expression in its docstring, so the iterates
# are bitwise those of that expression.

def _forward(x, v, tau):
    """x - tau * v, computed in v (the adjoint's fresh output T^T y)."""
    np.multiply(tau, v, out=v)
    return np.subtract(x, v, out=v)


def _extrapolate(x_new, x, out):
    """2 * x_new - x, computed in `out`."""
    np.multiply(2.0, x_new, out=out)
    return np.subtract(out, x, out=out)


def _ascend(v, sigma, t):
    """v + sigma * t, computed in t."""
    np.multiply(sigma, t, out=t)
    return np.add(v, t, out=t)


def _dual_ascent(y, sigma, x_bar, dataset):
    """y + sigma * T x_bar, computed in T's fresh output."""
    return _ascend(y, sigma, _apply_T_aug(x_bar, dataset))


def _moreau(v_hat, sigma, p):
    """v_hat - sigma * p for a projection's fresh output p, computed in p."""
    np.multiply(sigma, p, out=p)
    return np.subtract(v_hat, p, out=p)


# Screening. A unit is what the prox zeroes as a whole (a column for l1, a
# group for l12 and l1inf). Its weights stay zero while `dual_norm` of its
# part of T^T y stays below 1.

# A plan keeps the SCREEN_SHARE of the units with the least slack, or twice
# the units the iterate holds when that is more. Measured with one BLAS
# thread on the perfbench leukemia inputs (K=3, M=7129, L=38), min of five
# interleaved solves per value: leukemia-con took 1.10-1.18 s at 0.02 and
# 1.21-1.36 s at 0.05 on seeds 0 to 2, 1.51-1.56 s at 0.1 on seeds 0 and 2;
# leukemia-l1inf, whose plans keep twice its active groups, did not tell
# 0.01 to 0.1 apart.
SCREEN_SHARE = 0.02
# Largest share of the M columns a screened step runs on, which bounds the
# copied features. leukemia-l1inf screens on 755-785 columns: at a cap of
# 0.1 it could not and took 1.29 s, at 0.2, 0.3 and 1.0 0.73-0.82 s (seed 0).
# Small M rarely gets under it (M=15: 4 columns).
SCREEN_MAX_SHARE = 0.3
# Dual-norm headroom below 1 that a screened unit keeps, so that the full
# step too would leave it an exact zero despite rounding in T^T y.
SCREEN_MARGIN = 1e-9


def _column_norms(features):
    """The Euclidean norm of every feature column."""
    if issparse(features):
        return np.sqrt(np.asarray(features.multiply(features).sum(axis=0)).ravel())
    return np.sqrt(np.einsum("lj,lj->j", features, features))


def _group_spectral_norms(features, blocks):
    """An upper bound on the largest singular value sigma of the dense
    features of every group, in `blocks.layout` order, at most s^(1/64)
    times sigma for a group of s features; one batch per run of
    equal-size groups.

    sigma^2 is the top eigenvalue of the group's s x s Gram G. The
    eigenvalues of P = G / tr(G) lie in [0, 1], and tr(P^32), the sum of
    their 32nd powers, is at least the largest one's and at most s times
    it; five squarings give P^32. This takes a fifth of the time of
    numpy's `eigvalsh` on the Grams: 0.45 ms against 2.5 for the 1 425
    groups of the leukemia shape (1.4 against 3.4-5.7 ms in a fresh
    process), where the bound on sigma^2 was at most 1.0185 times its
    value (median 1.0000)."""
    perm, runs = blocks.layout
    F = features if perm is None else np.take(features, perm, axis=1)
    norms = []
    for lo, hi, size, count in runs:
        R = F[:, lo:hi].reshape(F.shape[0], count, size).transpose(1, 2, 0)
        G = R @ R.transpose(0, 2, 1)
        trace = np.trace(G, axis1=1, axis2=2)
        P = np.divide(G, trace[:, None, None], out=np.zeros_like(G),
                      where=trace[:, None, None] > 0)
        for _ in range(5):
            P = P @ P
        norms.append(np.sqrt(trace * np.trace(P, axis1=1, axis2=2) ** (1 / 32)))
    return np.concatenate(norms)


def _unit_bounds(dataset, spec):
    """Lip_u for every unit: how fast its `dual_norm` can grow with e.

    By Cauchy-Schwarz over each feature column it is the unit's
    `dual_norm` of the column norms (their sum, or their l2 norm for
    l12). For a group u of s dense features the top singular value
    sigma_u bounds it too, since ||F_u^T d||_1 <= sqrt(s) ||F_u^T d|| <=
    sqrt(s) sigma_u ||d||: Lip_u is the smaller of the column bound and,
    with `_group_spectral_norms`'s bound on sigma_u, sqrt(s) times it
    (l1inf) or itself (l12). Cross-class groups sum or join the K class
    rows, which multiplies both by K or sqrt(K)."""
    features = dataset.features
    lip = dual_norm(_column_norms(features)[None, :], spec)
    if spec.needs_blocks and not issparse(features):
        spectral = _group_spectral_norms(features, spec.blocks)
        if spec.kind == "l1inf":
            spectral *= np.sqrt(spec.blocks.layout.sizes())
        np.minimum(lip, spectral, out=lip)
    if spec.needs_blocks and spec.blocks.mode == "cross-class":
        lip *= dataset.n_classes if spec.kind == "l1inf" else np.sqrt(dataset.n_classes)
    return lip


class _Plan(NamedTuple):
    """What the steps on the columns of one refresh share."""

    bound: float          # delta: screen while e < delta
    e_ref: np.ndarray     # E(y_ref)
    flat: np.ndarray      # the flat positions in x of C and the offset column, row by row
    dataset: Dataset      # the features of C
    spec: RegularizerSpec  # the penalty on C


class _Screen:
    """The primal step and the extrapolated dual ascent of both primal-dual
    solvers, `(x, y) -> (x_new, y_hat, sizes)`, taken over the weight
    columns that can move; `sizes` is `_iterate`'s, None for a full step.

    A refresh computes the full T^T y. It gives each unit u the slack
    (1 - SCREEN_MARGIN - D_u) / Lip_u: D_u is the unit's `dual_norm`, and
    Lip_u (`_unit_bounds`) bounds how fast that grows with e = max_k
    ||E(y - y_ref)_{:,k}||, E being the map `_effective_dual` through which
    T^T reads y, and y_ref the dual of the refresh. A plan picks a bound
    delta >= 0 on e (see SCREEN_SHARE) and the columns C of every unit with
    slack at most delta or a nonzero in the iterate x. Every other unit is
    zero in x and has a positive slack, so the prox leaves it an exact zero
    at y_ref and at every dual with e < delta. So the refresh itself and
    the steps after it while e < delta run the three lines on the features
    of C alone and scatter the result into zeros; the iterates are the full
    steps' up to rounding, which differs only in the sums over the columns.
    A refresh takes its T^T y on C from the full one; a later step on C
    does no work that grows with M but for the fresh iterate it zero-fills:
    handed the very x_new of the previous step on the plan (`x is
    x_last`), it starts from the compact iterate on C that step kept (any
    other x it gathers on C), E(y) serves both the test of e and T^T y, and
    the norms of x_new and of its move come from C's entries. The first
    step with e >= delta is a refresh again. A refresh is a full step only
    where no plan forms: when C would hold all units or exceed
    SCREEN_MAX_SHARE of the columns. l2sq zeroes no weight and is never
    screened. No other code restricts T or T^T to columns.
    """

    def __init__(self, dataset, spec, tau, sigma):
        self.dataset, self.spec, self.tau, self.sigma = dataset, spec, tau, sigma
        K, M = dataset.n_classes, dataset.n_features
        self.ext = np.empty((K, M + 1))
        self.plan = None
        # the x_new and compact iterate of the last step on the plan (None
        # before the first) and the spare buffer the next one writes its
        # prox into
        self.x_last = self.xc = self.spare = None
        self.max_cols = SCREEN_MAX_SHARE * M
        self.screens = spec.kind != "l2sq"
        if not self.screens:
            return
        # the number of columns of each unit, in `dual_norm`'s order
        self.sizes = spec.blocks.layout.sizes() if spec.needs_blocks else None
        lip = _unit_bounds(dataset, spec)
        self.inv_lip = np.divide(1.0, lip, out=np.full(lip.shape, np.inf), where=lip > 0)

    def slack(self, v):
        """Each unit's slack at the adjoint's output v = T^T y_ref."""
        return (1.0 - SCREEN_MARGIN - dual_norm(v[:, :-1], self.spec)) * self.inv_lip

    def _plan(self, slack, x, e_ref):
        """The data of the steps on C from the refresh at the dual whose
        E(y) is e_ref and whose iterate is x, or None when no plan forms."""
        # on the 0/1 mask: a tiny weight's square can underflow to 0
        active = dual_norm(x[:, :-1].any(axis=0, keepdims=True), self.spec) > 0
        rank = max(int(SCREEN_SHARE * slack.size), 2 * int(np.count_nonzero(active)))
        if rank >= slack.size:
            return None
        delta = max(float(np.partition(slack, rank)[rank]), 0.0)
        keep = (slack <= delta) | active
        grouped = self.spec.needs_blocks
        n_cols = self.sizes[keep].sum() if grouped else np.count_nonzero(keep)
        if n_cols > self.max_cols:
            return None
        if grouped:
            cols, blocks = self.spec.blocks.restrict(keep)
            spec = RegularizerSpec(self.spec.kind, blocks)
        else:
            cols, spec = np.flatnonzero(keep), self.spec
        K, M = x.shape[0], self.dataset.n_features
        flat = (np.arange(K)[:, None] * (M + 1) + np.append(cols, M)).ravel()
        return _Plan(delta, e_ref, flat, self.dataset.columns(cols), spec)

    def _within(self, y_eff):
        """Whether e < delta at the dual whose E(y) is y_eff."""
        e = y_eff - self.plan.e_ref
        return math.sqrt(np.maximum.reduce(np.einsum("lk,lk->k", e, e))) < self.plan.bound

    def __call__(self, x, y):
        y_eff = _effective_dual(y, self.dataset)
        if self.plan is not None and self._within(y_eff):
            return self._screened(x, y, y_eff)
        return self._refresh(x, y, y_eff)

    def _refresh(self, x, y, y_eff):
        v = _apply_T_adjoint_aug(y, self.dataset, y_eff=y_eff)
        self.x_last = self.xc = self.spare = None
        self.plan = self._plan(self.slack(v), x, y_eff) if self.screens else None
        if self.plan is not None:
            return self._on_plan(x, y, v.take(self.plan.flat).reshape(x.shape[0], -1))
        x_new = prox_regularizer_aug(_forward(x, v, self.tau), self.spec, self.tau)
        y_hat = _dual_ascent(y, self.sigma, _extrapolate(x_new, x, self.ext), self.dataset)
        return x_new, y_hat, None

    def _screened(self, x, y, y_eff):
        """A step on the plan of an earlier refresh, while e < delta."""
        return self._on_plan(x, y, _apply_T_adjoint_aug(y, self.plan.dataset, y_eff=y_eff))

    def _on_plan(self, x, y, v):
        """The step on the plan's columns C, from v = T^T y on C."""
        plan = self.plan
        xc = self.xc if x is self.x_last else x.take(plan.flat).reshape(x.shape[0], -1)
        xc_new = prox_regularizer_aug(_forward(xc, v, self.tau), plan.spec, self.tau,
                                      out=self.spare)
        y_hat = _dual_ascent(y, self.sigma, 2.0 * xc_new - xc, plan.dataset)
        # x and x_new are zero off C, so their norms are those of C's
        # entries (the loop's sums over every entry, less the zeros)
        d = xc_new - xc
        x_new = np.zeros(x.shape)
        # a flat index assignment: the same copy as put, in half its time
        x_new.reshape(-1)[plan.flat] = xc_new.reshape(-1)
        self.x_last, self.xc, self.spare = x_new, xc_new, xc
        return x_new, y_hat, (math.sqrt(np.vdot(d, d)), math.sqrt(np.vdot(xc_new, xc_new)))


def solve_regularized_fbpd(dataset: Dataset, spec: RegularizerSpec,
                           cfg: SolverConfig, callback=None) -> SolveReport:
    """Primal-dual splitting for  min_x g(x) + lam * sum_l h_l(T_l x).

    Iterates the three-line scheme: primal prox of tau*g at x - tau*T^T y,
    extrapolated dual update yhat = y + sigma*T(2x+ - x), then blockwise
    projection of yhat + sigma*r onto the scaled simplices S_lam. Stops on
    the relative change of the primal iterate.
    """
    lam = _require(cfg, "lam")
    spec.validate(dataset.n_features)
    K, M, L = dataset.n_classes, dataset.n_features, dataset.n_samples
    tau = sigma = 1.0 / max(_norm_T(dataset, cfg), 1e-8)  # tau*sigma*||T||^2 <= 1
    sigma_r = sigma * make_margin_offsets(dataset)
    primal = _Screen(dataset, spec, tau, sigma)

    def step(z):
        x_new, y_hat, sizes = primal(*z)
        return (x_new, project_simplex_rows(np.add(y_hat, sigma_r, out=y_hat), lam)), None, sizes

    run = _iterate(step, (np.zeros((K, M + 1)), np.zeros((L, K))), cfg, callback)
    return _report(run, dataset, spec, lam=lam)


def _l2sq_dual_gap(x_aug, y, dataset, primal):
    """Fenchel-Rockafellar dual value g*(-T^T y) - <r, y> for the squared-l2
    penalty, plus the resulting primal-dual gap.

    For g = sum of squared class weight norms (offsets free), g*(v) is a
    quarter of the squared norm of the weight part, subject to the offset
    part vanishing; the offset residual is part of the gap diagnostics via
    the link identity checked in the tests.
    """
    v = -_apply_T_adjoint_aug(y, dataset)
    r = make_margin_offsets(dataset)
    dual = 0.25 * float((v[:, :-1] ** 2).sum()) - float((r * y).sum())
    return dual, primal + dual


def solve_constrained_fbpd(dataset: Dataset, spec: RegularizerSpec,
                           cfg: SolverConfig, callback=None) -> SolveReport:
    """Primal-dual splitting for  min_x g(x)  s.t.  sum_l h_l(T_l x) <= eta.

    The hinge budget is split over auxiliary heights zeta_l constrained to
    a half-space, and each pair (T_l x, zeta_l) to the epigraph of h_l; the
    dual step applies the epigraphical projections blockwise through the
    Moreau decomposition.
    """
    eta = _require(cfg, "eta")
    spec.validate(dataset.n_features)
    K, M, L = dataset.n_classes, dataset.n_features, dataset.n_samples
    # the (x, zeta) operator diag(T, I) has norm max(||T||, 1)
    tau = sigma = 1.0 / max(_norm_T(dataset, cfg), 1.0)
    r = make_margin_offsets(dataset)
    primal = _Screen(dataset, spec, tau, sigma)

    def step(z):
        x, y, xi, zeta = z
        x_new, y_hat, sizes = primal(x, y)
        zeta_new = project_halfspace_sum(zeta - tau * xi, eta)
        xi_hat = xi + sigma * (2.0 * zeta_new - zeta)
        y_tilde, xi_tilde = project_epigraph_max_rows(y_hat / sigma, r, xi_hat / sigma)
        return (x_new, _moreau(y_hat, sigma, y_tilde), _moreau(xi_hat, sigma, xi_tilde),
                zeta_new), None, sizes

    run = _iterate(step, (np.zeros((K, M + 1)), np.zeros((L, K)), np.zeros(L), np.zeros(L)),
                   cfg, callback)
    return _report(run, dataset, spec, eta=eta)


# ---------------------------------------------------------------------------
# smooth baselines

def _square_loss_grad(x_aug, dataset, r, lam):
    """Value and gradient of lam * sum of squared positive margin gaps."""
    A = _apply_T_aug(x_aug, dataset) + r
    pos = np.maximum(A, 0.0)
    pos.reshape(-1)[dataset.own_index] = 0.0  # own class excluded
    value = lam * float((pos ** 2).sum())
    grad = 2.0 * lam * _apply_T_adjoint_aug(pos, dataset)
    return value, grad


def _logistic_loss_grad(x_aug, dataset, r, lam):
    """Value and gradient of the multinomial logistic loss
    lam * sum_l log(1 + sum_{k != z_l} exp(mu_l + score gap)), evaluated
    with max-subtraction for numerical stability."""
    A = _apply_T_aug(x_aug, dataset) + r
    A.reshape(-1)[dataset.own_index] = -np.inf  # own class excluded
    m = np.maximum(A.max(axis=1), 0.0)
    expA = np.exp(A - m[:, None])
    denom = np.exp(-m) + expA.sum(axis=1)
    value = lam * float((m + np.log(denom)).sum())
    P = expA / denom[:, None]
    grad = lam * _apply_T_adjoint_aug(P, dataset)
    return value, grad


def _fista(x0, loss_grad, spec, gamma, cfg, callback=None):
    """Accelerated forward-backward with function-value restart.

    `loss_grad(x) -> (value, grad)` is the smooth part, the prox of g the
    backward step with step size `gamma`; the objective drives the restart
    test and is what each step hands to `_iterate`.
    """
    v, t = x0, 1.0
    obj_x = loss_grad(x0)[0] + regularizer_value(x0, spec)

    def step(z):
        nonlocal v, t, obj_x
        x, = z
        _, grad_v = loss_grad(v)
        x_new = prox_regularizer_aug(v - gamma * grad_v, spec, gamma)
        obj_new = loss_grad(x_new)[0] + regularizer_value(x_new, spec)
        if obj_new > obj_x:  # momentum restart: plain descent step from x
            t = 1.0
            _, grad_x = loss_grad(x)
            x_new = prox_regularizer_aug(x - gamma * grad_x, spec, gamma)
            obj_new = loss_grad(x_new)[0] + regularizer_value(x_new, spec)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v = x_new + ((t - 1.0) / t_new) * (x_new - x)
        t, obj_x = t_new, obj_new
        return (x_new,), obj_new, None

    return _iterate(step, (x0,), cfg, callback)


def solve_square_fista(dataset: Dataset, spec: RegularizerSpec,
                       cfg: SolverConfig, callback=None) -> SolveReport:
    """Accelerated forward-backward on the squared multiclass hinge
    penalty plus prox of g; step from the bound Lip = 2*lam*||T||^2."""
    lam = _require(cfg, "lam")
    spec.validate(dataset.n_features)
    K, M = dataset.n_classes, dataset.n_features
    normT = _norm_T(dataset, cfg)
    r = make_margin_offsets(dataset)
    gamma = 1.0 / max(2.0 * lam * normT ** 2, 1e-12)
    run = _fista(np.zeros((K, M + 1)), lambda z: _square_loss_grad(z, dataset, r, lam),
                 spec, gamma, cfg, callback)
    return _report(run, dataset, spec, lam=lam)


def solve_logistic_fb(dataset: Dataset, spec: RegularizerSpec,
                      cfg: SolverConfig, callback=None) -> SolveReport:
    """Forward-backward on the multinomial logistic loss plus prox of g;
    step from the conservative bound Lip = lam*||T||^2."""
    lam = _require(cfg, "lam")
    spec.validate(dataset.n_features)
    K, M = dataset.n_classes, dataset.n_features
    normT = _norm_T(dataset, cfg)
    r = make_margin_offsets(dataset)
    gamma = 1.0 / max(lam * normT ** 2, 1e-12)

    def step(z):
        x, = z
        _, grad = _logistic_loss_grad(x, dataset, r, lam)
        return (prox_regularizer_aug(x - gamma * grad, spec, gamma),), None, None

    run = _iterate(step, (np.zeros((K, M + 1)),), cfg, callback)
    return _report(run, dataset, spec, lam=lam)


def solve_one_vs_all(dataset: Dataset, spec: RegularizerSpec,
                     cfg: SolverConfig, callback=None) -> SolveReport:
    """K binary squared-hinge problems, class k against the rest, solved
    as one accelerated forward-backward run on the stacked (K, M+1) iterate.

    Block k's binary target is +1 on class k's samples and -1 elsewhere.
    The loss and every accepted penalty separate over the blocks, so each
    stacked iteration advances all K problems; `max_iter` and the callback
    count stacked iterations. Cross-class groupings couple the blocks and
    are rejected.
    """
    lam = _require(cfg, "lam")
    spec.validate(dataset.n_features)
    if spec.blocks is not None and spec.blocks.mode == "cross-class":
        raise ValueError("one-vs-all cannot honor cross-class groups")
    K, M = dataset.n_classes, dataset.n_features
    norm_phi = features_aug_norm(dataset).checked()
    gamma = 1.0 / max(2.0 * lam * norm_phi ** 2, 1e-12)
    sign = np.where(dataset.labels[:, None] == np.arange(K), 1.0, -1.0)
    mu = dataset.margins[:, None]

    def loss_grad(x):
        gap = np.maximum(mu - sign * _scores_aug(x, dataset), 0.0)
        coeff = -2.0 * lam * sign * gap
        return lam * float((gap ** 2).sum()), _scores_adjoint_aug(coeff, dataset)

    run = _fista(np.zeros((K, M + 1)), loss_grad, spec, gamma, cfg, callback)
    return _report(run, dataset, spec, lam=lam)


SOLVERS = {
    "fbpd-reg": solve_regularized_fbpd,
    "fbpd-con": solve_constrained_fbpd,
    "fista-square": solve_square_fista,
    "fb-logit": solve_logistic_fb,
    "one-vs-all": solve_one_vs_all,
}
