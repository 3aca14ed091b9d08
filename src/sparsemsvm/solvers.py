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
from .linop import (_apply_T_adjoint_aug, _apply_T_aug, _effective_dual, _scores_aug,
                    features_aug_norm, operator_norm)
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
    if value is None or not value > 0:
        raise ValueError(f"this solver needs cfg.{name} > 0")
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
    return _relative(np.linalg.norm(x_new - x), np.linalg.norm(x))


def _dual_change(pairs):
    """The relative change of a dual state as `_iterate` reads it, on
    demand: the largest `_rel_change` over its (new, old) array pairs."""
    return lambda: max(_rel_change(new, old) for new, old in pairs)


def _no_dual_change():
    """`dual_rel` of a solver without a dual state."""
    return 0.0


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


def _iterate(step, x0, cfg, callback=None):
    """The iteration loop shared by every solver.

    `step(x) -> (x_new, dual_rel, obj, sizes)` advances one iteration and
    keeps any dual or momentum state in its closure. x_new must be a fresh
    array, since callers may keep every iterate. `dual_rel()` returns the
    relative change of the dual state (`_no_dual_change` for the smooth
    solvers); the stopping rule calls it only when x did not move. `obj`
    is the objective at x_new when the step computes it anyway (the FISTA
    steps), else None. `sizes` is None, or the pair (||x_new - x||,
    ||x_new||) when the step has it for less than the loop's passes over
    every entry: a screened primal-dual step takes it from the columns it
    ran on, since x and x_new are zero off them (the same norms, their
    sums run over fewer zeros). The loop owns the relative change, the
    divergence guard, the callback and the stopping rule; the norm of
    x_new serves the guard and, one iteration later, the relative change.
    `callback(it, x)` sees every iterate the guard passed and must not
    change it. The objective cap applies to the steps that hand an
    objective: OBJECTIVE_CAP times the first one (at least 1), so a large
    `lam * loss` at the start is not mistaken for divergence.

    Returns (x, iterations, converged, final relative change).
    """
    x, rel, converged, it, cap = x0, np.inf, False, 0, None
    norm_x = np.linalg.norm(x0)
    diff = np.empty_like(x0)
    for it in range(1, cfg.max_iter + 1):
        x_new, dual_rel, obj, sizes = step(x)
        if sizes is None:
            np.subtract(x_new, x, out=diff)
            sizes = np.linalg.norm(diff), np.linalg.norm(x_new)
        move, norm_new = sizes
        rel = _relative(move, norm_x)
        x, norm_x = x_new, norm_new
        if cap is None and obj is not None:
            cap = OBJECTIVE_CAP * max(1.0, abs(obj))
        _guard(x, norm_x, obj, cap)
        if callback is not None:
            callback(it, x)
        # a bit-exact frozen primal only counts as converged once the dual
        # is stationary too (prox can pin x while y still warms up)
        if rel <= cfg.rel_tol and (rel > 0.0 or dual_rel() <= cfg.rel_tol):
            converged = True
            break
    return x, it, converged, rel if it else 0.0


def _report(run, dataset, spec, lam=None, eta=None, dual_y=None):
    """Build the SolveReport of an `_iterate` result.

    `lam` None is the constrained formulation: the objective is g alone
    and, with `eta` set, the report carries the hinge budget violation.
    The squared-l2 penalty with a dual iterate also gets its Fenchel gap.
    """
    x, it, converged, rel = run
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

def _forward(x, v, tau, out=None):
    """x - tau * v, computed in `out`, by default in v (the adjoint's fresh
    output T^T y)."""
    out = v if out is None else out
    np.multiply(tau, v, out=out)
    return np.subtract(x, out, out=out)


def _extrapolate(x_new, x, out):
    """2 * x_new - x, computed in `out`."""
    np.multiply(2.0, x_new, out=out)
    return np.subtract(out, x, out=out)


def _ascend(v, sigma, t):
    """v + sigma * t, computed in t."""
    np.multiply(sigma, t, out=t)
    return np.add(v, t, out=t)


def _dual_ascent(y, sigma, x_bar, dataset, *, gather=True):
    """y + sigma * T x_bar, computed in T's fresh output (`gather` as in
    `_apply_T_aug`)."""
    return _ascend(y, sigma, _apply_T_aug(x_bar, dataset, gather=gather))


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
# Small M rarely gets under it (M=15: 4 columns), so it backs off.
SCREEN_MAX_SHARE = 0.3
# Dual-norm headroom below 1 that a screened unit keeps, so that the full
# step too would leave it an exact zero despite rounding in T^T y.
SCREEN_MARGIN = 1e-9


def _column_norms(features):
    """The Euclidean norm of every feature column."""
    if issparse(features):
        return np.sqrt(np.asarray(features.multiply(features).sum(axis=0)).ravel())
    return np.sqrt(np.einsum("lj,lj->j", features, features))


class _Plan(NamedTuple):
    """What the screened steps after one refresh share."""

    bound: float          # delta: screen while e < delta
    e_ref: np.ndarray     # E(y_ref)
    flat: np.ndarray      # the flat positions in x of C and the offset column, row by row
    dataset: Dataset      # the features of C
    spec: RegularizerSpec  # the penalty on C
    ext: np.ndarray       # the extrapolation's buffer on C, then that of x_new - x


class _Screen:
    """The primal step and the extrapolated dual ascent of both primal-dual
    solvers, `(x, y) -> (x_new, y_hat, sizes)`, taken over the weight
    columns that can move; `sizes` is `_iterate`'s, None for a full step.

    A refresh is the full step. Its T^T y also gives each unit u the slack
    (1 - SCREEN_MARGIN - D_u) / Lip_u: D_u is the unit's `dual_norm`, and
    Lip_u bounds how fast that grows with e = max_k ||E(y - y_ref)_{:,k}||,
    E being the map `_effective_dual` through which T^T reads y, and y_ref
    the dual of the refresh. By Cauchy-Schwarz over each feature column, Lip_u is
    the unit's `dual_norm` of the column norms (their sum, or their l2 norm
    for l12), times K or sqrt(K) for cross-class groups. A plan picks a bound
    delta on e (see SCREEN_SHARE) and the columns C of every unit with
    slack at most delta or a nonzero in the new iterate. While e < delta
    every other unit stays an exact zero, so each step runs the three
    lines on the features of C alone and scatters the result into zeros;
    the iterates are the full steps' up to rounding, which differs only
    in the sums over the columns. Such a step does no work that grows
    with M but for the fresh iterate it zero-fills: it starts from the
    compact iterate on C that the previous screened step kept, E(y) serves
    both the test of e and T^T y, T on C takes its GEMM without probing
    for zero columns (C holds the units in use and those nearest to it),
    and the norms of x_new and of its move come from C's entries. The
    first step with e >= delta is a refresh again. A plan that runs no
    screened step, because delta is 0 or C would exceed SCREEN_MAX_SHARE
    of the columns or e is too large at once, postpones the next plan by
    1, 2, 4, ... full steps, back to none after a plan that screens. l2sq zeroes no weight and is never screened.
    """

    def __init__(self, dataset, spec, tau, sigma):
        self.dataset, self.spec, self.tau, self.sigma = dataset, spec, tau, sigma
        K, M, L = dataset.n_classes, dataset.n_features, dataset.n_samples
        self.ext = np.empty((K, M + 1))
        # E(y) and the test's E(y) - E(y_ref), in buffers of the solve
        self.y_eff, self.e = np.empty((L, K)), np.empty((L, K))
        self.plan = None
        # the compact iterate of the last screened step (None after a full
        # one) and the spare buffer the next one writes its prox into
        self.xc = self.spare = None
        # wait: full steps before the next plan; backoff: the wait that
        # follows a plan that runs no screened step
        self.backoff = self.wait = 0
        self.max_cols = SCREEN_MAX_SHARE * M
        self.screens = spec.kind != "l2sq"
        if not self.screens:
            return
        lip = dual_norm(_column_norms(dataset.features)[None, :], spec)
        if spec.needs_blocks and spec.blocks.mode == "cross-class":
            lip *= K if spec.kind == "l1inf" else np.sqrt(K)
        self.inv_lip = np.divide(1.0, lip, out=np.full(lip.shape, np.inf), where=lip > 0)

    def slack(self, v):
        """Each unit's slack at the adjoint's output v = T^T y_ref."""
        return (1.0 - SCREEN_MARGIN - dual_norm(v[:, :-1], self.spec)) * self.inv_lip

    def _plan(self, slack, x_new, y_ref):
        """The screened step's data after the refresh at y_ref, or None
        when it cannot screen."""
        # on the 0/1 mask: a tiny weight's square can underflow to 0
        active = dual_norm(x_new[:, :-1].any(axis=0, keepdims=True), self.spec) > 0
        rank = max(int(SCREEN_SHARE * slack.size), 2 * int(np.count_nonzero(active)))
        if rank >= slack.size:
            return None
        delta = max(float(np.partition(slack, rank)[rank]), 0.0)
        keep = (slack <= delta) | active
        grouped = self.spec.needs_blocks
        n_cols = self.spec.blocks.layout.sizes()[keep].sum() if grouped else np.count_nonzero(keep)
        if delta == 0.0 or n_cols > self.max_cols:
            return None
        if grouped:
            cols, blocks = self.spec.blocks.restrict(keep)
            spec = RegularizerSpec(self.spec.kind, blocks)
        else:
            cols, spec = np.flatnonzero(keep), self.spec
        K, M = x_new.shape[0], self.dataset.n_features
        flat = (np.arange(K)[:, None] * (M + 1) + np.append(cols, M)).ravel()
        return _Plan(delta, _effective_dual(y_ref, self.dataset), flat,
                     self.dataset.columns(cols), spec, np.empty((K, cols.size + 1)))

    def _within(self, y_eff):
        """Whether e < delta at the dual whose E(y) is y_eff."""
        e = np.subtract(y_eff, self.plan.e_ref, out=self.e)
        return math.sqrt(np.maximum.reduce(np.einsum("lk,lk->k", e, e))) < self.plan.bound

    def __call__(self, x, y):
        y_eff = None
        if self.plan is not None:
            y_eff = _effective_dual(y, self.dataset, out=self.y_eff)
            if self._within(y_eff):
                self.backoff = 0
                return self._screened(x, y, y_eff)
            self.plan, self.wait = None, self.backoff
        self.xc = self.spare = None
        v = _apply_T_adjoint_aug(y, self.dataset, y_eff=y_eff)
        slack = None
        if self.wait:
            self.wait -= 1
        elif self.screens:
            slack = self.slack(v)
        x_new = prox_regularizer_aug(_forward(x, v, self.tau), self.spec, self.tau)
        y_hat = _dual_ascent(y, self.sigma, _extrapolate(x_new, x, self.ext), self.dataset)
        if slack is not None:
            # a plan that runs no screened step doubles the wait before the
            # next one; the first screened step clears it
            self.backoff = max(1, 2 * self.backoff)
            self.plan = self._plan(slack, x_new, y)
            if self.plan is None:
                self.wait = self.backoff
        return x_new, y_hat, None

    def _screened(self, x, y, y_eff):
        plan = self.plan
        # x is the last step's x_new: after a screened step of this plan
        # its entries on C are that step's compact iterate, kept
        xc = self.xc
        if xc is None:
            xc = x.take(plan.flat).reshape(plan.ext.shape)
        v = _apply_T_adjoint_aug(y, plan.dataset, y_eff=y_eff)
        xc_new = prox_regularizer_aug(_forward(xc, v, self.tau), plan.spec, self.tau,
                                      out=self.spare)
        y_hat = _dual_ascent(y, self.sigma, _extrapolate(xc_new, xc, plan.ext), plan.dataset,
                             gather=False)
        # x and x_new are zero off C, so their norms are those of C's
        # entries (the sums np.linalg.norm takes, without its wrapper)
        d = np.subtract(xc_new, xc, out=plan.ext)
        x_new = np.zeros(x.shape)
        x_new.put(plan.flat, xc_new)
        self.xc, self.spare = xc_new, xc
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
    y = np.zeros((L, K))
    primal = _Screen(dataset, spec, tau, sigma)

    def step(x):
        nonlocal y
        x_new, y_hat, sizes = primal(x, y)
        y_new = project_simplex_rows(np.add(y_hat, sigma_r, out=y_hat), lam)
        dual_rel = _dual_change([(y_new, y)])
        y = y_new
        return x_new, dual_rel, None, sizes

    run = _iterate(step, np.zeros((K, M + 1)), cfg, callback)
    return _report(run, dataset, spec, lam=lam, dual_y=y)


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
    zeta = np.zeros(L)
    y = np.zeros((L, K))
    xi = np.zeros(L)
    primal = _Screen(dataset, spec, tau, sigma)
    # the step's temporaries: zeta - tau * xi, xi_hat, y_hat / sigma and
    # xi_hat / sigma; the states and the projections' outputs stay fresh
    zeta_fwd, xi_hat, y_scaled, xi_scaled = np.empty(L), np.empty(L), np.empty((L, K)), np.empty(L)

    def step(x):
        nonlocal zeta, y, xi
        x_new, y_hat, sizes = primal(x, y)
        zeta_new = project_halfspace_sum(_forward(zeta, xi, tau, out=zeta_fwd), eta)
        _ascend(xi, sigma, _extrapolate(zeta_new, zeta, xi_hat))
        y_tilde, xi_tilde = project_epigraph_max_rows(np.divide(y_hat, sigma, out=y_scaled), r,
                                                      np.divide(xi_hat, sigma, out=xi_scaled))
        y_new, xi_new = _moreau(y_hat, sigma, y_tilde), _moreau(xi_hat, sigma, xi_tilde)
        dual_rel = _dual_change([(y_new, y), (xi_new, xi), (zeta_new, zeta)])
        zeta, y, xi = zeta_new, y_new, xi_new
        return x_new, dual_rel, None, sizes

    run = _iterate(step, np.zeros((K, M + 1)), cfg, callback)
    return _report(run, dataset, spec, eta=eta, dual_y=y)


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

    def step(x):
        nonlocal v, t, obj_x
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
        return x_new, _no_dual_change, obj_new, None

    return _iterate(step, x0, cfg, callback)


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

    def step(x):
        _, grad = _logistic_loss_grad(x, dataset, r, lam)
        x_new = prox_regularizer_aug(x - gamma * grad, spec, gamma)
        return x_new, _no_dual_change, None, None

    run = _iterate(step, np.zeros((K, M + 1)), cfg, callback)
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
        gw = np.asarray(coeff.T @ dataset.features)
        return lam * float((gap ** 2).sum()), np.hstack([gw, coeff.sum(axis=0)[:, None]])

    run = _fista(np.zeros((K, M + 1)), loss_grad, spec, gamma, cfg, callback)
    return _report(run, dataset, spec, lam=lam)


SOLVERS = {
    "fbpd-reg": solve_regularized_fbpd,
    "fbpd-con": solve_constrained_fbpd,
    "fista-square": solve_square_fista,
    "fb-logit": solve_logistic_fb,
    "one-vs-all": solve_one_vs_all,
}
