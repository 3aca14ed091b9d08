"""The margin operator T (stack of per-sample score-gap maps), its adjoint,
and power-iteration operator-norm estimates used to set step sizes.

T is always applied matrix-free: the L*K x (M+1)*K matrix is never
materialized, and the implicit augmentation [features, 1] is applied on
the fly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .model import Dataset


class NormEstimate(NamedTuple):
    """Power-iteration result; `value` already carries the safety factor."""

    value: float
    converged: bool
    iterations: int


def _scores_aug(x_aug, dataset):
    """Per-class scores phi~(u_l)^T x^(k) for every sample, shape (L, K).

    Dense features take the product as (W @ features^T)^T, the faster GEMM
    orientation for a few class rows; the result is C-ordered like the
    CSR product, so row reductions downstream sum in one order.
    """
    W = x_aug[:, :-1]
    b = x_aug[:, -1]
    if sp.issparse(dataset.features):
        return dataset.features @ W.T + b
    return np.add((W @ dataset.features.T).T, b, order="C")


def _apply_T_aug(x_aug, dataset):
    """Margins y(l, k) = phi~(u_l)^T (x^(k) - x^(z_l)) of the (K, M+1)
    augmented array x_aug, as an (L, K) array whose column z_l of row l is
    exactly zero."""
    scores = _scores_aug(x_aug, dataset)
    own = scores[np.arange(dataset.n_samples), dataset.labels]
    # own-class column is an exact 0: identical floats subtracted
    return scores - own[:, None]


def _apply_T_adjoint_aug(y, dataset):
    """Adjoint of `_apply_T_aug` at an (L, K) array y: row k of the (K, M+1)
    result accumulates sum_l [y(l,k) - delta_{k=z_l} sum_j y(l,j)] * phi~(u_l),
    the appended constant of phi~ making the offsets accumulate too."""
    row_sums = y.sum(axis=1)
    y_eff = y.copy()
    y_eff[np.arange(dataset.n_samples), dataset.labels] -= row_sums
    b = y_eff.sum(axis=0)
    if sp.issparse(dataset.features):
        # scipy's product is column-major, and so is this result
        return np.hstack([np.asarray(y_eff.T @ dataset.features), b[:, None]])
    out = np.empty((y.shape[1], dataset.n_features + 1))
    np.matmul(y_eff.T, dataset.features, out=out[:, :-1])
    out[:, -1] = b
    return out


def _power_iteration(matvec, rmatvec, v0, tol, max_iter):
    """sqrt of the largest eigenvalue of A^T A via power iteration on A^T A.

    Stops when successive Rayleigh-quotient square roots agree to a
    relative `tol`.
    """
    v = v0 / max(np.linalg.norm(v0), 1e-300)
    est = 0.0
    for it in range(1, max_iter + 1):
        w = matvec(v)
        new_est = float(np.linalg.norm(w))
        if new_est == 0.0:
            return 0.0, True, it
        v = rmatvec(w)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return new_est, True, it
        v = v / nv
        if abs(new_est - est) <= tol * max(new_est, 1e-300):
            return new_est, True, it
        est = new_est
    return est, False, max_iter


# A start vector must not have all class blocks equal: such vectors are
# annihilated by T. A fixed seeded draw keeps step sizes reproducible.
_START_SEED = 0
_NORM_TOL, _NORM_MAX_ITER = 1e-9, 1000  # default stopping rule of the power iteration


def operator_norm(dataset: Dataset, tol: float = _NORM_TOL,
                  max_iter: int = _NORM_MAX_ITER) -> NormEstimate:
    """Estimate of ||T|| inflated by a 1.01 safety factor.

    Power iteration on T^T T from a deterministic start vector; a
    non-converged run returns the best estimate with `converged=False`.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    K, M = dataset.n_classes, dataset.n_features
    v0 = np.random.default_rng(_START_SEED).standard_normal((K, M + 1))
    est, converged, its = _power_iteration(
        lambda v: _apply_T_aug(v, dataset),
        lambda w: _apply_T_adjoint_aug(w, dataset),
        v0, tol, max_iter)
    return NormEstimate(1.01 * est, converged, its)


def features_aug_norm(dataset: Dataset) -> NormEstimate:
    """Estimate of the norm of the augmented feature matrix [features, 1].

    Used by the single-block binary solvers, same contract as
    `operator_norm` at its default stopping rule.
    """
    feats = dataset.features

    def matvec(v):
        return feats @ v[:-1] + v[-1]

    def rmatvec(s):
        w = feats.T @ s
        if sp.issparse(feats):
            w = np.asarray(w).ravel()
        return np.append(w, s.sum())

    v0 = np.random.default_rng(_START_SEED).standard_normal(dataset.n_features + 1)
    est, converged, its = _power_iteration(matvec, rmatvec, v0, _NORM_TOL, _NORM_MAX_ITER)
    return NormEstimate(1.01 * est, converged, its)
