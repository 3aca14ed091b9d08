"""The margin operator T (stack of per-sample score-gap maps), its adjoint,
and the operator norms used to set step sizes.

T is always applied matrix-free: the L*K x (M+1)*K matrix is never
materialized, and the implicit augmentation [features, 1] is applied on
the fly. Its norm comes from the smaller of the Grams T T^T and T^T T:
exact when factoring that Gram costs less than the products with T and
T^T that Lanczos would take, and otherwise a Lanczos estimate of its
largest eigenvalue, from those products alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import Dataset, issparse


class NormEstimate(NamedTuple):
    """A norm for step sizes; `value` already carries the safety factor.

    An exact value reports `converged=True` and `iterations=0`; a
    Lanczos estimate reports whether it converged and, as `iterations`,
    its number of products with the Gram it ran on.
    """

    value: float
    converged: bool
    iterations: int

    def checked(self) -> float:
        """`value`, or ValueError when it is an estimate that did not
        converge: no step size can be set from it."""
        if not self.converged:
            raise ValueError("the operator-norm estimate did not converge in "
                             f"{self.iterations} Lanczos products")
        return self.value


def _scores_aug(x_aug, dataset):
    """Per-class scores phi~(u_l)^T x^(k) for every sample, shape (L, K).

    Dense features take the product as (W @ features^T)^T, the faster GEMM
    orientation for a few class rows, C-ordered like the CSR product, so
    row reductions downstream sum in one order.
    """
    W = x_aug[:, :-1]
    b = x_aug[:, -1]
    feats = dataset.features
    if issparse(feats):
        return feats @ W.T + b
    return np.add((W @ feats.T).T, b, order="C")


def _apply_T_aug(x_aug, dataset):
    """Margins y(l, k) = phi~(u_l)^T (x^(k) - x^(z_l)) of the (K, M+1)
    augmented array x_aug, as an (L, K) array whose column z_l of row l is
    exactly zero."""
    scores = _scores_aug(x_aug, dataset)
    own = scores.take(dataset.own_index)
    # own-class column is an exact 0: identical floats subtracted
    return scores - own[:, None]


def _effective_dual(y, dataset):
    """y_eff(l, k) = y(l, k) - delta_{k=z_l} sum_j y(l, j), the weights of the
    samples in `_apply_T_adjoint_aug`, as a fresh (L, K) array."""
    return np.subtract(y, np.add.reduce(y, axis=1, keepdims=True), out=y.copy(),
                       where=dataset.own_mask)


def _scores_adjoint_aug(w, dataset):
    """Adjoint of `_scores_aug` at an (L, R) array w: the row-major (R, M+1)
    array [F, 1]^T w, whose row r accumulates sum_l w(l, r) * phi~(u_l)."""
    out = np.empty((w.shape[1], dataset.n_features + 1))
    if issparse(dataset.features):
        # scipy's product is column-major; the copy makes it row-major
        out[:, :-1] = w.T @ dataset.features
    else:
        np.matmul(w.T, dataset.features, out=out[:, :-1])
    out[:, -1] = np.add.reduce(w, axis=0)
    return out


def _apply_T_adjoint_aug(y, dataset, y_eff=None):
    """Adjoint of `_apply_T_aug` at an (L, K) array y: `_scores_adjoint_aug`
    at y_eff (`_effective_dual`, which a caller that has it already hands
    as `y_eff`)."""
    return _scores_adjoint_aug(_effective_dual(y, dataset) if y_eff is None else y_eff,
                               dataset)


# A start vector must not lie in the Gram's null space (for T^T T, the
# vectors with all class blocks equal). A fixed seeded draw, and the same
# seed for any vector ARPACK draws on a restart, keep step sizes
# reproducible.
_START_SEED = 0
# ARPACK's restarts: 20 products with the Gram, then 10 per restart, so at most
# about 1000 (its default, 10 per unknown, is a hang on large inputs)
_LANCZOS_MAX_RESTARTS = 100
_SAFETY = 1.01

# The rule between the exact Gram and Lanczos, by cost. Forming and factoring
# a side-n Gram costs O(n^3); a Lanczos run takes 30-100 products with the
# Gram, each reading the nnz([F, 1]) * K entries of T and T^T. The exact
# Gram is taken while n^3 <= EXACT_GRAM_MAX_SIDE * max(EXACT_GRAM_MAX_SIDE^2,
# entries / 2): always up to this side, where it costs at most about 10 ms,
# and above it while n^3 is at most 200 times the entries. Measured with one
# BLAS thread, exact against Lanczos: at K=3, M=7129, 10 against 88 ms at
# side 420 (L=140, n^3 25 times the entries), 71 against 196 ms at 900 (114
# times) and 344 against 220 ms at 1500 (316 times); at K=10, M=2000, where
# Lanczos's products cost less per entry, 19 against 12 ms at side 600 (180
# times, still exact) and 95 against 31 ms at 1000 (500 times). 0 takes
# Lanczos on every shape.
EXACT_GRAM_MAX_SIDE = 400


def _dense(a):
    return a.toarray() if issparse(a) else a


def _gram_rows(features):
    """The L x L Gram F F^T + 1 1^T of the augmented samples [F, 1], without
    copying F into an augmented matrix."""
    return _dense(features @ features.T) + 1.0


def _gram_cols(features):
    """The (M+1) x (M+1) Gram [F, 1]^T [F, 1]."""
    L, M = features.shape
    gram = np.empty((M + 1, M + 1))
    gram[:M, :M] = _dense(features.T @ features)
    gram[:M, M] = gram[M, :M] = np.asarray(features.sum(axis=0)).ravel()
    gram[M, M] = L
    return gram


def _gram_TTt(dataset):
    """T T^T = (G kron 1_{KxK}) o C of side L*K: G is the Gram of the
    augmented samples and C[(l,k),(l',k')] = <e_k - e_{z_l}, e_{k'} - e_{z_l'}>."""
    L, K = dataset.n_samples, dataset.n_classes
    eye = np.eye(K)
    diffs = (eye - eye[dataset.labels][:, None, :]).reshape(L * K, K)
    gram = (diffs @ diffs.T).reshape(L, K, L, K)
    gram *= _gram_rows(dataset.features)[:, None, :, None]
    return gram.reshape(L * K, L * K)


def _gram_TtT(dataset):
    """T^T T = sum_c A_c kron H_c of side K*(M+1), with H_c the Gram of the
    augmented features of class c and A_c = I - 1 e_c^T - e_c 1^T + K e_c e_c^T.
    Block (k, k') is therefore delta_{kk'} (sum_c H_c + K H_k) - H_k - H_k'."""
    K, M = dataset.n_classes, dataset.n_features
    H = np.stack([_gram_cols(dataset.features[dataset.labels == c]) for c in range(K)])
    gram = -(H[:, :, None, :] + H.transpose(1, 0, 2)[None])
    k = np.arange(K)
    gram[k, :, k, :] += H.sum(axis=0) + K * H
    return gram.reshape(K * (M + 1), K * (M + 1))


def _exact_norm(gram):
    """The Gram's largest eigenvalue, as a norm with the safety factor."""
    return NormEstimate(_SAFETY * float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))),
                        True, 0)


def _entries(features):
    """The entries of the augmented samples [F, 1] that a product reads."""
    return (features.nnz if issparse(features) else features.size) + features.shape[0]


def _norm(u_shape, v_shape, row_gram, col_gram, matvec, rmatvec, entries):
    """The norm of a map A from arrays of `v_shape` to arrays of `u_shape`,
    with the safety factor, from the smaller of A A^T (side the size of
    u_shape, which wins ties) and A^T A. A product with A or A^T reads
    `entries` entries. Exact when that side passes the rule of
    EXACT_GRAM_MAX_SIDE, else by Lanczos (ARPACK's `eigsh`) on that Gram
    from the seeded start, which counts its products and reports a NaN
    unconverged value when its restarts run out."""
    row_side, col_side = int(np.prod(u_shape)), int(np.prod(v_shape))
    on_rows = row_side <= col_side
    side = min(row_side, col_side)
    if side ** 3 <= EXACT_GRAM_MAX_SIDE * max(EXACT_GRAM_MAX_SIDE ** 2, entries / 2):
        return _exact_norm(row_gram() if on_rows else col_gram())
    # scipy is imported only here: a dense run below the limit never needs it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    # A A^T is the product with A^T, then A; A^T A the reverse
    shape, first, second = (u_shape, rmatvec, matvec) if on_rows else (v_shape, matvec, rmatvec)
    products = 0

    def gram(v):
        nonlocal products
        products += 1
        return second(first(v.reshape(shape))).ravel()

    v0 = np.random.default_rng(_START_SEED).standard_normal(shape).ravel()
    if not gram(v0).any():  # A is zero (v0 is random), a start ARPACK rejects
        return NormEstimate(0.0, True, products)
    try:
        top = eigsh(LinearOperator((side, side), matvec=gram, dtype=np.float64),
                    k=1, which="LA", v0=v0, tol=1e-9, maxiter=_LANCZOS_MAX_RESTARTS,
                    return_eigenvectors=False, rng=_START_SEED)[0]
    except ArpackNoConvergence:
        return NormEstimate(float("nan"), False, products)
    return NormEstimate(_SAFETY * float(np.sqrt(max(top, 0.0))), True, products)


def operator_norm(dataset: Dataset) -> NormEstimate:
    """||T|| inflated by a 1.01 safety factor, by the rule of `_norm` on
    T T^T (side L*K) and T^T T (side K*(M+1)), exact or by Lanczos on the
    smaller; T itself is never formed."""
    K, M, L = dataset.n_classes, dataset.n_features, dataset.n_samples
    return _norm((L, K), (K, M + 1),
                 lambda: _gram_TTt(dataset), lambda: _gram_TtT(dataset),
                 lambda v: _apply_T_aug(v, dataset),
                 lambda w: _apply_T_adjoint_aug(w, dataset),
                 _entries(dataset.features) * K)


def features_aug_norm(dataset: Dataset) -> NormEstimate:
    """Norm of the augmented feature matrix [features, 1], inflated by a
    1.01 safety factor, by the rule of `_norm` on its Grams (sides L and
    M+1), exact or by Lanczos over the products of `_scores_aug` and its
    adjoint with one class row. Used by the single-block binary solvers.
    """
    feats = dataset.features
    L, M = feats.shape
    return _norm((L, 1), (1, M + 1), lambda: _gram_rows(feats), lambda: _gram_cols(feats),
                 lambda v: _scores_aug(v, dataset), lambda s: _scores_adjoint_aug(s, dataset),
                 _entries(feats))
