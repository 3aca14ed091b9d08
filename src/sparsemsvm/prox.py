"""Proximity operators and projections, all row-wise: scaled simplex,
l1 ball, epigraphical projection, plus the half-space projection and the
regularizer proxes on the (K, M+1) augmented array."""

from __future__ import annotations

import numpy as np

from .model import ModelVector, RegularizerSpec


# ---------------------------------------------------------------------------
# simplex and l1-ball projections

def _threshold(s, c, d):
    """theta = (c + s_1 + ... + s_rho) / (rho + d) per row of `s` (sorted in
    descending order), rho the last j with s_j > (c + s_1 + ... + s_j) /
    (j + d), and c / d where there is none. `c` is a number or an (L, 1)
    column: c = -radius, d = 0 for the simplex (Duchi et al., ICML 2008),
    c = height, d = 1 for the epigraph of the max."""
    n = s.shape[1]
    thetas = np.cumsum(s, axis=1)
    thetas += c
    thetas /= np.arange(1 + d, n + 1 + d)
    cross = s > thetas
    # the last crossing; a row without one reads index n - 1 here
    last = (n - 1) - np.argmax(cross[:, ::-1], axis=1)
    rows = np.arange(s.shape[0])
    theta = thetas[rows, last]
    if d:
        theta = np.where(cross[rows, last], theta, np.ravel(c) / d)
    return theta


def project_simplex_rows(U, radius):
    """Row-wise Euclidean projection onto the scaled simplex
    {v >= 0 : sum(v) = radius}.

    Sort-based threshold search, O(K log K) per row; adequate for the small
    class counts we target and easy to swap out for the partial-sort
    methods if K ever grows.
    """
    if not radius > 0:
        raise ValueError("simplex radius must be positive")
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    theta = _threshold(np.sort(U, axis=1)[:, ::-1], -radius, 0)
    return np.maximum(U - theta[:, None], 0.0)


def project_l1_ball_rows(V, radius):
    """Row-wise Euclidean projection onto the l1 ball {w : sum |w_i| <= radius};
    rows already inside pass through unchanged."""
    if not radius > 0:
        raise ValueError("l1-ball radius must be positive")
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    # row numbers, not a boolean mask: integer gathers of the rows are cheaper
    over = np.flatnonzero(np.abs(V).sum(axis=1) > radius)
    out = V.copy()
    if over.size:
        w = V[over]
        out[over] = np.sign(w) * project_simplex_rows(np.abs(w), radius)
    return out


# ---------------------------------------------------------------------------
# epigraphical projection

def project_epigraph_max_rows(Y, R, heights):
    """Row-wise projection onto the epigraphs of y -> max_k(y^(k) + r^(k)).

    For each row the new height theta solves theta = height +
    sum_k (y^(k) + r^(k) - theta)_+ (`_threshold`), and the point is
    p = min(y, theta - r). Rows already in the epigraph pass through
    unchanged.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    heights = np.atleast_1d(np.asarray(heights, dtype=np.float64))
    if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(heights))):
        raise ValueError("epigraphical projection needs finite inputs")
    s = Y + R
    s.sort(axis=1)
    s = s[:, ::-1]
    inside = s[:, 0] <= heights  # the row maximum of y + r
    theta = np.where(inside, heights, _threshold(s, heights[:, None], 1))
    P = np.where(inside[:, None], Y, np.minimum(Y, theta[:, None] - R))
    return P, theta


# ---------------------------------------------------------------------------
# half-space

def project_halfspace_sum(z, bound):
    """Projection onto {z : sum(z) <= bound}: shift all entries equally."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("cannot project an empty vector")
    excess = z.sum() - bound
    if excess <= 0:
        return z.copy()
    return z - excess / z.size


# ---------------------------------------------------------------------------
# regularizer prox and value

def _soft_threshold(w, t, out):
    """sign(w) * max(|w| - t, 0), computed in `out`, which must not be `w`."""
    np.abs(w, out=out)
    np.subtract(out, t, out=out)
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(w), out, out=out)


def _group_rows(W, blocks):
    """The groups of the (K, M) weight matrix as batches of equal-length
    rows, one (n, s) batch per run of `blocks.layout`.

    One gather through the layout's permutation (none when it is the
    identity) and one reshape per run: a per-class batch holds K*count
    rows of `size`, a cross-class batch joins the K class rows of each
    group into count rows of K*size.
    """
    perm, runs = blocks.layout
    K = W.shape[0]
    # np.take keeps the gathered rows row-major (W[:, perm] would not), so
    # every group row is reduced over contiguous memory, in one order
    Wp = W if perm is None else np.take(W, perm, axis=1)
    batches = []
    for lo, hi, size, count in runs:
        block = Wp[:, lo:hi]
        if blocks.mode == "per-class":
            batches.append(block.reshape(K * count, size))
        else:
            batches.append(block.reshape(K, count, size).transpose(1, 0, 2)
                           .reshape(count, K * size))
    return batches


def _ungroup_rows(batches, blocks, out):
    """Inverse of `_group_rows`: write the batches back into the (K, M)
    array `out` in place; features outside every group keep their value."""
    perm, runs = blocks.layout
    K = out.shape[0]
    Wp = out if perm is None else np.empty((K, perm.size))
    for rows, (lo, hi, size, count) in zip(batches, runs):
        if blocks.mode == "cross-class":
            rows = rows.reshape(count, K, size).transpose(1, 0, 2)
        Wp[:, lo:hi] = rows.reshape(K, count * size)
    if perm is not None:
        out[:, perm] = Wp
    return out


def _block_soft_threshold_rows(rows, step):
    norms = np.linalg.norm(rows, axis=1)
    scale = np.zeros_like(norms)
    np.divide(step, norms, out=scale, where=norms > 0)
    return rows * np.maximum(1.0 - scale, 0.0)[:, None]


def _linf_prox_rows(rows, step):
    """prox of step*||.||_inf per row: w - P_{l1 ball radius step}(w)."""
    return rows - project_l1_ball_rows(rows, step)


def _prox_weights(W, spec, step, out):
    """prox of step * g at the (K, M) weights W, written into `out`."""
    if spec.kind == "l1":
        return _soft_threshold(W, step, out)
    if spec.kind == "l2sq":
        return np.divide(W, 1.0 + 2.0 * step, out=out)
    prox_rows = _block_soft_threshold_rows if spec.kind == "l12" else _linf_prox_rows
    batches = [prox_rows(rows, step) for rows in _group_rows(W, spec.blocks)]
    out[...] = W
    return _ungroup_rows(batches, spec.blocks, out)


def prox_regularizer_aug(x_aug, spec: RegularizerSpec, step: float):
    """prox of step * g at the (K, M+1) augmented array x_aug; offsets (the
    last column) pass through untouched.

    l1: componentwise soft threshold. l12: per-group block soft threshold.
    l1inf: per-group Moreau complement of the l1-ball projection. l2sq
    (g = sum of squared class norms): scaling by 1/(1 + 2*step). The
    groups are not checked against M here; the solvers validate the spec
    once before they iterate.
    """
    if not step > 0:
        raise ValueError("prox step must be positive")
    out = np.empty(x_aug.shape)
    _prox_weights(x_aug[:, :-1], spec, step, out[:, :-1])
    out[:, -1] = x_aug[:, -1]
    return out


def regularizer_value(x: ModelVector | np.ndarray, spec: RegularizerSpec) -> float:
    """g(x) for the spec's penalty; offsets never contribute."""
    W = x.weights if isinstance(x, ModelVector) else np.asarray(x)[:, :-1]
    if spec.kind == "l1":
        return float(np.abs(W).sum())
    if spec.kind == "l2sq":
        return float((W ** 2).sum())
    total = 0.0
    for rows in _group_rows(W, spec.blocks):
        if spec.kind == "l12":
            total += np.linalg.norm(rows, axis=1).sum()
        else:
            total += np.abs(rows).max(axis=1).sum()
    return float(total)
