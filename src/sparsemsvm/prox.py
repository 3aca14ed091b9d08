"""Proximity operators and projections, all row-wise: scaled simplex,
l1 ball, epigraphical projection, plus the half-space projection and the
regularizer proxes on the (K, M+1) augmented array."""

from __future__ import annotations

import functools

import numpy as np

from .model import ModelVector, RegularizerSpec


# ---------------------------------------------------------------------------
# simplex and l1-ball projections

@functools.lru_cache(maxsize=None)
def _divisors(n, d):
    """The read-only divisors d + 1, ..., d + n of `_threshold`'s running
    sums (exact as floats: dividing by them gives the bits of the ints)."""
    div = np.arange(1.0 + d, n + 1.0 + d)
    div.flags.writeable = False
    return div


def _threshold(s, c, d):
    """theta = (c + s_1 + ... + s_rho) / (rho + d) per row of `s` (sorted in
    descending order), rho the last j with s_j > (c + s_1 + ... + s_j) /
    (j + d), and c where there is none for d = 1. `c` is a number or an
    (L, 1) column: c = -radius, d = 0 for the simplex (Duchi et al., ICML
    2008), c = height, d = 1 for the epigraph of the max.

    Returns theta and the last column of the running means, (c + s_1 +
    ... + s_n) / (n + d): a non-finite entry of a row, or of c, leaves its
    row's value non-finite (so does an overflow)."""
    L, n = s.shape
    thetas = np.add.accumulate(s, axis=1)
    thetas += c
    thetas /= _divisors(n, d)
    cross = s > thetas
    # the flat position of each row's last crossing; a row without one
    # reads its last column here
    last = np.arange(n - 1, L * n, n)
    last -= cross[:, ::-1].argmax(axis=1)
    theta = thetas.take(last)
    if d:
        theta = np.where(cross.take(last), theta, c.ravel())
    return theta, thetas[:, -1]


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
    s = U.copy()
    s.sort(axis=1)
    theta, _ = _threshold(s[:, ::-1], -radius, 0)
    out = np.subtract(U, theta[:, None])
    return np.maximum(out, 0.0, out=out)


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
        out[over] = _onto_l1_ball(V[over], radius)
    return out


def _onto_l1_ball(w, radius):
    """The projections of rows w, each outside the l1 ball of `radius`."""
    return np.sign(w) * project_simplex_rows(np.abs(w), radius)


# ---------------------------------------------------------------------------
# epigraphical projection

def project_epigraph_max_rows(Y, R, heights):
    """Row-wise projection onto the epigraphs of y -> max_k(y^(k) + r^(k)).

    For each row the new height theta solves theta = height +
    sum_k (y^(k) + r^(k) - theta)_+ (`_threshold`), and the point is
    p = min(y, theta - r). Rows already in the epigraph pass through
    unchanged. A non-finite entry of Y or of the heights raises
    ValueError.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    heights = np.atleast_1d(np.asarray(heights, dtype=np.float64))
    # the threshold search's last running means hold every entry of their
    # rows and the heights, so they are finite where the inputs are; only
    # where one is not (a finite row can overflow) do the inputs decide.
    # Before that test, inf - inf makes a nan quietly
    with np.errstate(invalid="ignore"):
        s = Y + R
        s.sort(axis=1)
        s = s[:, ::-1]
        theta, total = _threshold(s, heights[:, None], 1)
    if not (np.isfinite(total).all() or np.isfinite(Y).all() and np.isfinite(heights).all()):
        raise ValueError("epigraphical projection needs finite inputs")
    inside = s[:, 0] <= heights  # the row maximum of y + r
    np.copyto(theta, heights, where=inside)
    P = np.subtract(theta[:, None], R)
    np.minimum(Y, P, out=P)
    np.copyto(P, Y, where=inside[:, None])
    return P, theta


# ---------------------------------------------------------------------------
# half-space

def project_halfspace_sum(z, bound):
    """Projection onto {z : sum(z) <= bound}: shift all entries equally."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("cannot project an empty vector")
    excess = np.add.reduce(z, axis=None) - bound
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
    """prox of step*||.||_inf per row: w - P_{l1 ball radius step}(w).

    A finite row inside the ball maps to w - w = +0.0, so those rows are
    zero-filled, not copied and subtracted. A row whose l1 norm is nan
    takes the projection's path, which keeps it non-finite."""
    out = np.zeros(rows.shape)
    over = np.flatnonzero(~(np.abs(rows).sum(axis=1) <= step))
    if over.size:
        w = rows[over]
        out[over] = w - _onto_l1_ball(w, step)
    return out


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


def prox_regularizer_aug(x_aug, spec: RegularizerSpec, step: float, out=None):
    """prox of step * g at the (K, M+1) augmented array x_aug, in a fresh
    array or in `out`, which must not overlap x_aug; offsets (the last
    column) pass through untouched.

    l1: componentwise soft threshold. l12: per-group block soft threshold.
    l1inf: per-group Moreau complement of the l1-ball projection. l2sq
    (g = sum of squared class norms): scaling by 1/(1 + 2*step). The
    groups are not checked against M here; the solvers validate the spec
    once before they iterate.
    """
    if not step > 0:
        raise ValueError("prox step must be positive")
    if out is None:
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


def dual_norm(v, spec: RegularizerSpec):
    """Each unit's dual norm of the (K, M) array v; a unit is what the prox
    zeroes as a whole. l1: l_inf over a column. l12, l1inf: the l2 or l1
    norm over a group, the largest over the classes for per-class groups,
    groups in `blocks.layout` order. prox(step * g) at x - step * v is zero
    on a unit where x is zero and this is at most 1. l2sq: ValueError."""
    if spec.kind == "l1":
        return np.abs(v).max(axis=0)
    if not spec.needs_blocks:
        raise ValueError(f"regularizer {spec.kind!r} has no unit dual norm")
    norms = []
    for rows in _group_rows(v, spec.blocks):
        n = (np.sqrt(np.einsum("ij,ij->i", rows, rows)) if spec.kind == "l12"
             else np.einsum("ij->i", np.abs(rows)))
        if spec.blocks.mode == "per-class":
            n = n.reshape(v.shape[0], -1).max(axis=0)
        norms.append(n)
    return np.concatenate(norms)
