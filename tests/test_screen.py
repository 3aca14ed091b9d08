"""The screen of the primal-dual solvers: a unit it leaves out is an exact
zero of the full primal step, and the restricted group structure it runs
the prox on is the one its groups would build."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsemsvm.linop import _apply_T_adjoint_aug, _effective_dual
from sparsemsvm.model import BlockStructure, Dataset, RegularizerSpec
from sparsemsvm.prox import prox_regularizer_aug
from sparsemsvm.solvers import _Screen

SCREENED = [("l1", None)] + [
    (kind, mode) for kind in ("l12", "l1inf") for mode in ("per-class", "cross-class")]


def _shuffled_groups(rng, M, mode):
    """A partition of 0..M-1 into groups of mixed sizes, in shuffled order."""
    perm = rng.permutation(M)
    cuts = np.sort(rng.choice(np.arange(1, M), size=min(M - 1, M // 2), replace=False))
    return BlockStructure(tuple(np.split(perm, cuts)), mode=mode)


def _unit_columns(spec, mask):
    """The feature columns of the units that `mask` selects, units in the
    screen's order: columns for l1, groups in layout order otherwise."""
    if spec.blocks is None:
        return np.flatnonzero(mask)
    return spec.blocks.restrict(mask)[0]


def _steepest(spec, G):
    """A direction in which the dual norm of the unit whose part of T^T y
    is G grows fastest: the norm's gradient up to scale, which for
    per-class norms keeps only the class row of the largest one."""
    rows = G if spec.kind == "l12" else np.sign(G)
    if spec.blocks is None or spec.blocks.mode == "per-class":
        norms = np.linalg.norm(G, axis=1) if spec.kind == "l12" else np.abs(G).sum(axis=1)
        rows = rows * (np.arange(G.shape[0]) == np.argmax(norms))[:, None]
    return rows


def _top_singular(spec, G, F):
    """Class rows +-v for the top right singular vector v of the unit's
    features F, so that each class's part of y_eff moves along the top
    left singular vector F v / sigma: the direction of the spectral bound.
    Each sign follows `_steepest`'s row, whose zero rows (per-class norms
    keep the class of the largest one) stay zero."""
    v = np.linalg.svd(F, full_matrices=False)[2][0]
    return np.outer(np.sign(_steepest(spec, G) @ v), v)


@given(seed=st.integers(0, 2 ** 32 - 1), kind_mode=st.sampled_from(SCREENED),
       csr=st.booleans(), contiguous=st.booleans(), quantile=st.floats(0.0, 1.0),
       reach=st.floats(0.0, 0.999), scale=st.floats(0.2, 5.0),
       tau=st.floats(1e-3, 10.0), direction=st.sampled_from(["random", "steepest", "singular"]))
@settings(max_examples=400, deadline=None)
def test_a_unit_the_screen_leaves_out_is_an_exact_zero_of_the_full_step(
        seed, kind_mode, csr, contiguous, quantile, reach, scale, tau, direction):
    rng = np.random.default_rng(seed)
    K, M, L = int(rng.integers(2, 5)), int(rng.integers(4, 40)), int(rng.integers(2, 12))
    X = rng.standard_normal((L, M))
    if csr:
        X[rng.random((L, M)) < 0.5] = 0.0
        X = sp.csr_matrix(X)
    labels = rng.integers(0, K, L)
    ds = Dataset.from_arrays(X, labels, n_classes=K, margins=rng.uniform(0.3, 2.0, L))
    kind, mode = kind_mode
    blocks = None
    if mode is not None:
        blocks = (BlockStructure.contiguous(M, int(rng.integers(1, 5)), mode=mode)
                  if contiguous else _shuffled_groups(rng, M, mode))
    spec = RegularizerSpec(kind, blocks)
    screen = _Screen(ds, spec, tau, tau)

    # a reference dual whose units' dual norms straddle 1
    y_ref = rng.standard_normal((L, K))
    y_ref *= scale / max(np.abs(_apply_T_adjoint_aug(y_ref, ds)[:, :-1]).max(), 1e-12)
    G_ref = _apply_T_adjoint_aug(y_ref, ds)
    slack = screen.slack(G_ref)
    positive = slack[(slack > 0) & np.isfinite(slack)]
    assume(positive.size > 0)
    delta = float(np.quantile(positive, quantile))
    assume(delta > 0)

    # a dual within delta of it, e = max_k ||E(y - y_ref)_{:,k}|| = reach * delta:
    # in a random direction, or for the unit with the least slack above
    # delta, which then sits just above delta, as far as the bound lets the
    # dual go: in the direction in which its dual norm grows fastest, or
    # along its features' top left singular vector (groups only)
    steered = direction != "random"
    if steered:
        assume(direction == "steepest" or spec.blocks is not None)
        reach = 0.999
        above = np.flatnonzero(slack > delta)
        assume(above.size > 0)
        u = above[np.argmin(slack[above])]
        delta = max(delta, 0.999 * float(slack[u]))
        cols = _unit_columns(spec, np.arange(slack.size) == u)
        F = ds.dense_features()[:, cols]
        G = G_ref[:, cols]
        rows = _steepest(spec, G) if direction == "steepest" else _top_singular(spec, G, F)
        e = rows @ F.T  # (K, L): class k's move of y_eff
        e = (e - e.mean(axis=0)).T  # rows of y_eff sum to 0
        step = np.where(np.arange(K) == labels[:, None], 0.0, e)  # E(step) = e
    else:
        step = rng.standard_normal((L, K))
    e = _effective_dual(step, ds)
    assume(np.abs(e).max() > 0)
    step *= reach * delta / np.sqrt((e * e).sum(axis=0).max())
    y = y_ref + step
    e = _effective_dual(y, ds) - _effective_dual(y_ref, ds)
    assert np.sqrt((e * e).sum(axis=0).max()) < delta

    # a sparse iterate: zero outside a random share of the units
    held = rng.random(slack.size) < rng.random()
    if steered:
        held[u] = False
    x = np.zeros((K, M + 1))
    cols = _unit_columns(spec, held)
    x[:, cols] = rng.standard_normal((K, cols.size))
    x[:, -1] = rng.standard_normal(K)

    v = _apply_T_adjoint_aug(y, ds)
    x_new = prox_regularizer_aug(x - tau * v, spec, tau)
    out = _unit_columns(spec, (slack > delta) & ~held)
    assert np.all(x_new[:, out] == 0.0)


@pytest.mark.parametrize("mode", ["per-class", "cross-class"])
@pytest.mark.parametrize("contiguous", [True, False])
def test_a_restricted_structure_has_the_layout_its_groups_build(mode, contiguous):
    rng = np.random.default_rng(3)
    blocks = (BlockStructure.contiguous(103, 4, mode=mode) if contiguous
              else _shuffled_groups(rng, 103, mode))
    perm, runs = blocks.layout
    perm = np.arange(103) if perm is None else perm
    starts = np.cumsum(blocks.layout.sizes()) - blocks.layout.sizes()
    for share in (0.0, 0.3, 1.0):
        keep = rng.random(blocks.n_groups) < share
        features, restricted = blocks.restrict(keep)
        rebuilt = BlockStructure(restricted.groups, mode=mode).layout
        assert restricted.mode == mode
        assert restricted.layout.runs == rebuilt.runs
        if rebuilt.perm is None:
            assert restricted.layout.perm is None
        else:
            np.testing.assert_array_equal(restricted.layout.perm, rebuilt.perm)
        restricted.validate(features.size)
        assert np.all(np.diff(features) > 0)
        # the kept groups, in layout order, each onto its own features
        kept = [perm[s:s + n] for s, n, k in zip(starts, blocks.layout.sizes(), keep) if k]
        assert [list(features[g]) for g in restricted.groups] == [list(g) for g in kept]
