import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from sparsemsvm.linop import _apply_T_aug
from sparsemsvm.model import (BlockStructure, Dataset, ModelVector,
                              RegularizerSpec, make_margin_offsets)
from sparsemsvm.persist import decode_groups, encode_groups


def test_margin_offsets_spec_cases():
    ds = Dataset.from_arrays(np.zeros((1, 1)), [2], n_classes=3, one_based=True)
    np.testing.assert_array_equal(make_margin_offsets(ds), [[1.0, 0.0, 1.0]])

    ds = Dataset.from_arrays(np.zeros((1, 1)), [1], n_classes=1, one_based=True)
    np.testing.assert_array_equal(make_margin_offsets(ds), [[0.0]])

    ds = Dataset.from_arrays(np.zeros((1, 1)), [1], n_classes=2,
                             margins=[0.5], one_based=True)
    np.testing.assert_array_equal(make_margin_offsets(ds), [[0.0, 0.5]])


def test_margin_offsets_structure(rng):
    for _ in range(20):
        ds = random_dataset(rng)
        r = make_margin_offsets(ds)
        for ell in range(ds.n_samples):
            row = r[ell]
            z = ds.labels[ell]
            assert row[z] == 0.0
            mask = np.ones(ds.n_classes, dtype=bool)
            mask[z] = False
            assert np.all(row[mask] == ds.margins[ell])


def test_hinge_identity_with_raw_expression(rng):
    # the reformulation max_k((T_l x)_k + r_k) == max{0, mu + max_{k != z} gap}
    # is exact: the own-class component plays the role of the explicit zero
    # and the margin moves inside the max without changing the result
    for _ in range(50):
        ds = random_dataset(rng)
        x = ModelVector(rng.standard_normal((ds.n_classes, ds.n_features)),
                        rng.standard_normal(ds.n_classes))
        Y = _apply_T_aug(x.augmented(), ds)
        r = make_margin_offsets(ds)
        for ell in range(ds.n_samples):
            lhs = (Y[ell] + r[ell]).max()
            z = ds.labels[ell]
            gaps = np.delete(Y[ell], z)
            rhs = max(0.0, ds.margins[ell] + gaps.max()) if gaps.size else 0.0
            assert lhs == rhs


class TestModelVector:
    def test_round_trips(self, rng):
        m = ModelVector(rng.standard_normal((3, 4)), rng.standard_normal(3))
        again = ModelVector.from_augmented(m.augmented())
        np.testing.assert_array_equal(again.weights, m.weights)
        np.testing.assert_array_equal(again.offsets, m.offsets)
        assert m.ravel().shape == (3 * 5,)

    def test_block_layout(self):
        m = ModelVector(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([9.0, 8.0]))
        np.testing.assert_array_equal(m.ravel(), [1, 2, 9, 3, 4, 8])

    def test_immutable(self):
        m = ModelVector.zeros(2, 3)
        with pytest.raises(ValueError):
            m.weights[0, 0] = 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ModelVector(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            ModelVector(np.zeros((2, 3)), np.zeros(3))


class TestDataset:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays(np.zeros((2, 2)), [0, 3], n_classes=3)
        with pytest.raises(ValueError):
            Dataset.from_arrays(np.zeros((2, 2)), [0, 1], n_classes=2,
                                margins=[1.0, 0.0])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_own_index_is_the_flat_own_class_position(self, rng, sparse):
        ds = random_dataset(rng, L=9, M=5, K=4, sparse=sparse)
        made = {"full": ds, "subset": ds.subset([7, 2, 2, 0]), "columns": ds.columns([4, 1])}
        for name, d in made.items():
            own = d.own_index
            np.testing.assert_array_equal(own, d.labels + d.n_classes * np.arange(d.n_samples))
            assert not own.flags.writeable, name
            with pytest.raises(ValueError):
                own[0] = 1
            assert d.own_index is own  # built once
            scores = rng.standard_normal((d.n_samples, d.n_classes))
            np.testing.assert_array_equal(scores.take(own),
                                          scores[np.arange(d.n_samples), d.labels])
            mask = d.own_mask
            np.testing.assert_array_equal(np.flatnonzero(mask), own)
            assert mask.shape == (d.n_samples, d.n_classes) and not mask.flags.writeable
            assert d.own_mask is mask
        fields = {f.name for f in dataclasses.fields(Dataset)}
        assert "own_index" not in fields and "own_mask" not in fields


@given(M=st.integers(1, 60), size=st.integers(1, 13))
@settings(max_examples=60, deadline=None)
def test_block_structure_round_trip(M, size):
    blocks = BlockStructure.contiguous(M, size)
    blocks.validate(M)
    flat = np.sort(np.concatenate(blocks.groups))
    np.testing.assert_array_equal(flat, np.arange(M))
    sizes = [g.size for g in blocks.groups]
    assert all(s == size for s in sizes[:-1])
    assert 1 <= sizes[-1] <= size


@pytest.mark.parametrize("mode", ["per-class", "cross-class"])
@pytest.mark.parametrize("M, size", [(7129, 5), (12, 4), (13, 4), (14, 4), (3, 7), (5, 5),
                                     (1, 1), (6, 1)])
def test_contiguous_blocks_are_the_constructors(M, size, mode):
    built = BlockStructure.contiguous(M, size, mode=mode)
    ref = BlockStructure(tuple(np.arange(lo, min(lo + size, M)) for lo in range(0, M, size)),
                         mode=mode)
    assert built.mode == mode and len(built.groups) == len(ref.groups)
    for got, want in zip(built.groups, ref.groups):
        assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    assert built.layout.perm is None and built.layout == ref.layout
    built.validate(M)
    for wrong in (M - 1, M + 1):
        with pytest.raises(ValueError, match="groups must partition the feature indices"):
            built.validate(wrong)


def _same_layout(a, b):
    return a.runs == b.runs and (
        a.perm is None and b.perm is None
        or a.perm is not None and b.perm is not None and np.array_equal(a.perm, b.perm))


@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(1, 40),
       shape=st.sampled_from(["contiguous", "mixed", "shuffled"]),
       mode=st.sampled_from(["per-class", "cross-class"]), share=st.sampled_from([None, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_a_structure_is_the_layout_its_groups_build(seed, M, shape, mode, share):
    # contiguous, mixed-size and shuffled mixed-size groups, and the
    # structures `restrict` derives from them (share None keeps the whole)
    rng = np.random.default_rng(seed)
    if shape == "contiguous":
        blocks = BlockStructure.contiguous(M, int(rng.integers(1, M + 2)), mode=mode)
    else:
        order = rng.permutation(M) if shape == "shuffled" else np.arange(M)
        cuts = np.sort(rng.choice(np.arange(1, M), size=int(rng.integers(0, M)), replace=False))
        blocks = BlockStructure(tuple(np.split(order, cuts)), mode=mode)
    n = M
    if share is not None:
        features, blocks = blocks.restrict(rng.random(blocks.n_groups) < share)
        n = features.size
    groups = blocks.groups
    assert blocks.mode == mode and blocks.n_groups == len(groups)
    assert all(g.dtype == np.int64 and not g.flags.writeable for g in groups)
    assert _same_layout(BlockStructure(groups, mode).layout, blocks.layout)
    blocks.validate(n)
    for wrong in (n - 1, n + 1):
        with pytest.raises(ValueError, match="groups must partition the feature indices"):
            blocks.validate(wrong)
    if groups:
        back = decode_groups(encode_groups(blocks).split(";"), n, mode)
        assert back.mode == mode and _same_layout(back.layout, blocks.layout)


def test_block_structure_rejects_bad_partition():
    with pytest.raises(ValueError):
        BlockStructure((np.array([0, 1]), np.array([1, 2]))).validate(3)
    with pytest.raises(ValueError):
        BlockStructure((np.array([0]),)).validate(2)
    with pytest.raises(ValueError):
        BlockStructure((np.array([0]),), mode="bogus")
    with pytest.raises(ValueError, match="unknown group mode"):
        BlockStructure.contiguous(4, 2, mode="bogus")


def test_regularizer_spec_validation():
    with pytest.raises(ValueError):
        RegularizerSpec("huber")
    spec = RegularizerSpec("l12")
    with pytest.raises(ValueError):
        spec.validate(4)
    RegularizerSpec("l1").validate(4)  # no blocks needed
