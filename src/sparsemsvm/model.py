"""Domain types shared by all modules: parameter vectors, datasets, block
structures and margin offsets."""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

REGULARIZER_KINDS = ("l1", "l12", "l1inf", "l2sq")
GROUP_MODES = ("per-class", "cross-class")


def issparse(a):
    """`scipy.sparse.issparse(a)` without importing scipy, which only
    sparse data needs: no sparse matrix exists before scipy.sparse is
    imported."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(a)


def _readonly(a):
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelVector:
    """Stacked classifier parameters: K class blocks of M weights plus one offset.

    The full parameter vector has length K*(M+1); class block k is the
    augmented vector [weights[k], offsets[k]].

    Parameters
    ----------
    weights : ndarray, shape (K, M)
        Per-class weight vectors.
    offsets : ndarray, shape (K,)
        Per-class scalar offsets (never regularized).
    """

    weights: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        b = _readonly(self.offsets)
        if w.ndim != 2:
            raise ValueError(f"weights must be (K, M), got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValueError(f"offsets must be (K,), got {b.shape} for K={w.shape[0]}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", b)

    @property
    def n_classes(self):
        return self.weights.shape[0]

    @property
    def n_features(self):
        return self.weights.shape[1]

    def augmented(self):
        """Return the (K, M+1) array whose row k is [weights[k], offsets[k]]."""
        return np.hstack([self.weights, self.offsets[:, None]])

    def ravel(self):
        """Flatten to length K*(M+1), blocks ordered [w^(1), b^(1), ..., w^(K), b^(K)]."""
        return self.augmented().ravel()

    @classmethod
    def from_augmented(cls, aug):
        aug = np.asarray(aug, dtype=np.float64)
        if aug.ndim != 2 or aug.shape[1] < 1:
            raise ValueError(f"augmented array must be (K, M+1), got {aug.shape}")
        return cls(weights=aug[:, :-1].copy(), offsets=aug[:, -1].copy())

    @classmethod
    def zeros(cls, n_classes, n_features):
        return cls(np.zeros((n_classes, n_features)), np.zeros(n_classes))


@dataclass(frozen=True)
class Dataset:
    """L samples with M features each and labels in {1..K}.

    Features may be a dense ndarray or a scipy CSR matrix; zero entries of
    sparse rows never enter dot products. Labels are stored 0-based
    internally; converters at ingestion accept the external 1-based
    convention. Immutable after construction.

    The `features` annotation names scipy.sparse, which this module imports
    for type checkers only, so that dense data never loads scipy; resolving
    it at run time takes `typing.get_type_hints(Dataset,
    localns={"scipy": scipy})`.
    """

    features: np.ndarray | scipy.sparse.csr_matrix
    labels: np.ndarray  # (L,), 0-based
    n_classes: int
    margins: np.ndarray  # (L,), all > 0

    def __post_init__(self):
        feats = self.features
        if issparse(feats):
            import scipy.sparse as sp
            feats = sp.csr_matrix(feats, dtype=np.float64)
        else:
            feats = _readonly(feats)
            if feats.ndim != 2:
                raise ValueError("features must be a 2-d array")
        labels = np.asarray(self.labels, dtype=np.int64)
        margins = _readonly(self.margins)
        L = feats.shape[0]
        if L < 1:
            raise ValueError("a dataset needs at least one sample")
        if labels.shape != (L,) or margins.shape != (L,):
            raise ValueError("labels/margins length must match the number of samples")
        if self.n_classes < 1:
            raise ValueError("n_classes must be at least 1")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("labels out of range for n_classes")
        if not np.all(margins > 0):
            raise ValueError("margins must be positive")
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "margins", margins)

    @classmethod
    def from_arrays(cls, features, labels, n_classes=None, margins=None, one_based=False):
        """Build a dataset from raw arrays.

        `labels` may use the external 1-based convention (`one_based=True`,
        the loaders' default) or the internal 0-based one.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if one_based:
            labels = labels - 1
        L = labels.shape[0]
        if n_classes is None:
            n_classes = int(labels.max()) + 1 if L else 0
        if margins is None:
            margins = np.ones(L)
        return cls(features, labels, int(n_classes), np.asarray(margins, dtype=np.float64))

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @cached_property
    def own_index(self) -> np.ndarray:
        """The flat positions `labels + K * arange(L)` of each sample's own
        class in a C-ordered (L, K) array, read-only; built on first use
        and kept on the instance."""
        own = self.labels + self.n_classes * np.arange(self.n_samples)
        own.setflags(write=False)
        return own

    @cached_property
    def own_mask(self) -> np.ndarray:
        """The (L, K) boolean mask of each sample's own class, read-only;
        built on first use and kept on the instance."""
        mask = np.zeros((self.n_samples, self.n_classes), dtype=bool)
        mask.reshape(-1)[self.own_index] = True
        mask.setflags(write=False)
        return mask

    def dense_features(self):
        if issparse(self.features):
            return np.asarray(self.features.todense())
        return self.features

    def subset(self, indices):
        """Dataset restricted to `indices` (order preserved, classes kept)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes,
                       self.margins[idx])

    def columns(self, cols):
        """Dataset restricted to the feature columns `cols` (order preserved):
        a row-major copy of them for dense features, CSR for CSR."""
        feats = self.features
        feats = feats[:, cols] if issparse(feats) else np.take(feats, cols, axis=1)
        return Dataset(feats, self.labels, self.n_classes, self.margins)


class GroupLayout(NamedTuple):
    """Where the groups of a BlockStructure sit in one feature permutation.

    `perm` concatenates the groups, those of equal size next to each other
    (sizes in order of first appearance, which fixes the order in which
    per-size sums are added; groups in their given order), or is None when
    that concatenation is the identity, as for `BlockStructure.contiguous`. `runs` holds one
    (lo, hi, size, count) tuple per distinct size: its `count` groups of
    `size` features fill positions lo:hi of `perm`.
    """

    perm: np.ndarray | None
    runs: tuple

    def sizes(self):
        """The size of every group, in the order of `perm`."""
        return np.repeat([run[2] for run in self.runs], [run[3] for run in self.runs])


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the M weight indices into B disjoint groups.

    `mode` selects how the groups apply to the (K, M) weight matrix:
    "per-class" treats group b of every class vector separately (K*B groups
    in total), "cross-class" joins the rows of all classes over the same
    feature group (B groups of size K*M_b).
    """

    groups: tuple
    mode: str = "per-class"

    def __post_init__(self):
        if self.mode not in GROUP_MODES:
            raise ValueError(f"unknown group mode {self.mode!r}")
        groups = tuple(np.asarray(g, dtype=np.int64) for g in self.groups)
        for g in groups:
            g.setflags(write=False)
        object.__setattr__(self, "groups", groups)

    @classmethod
    def contiguous(cls, n_features, size, mode="per-class"):
        """Contiguous runs of `size` indices; the last group may be shorter.

        The groups are read-only views of one `arange`, and the layout is
        set directly: the identity permutation, with one run of the full
        groups and one of the short last group."""
        if size < 1:
            raise ValueError("block size must be at least 1")
        if mode not in GROUP_MODES:
            raise ValueError(f"unknown group mode {mode!r}")
        index = np.arange(n_features, dtype=np.int64)
        index.setflags(write=False)
        groups = tuple(index[lo:lo + size] for lo in range(0, n_features, size))
        full, rest = divmod(n_features, size)
        runs = [(0, full * size, size, full)] if full else []
        if rest:
            runs.append((full * size, n_features, rest, 1))
        return _prebuilt(groups, mode, GroupLayout(None, tuple(runs)))

    @property
    def n_groups(self):
        return len(self.groups)

    @cached_property
    def layout(self) -> GroupLayout:
        """The GroupLayout, built on first use and kept on the instance."""
        counts = Counter(g.size for g in self.groups)
        rank = {size: r for r, size in enumerate(counts)}
        order = sorted(range(self.n_groups), key=lambda i: rank[self.groups[i].size])
        perm = np.concatenate([self.groups[i] for i in order] or [np.empty(0, np.int64)])
        runs, lo = [], 0
        for size, count in counts.items():
            runs.append((lo, lo + size * count, size, count))
            lo += size * count
        if np.array_equal(perm, np.arange(perm.size)):
            perm = None
        else:
            perm.setflags(write=False)
        return GroupLayout(perm, tuple(runs))

    def restrict(self, keep):
        """The groups that `keep` selects, reindexed onto 0..n-1, with the n
        features they cover in ascending order: position i of the result is
        feature `features[i]` here. `keep` is a boolean mask over the
        groups in layout order, the order in which `layout.perm` holds them.

        The result lists its groups in that order, so its layout is this
        one's runs less the groups left out; it is derived with array
        operations, not rebuilt group by group. Returns (features,
        BlockStructure)."""
        perm, runs = self.layout
        taken = np.flatnonzero(np.repeat(keep, self.layout.sizes()))
        if perm is None:
            features, new_perm = taken, np.arange(taken.size)
        else:
            kept = perm[taken]
            features = np.sort(kept)
            new_perm = np.searchsorted(features, kept)
        new_perm.setflags(write=False)
        groups, new_runs, lo, first = [], [], 0, 0
        for _, _, size, count in runs:
            n = int(np.count_nonzero(keep[first:first + count]))
            first += count
            if n:
                groups.extend(new_perm[lo:lo + n * size].reshape(n, size))
                new_runs.append((lo, lo + n * size, size, n))
                lo += n * size
        if np.array_equal(new_perm, np.arange(new_perm.size)):
            new_perm = None
        return features, _prebuilt(tuple(groups), self.mode,
                                   GroupLayout(new_perm, tuple(new_runs)))

    def validate(self, n_features):
        """Check the groups are disjoint and cover exactly {0..M-1}."""
        flat = np.concatenate(self.groups) if self.groups else np.empty(0, dtype=np.int64)
        if flat.size != n_features or not np.array_equal(np.sort(flat), np.arange(n_features)):
            raise ValueError("groups must partition the feature indices exactly")


def _prebuilt(groups, mode, layout):
    """The BlockStructure of `groups`, read-only int64 arrays already, with
    its `layout` given. The constructor's per-group pass is skipped: at 160
    groups it took 90 us of 130."""
    blocks = object.__new__(BlockStructure)
    object.__setattr__(blocks, "groups", groups)
    object.__setattr__(blocks, "mode", mode)
    vars(blocks)["layout"] = layout
    return blocks


@dataclass(frozen=True)
class RegularizerSpec:
    """Which sparsity penalty to apply to the weights (offsets are exempt).

    kind is one of "l1", "l12", "l1inf", "l2sq"; the mixed norms need a
    BlockStructure, the others ignore it.
    """

    kind: str
    blocks: BlockStructure | None = None

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"unknown regularizer {self.kind!r}; expected one of {REGULARIZER_KINDS}")

    @property
    def needs_blocks(self):
        return self.kind in ("l12", "l1inf")

    def validate(self, n_features):
        if self.needs_blocks:
            if self.blocks is None:
                raise ValueError(f"regularizer {self.kind!r} needs a block structure")
            self.blocks.validate(n_features)


def make_margin_offsets(dataset):
    """Per-sample margin offset vectors r_l.

    Returns an (L, K) array whose row l is mu_l everywhere except for an
    exact zero at the sample's own class.
    """
    r = np.repeat(dataset.margins[:, None], dataset.n_classes, axis=1)
    r.reshape(-1)[dataset.own_index] = 0.0
    return r

