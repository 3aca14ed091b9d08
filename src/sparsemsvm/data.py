"""Dataset ingestion (dense CSV and svmlight-style sparse text),
standardization, stratified splitting, and synthetic cluster generation."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import Dataset, issparse


class DataFormatError(ValueError):
    """Malformed input file."""


@contextmanager
def open_text(path):
    """`path` opened for reading as UTF-8 text. A byte that does not decode
    raises DataFormatError naming the path and the line it sits on, as
    every other defect of an input file does."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise _undecodable(path) from None


def _undecodable(path):
    """The DataFormatError of the first byte of `path` that is not UTF-8;
    lines end at \\n, \\r\\n or \\r, as text-mode reading splits them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        return DataFormatError(f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text")
    return DataFormatError(f"{path}: not UTF-8 text")


def load_dense_csv(path) -> Dataset:
    """Dense CSV: first column an integer 1-based label, the remaining M
    columns the feature values. Rejects ragged rows, non-numeric or
    non-finite cells and empty files."""
    labels = []
    rows = []
    linenos = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise DataFormatError(f"{path}:{lineno}: need a label and at least one feature")
            try:
                label = int(cells[0])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: label {cells[0]!r} is not an integer") from None
            try:
                # numpy 2.4 casts each str as float() does: same values, same
                # rejects; test_cells_parse_as_float_does checks the numpy in use
                feats = np.array(cells[1:], dtype=np.float64)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric feature cell") from None
            if rows and len(feats) != len(rows[0]):
                raise DataFormatError(f"{path}:{lineno}: ragged row ({len(feats)} vs {len(rows[0])} features)")
            if label < 1:
                raise DataFormatError(f"{path}:{lineno}: labels must be >= 1")
            labels.append(label)
            rows.append(feats)
            linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    feats = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{linenos[bad[0]]}: non-finite feature cell")
    return Dataset.from_arrays(feats, labels, one_based=True)


def save_dense_csv(path, dataset: Dataset):
    """Inverse of `load_dense_csv` (full 17-significant-digit precision)."""
    feats = dataset.dense_features()
    with open(path, "w") as fh:
        for i in range(dataset.n_samples):
            cells = [str(int(dataset.labels[i]) + 1)]
            cells += [format(v, ".17g") for v in feats[i]]
            fh.write(",".join(cells) + "\n")


def load_sparse_svmlight(path, n_features=None) -> Dataset:
    """svmlight-style text: lines `label idx:val idx:val ...` with 1-based,
    strictly increasing indices; missing features are exact zeros.
    Trailing `#` comments are ignored; non-finite values are rejected."""
    labels = []
    linenos = []
    data, indices, indptr = [], [], [0]
    max_idx = 0
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = int(tokens[0])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: label {tokens[0]!r} is not an integer") from None
            if label < 1:
                raise DataFormatError(f"{path}:{lineno}: labels must be >= 1")
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: bad token {tok!r}") from None
                if idx <= prev:
                    raise DataFormatError(
                        f"{path}:{lineno}: indices must be strictly increasing (got {idx} after {prev})")
                if idx < 1:
                    raise DataFormatError(f"{path}:{lineno}: indices are 1-based")
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            max_idx = max(max_idx, prev)
            indptr.append(len(data))
            labels.append(label)
            linenos.append(lineno)
    if not labels:
        raise DataFormatError(f"{path}: empty file")
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        row = np.searchsorted(indptr, bad[0], side="right") - 1
        raise DataFormatError(f"{path}:{linenos[row]}: non-finite feature value")
    M = n_features if n_features is not None else max_idx
    if max_idx > M:
        raise DataFormatError(f"{path}: index {max_idx} exceeds n_features={M}")
    import scipy.sparse as sp
    feats = sp.csr_matrix((data, indices, indptr), shape=(len(labels), M))
    return Dataset.from_arrays(feats, labels, one_based=True)


def save_sparse_svmlight(path, dataset: Dataset):
    """Inverse of `load_sparse_svmlight`; writes the nonzero entries only."""
    import scipy.sparse as sp
    feats = sp.csr_matrix(dataset.features) if not sp.issparse(dataset.features) \
        else dataset.features.tocsr()
    with open(path, "w") as fh:
        for i in range(dataset.n_samples):
            row = feats.getrow(i)
            pairs = [f"{j + 1}:{format(v, '.17g')}"
                     for j, v in sorted(zip(row.indices, row.data))]
            fh.write(" ".join([str(int(dataset.labels[i]) + 1)] + pairs) + "\n")


@dataclass(frozen=True)
class StandardizeStats:
    """Per-feature mean and scale from a training split."""

    mean: np.ndarray
    scale: np.ndarray  # std with zero-variance features mapped to 1


def standardize(dataset: Dataset):
    """Per-feature mean/variance normalization; zero-variance features are
    only centered. Sparse (CSR) features are scaled but not centered, so
    they stay sparse: their stats hold a mean of 0. Returns the transformed
    dataset and the stats, which can be replayed on held-out data with
    `apply_standardize`."""
    if issparse(dataset.features):
        import scipy.sparse as sp
        X = sp.csr_matrix(dataset.features, copy=True)
        X.sum_duplicates()
        n, M = X.shape
        mean = np.asarray(X.sum(axis=0)).ravel() / n
        # squared deviations of the stored entries plus those of the
        # implicit zeros, without densifying
        dev = X.data - mean[X.indices]
        implicit = n - np.bincount(X.indices, minlength=M)
        std = np.sqrt((np.bincount(X.indices, weights=dev * dev, minlength=M)
                       + implicit * mean ** 2) / n)
        spread = (X.max(axis=0) - X.min(axis=0)).toarray().ravel()
        mean = np.zeros(M)
    else:
        feats = dataset.features
        lo = feats.min(axis=0)
        spread = feats.max(axis=0) - lo
        # a constant column is centered on its value: its mean may round off it
        mean = np.where(spread > 0, feats.mean(axis=0), lo)
        std = feats.std(axis=0)
    # a constant column has zero variance even when its mean rounds
    std = np.where(spread > 0, std, 0.0)
    stats = StandardizeStats(mean, np.where(std > 0, std, 1.0))
    return apply_standardize(dataset, stats), stats


def apply_standardize(dataset: Dataset, stats: StandardizeStats) -> Dataset:
    """Replay `stats` on a dataset. Sparse features stay sparse when the
    stats hold a zero mean (scale only); otherwise they are densified and
    centered."""
    if stats.scale.shape != (dataset.n_features,):
        raise ValueError(f"standardize stats cover {stats.scale.size} features, "
                         f"the data has {dataset.n_features}")
    if issparse(dataset.features) and not np.any(stats.mean):
        import scipy.sparse as sp
        feats = sp.csr_matrix(dataset.features, copy=True)
        feats.data /= stats.scale[feats.indices]
    else:
        feats = (dataset.dense_features() - stats.mean) / stats.scale
    return Dataset(feats, dataset.labels, dataset.n_classes, dataset.margins)


def save_standardize_stats(path, stats: StandardizeStats):
    with open(path, "w") as fh:
        fh.write(" ".join(format(v, ".17g") for v in stats.mean) + "\n")
        fh.write(" ".join(format(v, ".17g") for v in stats.scale) + "\n")


def load_standardize_stats(path) -> StandardizeStats:
    with open_text(path) as fh:
        mean = np.array([float(v) for v in fh.readline().split()])
        scale = np.array([float(v) for v in fh.readline().split()])
    if mean.shape != scale.shape or mean.size == 0:
        raise DataFormatError(f"{path}: malformed stats file")
    return StandardizeStats(mean, scale)


def make_synthetic(n_classes, n_features, n_samples, separation=4.0, seed=0) -> Dataset:
    """Gaussian class clusters at separation-scaled random unit centers.

    Labels cycle through the classes so the sample counts are as balanced
    as possible; everything is drawn from one seeded generator, so a fixed
    seed reproduces the dataset bitwise.
    """
    if n_classes < 1 or n_samples < 1 or n_features < 1:
        raise ValueError("n_classes, n_features and n_samples must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, n_features))
    centers /= np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    centers *= separation
    labels = np.arange(n_samples) % n_classes
    feats = centers[labels] + rng.standard_normal((n_samples, n_features))
    return Dataset.from_arrays(feats, labels, n_classes=n_classes)


def split(dataset: Dataset, train_fraction=None, per_class=None, seed=0):
    """Stratified train/test split; exactly one of `train_fraction` or
    `per_class` selects the per-class train counts. Both splits preserve
    the original sample order."""
    if (train_fraction is None) == (per_class is None):
        raise ValueError("specify exactly one of train_fraction or per_class")
    rng = np.random.default_rng(seed)
    train_idx = []
    for k in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == k)
        if per_class is not None:
            take = int(per_class)
            if take < 0:
                raise ValueError(f"per_class must be >= 0, got {take}")
            if take > members.size:
                raise ValueError(f"class {k + 1} has only {members.size} samples, need {take}")
        else:
            if not 0.0 <= train_fraction <= 1.0:
                raise ValueError("train_fraction must be in [0, 1]")
            take = int(np.floor(train_fraction * members.size + 0.5))
        train_idx.extend(rng.permutation(members)[:take])
    train_mask = np.zeros(dataset.n_samples, dtype=bool)
    train_mask[np.asarray(train_idx, dtype=np.int64)] = True
    if not train_mask.any():
        raise ValueError("empty training split")
    train = dataset.subset(np.flatnonzero(train_mask))
    test_indices = np.flatnonzero(~train_mask)
    test = dataset.subset(test_indices) if test_indices.size else None
    return train, test
