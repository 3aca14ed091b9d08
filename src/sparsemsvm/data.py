"""Dataset ingestion (dense CSV and svmlight-style sparse text),
standardization, stratified splitting, and synthetic cluster generation."""

from __future__ import annotations

import warnings
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


def _check_label(path, lineno, label, n_classes):
    """A 1-based label of line `lineno`: at least 1, at most `n_classes`
    when that is given, and within int64, which holds the labels."""
    if label < 1:
        raise DataFormatError(f"{path}:{lineno}: labels must be >= 1")
    if n_classes is not None and label > n_classes:
        raise DataFormatError(f"{path}:{lineno}: label {label} exceeds n_classes={n_classes}")
    if label > np.iinfo(np.int64).max:
        raise DataFormatError(f"{path}:{lineno}: label {label} does not fit a 64-bit integer")


def _classes_fit(n_classes, n_samples, n_features):
    """Whether a solve's (K, M+1) and (L, K) float arrays fit the address space."""
    return n_classes * max(n_samples, n_features + 1) * 8 <= np.iinfo(np.intp).max


def _check_class_count(path, labels, linenos, n_features):
    """DataFormatError at the highest label when its class count fails `_classes_fit`."""
    top = max(labels)
    if not _classes_fit(top, len(labels), n_features):
        raise DataFormatError(f"{path}:{linenos[labels.index(top)]}: label {top} sets more "
                              f"classes than {len(labels)} samples of {n_features} features allow")


def load_dense_csv(path, n_classes=None) -> Dataset:
    """Dense CSV: first column an integer 1-based label, the remaining M
    columns the feature values. Rejects ragged rows, non-numeric or
    non-finite cells and empty files. `n_classes` sets the class count of
    a file whose highest label may fall short of it, and rejects a label
    above it; by default the highest label sets it (`_check_class_count`).

    The file is read in one `np.loadtxt` pass, whose C tokenizer converts
    each cell with the correctly rounded routine that `float()` calls. A
    file that pass rejects, or whose result it cannot vouch for as the
    row loop's, is read again by the loop (`_read_dense_csv_rows`): it
    alone names the line of every defect, and it alone accepts the
    spellings that only `float()` or `int()` do (`1_0`, non-ASCII
    digits)."""
    read = _read_dense_csv_at_once(path, n_classes)
    if read is None:
        read = _read_dense_csv_rows(path, n_classes)
    feats, labels = read
    return Dataset.from_arrays(feats, labels, n_classes=n_classes, one_based=True)


def _read_dense_csv_at_once(path, n_classes):
    """The (features, labels) of a dense CSV in one `np.loadtxt` pass, or
    None when the pass fails or its result is not certainly the row
    loop's: no row or no feature, a non-finite cell, a label outside
    1..`n_classes` (or failing `_classes_fit`) or at 2**53 or above, where
    the float column that holds it stops being exact."""
    try:
        with warnings.catch_warnings():
            # an empty file warns; the loop reports it as a DataFormatError
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", comments=None, encoding="utf-8",
                               ndmin=2, converters={0: int})
    except Exception:
        # whatever the pass rejects, the loop rejects with its own message
        # or accepts as float() and int() do
        return None
    feats = table[:, 1:]
    if not feats.size:
        return None
    labels = table[:, 0]
    if not (np.isfinite(feats).all() and labels.min() >= 1 and labels.max() < 2.0 ** 53
            and (n_classes is None or labels.max() <= n_classes)
            and (n_classes is not None or _classes_fit(int(labels.max()), *feats.shape))):
        return None
    return np.ascontiguousarray(feats), labels.astype(np.int64)


def _read_dense_csv_rows(path, n_classes):
    """The (features, labels) of a dense CSV, read row by row: each cell
    parsed as `float()` and each label as `int()` would, each defect a
    DataFormatError naming `path:line`."""
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
            _check_label(path, lineno, label, n_classes)
            labels.append(label)
            rows.append(feats)
            linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    if n_classes is None:
        _check_class_count(path, labels, linenos, len(rows[0]))
    feats = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{linenos[bad[0]]}: non-finite feature cell")
    return feats, labels


def save_dense_csv(path, dataset: Dataset):
    """Inverse of `load_dense_csv` (full 17-significant-digit precision)."""
    feats = dataset.dense_features()
    with open(path, "w") as fh:
        for i in range(dataset.n_samples):
            cells = [str(int(dataset.labels[i]) + 1)]
            cells += [format(v, ".17g") for v in feats[i]]
            fh.write(",".join(cells) + "\n")


def load_sparse_svmlight(path, n_features=None, n_classes=None) -> Dataset:
    """svmlight-style text: lines `label idx:val idx:val ...` with 1-based,
    strictly increasing indices; missing features are exact zeros.
    Trailing `#` comments are ignored; non-finite values are rejected.
    `n_features` and `n_classes` set the width and the class count of a
    file whose highest index or label may fall short of them (an index or
    label above them is an error); by default the file's highest ones set
    them (`_check_class_count`)."""
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
            _check_label(path, lineno, label, n_classes)
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: bad token {tok!r}") from None
                if idx < 1:
                    raise DataFormatError(f"{path}:{lineno}: indices are 1-based (got {idx})")
                if idx <= prev:
                    raise DataFormatError(
                        f"{path}:{lineno}: indices must be strictly increasing (got {idx} after {prev})")
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
    if n_classes is None:
        _check_class_count(path, labels, linenos, M)
    import scipy.sparse as sp
    feats = sp.csr_matrix((data, indices, indptr), shape=(len(labels), M))
    return Dataset.from_arrays(feats, labels, n_classes=n_classes, one_based=True)


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
    centered. A standardized value that overflows raises ValueError."""
    if stats.scale.shape != (dataset.n_features,):
        raise ValueError(f"standardize stats cover {stats.scale.size} features, "
                         f"the data has {dataset.n_features}")
    with np.errstate(over="ignore", invalid="ignore"):
        if issparse(dataset.features) and not np.any(stats.mean):
            import scipy.sparse as sp
            feats = sp.csr_matrix(dataset.features, copy=True)
            feats.data /= stats.scale[feats.indices]
            bad = feats.indices[~np.isfinite(feats.data)]
        else:
            feats = (dataset.dense_features() - stats.mean) / stats.scale
            bad = np.flatnonzero(~np.isfinite(feats).all(axis=0))
    if bad.size:
        raise ValueError(f"standardizing feature {bad.min() + 1} overflows the float range")
    return Dataset(feats, dataset.labels, dataset.n_classes, dataset.margins)


def save_standardize_stats(path, stats: StandardizeStats):
    with open(path, "w") as fh:
        fh.write(" ".join(format(v, ".17g") for v in stats.mean) + "\n")
        fh.write(" ".join(format(v, ".17g") for v in stats.scale) + "\n")


def _stats_line(fh, path, lineno, name):
    """The numbers on the next line of a stats file, as an array."""
    values = []
    for token in fh.readline().split():
        try:
            values.append(float(token))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: {name} {token!r} is not a number") from None
    return np.array(values, dtype=np.float64)


def load_standardize_stats(path) -> StandardizeStats:
    """The stats that `save_standardize_stats` wrote: a line of means, then
    a line of scales, one per feature. A mean must be finite and a scale
    finite and > 0; a defect raises DataFormatError naming `path:line`."""
    with open_text(path) as fh:
        mean = _stats_line(fh, path, 1, "mean")
        scale = _stats_line(fh, path, 2, "scale")
    if mean.size == 0:
        raise DataFormatError(f"{path}:1: no means")
    if scale.size != mean.size:
        raise DataFormatError(f"{path}:2: {scale.size} scales for {mean.size} means")
    bad = np.flatnonzero(~np.isfinite(mean))
    if bad.size:
        raise DataFormatError(f"{path}:1: mean {float(mean[bad[0]])!r} of feature {bad[0] + 1} "
                              "is not finite")
    bad = np.flatnonzero(~(np.isfinite(scale) & (scale > 0)))
    if bad.size:
        raise DataFormatError(f"{path}:2: scale {float(scale[bad[0]])!r} of feature {bad[0] + 1} "
                              "is not finite and > 0")
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
