"""Prediction, accuracy, sparsity and objective diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linop import _apply_T_aug
from .model import Dataset, ModelVector, RegularizerSpec, issparse, make_margin_offsets
from .prox import _group_rows, regularizer_value

NONZERO_THRESHOLD = 1e-5


class ObjectiveValues(NamedTuple):
    g_value: float
    hinge_sum: float
    total: float


@dataclass
class EvalReport:
    error_count: int
    error_rate: float
    nonzeros_per_class: np.ndarray
    nonzero_groups: int | None
    g_value: float
    hinge_sum: float
    total: float


def scores(model: ModelVector, features):
    """Per-class discriminating values phi~(u)^T x^(k); (n, K) for a batch."""
    feats = features
    single = not issparse(feats) and np.asarray(feats).ndim == 1
    if single:
        feats = np.asarray(feats, dtype=np.float64)[None, :]
    if feats.shape[1] != model.n_features:
        raise ValueError("feature dimension does not match the model")
    S = feats @ model.weights.T + model.offsets
    return S[0] if single else S


def predict(model: ModelVector, features):
    """Predicted class (1-based) = argmax of the per-class scores; ties go
    to the lowest class index."""
    S = scores(model, features)
    if S.ndim == 1:
        return int(np.argmax(S)) + 1
    return np.argmax(S, axis=1) + 1


def count_nonzeros(model: ModelVector, threshold: float = NONZERO_THRESHOLD):
    """Per-class counts of weight entries with |w| > threshold; offsets
    are not counted."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return (np.abs(model.weights) > threshold).sum(axis=1)


def count_nonzero_groups(model: ModelVector, spec: RegularizerSpec,
                         threshold: float = NONZERO_THRESHOLD):
    """Number of regularizer groups containing at least one surviving weight."""
    if spec.blocks is None:
        raise ValueError("group counting needs a block structure")
    return int(sum((np.abs(rows) > threshold).any(axis=1).sum()
                   for rows in _group_rows(model.weights, spec.blocks)))


def hinge_sum(x: ModelVector | np.ndarray, dataset: Dataset):
    """Sum over samples of the multiclass hinge max_k((T_l x)^(k) + r_l^(k)).

    `x` is a ModelVector or a raw (K, M+1) augmented array, the solvers'
    form. Raises ValueError when the scores, or their sum, overflow.
    """
    x_aug = x.augmented() if isinstance(x, ModelVector) else np.asarray(x)
    if x_aug.shape != (dataset.n_classes, dataset.n_features + 1):
        raise ValueError("model and dataset dimensions do not agree")
    r = make_margin_offsets(dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        margins = _apply_T_aug(x_aug, dataset) + r
        total = float(margins.max(axis=1).sum())
    if not (np.isfinite(total) and np.isfinite(margins).all()):
        raise ValueError("the hinge sum is not finite: the model's scores on this data overflow")
    return total


def objective_value(x: ModelVector | np.ndarray, dataset: Dataset,
                    spec: RegularizerSpec, lam: float | None = None) -> ObjectiveValues:
    """Regularizer value, hinge sum, and the optimization objective of a
    ModelVector or augmented array; evaluation and the solver reports
    share it.

    With `lam` set (regularized mode) the total is g + lam * hinge_sum;
    in constrained mode (lam None) the total is the g value alone. Raises
    ValueError when g of finite weights overflows, or the hinge sum or the
    total does.
    """
    with np.errstate(over="ignore"):
        g = regularizer_value(x, spec)
    if not np.isfinite(g):
        raise ValueError("the regularizer value is not finite: the model's weights overflow it")
    h = hinge_sum(x, dataset)
    total = g + lam * h if lam is not None else g
    if not np.isfinite(total):
        raise ValueError(f"the objective is not finite: lam {lam!r} times the hinge sum {h!r} "
                         "overflows")
    return ObjectiveValues(g, h, total)


def evaluate_model(model: ModelVector, dataset: Dataset, spec: RegularizerSpec,
                   lam: float | None = None,
                   threshold: float = NONZERO_THRESHOLD) -> EvalReport:
    """Classification errors plus sparsity and objective diagnostics."""
    # first: it raises on scores that overflow, before predict meets them
    obj = objective_value(model, dataset, spec, lam=lam)
    pred = predict(model, dataset.features)
    errors = int(np.sum(pred != dataset.labels + 1))
    groups = None
    if spec.needs_blocks:
        groups = count_nonzero_groups(model, spec, threshold)
    return EvalReport(
        error_count=errors,
        error_rate=errors / dataset.n_samples,
        nonzeros_per_class=count_nonzeros(model, threshold),
        nonzero_groups=groups,
        g_value=obj.g_value,
        hinge_sum=obj.hinge_sum,
        total=obj.total,
    )
