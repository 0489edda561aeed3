"""Objective-oriented reweighting aggregation.

Each client scores every model in its closed neighborhood on its own
auxiliary data (the target performance metric), turns the scores into
normalized aggregation weights via a customized reweighting strategy, and
averages the received parameter vectors with those weights.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core_learning import (
    Dataset,
    ParamVector,
    evaluate_accuracy,
    evaluate_mean_loss,
    stacked_accuracy,
    stacked_mean_loss,
)

#: Sentinel for a non-finite metric evaluation (e.g. a diverged model's loss).
SENTINEL = math.inf

WEIGHT_SUM_TOL = 1e-9


class TargetMetricKind(enum.Enum):
    ACCURACY_ON_AUX = "accuracy"
    LOSS_ON_AUX = "loss"


@dataclass(frozen=True)
class TempSoftmax:
    """Temperature-scaled softmax: smaller temperature sharpens the weights."""

    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class LossClip:
    """Zero-weight any metric above the neighborhood mean, then normalize."""


@dataclass(frozen=True)
class AccClip:
    """Zero-weight any metric below the neighborhood mean, then normalize."""


CRSKind = Union[TempSoftmax, LossClip, AccClip]


@dataclass(frozen=True)
class MetricVector:
    """Per-node metric values over a client's closed neighborhood."""

    ids: tuple
    values: np.ndarray

    def __post_init__(self):
        ids = tuple(int(i) for i in self.ids)
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if len(ids) != vals.shape[0]:
            raise ValueError("ids and values must have equal length")
        if len(ids) == 0:
            raise ValueError("metric vector must be nonempty")
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be distinct")
        if np.any(np.isnan(vals)) or np.any(vals == -math.inf):
            raise ValueError("metric values must be finite or the +inf sentinel")
        vals.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative aggregation weights summing to one over the same id set."""

    ids: tuple
    weights: np.ndarray

    def __post_init__(self):
        ids = tuple(int(i) for i in self.ids)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1).copy()
        if len(ids) != w.shape[0]:
            raise ValueError("ids and weights must have equal length")
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be distinct")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", w)


def compute_tpm(kind: TargetMetricKind, model: ParamVector, aux: Dataset) -> float:
    """Score a model on the auxiliary set; non-finite values become +inf."""
    if kind is TargetMetricKind.ACCURACY_ON_AUX:
        value = evaluate_accuracy(model, aux)
    elif kind is TargetMetricKind.LOSS_ON_AUX:
        value = evaluate_mean_loss(model, aux)
    else:
        raise TypeError(f"unknown metric kind {kind!r}")
    return value if math.isfinite(value) else SENTINEL


# compute_tpm_batch computes what these module-level functions compute, so it
# stands in for them only while they are this module's own. A caller that
# replaces one (to instrument or to change scoring) gets it called per member.
_STOCK_SCORING = (compute_tpm, evaluate_accuracy, evaluate_mean_loss)


def compute_tpm_batch(kind: TargetMetricKind, params: np.ndarray, aux: Dataset) -> np.ndarray:
    """compute_tpm of every row of a stacked (k, C*d+C) parameter matrix.

    All k models are scored in one batched matmul; each value is
    bit-identical to compute_tpm on that row.
    """
    if kind is TargetMetricKind.ACCURACY_ON_AUX:
        values = stacked_accuracy(params, aux)
    elif kind is TargetMetricKind.LOSS_ON_AUX:
        values = stacked_mean_loss(params, aux)
    else:
        raise TypeError(f"unknown metric kind {kind!r}")
    return np.where(np.isfinite(values), values, SENTINEL)


def crs_temp_softmax(metrics: MetricVector, temperature: float) -> WeightVector:
    """softmax(m_i / T) with max-subtraction."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if np.any(np.isinf(metrics.values)):
        raise ValueError("temp-softmax reweighting requires finite metrics")
    z = metrics.values / temperature
    exp = np.exp(z - z.max())
    return WeightVector(metrics.ids, exp / exp.sum())


def crs_loss_clip(metrics: MetricVector) -> WeightVector:
    """Clip losses above the mean to zero, then normalize the raw survivors.

    The mean excludes sentinel entries, which are always clipped. Survivors
    keep their raw loss value, so among survivors a higher loss receives a
    larger weight; all-zero survivors fall back to uniform weights.
    """
    values = metrics.values
    finite = np.isfinite(values)
    if not finite.any():
        raise ValueError("loss-clip requires at least one finite metric")
    if np.any(values[finite] < 0):
        raise ValueError("loss metrics must be nonnegative")
    # Clamping to the data keeps equal metrics uniform when their float mean
    # rounds past the common value.
    mu = max(float(values[finite].mean()), float(values[finite].min()))
    survivors = finite & (values <= mu)
    raw = np.where(survivors, values, 0.0)
    total = float(raw.sum())
    if total > 0:
        weights = raw / total
    else:
        weights = survivors / survivors.sum()
    return WeightVector(metrics.ids, weights)


def crs_acc_clip(metrics: MetricVector) -> WeightVector:
    """Clip accuracies below the mean to zero, then normalize the survivors."""
    values = metrics.values
    if np.any(~np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
        raise ValueError("accuracy metrics must be finite and lie in [0, 1]")
    mu = min(float(values.mean()), float(values.max()))
    survivors = values >= mu
    raw = np.where(survivors, values, 0.0)
    total = float(raw.sum())
    if total > 0:
        weights = raw / total
    else:
        weights = survivors / survivors.sum()
    return WeightVector(metrics.ids, weights)


_CRSS = {
    TempSoftmax: lambda crs, metrics: crs_temp_softmax(metrics, crs.temperature),
    LossClip: lambda crs, metrics: crs_loss_clip(metrics),
    AccClip: lambda crs, metrics: crs_acc_clip(metrics),
}


def apply_crs(crs: CRSKind, metrics: MetricVector) -> WeightVector:
    if type(crs) not in _CRSS:
        raise TypeError(f"unknown reweighting strategy {crs!r}")
    return _CRSS[type(crs)](crs, metrics)


def reweight_aggregate(params: np.ndarray, weights: WeightVector) -> np.ndarray:
    """Weighted sum of the rows of params; row i carries weights.weights[i].

    Zero-weight rows are dropped before any arithmetic, so a zero-weight model
    may be non-finite without contaminating the result. The surviving rows are
    summed in row order, bit-identical to accumulating w * row one at a time.
    """
    w = weights.weights
    if len(params) != len(w):
        raise ValueError(f"{len(params)} parameter rows for {len(w)} weights")
    nz = np.flatnonzero(w)
    return np.add.reduce(w[nz, None] * params[nz], axis=0)


def dfedreweighting_round_weights(
    kind: TargetMetricKind,
    crs: CRSKind,
    ids,
    params: np.ndarray,
    aux: Dataset,
) -> WeightVector:
    """Score a closed neighborhood on aux and apply the reweighting strategy.

    This is the composition each client runs every round: the rows of params
    (the models of the nodes in ids, in that order) are scored together with
    compute_tpm_batch and reweighted by the CRS. If compute_tpm or a metric it
    calls has been replaced, each row is scored by a call to the module's
    compute_tpm instead.
    """
    if (compute_tpm, evaluate_accuracy, evaluate_mean_loss) == _STOCK_SCORING:
        values = compute_tpm_batch(kind, params, aux)
    else:
        values = np.array([
            compute_tpm(kind, ParamVector(row, aux.num_classes, aux.feature_dim), aux)
            for row in params
        ])
    return apply_crs(crs, MetricVector(ids, values))
