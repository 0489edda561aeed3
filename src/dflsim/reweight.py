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

# The TPM kernels below are called through TargetMetricKind.kernel, by name.
from .core_learning import (
    Dataset,
    ParamVector,
    evaluate_accuracy,
    evaluate_mean_loss,
    grouped_accuracy,
    grouped_mean_loss,
)
from .plan import RoundPlan

#: Sentinel for a non-finite metric evaluation (e.g. a diverged model's loss).
SENTINEL = math.inf

WEIGHT_SUM_TOL = 1e-9


class TargetMetricKind(enum.Enum):
    """A TPM: its config name, which scores ("high" or "low") are better, its kernels' name."""

    ACCURACY_ON_AUX = ("accuracy", "high", "accuracy")
    LOSS_ON_AUX = ("loss", "low", "mean_loss")

    def __new__(cls, value: str, direction: str, kernel: str):
        member = object.__new__(cls)
        member._value_, member.direction, member._kernel_name = value, direction, kernel
        return member

    def kernel(self, form: str):
        """This module's <form>_<name>, for form "evaluate" or "grouped"."""
        # Looked up when called, so a replaced module attribute (a tracer's wrapper, say) runs.
        return globals()[f"{form}_{self._kernel_name}"]


# A CRS is a frozen dataclass whose fields are its config keys. It declares
# which metric values it favours ("high" or "low"), its per-vector form
# weights(metrics), and its row form rows(values): for a (g, k) matrix of
# finite metrics, one closed neighborhood per row, the weights and a per-row
# flag that is False where the per-vector form would reject the row. Rows of
# equal length reduce in the same order as a single vector, so each weight
# row is bit-identical to the per-vector form on that row alone.


@dataclass(frozen=True)
class TempSoftmax:
    """Temperature-scaled softmax: smaller temperature sharpens the weights."""

    temperature: float
    favours = "high"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    def weights(self, metrics: MetricVector) -> WeightVector:
        return crs_temp_softmax(metrics, self.temperature)

    def rows(self, values: np.ndarray) -> tuple:
        z = values / self.temperature
        exp = np.exp(z - z.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True), True


@dataclass(frozen=True)
class LossClip:
    """Zero-weight any metric above the neighborhood mean, then normalize."""

    favours = "low"

    def weights(self, metrics: MetricVector) -> WeightVector:
        return crs_loss_clip(metrics)

    def rows(self, values: np.ndarray) -> tuple:
        mu = np.maximum(values.mean(axis=1), values.min(axis=1))
        return _clip_rows(values, values <= mu[:, None]), (values >= 0).all(axis=1)


@dataclass(frozen=True)
class AccClip:
    """Zero-weight any metric below the neighborhood mean, then normalize."""

    favours = "high"

    def weights(self, metrics: MetricVector) -> WeightVector:
        return crs_acc_clip(metrics)

    def rows(self, values: np.ndarray) -> tuple:
        mu = np.minimum(values.mean(axis=1), values.max(axis=1))
        return _clip_rows(values, values >= mu[:, None]), ((values >= 0) & (values <= 1)).all(axis=1)


def _clip_rows(values: np.ndarray, survivors: np.ndarray) -> np.ndarray:
    raw = np.where(survivors, values, 0.0)
    total = raw.sum(axis=1, keepdims=True)
    uniform = survivors / survivors.sum(axis=1, keepdims=True)
    return np.divide(raw, total, out=uniform, where=total > 0)


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
    value = kind.kernel("evaluate")(model, aux)
    return value if math.isfinite(value) else SENTINEL


def _scoring() -> tuple:
    return (compute_tpm, *(kind.kernel("evaluate") for kind in TargetMetricKind))


# reweight_round's grouped kernels compute what these module-level functions
# compute, so they stand in for them only while they are this module's own. A
# caller that replaces one (to instrument or to change scoring) gets it called
# per member.
_STOCK_SCORING = _scoring()


def scoring_is_stock() -> bool:
    """Whether compute_tpm and the metrics it calls are still this module's own."""
    return _scoring() == _STOCK_SCORING


def crs_temp_softmax(metrics: MetricVector, temperature: float) -> WeightVector:
    """softmax(m_i / T) with max-subtraction."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if np.any(np.isinf(metrics.values)):
        raise ValueError("temp-softmax reweighting requires finite metrics")
    z = metrics.values / temperature
    exp = np.exp(z - z.max())
    return WeightVector(metrics.ids, exp / exp.sum())


def _clip(ids: tuple, values: np.ndarray, survivors: np.ndarray) -> WeightVector:
    """The survivors' values normalized; all-zero survivors get uniform weights."""
    raw = np.where(survivors, values, 0.0)
    total = float(raw.sum())
    return WeightVector(ids, raw / total if total > 0 else survivors / survivors.sum())


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
    return _clip(metrics.ids, values, survivors)


def crs_acc_clip(metrics: MetricVector) -> WeightVector:
    """Clip accuracies below the mean to zero, then normalize the survivors."""
    values = metrics.values
    if np.any(~np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
        raise ValueError("accuracy metrics must be finite and lie in [0, 1]")
    mu = min(float(values.mean()), float(values.max()))
    survivors = values >= mu
    return _clip(metrics.ids, values, survivors)


def apply_crs(crs: CRSKind, metrics: MetricVector) -> WeightVector:
    return crs.weights(metrics)


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

    This is the composition each client runs every round: each row of params
    (the models of the nodes in ids, in that order) is scored by a call to
    the module's compute_tpm, and the scores are reweighted by the CRS.
    """
    values = [compute_tpm(kind, ParamVector(row, aux.num_classes, aux.feature_dim), aux)
              for row in params]
    return apply_crs(crs, MetricVector(ids, values))


def _group_weights(crs: CRSKind, ids: np.ndarray, metrics: np.ndarray, nodes: list, failures: dict):
    """(g, k) weights of one group's metric rows; a row that fails records its node in failures.

    Rows holding the +inf sentinel, and rows crs.rows or the weight
    check rejects, go through apply_crs one by one, which computes them or
    raises what it raises for a single client.
    """
    finite = np.isfinite(metrics).all(axis=1)
    # Sentinel rows are reweighted as zeros here, and then again one by one.
    rows = metrics if finite.all() else np.where(finite[:, None], metrics, 0.0)
    weights, ok = crs.rows(rows)
    # A NaN or infinite weight also takes its row's sum away from 1.
    ok &= finite & (weights >= 0).all(axis=1) & (np.abs(weights.sum(axis=1) - 1.0) <= WEIGHT_SUM_TOL)
    if ok.all():
        return weights
    for i in np.flatnonzero(~ok):
        try:
            weights[i] = apply_crs(crs, MetricVector(ids[i], metrics[i])).weights
        except ValueError as exc:
            failures[nodes[i]] = exc
    return weights


def reweight_round(
    kind: TargetMetricKind, crs: CRSKind, broadcast: np.ndarray, plan: RoundPlan, num_classes: int
) -> tuple:
    """One DFedReweighting aggregation for every benign client of a round.

    plan is the network's RoundPlan, row i of broadcast is node i's model
    and num_classes is C. Each aggregation group of the plan (equal
    closed-neighborhood and aux sizes) is gathered once into a (g, k,
    C*d+C) array, scored on the group's stacked aux sets with the gemm
    compute_tpm runs for each member, reweighted row by row and mixed in
    member order.
    Every result equals reweight_aggregate(params,
    dfedreweighting_round_weights(...)) on that client alone, bit for bit.

    Returns (rows, weights, failures): rows[i] is the new model of the i-th
    benign client, weights maps each client to {member: weight}, and
    failures maps each client whose aggregation failed to its exception;
    those clients' rows and weights are meaningless.
    """
    rows = np.zeros((len(plan.benign), broadcast.shape[1]))
    weights, failures = {}, {}
    for group in plan.groups:
        nodes, ids = group.nodes, group.members
        params = broadcast[ids]
        try:
            values = kind.kernel("grouped")(params, group.aux_features, group.aux_labels, num_classes)
        except Exception as exc:
            # Scoring fails for a whole group at once; alone, its first client would fail first.
            failures[nodes[0]] = exc
            continue
        finite = np.isfinite(values)
        metrics = values if finite.all() else np.where(finite, values, SENTINEL)
        w = _group_weights(crs, ids, metrics, nodes, failures)
        # Zero-weight rows become -0.0 (and stay -0.0 when weighted), which
        # adds nothing to any sum: a non-finite model among them is dropped
        # as reweight_aggregate drops it, and the others sum in member order.
        params[w == 0] = -0.0
        params *= w[..., None]
        rows[group.positions] = np.add.reduce(params, axis=1)
        for node, member_ids, row in zip(nodes, ids.tolist(), w.tolist()):
            weights[node] = dict(zip(member_ids, row))
    return rows, {node: weights[node] for node in plan.benign if node in weights}, failures
