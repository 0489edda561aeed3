"""Objective-oriented reweighting aggregation.

Each client scores every model in its closed neighborhood on its own
auxiliary data (the target performance metric), turns the scores into
normalized aggregation weights via a customized reweighting strategy, and
averages the received parameter vectors with those weights.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Union

import numpy as np

# The TPM kernels below are called through TargetMetricKind.kernel, by name.
from .core_learning import (
    Dataset,
    ParamVector,
    evaluate_accuracy,
    evaluate_mean_loss,
    pair_logits,
    pairs_accuracy,
    pairs_mean_loss,
)
from .plan import RoundPlan, RowLayout

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
        """This module's <form>_<name>, for form "evaluate" or "pairs"."""
        # Looked up when called, so a replaced module attribute (a tracer's wrapper, say) runs.
        return globals()[f"{form}_{self._kernel_name}"]


# A CRS is a frozen dataclass whose fields are its config keys. It declares
# which metric values it favours ("high" or "low") and its row form
# rows(values, layout): values is a round's flat metric vector, each entry
# finite or the +inf sentinel, whose rows, one closed neighborhood each, the
# plan.RowLayout layout marks. It returns the flat weights and {row: message}
# of the rows it rejects, each with the message a single client's
# reweighting raises. It computes elementwise over the whole vector and
# reduces each row through the layout, so a row's weights depend on that row
# alone and get the bits they get as a vector of its own. _group_weights adds
# WeightVector's checks.


def _rejected(values: np.ndarray, layout: RowLayout, *checks) -> tuple:
    """values with each row a check rejects zeroed, so that it computes without
    floating-point warnings, and {row: message} of those rows. checks are (row
    mask, message) pairs; a row takes the message of the first that rejects it."""
    bad = checks[0][0]
    for mask, _ in checks[1:]:
        bad = bad | mask
    if not bad.any():
        return values, {}
    rejected = {}
    for mask, message in checks:
        for i in np.flatnonzero(mask).tolist():
            rejected.setdefault(i, message)
    return np.where(layout.spread(bad), 0.0, values), rejected


@dataclass(frozen=True)
class TempSoftmax:
    """Temperature-scaled softmax: smaller temperature sharpens the weights."""

    temperature: float
    favours = "high"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    def rows(self, values: np.ndarray, layout: RowLayout) -> tuple:
        values, rejected = _rejected(values, layout, (layout.any(np.isinf(values)),
                                                      "temp-softmax reweighting requires finite metrics"))
        z = values / self.temperature
        exp = np.exp(z - layout.spread(layout.max(z)))
        return exp / layout.spread(layout.sum(exp)), rejected


@dataclass(frozen=True)
class LossClip:
    """Zero-weight any metric above the neighborhood mean, then normalize.

    The mean excludes sentinel entries, which are always clipped. Survivors
    keep their raw loss value, so among survivors a higher loss receives a
    larger weight; all-zero survivors fall back to uniform weights.
    """

    favours = "low"

    def rows(self, values: np.ndarray, layout: RowLayout) -> tuple:
        lowest = layout.min(values)
        values, rejected = _rejected(
            values, layout, (lowest == SENTINEL, "loss-clip requires at least one finite metric"),
            (lowest < 0, "loss metrics must be nonnegative"))
        # Clamping to the data keeps equal metrics uniform when their float mean
        # rounds past the common value. A rejected row's lowest is not its
        # zeroed entries' minimum, but its weights are never read.
        mu = np.maximum(layout.mean(values), lowest)
        finite = np.isfinite(values)
        if not finite.all():
            # A sentinel row's mean sums its finite entries gathered, as a vector of
            # their own: a zero in each sentinel's place would change numpy's
            # pairwise grouping of the sum.
            for i in np.flatnonzero(~layout.all(finite)).tolist():
                kept = layout.row(values, i)[layout.row(finite, i)]
                mu[i] = max(kept.mean(), kept.min())
        survivors = finite & (values <= layout.spread(mu))
        return _clip_rows(values, survivors, layout), rejected


@dataclass(frozen=True)
class AccClip:
    """Zero-weight any metric below the neighborhood mean, then normalize."""

    favours = "high"

    def rows(self, values: np.ndarray, layout: RowLayout) -> tuple:
        values, rejected = _rejected(values, layout, (layout.any((values < 0) | (values > 1)),
                                                      "accuracy metrics must be finite and lie in [0, 1]"))
        mu = np.minimum(layout.mean(values), layout.max(values))
        return _clip_rows(values, values >= layout.spread(mu), layout), rejected


def _clip_rows(values: np.ndarray, survivors: np.ndarray, layout: RowLayout) -> np.ndarray:
    """The survivors' values normalized per row; all-zero survivors get uniform weights."""
    raw = np.where(survivors, values, 0.0)
    total = layout.spread(layout.sum(raw))
    uniform = survivors / layout.spread(layout.count(survivors))
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
        error = _weight_error(w)
        if error:
            raise ValueError(error)
        w.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", w)


def _weight_error(w: np.ndarray):
    """Why the weight vector w is not one, or None if it is."""
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        return "weights must be finite and nonnegative"
    if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        return f"weights sum to {w.sum()}, expected 1"
    return None


def compute_tpm(kind: TargetMetricKind, model: ParamVector, aux: Dataset) -> float:
    """Score a model on the auxiliary set; non-finite values become +inf."""
    value = kind.kernel("evaluate")(model, aux)
    return value if math.isfinite(value) else SENTINEL


def _scoring() -> tuple:
    return (compute_tpm, *(kind.kernel("evaluate") for kind in TargetMetricKind))


# reweight_round's pair_logits and pairs_ kernels compute what these
# module-level functions compute, so they stand in for them only while they
# are this module's own. A caller that replaces one (to instrument or to
# change scoring) gets it called per member.
_STOCK_SCORING = _scoring()


def scoring_is_stock() -> bool:
    """Whether compute_tpm and the metrics it calls are still this module's own."""
    return _scoring() == _STOCK_SCORING


def _group_weights(crs: CRSKind, metrics: np.ndarray, layout: RowLayout) -> tuple:
    """crs.rows(metrics, layout), each row checked as WeightVector checks it:
    (weights, {row: message}).

    A row crs.rows rejects keeps its message; an accepted row whose weights
    WeightVector would refuse takes WeightVector's message.
    """
    weights, failed = crs.rows(metrics, layout)
    # A NaN or infinite weight also takes its row's sum away from 1.
    ok = layout.all(weights >= 0) & (np.abs(layout.sum(weights) - 1.0) <= WEIGHT_SUM_TOL)
    for i in np.flatnonzero(~ok).tolist():
        failed.setdefault(i, _weight_error(layout.row(weights, i)))
    return weights, failed


def apply_crs(crs: CRSKind, metrics: MetricVector) -> WeightVector:
    """crs on one closed neighborhood: _group_weights on its one row, raising its failure."""
    weights, failed = _group_weights(crs, metrics.values, RowLayout.of([len(metrics.values)]))
    if failed:
        raise ValueError(failed[0])
    return WeightVector(metrics.ids, weights)


def mix(weights: np.ndarray, broadcast: np.ndarray) -> np.ndarray:
    """Row i is sum_j weights[i, j] * broadcast[j], summed from +0.0 in ascending j.

    A non-finite broadcast row adds nothing at weight zero and makes the row NaN at any
    other weight. No BLAS matmul: its sums vary with its blocking and thread count."""
    finite = np.isfinite(broadcast).all(axis=1)
    clean = broadcast if finite.all() else np.where(finite[:, None], broadcast, 0.0)
    rows = np.einsum("ij,jp->ip", weights, clean, optimize=False)
    rows[(weights[:, ~finite] != 0).any(axis=1)] = np.nan
    return rows


def reweight_aggregate(params: np.ndarray, weights: WeightVector) -> np.ndarray:
    """Weighted sum of the rows of params; row i carries weights.weights[i].

    The one-row mix: summed in row order; a zero-weight model may be non-finite."""
    w = weights.weights
    if len(params) != len(w):
        raise ValueError(f"{len(params)} parameter rows for {len(w)} weights")
    return mix(w[None], params)[0]


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


class MixingWeights(Mapping):
    """A round's read-only mixing matrix W (row k: benign client k's weights over
    all N nodes), read as {client: {member: weight}} over plan's closed neighborhoods."""

    def __init__(self, matrix: np.ndarray, plan: RoundPlan):
        matrix.setflags(write=False)
        self.matrix, self._closed = matrix, plan.closed

    def __getitem__(self, client) -> dict:
        # W has a row for each benign client only: a negative id would wrap to another
        # row. A key equal to a client id (True, 1.0, np.int64(1)) reads that client's row.
        try:
            row = range(len(self.matrix)).index(client)
        except ValueError:
            raise KeyError(client) from None
        members = np.flatnonzero(self._closed[row])
        return dict(zip(members.tolist(), self.matrix[row, members].tolist()))

    def __iter__(self):
        return iter(range(len(self.matrix)))

    def __len__(self) -> int:
        return len(self.matrix)


def reweight_round(
    kind: TargetMetricKind, crs: CRSKind, broadcast: np.ndarray, plan: RoundPlan, num_classes: int
) -> tuple:
    """One DFedReweighting aggregation for every benign client of a round.

    plan is the network's RoundPlan, row i of broadcast is node i's model
    and num_classes is C. Each scoring block of the plan (groups of one aux
    size) runs each group's gemms into its rows of one (pairs, n, C) logits
    array, with the gemm compute_tpm runs for each pair, and the TPM's
    pairs_ kernel once, which gives the round's flat metric vector its
    block's entries. The CRS then weighs that vector once, row by row through
    the plan's row layout, the weights go into the mixing matrix W in one
    scatter, and mix(W, broadcast) mixes every client at once. Every result
    equals reweight_aggregate(params, dfedreweighting_round_weights(...)) on
    that client alone, bit for bit.

    Returns (rows, weights, failures): rows[k] is the new model of benign
    client k, weights is the MixingWeights of W, and failures maps each
    client whose aggregation failed to its exception; those clients' rows and
    weights are meaningless.
    """
    values, failures = np.zeros(len(plan.pair_members)), {}
    for block in plan.blocks:
        parts = [(group.aux_features, group.members) for group in block.groups]
        try:
            # No name holds a block's logits, so they are freed before the next block's.
            values[block.pairs] = kind.kernel("pairs")(pair_logits(broadcast, parts, num_classes),
                                                       block.labels)
        except Exception as exc:
            # Scoring fails for a whole block at once; alone, its lowest client would fail first.
            failures[min(int(group.nodes[0]) for group in block.groups)] = exc
    finite = np.isfinite(values)
    metrics = values if finite.all() else np.where(finite, values, SENTINEL)
    weights, failed = _group_weights(crs, metrics, plan.layout)
    matrix = np.zeros(plan.closed.shape)
    matrix[plan.pair_clients, plan.pair_members] = weights
    clients = plan.pair_clients[plan.layout.starts]
    failed = {int(clients[i]): ValueError(message) for i, message in failed.items()}
    # A failed block's pairs keep the metric 0.0; its scoring failure outranks their CRS's.
    return mix(matrix, broadcast), MixingWeights(matrix, plan), {**failed, **failures}
