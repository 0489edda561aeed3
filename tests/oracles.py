"""Reference forms that only the tests use.

The package computes each model kernel only in the engine's batched form
(pair_logits, the pairs_ kernels, stacked_gradient); its per-member entry
points call that form on one pair. The per-vector forms here compute one
model on one dataset with 2-D arrays: logits, batch_loss, batch_gradient,
evaluate_accuracy, evaluate_mean_loss and compute_tpm, and predict_probs for
one feature vector. The package computes each CRS only as rows of a group's
metric matrix (TempSoftmax.rows, LossClip.rows, AccClip.rows). The crs_* forms
compute one closed neighborhood at a time, a MetricVector in and a
WeightVector out, each check and reduction on that vector alone. The tests
compare the package's values and messages with these by exact equality.
synthetic_blobs builds gen_synthetic_blobs's dataset one class block at a
time, as a fresh array per class that is then copied into place.
label_skew_partition deals partition_label_skew's slots one at a time, into
per-class holder lists and per-client class sets that it checks as it goes.
The package computes Krum, Multi-Krum and FLAME only as weights that a round
mixes (Krum.weights, MultiKrum.weights, Flame.weights). krum, multi_krum and
flame_weighted return one closed neighborhood's row as the package once did,
flame_weighted through a BLAS gemv; flame_summed sums FLAME's weighted rows
one member at a time, with no BLAS. weighted_row is not a reference: it runs
the package's weights on one neighborhood and mixes them as a round does, the
call the tests compare with these.
"""
import math
from dataclasses import dataclass

import numpy as np

from dflsim import rng
from dflsim.baselines import krum_scores
from dflsim.core_learning import PROB_FLOOR, Dataset, ParamVector, ShapeError
from dflsim.data import BLOB_ANCHOR_AXES, PartitionError, PartitionPlan, check_label_skew
from dflsim.reweight import SENTINEL, WEIGHT_SUM_TOL, AccClip, LossClip, TargetMetricKind, TempSoftmax, mix


def logits(model: ParamVector, features_matrix: np.ndarray) -> np.ndarray:
    return features_matrix @ model.weights.T + model.bias


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def predict_probs(model: ParamVector, features: np.ndarray) -> np.ndarray:
    """Class probabilities softmax(W x + b), max-subtracted for stability."""
    x = np.asarray(features, dtype=np.float64).reshape(-1)
    if x.shape[0] != model.feature_dim:
        raise ShapeError(
            f"feature vector has length {x.shape[0]}, model expects d={model.feature_dim}"
        )
    return softmax_rows(logits(model, x[None, :]))[0]


def _check_pair(model: ParamVector, data: Dataset) -> None:
    if data.num_classes != model.num_classes or data.feature_dim != model.feature_dim:
        raise ShapeError("model and dataset dimensions disagree")


def batch_mean_loss(model: ParamVector, features: np.ndarray, labels: np.ndarray) -> float:
    probs = softmax_rows(logits(model, features))
    p_true = probs[np.arange(labels.shape[0]), labels]
    return float(np.mean(-np.log(np.maximum(p_true, PROB_FLOOR))))


def batch_loss(model: ParamVector, data: Dataset, rows) -> float:
    """Mean cross-entropy -log p(label) over the examples rows of data."""
    _check_pair(model, data)
    rows = np.asarray(rows, dtype=np.int64)
    return batch_mean_loss(model, data.features[rows], data.labels[rows])


def batch_gradient(model: ParamVector, data: Dataset, rows) -> ParamVector:
    """Analytic gradient of batch_loss w.r.t. all C*d + C parameters."""
    _check_pair(model, data)
    rows = np.asarray(rows, dtype=np.int64)
    X = data.features[rows]
    y = data.labels[rows]
    probs = softmax_rows(logits(model, X))
    delta = probs
    delta[np.arange(y.shape[0]), y] -= 1.0
    delta /= y.shape[0]
    grad_w = delta.T @ X
    grad_b = delta.sum(axis=0)
    return ParamVector(
        np.concatenate([grad_w.reshape(-1), grad_b]), model.num_classes, model.feature_dim
    )


def evaluate_accuracy(model: ParamVector, data: Dataset) -> float:
    """Fraction of argmax-correct examples; argmax ties go to the lowest class."""
    _check_pair(model, data)
    preds = np.argmax(logits(model, data.features), axis=1)
    return float(np.mean(preds == data.labels))


def evaluate_mean_loss(model: ParamVector, data: Dataset) -> float:
    """batch_loss with the whole dataset as one batch."""
    return batch_loss(model, data, np.arange(len(data)))


def compute_tpm(kind: TargetMetricKind, model: ParamVector, aux: Dataset) -> float:
    """The TPM kind of model on aux; non-finite values become the +inf sentinel."""
    metric = {TargetMetricKind.ACCURACY_ON_AUX: evaluate_accuracy,
              TargetMetricKind.LOSS_ON_AUX: evaluate_mean_loss}[kind]
    value = metric(model, aux)
    return value if math.isfinite(value) else SENTINEL


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
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", w)


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


def crs_oracle(crs, metrics: MetricVector) -> WeightVector:
    """The per-vector form of the CRS crs on one closed neighborhood."""
    if isinstance(crs, TempSoftmax):
        return crs_temp_softmax(metrics, crs.temperature)
    return {LossClip: crs_loss_clip, AccClip: crs_acc_clip}[type(crs)](metrics)


def synthetic_blobs(num_classes: int, feature_dim: int, n_per_class: int, spread: float,
                    seed: int) -> Dataset:
    """gen_synthetic_blobs for valid arguments, each class computed as
    mean + spread * standard_normal and then copied into its rows."""
    step = 4.0 * spread if spread > 0 else 1.0
    axes = min(feature_dim, BLOB_ANCHOR_AXES)
    gen = rng.stream(seed, purpose="synthetic-blobs")
    features = np.empty((num_classes * n_per_class, feature_dim))
    labels = np.empty(num_classes * n_per_class, dtype=np.int64)
    for c in range(num_classes):
        mean = np.zeros(feature_dim)
        mean[c % axes] = (1 + c // axes) * step
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        features[block] = mean + spread * gen.standard_normal((n_per_class, feature_dim))
        labels[block] = c
    return Dataset(features, labels, num_classes)


def label_skew_partition(data: Dataset, num_clients: int, h: int, seed: int) -> PartitionPlan:
    """partition_label_skew, each class's copies laid out by a dict and each
    slot dealt to its client by a loop."""
    C = data.num_classes
    check_label_skew(C, num_clients, h)
    gen = rng.stream(seed, purpose="partition-label-skew")
    base, extra = divmod(num_clients * h, C)
    class_order = gen.permutation(C)
    copies = {int(c): base + (1 if pos < extra else 0) for pos, c in enumerate(class_order)}
    slots = [int(c) for c in class_order for _ in range(copies[int(c)])]
    holders = [[] for _ in range(C)]
    client_classes = [set() for _ in range(num_clients)]
    for pos, c in enumerate(slots):
        k = pos % num_clients
        holders[c].append(k)
        client_classes[k].add(c)
    for k, classes in enumerate(client_classes):
        if len(classes) != h:
            raise PartitionError(f"client {k} was assigned {len(classes)} classes, want {h}")
    dealt = [[] for _ in range(num_clients)]
    for c in range(C):
        idx = np.flatnonzero(data.labels == c)
        if not holders[c]:
            continue
        per = len(idx) // len(holders[c])
        if per < 1:
            raise PartitionError(f"class {c} has {len(idx)} examples for {len(holders[c])} holders")
        perm = gen.permutation(idx)
        for i, k in enumerate(holders[c]):
            dealt[k].append(perm[i * per:(i + 1) * per])
    return PartitionPlan(tuple(np.sort(np.concatenate(d)) for d in dealt))


def krum(params: np.ndarray, f: int) -> np.ndarray:
    """Row with the minimal Krum score; ties go to the first row. Only for groups
    with no NaN score: argmin returns the first NaN, which Krum sorts last."""
    return params[np.argmin(krum_scores(params, f))]


def multi_krum(params: np.ndarray, f: int, m: int) -> np.ndarray:
    """Mean of the m lowest-Krum-score rows, summed in row order."""
    if not 1 <= m <= len(params):
        raise ValueError(f"m={m} must lie in [1, {len(params)}]")
    chosen = np.sort(np.argsort(krum_scores(params, f), kind="stable")[:m])
    return params[chosen].mean(axis=0)


def flame_weighted(
    own_row: np.ndarray, received_rows: np.ndarray, beta: float, include_self: bool = True
) -> np.ndarray:
    """Distance-weighted average with weights 1/(||own - w_j||^2 + beta).

    include_self adds the client's own row at distance zero (closed
    neighborhood reading); include_self=False is the literal neighbors-only
    form.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not len(received_rows):
        raise ValueError("flame requires at least one received model")
    models = np.vstack([own_row, received_rows]) if include_self else received_rows
    diffs = models - own_row
    u = 1.0 / (np.einsum("ij,ij->i", diffs, diffs) + beta)
    return (u / u.sum()) @ models


def flame_summed(params: np.ndarray, own: int, beta: float, include_self: bool = True) -> np.ndarray:
    """FLAME on one closed neighborhood, rows in node id order, anchored on row
    own: acc + u_j * x_j from acc = +0.0, one member at a time in ascending id,
    then divided by the sum of the weights u."""
    diffs = params - params[own]
    u = 1.0 / (np.einsum("ij,ij->i", diffs, diffs) + beta)
    if not include_self:
        u[own] = 0.0
    acc = np.zeros(params.shape[1])
    for w, row in zip(u, params):
        acc = acc + w * row
    return acc / u.sum()


def weighted_row(spec, params: np.ndarray, own: int = 0) -> np.ndarray:
    """The row a round gives the client whose closed neighborhood is params,
    its own row at own, under the weighted baseline spec: spec.weights mixed
    with params and divided by their sum."""
    u = spec.weights(params[None], np.array([own]))
    return mix(u, params)[0] / u.sum()
