"""Reference forms that only the tests use.

The package computes each CRS only as rows of a group's metric matrix
(TempSoftmax.rows, LossClip.rows, AccClip.rows). The crs_* forms compute one
closed neighborhood at a time, each check and reduction on that vector
alone, and the tests compare the package's rows and messages with them by
exact equality. predict_probs gives one model's class probabilities for one
feature vector. synthetic_blobs builds gen_synthetic_blobs's dataset one class
block at a time, as a fresh array per class that is then copied into place.
label_skew_partition deals partition_label_skew's slots one at a time, into
per-class holder lists and per-client class sets that it checks as it goes.
"""
import numpy as np

from dflsim import rng
from dflsim.core_learning import Dataset, ParamVector, ShapeError, _logits, _softmax_rows
from dflsim.data import BLOB_ANCHOR_AXES, PartitionError, PartitionPlan, check_label_skew
from dflsim.reweight import AccClip, LossClip, MetricVector, TempSoftmax, WeightVector


def predict_probs(model: ParamVector, features: np.ndarray) -> np.ndarray:
    """Class probabilities softmax(W x + b), max-subtracted for stability."""
    x = np.asarray(features, dtype=np.float64).reshape(-1)
    if x.shape[0] != model.feature_dim:
        raise ShapeError(
            f"feature vector has length {x.shape[0]}, model expects d={model.feature_dim}"
        )
    return _softmax_rows(_logits(model, x[None, :]))[0]


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
