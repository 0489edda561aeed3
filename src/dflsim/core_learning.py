"""Softmax-regression model: prediction, cross-entropy loss, analytic gradients, SGD.

All operations are pure functions of their inputs. Parameters live in a flat
float64 vector interpreted as a C x d weight matrix followed by a length-C
bias, so model exchange and aggregation reduce to vector arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import BLOCK_LOGITS

# Probabilities are clamped here before any log, so a confident misprediction
# yields a large finite loss instead of inf/NaN.
PROB_FLOOR = 1e-12

# The most member weights one matmul of pair_logits gathers, in float64s: a
# quarter of a scoring block's logits budget (256 KiB), so a group's weight
# copy stays below its logits (the largest N=50 bench group holds 2.1 MiB).
GATHER = BLOCK_LOGITS // 4


class ShapeError(ValueError):
    """Operands disagree on parameter or feature dimensions."""


@dataclass(frozen=True)
class ParamVector:
    """Flat model parameters with (num_classes, feature_dim) shape metadata.

    Layout: row-major C x d weight matrix, then C biases. Value semantics:
    operations return new vectors and never mutate their inputs.
    """

    values: np.ndarray
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        expected = self.num_classes * self.feature_dim + self.num_classes
        if self.num_classes < 1 or self.feature_dim < 1:
            raise ValueError("num_classes and feature_dim must be positive")
        if vals.shape[0] != expected:
            raise ShapeError(
                f"parameter vector has length {vals.shape[0]}, "
                f"expected C*d+C = {expected} for C={self.num_classes}, d={self.feature_dim}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_classes, self.feature_dim)

    @property
    def weights(self) -> np.ndarray:
        return self.values[: self.num_classes * self.feature_dim].reshape(
            self.num_classes, self.feature_dim
        )

    @property
    def bias(self) -> np.ndarray:
        return self.values[self.num_classes * self.feature_dim:]

    def replace_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.num_classes, self.feature_dim)


def _require_same_shape(a: ParamVector, b: ParamVector) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d), integer labels (n,), and the class count C."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if feats.ndim != 2:
            raise ShapeError("features must be a 2-D (n, d) array")
        if feats.shape[0] == 0:
            raise ValueError("dataset must be nonempty")
        if feats.shape[0] != labs.shape[0]:
            raise ShapeError(
                f"feature/label count mismatch: {feats.shape[0]} vs {labs.shape[0]}"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if labs.min() < 0 or labs.max() >= self.num_classes:
            raise ValueError("labels must lie in [0, num_classes)")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class Minibatch:
    """Indices into a Dataset; size B with 1 <= B <= len(dataset)."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def validate_for(self, data: Dataset) -> None:
        if len(self) == 0:
            raise ValueError("minibatch must be nonempty")
        if len(self) > len(data):
            raise ValueError("minibatch larger than dataset")
        if self.indices.min() < 0 or self.indices.max() >= len(data):
            raise ValueError("minibatch index out of range")


def _logits(model: ParamVector, features_matrix: np.ndarray) -> np.ndarray:
    return features_matrix @ model.weights.T + model.bias


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _batch_mean_loss(model: ParamVector, features: np.ndarray, labels: np.ndarray) -> float:
    probs = _softmax_rows(_logits(model, features))
    p_true = probs[np.arange(labels.shape[0]), labels]
    return float(np.mean(-np.log(np.maximum(p_true, PROB_FLOOR))))


def batch_loss(model: ParamVector, data: Dataset, batch: Minibatch) -> float:
    """Mean cross-entropy -log p(label) over the minibatch."""
    batch.validate_for(data)
    if data.num_classes != model.num_classes or data.feature_dim != model.feature_dim:
        raise ShapeError("model and dataset dimensions disagree")
    return _batch_mean_loss(model, data.features[batch.indices], data.labels[batch.indices])


def batch_gradient(model: ParamVector, data: Dataset, batch: Minibatch) -> ParamVector:
    """Analytic gradient of batch_loss w.r.t. all C*d + C parameters."""
    batch.validate_for(data)
    if data.num_classes != model.num_classes or data.feature_dim != model.feature_dim:
        raise ShapeError("model and dataset dimensions disagree")
    X = data.features[batch.indices]
    y = data.labels[batch.indices]
    probs = _softmax_rows(_logits(model, X))
    delta = probs
    delta[np.arange(y.shape[0]), y] -= 1.0
    delta /= y.shape[0]
    grad_w = delta.T @ X
    grad_b = delta.sum(axis=0)
    return ParamVector(
        np.concatenate([grad_w.reshape(-1), grad_b]), model.num_classes, model.feature_dim
    )


def sgd_step(model: ParamVector, grad: ParamVector, lr: float) -> ParamVector:
    """One gradient step model - lr * grad; the input model is unchanged."""
    _require_same_shape(model, grad)
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    return model.replace_values(model.values - lr * grad.values)


def evaluate_accuracy(model: ParamVector, data: Dataset) -> float:
    """Fraction of argmax-correct examples; argmax ties go to the lowest class."""
    if data.num_classes != model.num_classes or data.feature_dim != model.feature_dim:
        raise ShapeError("model and dataset dimensions disagree")
    preds = np.argmax(_logits(model, data.features), axis=1)
    return float(np.mean(preds == data.labels))


def evaluate_mean_loss(model: ParamVector, data: Dataset) -> float:
    """batch_loss with the whole dataset as one batch."""
    return batch_loss(model, data, Minibatch(np.arange(len(data))))


# Batched forms: every kernel the engine runs on many models at once. Each
# matches its per-model function above bit for bit.


def pair_logits(params: np.ndarray, parts: list, num_classes: int) -> np.ndarray:
    """(pairs, n, C) logits of every part's pairs, in part order, each part's row-major.

    params holds every model, (N, C*d+C). parts lists (features, ids):
    features (g, 1, n, d) holds g datasets and ids (g, k) the models each is
    paired with, so pair (i, j) is model params[ids[i, j]] on dataset i. Each
    part's pairs run the gemm _logits runs for each pair, into their rows of
    the result, in matmuls over sub-rectangles of ids: whole rows while their
    weights fit GATHER, else runs of one row's members. Then the part's biases
    are added. A gemm over more than one part's pairs would not be bit-identical.
    """
    n, d = parts[0][0].shape[-2:]
    cd = num_classes * d
    if params.ndim != 2 or params.shape[1] != cd + num_classes:
        raise ShapeError(
            f"parameter matrix of shape {params.shape} does not hold C={num_classes}, d={d} models"
        )
    weights = params[:, :cd].reshape(len(params), num_classes, d)
    logits = np.empty((sum(ids.size for _, ids in parts), n, num_classes))
    start = 0
    for features, ids in parts:
        (g, k), stop = ids.shape, start + ids.size
        out = logits[start:stop].reshape(g, k, n, num_classes)
        rows, cols = max(1, GATHER // (k * cd)), min(k, max(1, GATHER // cd))
        for r in range(0, g, rows):
            for c in range(0, k, cols):
                np.matmul(features[r:r + rows], weights[ids[r:r + rows, c:c + cols]].swapaxes(-1, -2),
                          out=out[r:r + rows, c:c + cols])
        out += params[ids, None, cd:]
        start = stop
    return logits


# The pairs_ kernels turn (pairs, n, C) logits and the (pairs, n) labels of
# each pair's examples, of any integer dtype, into (pairs,) metrics. They
# reduce over the class and example axes only, so every value equals the
# per-model function's bit for bit, whatever the other pairs.


def pairs_mean_loss(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each pair's evaluate_mean_loss; overwrites logits."""
    num_classes = logits.shape[-1]
    # _softmax_rows, dividing out only the true-label probabilities. The max
    # is exact in any order; on scoring-sized arrays one np.maximum pass per
    # class, into one buffer, beats reducing each short row.
    top = logits[..., 0].copy()
    for c in range(1, num_classes):
        np.maximum(top, logits[..., c], out=top)
    logits -= top[..., None]
    exp = np.exp(logits, out=logits)
    # The true-label entry of every (pair, example) row, taken by flat index
    # into a fresh C-ordered p_true: summing a strided gather row by row in a
    # different order than the per-model mean would change the last bits.
    rows = np.arange(labels.size).reshape(labels.shape)
    p_true = np.take(exp, rows * num_classes + labels)
    p_true /= exp.sum(axis=-1)
    np.maximum(p_true, PROB_FLOOR, out=p_true)
    np.log(p_true, out=p_true)
    np.negative(p_true, out=p_true)
    # np.mean's own steps: the pairwise sum along the row, then one division.
    return np.add.reduce(p_true, axis=-1) / labels.shape[-1]


def pairs_accuracy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each pair's evaluate_accuracy; leaves logits as they are."""
    return np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)


def stacked_sgd_step(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, num_classes: int, lr: float
) -> np.ndarray:
    """One SGD step of k models, each on its own minibatch.

    features is (k, B, d) and labels is (k, B): row i of the result equals
    sgd_step(model_i, batch_gradient(model_i, ...), lr) on minibatch i. The
    logits come from pair_logits, each model paired with its own minibatch.
    The gradients of all k models are written into one (k, C*d+C) buffer,
    which then becomes the result.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    k, size, d = features.shape
    cd = num_classes * d
    delta = _softmax_rows(pair_logits(params, [(features[:, None], np.arange(k)[:, None])], num_classes))
    # The true-label entry of every (model, example) row, by flat index.
    delta.reshape(-1)[np.arange(k * size) * num_classes + labels.reshape(-1)] -= 1.0
    delta /= size
    grad = np.empty((k, cd + num_classes))
    np.matmul(delta.transpose(0, 2, 1), features, out=grad[:, :cd].reshape(k, num_classes, d))
    np.sum(delta, axis=1, out=grad[:, cd:])
    grad *= lr
    return np.subtract(params, grad, out=grad)
