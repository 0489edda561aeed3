"""Dataset ingestion, synthesis, and heterogeneous partitioning across clients.

Data goes only to benign clients. The auxiliary split is a stratified holdout
of each client's allocation; it doubles as the client's local test set for
the fairness metrics.
"""
from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import rng
from .core_learning import Dataset

log = logging.getLogger(__name__)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
BLOB_ANCHOR_AXES = 8


class FormatError(ValueError):
    """Malformed IDX payload; the message carries the failing byte offset."""


class PartitionError(ValueError):
    """Requested partition cannot be satisfied by the dataset."""


@dataclass(frozen=True)
class IID:
    pass


@dataclass(frozen=True)
class Dirichlet:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("dirichlet alpha must be positive")


@dataclass(frozen=True)
class LabelSkew:
    h: int

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("label skew h must be at least 1")


HeterogeneityScheme = Union[IID, Dirichlet, LabelSkew]


def _read_only(idx: np.ndarray) -> np.ndarray:
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Per-benign-client example indices into the global training dataset.

    Each client's indices are a read-only int64 array; partitioners sort them.
    """

    client_indices: tuple

    def __post_init__(self):
        clients = tuple(_read_only(np.array(idx, dtype=np.int64)) for idx in self.client_indices)
        for k, idx in enumerate(clients):
            if len(idx) == 0:
                raise PartitionError(f"client {k} received no examples")
        pooled = np.sort(np.concatenate([np.empty(0, np.int64), *clients]))
        dup = pooled[1:][pooled[1:] == pooled[:-1]]
        if len(dup):
            raise PartitionError(f"index {dup[0]} assigned to multiple clients")
        object.__setattr__(self, "client_indices", clients)


@dataclass(frozen=True, eq=False)
class ClientState:
    """A benign client's data as rows of the network's training set: its
    training share and its auxiliary set, each a read-only int64 array."""

    train: np.ndarray
    aux: np.ndarray


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise FormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def _parse_idx(buf: bytes, path: str, magic: int, what: str) -> np.ndarray:
    """The uint8 payload of one IDX file's bytes, shaped by its header.

    The header is a big-endian u32 magic word, whose low byte is the number
    of dimensions, then one big-endian u32 size per dimension.
    """
    found = _read_be_u32(buf, 0, path)
    if found != magic:
        raise FormatError(f"{path}: unexpected magic 0x{found:08x} at byte 0, want 0x{magic:08x}")
    shape = [_read_be_u32(buf, 4 * (1 + i), path) for i in range(magic & 0xFF)]
    start = 4 * (1 + len(shape))
    want = start + math.prod(shape)
    if len(buf) < want:
        raise FormatError(f"{path}: truncated {what} payload at byte {len(buf)}, want {want}")
    return np.frombuffer(buf, dtype=np.uint8, count=want - start, offset=start).reshape(shape)


def load_idx(images_path: str, labels_path: str, num_classes: int | None = None) -> Dataset:
    """Parse a big-endian IDX image/label file pair into a Dataset.

    Pixels are scaled into [0, 1]. Image and label counts must match, and
    given num_classes, every label must lie below it.
    """
    with open(images_path, "rb") as f:
        img_buf = f.read()
    with open(labels_path, "rb") as f:
        lab_buf = f.read()
    images = _parse_idx(img_buf, images_path, IDX_IMAGES_MAGIC, "pixel")
    labels = _parse_idx(lab_buf, labels_path, IDX_LABELS_MAGIC, "label").astype(np.int64)
    count, rows, cols = images.shape
    if len(labels) != count:
        raise FormatError(f"image/label count mismatch: {count} images vs {len(labels)} labels")
    if count == 0:
        raise FormatError(f"{images_path}: no examples")
    features = images.reshape(count, rows * cols).astype(np.float64) / 255.0
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    elif labels.max() >= num_classes:
        i = int(np.argmax(labels >= num_classes))  # the payload follows an 8-byte header
        raise FormatError(f"{labels_path}: label {labels[i]} at byte {8 + i}, "
                          f"want one of the {num_classes} classes [0, {num_classes})")
    return Dataset(features, labels, num_classes)


def check_blobs(num_classes: int, feature_dim: int, n_per_class: int, spread: float) -> None:
    """Raise ValueError unless gen_synthetic_blobs can make blobs of this shape."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if feature_dim < 1:
        raise ValueError("feature_dim must be positive")
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    if spread < 0:
        raise ValueError("spread must be nonnegative")


def gen_synthetic_blobs(num_classes: int, feature_dim: int, n_per_class: int, spread: float,
                        seed: int) -> Dataset:
    """Isotropic Gaussian blobs around fixed per-class means.

    Class c's mean sits on axis c mod A at magnitude (1 + c//A) * 4*spread,
    where A = min(feature_dim, BLOB_ANCHOR_AXES). Every pair of means is separated
    by at least 4*spread; classes beyond the A-th share an axis with an
    earlier class and differ only in magnitude, which keeps many-class
    instances from being trivially separable per axis. A unit magnitude step
    keeps the means distinct in the zero-spread degenerate case.
    """
    check_blobs(num_classes, feature_dim, n_per_class, spread)
    step = 4.0 * spread if spread > 0 else 1.0
    axes = min(feature_dim, BLOB_ANCHOR_AXES)
    gen = rng.stream(seed, purpose="synthetic-blobs")
    features = np.empty((num_classes * n_per_class, feature_dim))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    for c in range(num_classes):
        mean = np.zeros(feature_dim)
        mean[c % axes] = (1 + c // axes) * step
        # The draws of mean + spread * standard_normal(shape), rounded the same
        # way (the add still turns a -0.0 product into +0.0), made in place.
        block = features[c * n_per_class:(c + 1) * n_per_class]
        gen.standard_normal(out=block)
        block *= spread
        np.add(mean, block, out=block)
    return Dataset(features, labels, num_classes)


def _class_index_lists(data: Dataset) -> list:
    return [np.flatnonzero(data.labels == c) for c in range(data.num_classes)]


def _largest_remainder(targets: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total: floor each target, then give one more
    to the largest fractional parts, ties to the lower position.

    total must lie between the floors' sum and that sum plus len(targets).
    """
    counts = np.floor(targets).astype(np.int64)
    order = np.argsort(-(targets - counts), kind="stable")
    counts[order[: total - int(counts.sum())]] += 1
    return counts


def _deal(dealt: list, clients, perm: np.ndarray, counts) -> None:
    """Hand perm out in consecutive runs: the next counts[i] entries go to dealt[clients[i]]."""
    start = 0
    for k, n in zip(clients, counts):
        dealt[k].append(perm[start:start + n])
        start += n


def check_iid(class_sizes, num_clients: int) -> None:
    """Raise unless every class has an example for each of num_clients IID clients."""
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    for c, size in enumerate(class_sizes):
        if size < num_clients:
            raise PartitionError(f"class {c} has {size} examples, fewer than {num_clients} clients")


def check_label_skew(num_classes: int, num_clients: int, h: int, class_size: int | None = None) -> None:
    """Raise unless num_clients clients holding h classes each can cover num_classes
    and, when every class has class_size examples, each of a class's holders gets one."""
    if h > num_classes:
        raise ValueError(f"h={h} exceeds the number of classes {num_classes}")
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    if num_clients * h < num_classes:
        raise PartitionError(
            f"{num_clients} clients x h={h} slots cannot cover all {num_classes} classes"
        )
    # partition_label_skew deals a class to at most ceil(num_clients*h / C) clients.
    if class_size is not None and class_size * num_classes < num_clients * h:
        raise PartitionError(f"each class has {class_size} examples, fewer than the "
                             f"{-(-num_clients * h // num_classes)} clients one class is dealt to")


def check_dirichlet(num_examples: int, num_clients: int) -> None:
    """Raise unless num_examples examples can give each of num_clients clients one."""
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    if num_examples < num_clients:
        raise PartitionError(f"{num_examples} examples cannot give each of {num_clients} clients one")


def partition_iid(data: Dataset, num_clients: int, seed: int) -> PartitionPlan:
    """Equal per-class shards for every client; per-class remainders are dropped."""
    classes = _class_index_lists(data)
    check_iid([len(idx) for idx in classes], num_clients)
    gen = rng.stream(seed, purpose="partition-iid")
    dealt = [[] for _ in range(num_clients)]
    for idx in classes:
        per = len(idx) // num_clients
        _deal(dealt, range(num_clients), gen.permutation(idx), [per] * num_clients)
    return PartitionPlan(tuple(np.sort(np.concatenate(d)) for d in dealt))


def partition_label_skew(data: Dataset, num_clients: int, h: int, seed: int) -> PartitionPlan:
    """Give each client exactly h distinct classes with equal samples per class.

    Class-to-client matching is a seeded round-robin over a shuffled class
    multiset in which each class appears ceil(num_clients*h/C) or floor(...)
    times; a class's examples are then split equally among its holders.
    """
    C = data.num_classes
    check_label_skew(C, num_clients, h)
    gen = rng.stream(seed, purpose="partition-label-skew")
    base, extra = divmod(num_clients * h, C)
    class_order = gen.permutation(C)
    # Slot p holds class slots[p] and goes to client p mod num_clients. Each class
    # fills one contiguous block of at most num_clients slots (h <= C), so no
    # client holds a class twice, and every client gets exactly h slots.
    slots = np.repeat(class_order, base + (np.arange(C) < extra))
    clients = np.arange(len(slots)) % num_clients
    dealt = [[] for _ in range(num_clients)]
    for c, idx in enumerate(_class_index_lists(data)):
        holders = clients[slots == c]
        per = len(idx) // len(holders)
        if per < 1:
            raise PartitionError(f"class {c} has {len(idx)} examples for {len(holders)} holders")
        _deal(dealt, holders, gen.permutation(idx), [per] * len(holders))
    return PartitionPlan(tuple(np.sort(np.concatenate(d)) for d in dealt))


def partition_dirichlet(data: Dataset, num_clients: int, alpha: float, seed: int) -> PartitionPlan:
    """Allocate each class by a symmetric Dirichlet(alpha) draw over clients.

    Counts use largest-remainder rounding so per-class totals are conserved
    exactly; clients left empty are topped up with one example stolen from
    the largest holder.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    check_dirichlet(len(data), num_clients)
    gen = rng.stream(seed, purpose="partition-dirichlet")
    dealt = [[] for _ in range(num_clients)]
    for c, idx in enumerate(_class_index_lists(data)):
        if len(idx) == 0:
            continue
        props = gen.dirichlet(np.full(num_clients, alpha))
        counts = _largest_remainder(props * len(idx), len(idx))
        _deal(dealt, range(num_clients), gen.permutation(idx), counts.tolist())

    # Indices stay in dealing order until the top-up, which moves the donor's last-dealt one.
    # With at least one example per client, the largest holder always has two to give.
    assigned = [np.concatenate(d) for d in dealt]
    empties = [k for k in range(num_clients) if len(assigned[k]) == 0]
    for k in empties:
        donor = max(range(num_clients), key=lambda j: (len(assigned[j]), -j))
        assigned[k], assigned[donor] = assigned[donor][-1:], assigned[donor][:-1]
    return PartitionPlan(tuple(np.sort(a) for a in assigned))


def split_auxiliary(
    data: Dataset, plan: PartitionPlan, aux_fraction: float, seed: int
) -> tuple:
    """Class-stratified aux/train holdout of each client's sorted allocation:
    one ClientState per client, whose sorted, disjoint index arrays cover it.

    The aux side receives ceil(aux_fraction * n_k) examples (capped so train
    stays nonempty), apportioned across classes by largest remainder. A
    single-example client degenerates to aux is train, that one example.
    """
    if not 0 < aux_fraction < 1:
        raise ValueError("aux_fraction must lie strictly between 0 and 1")
    gen = rng.stream(seed, purpose="aux-split")
    clients = []
    for k, idx in enumerate(plan.client_indices):
        n_k = len(idx)
        if n_k == 1:
            log.warning(
                "client %d holds a single example; aux and train both reuse it", k
            )
            clients.append(ClientState(idx, idx))
            continue
        want = min(int(np.ceil(aux_fraction * n_k)), n_k - 1)
        labels = data.labels[idx]
        classes, sizes = np.unique(labels, return_counts=True)
        # floor(f * size) <= size - 1 for f < 1, so no count can exceed its class size.
        counts = _largest_remainder(aux_fraction * sizes, want)
        # One permutation per class, count 0 included, keeps the aux-split stream in step.
        # It permutes the class's positions in idx; a permutation of any int64 array of
        # that length makes the same draws.
        picked = np.concatenate(
            [gen.permutation(np.flatnonzero(labels == c))[:n] for c, n in zip(classes, counts)]
        )
        keep = np.ones(n_k, dtype=bool)
        keep[picked] = False
        clients.append(ClientState(_read_only(idx[keep]), _read_only(idx[np.sort(picked)])))
    return tuple(clients)
