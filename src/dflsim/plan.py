"""A seed's round plan: the structure every round of one network reuses.

The graph and the clients' data stay fixed for a whole run, so which clients
step and aggregate together, and which rows each of them reads, is worked out
once per seed. A client holds rows of the network's training set, so its
minibatches are read from that set through the plan's train_rows, not from a
copy. The aux sets are gathered once, stacked per aggregation group, so that
scoring and local evaluation read each group's aux sets as one block every
round. Every (client, member) pair a reweighting round scores is laid out
once too: in flat arrays, cut into scoring blocks, and read by the
reweighting strategy as the rows of one ragged vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .rng import RoundStreams

# The most logits a scoring block holds, 2**17 float64 (1 MiB), unless one
# group alone holds more. A round's peak memory follows its largest block:
# uncapped, the N=50 bench workload's one block per aux size took 5.8 MB.
BLOCK_LOGITS = 2 ** 17


@dataclass(frozen=True)
class AggregationGroup:
    """Benign clients whose closed neighborhoods have k members and whose aux
    sets have one size; a round gathers and aggregates them as one (g, k, P) array."""

    # (g,) their node ids, ascending; benign client k is row k of every per-client array
    nodes: np.ndarray
    # (g, k) each client's closed neighborhood, ascending
    members: np.ndarray
    # (g,) the column of each client's own id in its members row
    own: np.ndarray
    # (g, 1, n, d) and (g, n), read-only: each client's aux set, broadcast
    # over its k members
    aux_features: np.ndarray
    aux_labels: np.ndarray


@dataclass(frozen=True)
class ScoringBlock:
    """Consecutive aggregation groups with one aux size, whose (client, member)
    pairs a round scores as one (pairs, n, C) logits array."""

    groups: tuple
    # its pairs' slice of the plan's pair arrays
    pairs: slice
    # (pairs, n): the labels of each pair's aux set, in the narrowest dtype
    # that holds C-1; the plan holds one label per (pair, example)
    labels: np.ndarray


@dataclass(frozen=True)
class RowLayout:
    """The rows of a ragged vector: row r is its entries starts[r]:starts[r] + lengths[r].

    Each reduction gives every row the bits the same reduction gives that row
    as a vector of its own. Minima, maxima, any, all and counts are exact in
    any order, so each is one reduceat over the whole vector. A float sum is
    not: numpy sums a vector pairwise, in an order that depends on its length,
    and np.add.reduceat sums sequentially. So sum reshapes each run of
    consecutive equal-length rows to (rows, length) and sums along its rows.
    """

    starts: np.ndarray
    lengths: np.ndarray
    # (start, stop, rows): entries start:stop hold rows rows of one length
    runs: tuple

    @classmethod
    def of(cls, lengths) -> "RowLayout":
        lengths = np.asarray(lengths, dtype=np.intp)
        runs, start = [], 0
        for length, run in groupby(lengths.tolist()):
            rows = len(list(run))
            runs.append((start, start + rows * length, rows))
            start += rows * length
        return cls(np.cumsum(lengths) - lengths, lengths, tuple(runs))

    def sum(self, x: np.ndarray) -> np.ndarray:
        sums = [x[start:stop].reshape(rows, -1).sum(axis=1) for start, stop, rows in self.runs]
        return sums[0] if len(sums) == 1 else np.concatenate(sums)

    def mean(self, x: np.ndarray) -> np.ndarray:
        return self.sum(x) / self.lengths

    def min(self, x: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(x, self.starts)

    def max(self, x: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(x, self.starts)

    def any(self, mask: np.ndarray) -> np.ndarray:
        return np.logical_or.reduceat(mask, self.starts)

    def all(self, mask: np.ndarray) -> np.ndarray:
        return np.logical_and.reduceat(mask, self.starts)

    def count(self, mask: np.ndarray) -> np.ndarray:
        return np.add.reduceat(mask, self.starts, dtype=np.intp)

    def spread(self, per_row: np.ndarray) -> np.ndarray:
        """Each row's value repeated over the row's entries."""
        return np.repeat(per_row, self.lengths)


@dataclass(frozen=True)
class StepGroup:
    """Benign clients that draw minibatches of one size, stepped as one stacked batch."""

    # (g,) their node ids, ascending
    nodes: np.ndarray
    # their train-set sizes
    lengths: list
    # (g, 1) where each client's examples start in the plan's train_rows
    starts: np.ndarray
    size: int
    # their (seed, node, round, "minibatch") generators, round by round
    streams: RoundStreams


@dataclass(frozen=True)
class RoundPlan:
    """The closed neighborhoods, aggregation groups, scoring blocks and step
    groups of one network."""

    # (B, N) bool: row k marks benign client k's closed neighborhood
    closed: np.ndarray
    # ordered by aux size, then closed-neighborhood size
    groups: tuple
    # every (client, member) pair of the groups, in group order and each
    # group's (g, k) members row-major: the client and member ids. Only a
    # reweighting round scores pairs: under a baseline these two and layout
    # are None, and blocks is empty.
    pair_clients: np.ndarray | None
    pair_members: np.ndarray | None
    # the groups, cut into runs of one aux size of at most BLOCK_LOGITS logits
    blocks: tuple
    # the pairs as the rows of a ragged vector, one client's closed neighborhood each
    layout: RowLayout | None
    steps: tuple
    # The client at starts[j] of a step group holds the rows
    # train_rows[starts[j]:starts[j] + lengths[j]] of the network's training set.
    train_rows: np.ndarray


def _nodes_by(keys: list) -> dict:
    """key -> the ascending node ids k with keys[k] == key, keys in order of first appearance."""
    out = {}
    for node, key in enumerate(keys):
        out.setdefault(key, []).append(node)
    return {key: np.array(nodes) for key, nodes in out.items()}


def plan_rounds(state, scores_pairs: bool) -> RoundPlan:
    """The round plan of a sim.NetworkState, from its graph and its clients' data;
    with its scoring pairs and blocks only if scores_pairs."""
    graph, clients, train = state.graph, state.clients, state.train_data
    closed = (graph.adjacency | np.eye(graph.n, dtype=bool))[:graph.num_benign]
    closed.setflags(write=False)
    keys = [(len(client.aux), size) for client, size in zip(clients, closed.sum(axis=1))]
    groups = []
    for _, nodes in sorted(_nodes_by(keys).items()):
        # Every row of closed[nodes] holds k members, so its column ids split into rows of k.
        members = np.nonzero(closed[nodes])[1].reshape(len(nodes), -1)
        own = np.argmax(members == nodes[:, None], axis=1)
        aux_idx = np.stack([clients[k].aux for k in nodes])
        aux_features, aux_labels = train.features[aux_idx][:, None], train.labels[aux_idx]
        aux_features.setflags(write=False)
        aux_labels.setflags(write=False)
        groups.append(AggregationGroup(nodes, members, own, aux_features, aux_labels))
    pair_clients = pair_members = layout = None
    blocks = ()
    if scores_pairs:
        pair_clients = np.concatenate([np.repeat(group.nodes, group.members.shape[1]) for group in groups])
        pair_members = np.concatenate([group.members.reshape(-1) for group in groups])
        layout = RowLayout.of([k for group in groups for k in [group.members.shape[1]] * len(group.nodes)])
        blocks = _blocks(groups, train.num_classes)

    lengths = [len(client.train) for client in clients]
    starts = np.cumsum([0] + lengths[:-1])
    steps = []
    sizes = [min(state.config.batch_size, n) for n in lengths]
    for size, nodes in _nodes_by(sizes).items():
        steps.append(StepGroup(nodes, [lengths[k] for k in nodes], starts[nodes, None], size,
                               RoundStreams(state.seed, nodes, "minibatch")))
    return RoundPlan(closed, tuple(groups), pair_clients, pair_members, blocks, layout,
                     tuple(steps), np.concatenate([client.train for client in clients]))


def _blocks(groups: list, num_classes: int) -> tuple:
    """The ScoringBlocks of groups ordered by aux size: each takes the next
    groups of one aux size while they hold at most BLOCK_LOGITS logits."""
    runs, size = [], 0
    for group in groups:
        n = group.aux_labels.shape[1]
        logits = group.members.size * n * num_classes
        if runs and runs[-1][0].aux_labels.shape[1] == n and size + logits <= BLOCK_LOGITS:
            runs[-1].append(group)
            size += logits
        else:
            runs.append([group])
            size = logits
    blocks, start = [], 0
    for run in runs:
        labels = np.concatenate([np.repeat(group.aux_labels, group.members.shape[1], axis=0)
                                 for group in run]).astype(np.min_scalar_type(num_classes - 1))
        blocks.append(ScoringBlock(tuple(run), slice(start, start + len(labels)), labels))
        start += len(labels)
    return tuple(blocks)
