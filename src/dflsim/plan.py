"""A seed's round plan: the structure every round of one network reuses.

The graph and the clients' data stay fixed for a whole run, so which clients
step and aggregate together, and which rows each of them reads, is worked out
once per seed. A client holds rows of the network's training set, so its
minibatches are read from that set through the plan's train_rows, not from a
copy. The aux sets are gathered once, stacked per aggregation group, so that
scoring and local evaluation read each group's aux sets as one block every
round.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RoundStreams


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
    """The benign ids, closed neighborhoods, aggregation and step groups of one network."""

    # 0..B-1: a graph numbers its benign nodes first
    benign: list
    # (B, N) bool: row k marks benign client k's closed neighborhood
    closed: np.ndarray
    groups: tuple
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


def plan_rounds(state) -> RoundPlan:
    """The round plan of a sim.NetworkState, from its graph and its clients' data."""
    graph, clients, train = state.graph, state.clients, state.train_data
    benign = list(range(len(graph.benign)))
    closed = (graph.adjacency | np.eye(graph.n, dtype=bool))[:len(benign)]
    closed.setflags(write=False)
    counts = closed.sum(axis=1)
    groups = []
    for nodes in _nodes_by([(counts[k], len(clients[k].aux)) for k in benign]).values():
        # Every row of closed[nodes] holds k members, so its column ids split into rows of k.
        members = np.nonzero(closed[nodes])[1].reshape(len(nodes), -1)
        own = np.argmax(members == nodes[:, None], axis=1)
        aux_idx = np.stack([clients[k].aux for k in nodes])
        aux_features, aux_labels = train.features[aux_idx][:, None], train.labels[aux_idx]
        aux_features.setflags(write=False)
        aux_labels.setflags(write=False)
        groups.append(AggregationGroup(nodes, members, own, aux_features, aux_labels))

    lengths = [len(clients[k].train) for k in benign]
    starts = np.cumsum([0] + lengths[:-1])
    steps = []
    sizes = [min(state.config.batch_size, n) for n in lengths]
    for size, nodes in _nodes_by(sizes).items():
        steps.append(StepGroup(nodes, [lengths[k] for k in nodes], starts[nodes, None], size,
                               RoundStreams(state.seed, nodes, "minibatch")))
    return RoundPlan(benign, closed, tuple(groups), tuple(steps),
                     np.concatenate([clients[k].train for k in benign]))
