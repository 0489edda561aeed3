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

    nodes: list
    # (g,) their rows among the benign clients, in node id order
    positions: np.ndarray
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

    nodes: list
    positions: np.ndarray
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

    benign: list
    # node -> closed neighborhood ids, ascending, for every benign node
    neighborhoods: dict
    groups: tuple
    steps: tuple
    # The client at starts[j] of a step group holds the rows
    # train_rows[starts[j]:starts[j] + lengths[j]] of the network's training set.
    train_rows: np.ndarray


def _positions_by(keys: list) -> dict:
    """key -> the positions holding it, keys in order of first appearance."""
    out = {}
    for position, key in enumerate(keys):
        out.setdefault(key, []).append(position)
    return out


def plan_rounds(state) -> RoundPlan:
    """The round plan of a sim.NetworkState, from its graph and its clients' data."""
    graph, clients, train = state.graph, state.clients, state.train_data
    benign = sorted(graph.benign)
    closed = graph.adjacency | np.eye(graph.n, dtype=bool)
    neighborhoods = {k: np.flatnonzero(closed[k]) for k in benign}
    groups = []
    keys = [(len(neighborhoods[k]), len(clients[k].aux)) for k in benign]
    for positions in _positions_by(keys).values():
        nodes = [benign[p] for p in positions]
        members = np.array([neighborhoods[k] for k in nodes])
        own = np.argmax(members == np.array(nodes)[:, None], axis=1)
        aux_idx = np.stack([clients[k].aux for k in nodes])
        aux_features, aux_labels = train.features[aux_idx][:, None], train.labels[aux_idx]
        aux_features.setflags(write=False)
        aux_labels.setflags(write=False)
        groups.append(AggregationGroup(nodes, np.array(positions), members, own,
                                       aux_features, aux_labels))

    lengths = [len(clients[k].train) for k in benign]
    starts = np.cumsum([0] + lengths[:-1])
    steps = []
    sizes = [min(state.config.batch_size, n) for n in lengths]
    for size, positions in _positions_by(sizes).items():
        nodes = [benign[p] for p in positions]
        steps.append(StepGroup(nodes, np.array(positions), [lengths[p] for p in positions],
                               starts[positions, None], size,
                               RoundStreams(state.seed, nodes, "minibatch")))
    return RoundPlan(benign, neighborhoods, tuple(groups), tuple(steps),
                     np.concatenate([clients[k].train for k in benign]))
