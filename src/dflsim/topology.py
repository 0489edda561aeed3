"""Erdos-Renyi communication graphs with designated benign and malicious nodes.

Generation is rejection sampling: graphs are redrawn until the subgraph induced
by the benign nodes is connected, which preserves the conditional Erdos-Renyi
edge distribution. A graph is its adjacency and its benign count: node ids
0..num_benign-1 are benign, the rest malicious.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng


class TopologyError(RuntimeError):
    """Graph generation could not satisfy the connectivity assumption."""


@dataclass(frozen=True)
class TopologyShape:
    """A graph's size and density; config parsing and generate() share its range checks."""

    num_benign: int = 10
    num_malicious: int = 2
    edge_prob: float = 0.7
    max_retries: int = 1000

    def __post_init__(self):
        if self.num_benign < 2:
            raise ValueError("num_benign must be at least 2")
        if self.num_malicious < 0:
            raise ValueError("num_malicious must be nonnegative")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must lie in [0, 1]")
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")


@dataclass(frozen=True)
class TopologyGraph:
    """Undirected graph over n nodes, of which the lowest num_benign are benign.

    Benign nodes are 0..num_benign-1 and malicious nodes the rest, so a
    benign client's node id is also its row among the benign clients. The
    adjacency must be square, symmetric and with an empty diagonal, and
    2 <= num_benign <= n; benign-subgraph connectivity is enforced by
    generate() and queryable via is_benign_connected().
    """

    adjacency: np.ndarray
    num_benign: int

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool).copy()
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if np.any(np.diag(adj)):
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not 2 <= self.num_benign <= len(adj):
            raise ValueError(f"need 2 to {len(adj)} benign nodes, got {self.num_benign}")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def benign(self) -> range:
        return range(self.num_benign)

    @property
    def malicious(self) -> range:
        return range(self.num_benign, self.n)

    def to_json_dict(self) -> dict:
        # Each edge once, as an ascending pair, in row-major order of the upper triangle.
        return {
            "n": self.n,
            "edges": np.argwhere(np.triu(self.adjacency)).tolist(),
            "benign": list(self.benign),
            "malicious": list(self.malicious),
        }


def neighbors(g: TopologyGraph, k: int) -> set:
    """Open neighborhood of node k (never contains k itself)."""
    if not 0 <= k < g.n:
        raise ValueError(f"node id {k} out of range [0, {g.n})")
    return set(int(i) for i in np.flatnonzero(g.adjacency[k]))


def is_benign_connected(g: TopologyGraph) -> bool:
    """Whether node 0 reaches every benign node over benign-benign edges only:
    the block adjacency[:B, :B], grown one hop at a time until it stops growing."""
    adjacency = g.adjacency[:g.num_benign, :g.num_benign]
    reached = np.arange(g.num_benign) == 0
    while not reached.all():
        grown = reached | adjacency[reached].any(axis=0)
        if (grown == reached).all():
            return False
        reached = grown
    return True


def generate(shape: TopologyShape, seed: int) -> TopologyGraph:
    """Sample an Erdos-Renyi graph of the given shape, from seed's topology
    stream, whose benign-induced subgraph is connected."""
    n = shape.num_benign + shape.num_malicious
    gen = rng.stream(seed, purpose="topology")
    for _ in range(shape.max_retries):
        draws = gen.random((n, n))
        upper = np.triu(draws < shape.edge_prob, k=1)
        adj = upper | upper.T
        g = TopologyGraph(adj, shape.num_benign)
        if is_benign_connected(g):
            return g
    raise TopologyError(
        f"failed to generate a graph with a connected benign subgraph after "
        f"{shape.max_retries} attempts (num_benign={shape.num_benign}, "
        f"edge_prob={shape.edge_prob})"
    )
