"""Erdos-Renyi communication graphs with designated benign and malicious nodes.

Generation is rejection sampling: graphs are redrawn until the subgraph induced
by the benign nodes is connected, which preserves the conditional Erdos-Renyi
edge distribution. Node ids 0..num_benign-1 are benign, the rest malicious;
TopologyGraph rejects any other numbering.
"""
from __future__ import annotations

from collections import deque
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
    """Undirected graph over disjoint benign/malicious node sets.

    Benign nodes take the lowest ids, 0..num_benign-1, and malicious nodes
    the rest, so a benign client's node id is also its row among the benign
    clients. Structural invariants (symmetry, empty diagonal, the
    benign/malicious partition, benign ids first, and |benign| >= 2) are
    enforced here; benign-subgraph connectivity is enforced by generate() and
    queryable via is_benign_connected().
    """

    n: int
    adjacency: np.ndarray
    benign: frozenset
    malicious: frozenset

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool).copy()
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}")
        if np.any(np.diag(adj)):
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        benign = frozenset(int(i) for i in self.benign)
        malicious = frozenset(int(i) for i in self.malicious)
        if benign & malicious:
            raise ValueError("benign and malicious sets must be disjoint")
        if benign | malicious != set(range(self.n)):
            raise ValueError("benign and malicious sets must cover all node ids")
        if len(benign) < 2:
            raise ValueError("at least 2 benign nodes are required")
        if benign != set(range(len(benign))):
            raise ValueError("benign nodes must be 0..num_benign-1, the lowest ids")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "benign", benign)
        object.__setattr__(self, "malicious", malicious)

    def to_json_dict(self) -> dict:
        edges = [
            [int(i), int(j)]
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adjacency[i, j]
        ]
        return {
            "n": self.n,
            "edges": edges,
            "benign": sorted(self.benign),
            "malicious": sorted(self.malicious),
        }


def neighbors(g: TopologyGraph, k: int) -> set:
    """Open neighborhood of node k (never contains k itself)."""
    if not 0 <= k < g.n:
        raise ValueError(f"node id {k} out of range [0, {g.n})")
    return set(int(i) for i in np.flatnonzero(g.adjacency[k]))


def is_benign_connected(g: TopologyGraph) -> bool:
    """BFS reachability over benign-benign edges only: the block adjacency[:B, :B]."""
    b = len(g.benign)
    adjacency = g.adjacency[:b, :b]
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adjacency[u]).tolist():
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == b


def generate(shape: TopologyShape, seed: int) -> TopologyGraph:
    """Sample an Erdos-Renyi graph of the given shape, from seed's topology
    stream, whose benign-induced subgraph is connected."""
    n = shape.num_benign + shape.num_malicious
    benign = frozenset(range(shape.num_benign))
    malicious = frozenset(range(shape.num_benign, n))
    gen = rng.stream(seed, purpose="topology")
    for _ in range(shape.max_retries):
        draws = gen.random((n, n))
        upper = np.triu(draws < shape.edge_prob, k=1)
        adj = upper | upper.T
        g = TopologyGraph(n, adj, benign, malicious)
        if is_benign_connected(g):
            return g
    raise TopologyError(
        f"failed to generate a graph with a connected benign subgraph after "
        f"{shape.max_retries} attempts (num_benign={shape.num_benign}, "
        f"edge_prob={shape.edge_prob})"
    )
