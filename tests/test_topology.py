import itertools
import re

import numpy as np
import pytest

from dflsim.topology import (
    TopologyError,
    TopologyGraph,
    TopologyShape,
    generate,
    is_benign_connected,
    neighbors,
)


def graph_from_edges(n, edges, num_benign):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return TopologyGraph(adj, num_benign)


def reachability_oracle(g):
    """Floyd-Warshall-style transitive closure over benign-benign edges."""
    benign = sorted(g.benign)
    idx = {b: i for i, b in enumerate(benign)}
    m = len(benign)
    reach = np.eye(m, dtype=bool)
    for a in benign:
        for b in benign:
            if g.adjacency[a, b]:
                reach[idx[a], idx[b]] = True
    for k in range(m):
        for i in range(m):
            for j in range(m):
                if reach[i, k] and reach[k, j]:
                    reach[i, j] = True
    return bool(reach.all())


class TestGenerate:
    def test_full_probability_gives_complete_graph(self):
        g = generate(TopologyShape(num_benign=4, num_malicious=2, edge_prob=1.0), seed=1)
        expected = ~np.eye(6, dtype=bool)
        np.testing.assert_array_equal(g.adjacency, expected)

    def test_zero_probability_two_benign_fails(self):
        shape = TopologyShape(num_benign=2, num_malicious=0, edge_prob=0.0, max_retries=25)
        with pytest.raises(TopologyError, match="connected"):
            generate(shape, seed=1)

    def test_deterministic_replay(self):
        shape = TopologyShape(num_benign=3, num_malicious=0, edge_prob=0.5)
        a, b = generate(shape, seed=99), generate(shape, seed=99)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        assert a.benign == b.benign and a.malicious == b.malicious

    def test_ids_assigned_benign_first(self):
        g = generate(TopologyShape(num_benign=5, num_malicious=3, edge_prob=0.9), seed=5)
        assert g.num_benign == 5 and g.n == 8
        assert g.benign == range(5)
        assert g.malicious == range(5, 8)

    def test_generated_graphs_satisfy_invariants(self):
        for seed in range(40):
            g = generate(TopologyShape(num_benign=6, num_malicious=2, edge_prob=0.4), seed)
            assert not np.any(np.diag(g.adjacency))
            np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
            assert is_benign_connected(g)

    def test_rejection_replays_as_sequential_fresh_draws(self):
        # low rho forces rejections; the accepted graph must equal the first
        # connectivity-passing attempt of a manual replay of the same stream
        from dflsim import rng

        shape = TopologyShape(num_benign=5, num_malicious=1, edge_prob=0.22, max_retries=500)
        g = generate(shape, seed=12345)
        gen = rng.stream(12345, purpose="topology")
        attempts = 0
        while True:
            attempts += 1
            draws = gen.random((6, 6))
            upper = np.triu(draws < 0.22, k=1)
            candidate = TopologyGraph(upper | upper.T, 5)
            if is_benign_connected(candidate):
                break
        np.testing.assert_array_equal(g.adjacency, candidate.adjacency)
        assert attempts <= shape.max_retries

    def test_empirical_edge_density(self):
        # 10,000 seeded trials at rho=0.7, N=12: density within +/-0.02
        total_pairs = 12 * 11 // 2
        densities = []
        for seed in range(10_000):
            g = generate(TopologyShape(num_benign=10, num_malicious=2, edge_prob=0.7), seed)
            densities.append(np.triu(g.adjacency, 1).sum() / total_pairs)
        assert abs(float(np.mean(densities)) - 0.7) <= 0.02


class TestNeighbors:
    def test_complete_graph(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)], 3)
        assert neighbors(g, 0) == {1, 2}

    def test_edgeless_graph(self):
        g = graph_from_edges(3, [], 2)
        assert neighbors(g, 0) == set()

    def test_symmetry(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            n = int(gen.integers(2, 9))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if gen.random() < 0.5]
            g = graph_from_edges(n, edges, n)
            for i, j in itertools.combinations(range(n), 2):
                assert (i in neighbors(g, j)) == (j in neighbors(g, i))

    def test_out_of_range(self):
        g = graph_from_edges(2, [(0, 1)], 2)
        with pytest.raises(ValueError):
            neighbors(g, 2)


class TestBenignConnectivity:
    def test_path_graph_connected(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], 4)
        assert is_benign_connected(g)

    def test_malicious_bridge_not_counted(self):
        # benign 0,1 joined only through malicious node 2
        g = graph_from_edges(3, [(0, 2), (1, 2)], 2)
        assert not is_benign_connected(g)

    def test_matches_closure_oracle(self):
        gen = np.random.default_rng(4)
        for _ in range(60):
            n = int(gen.integers(2, 8))
            num_benign = int(gen.integers(2, n + 1))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if gen.random() < 0.35]
            g = graph_from_edges(n, edges, num_benign)
            assert is_benign_connected(g) == reachability_oracle(g)


class TestGraphValidation:
    def test_rejects_self_loop(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 0] = True
        with pytest.raises(ValueError, match="^self-loops are not allowed$"):
            TopologyGraph(adj, 2)

    def test_rejects_asymmetry(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="^adjacency must be symmetric$"):
            TopologyGraph(adj, 2)

    def test_rejects_single_benign(self):
        adj = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="^need 2 to 2 benign nodes, got 1$"):
            TopologyGraph(adj, 1)

    def test_rejects_more_benign_nodes_than_nodes(self):
        adj = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="^need 2 to 2 benign nodes, got 3$"):
            TopologyGraph(adj, 3)

    def test_rejects_non_square_adjacency(self):
        with pytest.raises(ValueError, match=re.escape("adjacency must be square, got shape (2, 3)")):
            TopologyGraph(np.zeros((2, 3), dtype=bool), 2)

    def test_node_ids_follow_from_the_benign_count(self):
        g = graph_from_edges(5, [(0, 3)], 3)
        assert (g.n, list(g.benign), list(g.malicious)) == (5, [0, 1, 2], [3, 4])
        assert 3 in g.malicious and 3 not in g.benign

    def test_json_round_trip(self):
        g = generate(TopologyShape(num_benign=4, num_malicious=2, edge_prob=0.6), seed=8)
        doc = g.to_json_dict()
        # Each edge once, as an ascending pair, in row-major order of the upper triangle.
        assert doc["n"] == 6
        assert doc["edges"] == [[int(i), int(j)] for i, j in zip(*np.nonzero(np.triu(g.adjacency)))]
        assert doc["benign"] == [0, 1, 2, 3] and doc["malicious"] == [4, 5]
