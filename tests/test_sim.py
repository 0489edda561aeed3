import ast
import csv
import json
import os
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from dflsim import rng
from dflsim.baselines import dfedavg, flame_weighted, krum, median_agg, multi_krum, trimmed_mean
from dflsim.config import (ATTACKS, BASELINES, CRSS, SCHEMES, AttackSpec, ConfigError,
                           DFedReweightingSpec, config_to_json_dict, parse_config)
from dflsim.core_learning import (
    Dataset,
    Minibatch,
    ParamVector,
    ShapeError,
    batch_gradient,
    evaluate_accuracy,
    evaluate_mean_loss,
    sgd_step,
)
from dflsim.data import gen_synthetic_blobs, partition_iid, split_auxiliary
from dflsim.reweight import (
    LossClip,
    MetricVector,
    TargetMetricKind,
    WeightVector,
    apply_crs,
    compute_tpm,
    dfedreweighting_round_weights,
    reweight_aggregate,
    reweight_round,
)
from dflsim.sim import (
    ClientState,
    NetworkState,
    SimulationError,
    _attack_payload,
    _local_half_steps,
    _run_seed,
    _seed_pool,
    _write_run,
    build_network,
    check_neighborhoods,
    evaluate_network,
    run_experiment,
    run_round,
    setup_seed,
)
from dflsim.topology import TopologyGraph


def tiny_config(**overrides):
    doc = {
        "name": overrides.pop("name", "tiny"),
        "dataset": {"synthetic": {"num_classes": 3, "feature_dim": 6, "n_per_class": 30,
                                   "spread": 0.5, "seed": 5, "test_n_per_class": 20}},
        "scheme": "iid",
        "topology": {"num_benign": 3, "num_malicious": 0, "edge_prob": 1.0},
        "rounds": 5,
        "aggregator": {"baseline": {"kind": "dfedavg"}},
        "attack": None,
        "seeds": [43],
        "eval_every": 5,
    }
    doc.update(overrides)
    return parse_config(doc)


def graph_without_edges(num_benign):
    adj = np.zeros((num_benign, num_benign), dtype=bool)
    return TopologyGraph(num_benign, adj, frozenset(range(num_benign)), frozenset())


def complete_graph(n, benign, malicious):
    adj = ~np.eye(n, dtype=bool)
    return TopologyGraph(n, adj, frozenset(benign), frozenset(malicious))


def manual_state(config, graph, client_data, models, test=None):
    """A hand-built NetworkState. client_data maps each client to its (train,
    aux) Datasets; each distinct Dataset is pooled once, in order of first
    appearance, into the network's training set, and each ClientState holds
    the read-only rows of its two Datasets there."""
    pool, rows = [], {}
    for data in (held for pair in client_data.values() for held in pair):
        if id(data) not in rows:
            start = sum(len(seen) for seen in pool)
            rows[id(data)] = np.arange(start, start + len(data))
            rows[id(data)].setflags(write=False)
            pool.append(data)
    train = Dataset(np.concatenate([data.features for data in pool]),
                    np.concatenate([data.labels for data in pool]), pool[0].num_classes)
    clients = {k: ClientState(rows[id(t)], rows[id(a)]) for k, (t, a) in client_data.items()}
    return NetworkState(config, seed=config.seeds[0], graph=graph, clients=clients,
                        models=models, train_data=train, test_data=test)


def aux_set(state, k):
    """Client k's aux set as a Dataset of its own."""
    return state.train_data.subset(state.clients[k].aux)


class TestRunRound:
    def test_identical_data_complete_graph_consensus(self):
        config = tiny_config()
        data = Dataset(np.random.default_rng(0).standard_normal((20, 6)),
                       np.random.default_rng(1).integers(0, 3, 20), 3)
        clients = {
            k: (data, data) for k in (0, 1)
        }
        state = manual_state(config, complete_graph(2, [0, 1], []), clients, np.zeros((2, 21)))
        for t in range(1, 6):
            run_round(state, t)
            np.testing.assert_array_equal(
                state.models[0], state.models[1]
            )

    def test_isolated_client_round_is_plain_sgd(self):
        for aggregator in (
            {"baseline": {"kind": "dfedavg"}},
            {"dfed_reweighting": {"tpm": "accuracy",
                                  "crs": {"temp_softmax": {"temperature": 0.1}}}},
        ):
            config = tiny_config(aggregator=aggregator)
            gen = np.random.default_rng(2)
            data = Dataset(gen.standard_normal((40, 6)), gen.integers(0, 3, 40), 3)
            template = ParamVector(np.zeros(3 * 6 + 3), 3, 6)
            clients = {
                k: (data, data) for k in (0, 1)
            }
            state = manual_state(config, graph_without_edges(2), clients, np.zeros((2, 21)))
            run_round(state, 1)

            manual = template
            stream = rng.stream(config.seeds[0], 0, 1, "minibatch")
            batch = Minibatch(stream.choice(40, size=32, replace=False))
            manual = sgd_step(manual, batch_gradient(manual, data, batch),
                              config.learning_rate)
            np.testing.assert_array_equal(state.models[0], manual.values)

    def test_iid_complete_graph_models_equal_after_every_round(self):
        config = tiny_config(rounds=4)
        state = build_network(config, seed=43)
        for t in range(1, 5):
            run_round(state, t)
            reference = state.models[0]
            for k in state.benign_ids()[1:]:
                np.testing.assert_array_equal(state.models[k], reference)

    def test_nonfinite_aggregate_aborts_with_context(self):
        config = tiny_config()
        gen = np.random.default_rng(3)
        data = Dataset(gen.standard_normal((10, 6)), gen.integers(0, 3, 10), 3)
        models = np.zeros((2, 3 * 6 + 3))
        models[1] = np.nan
        clients = {
            0: (data, data),
            1: (data, data),
        }
        state = manual_state(config, complete_graph(2, [0, 1], []), clients, models)
        with pytest.raises(SimulationError, match="non-finite"):
            run_round(state, 1)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("aggregator", [
        {"baseline": {"kind": "dfedavg"}},
        {"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
    ])
    def test_nonfinite_aggregate_shows_weights_only_where_the_aggregator_has_them(self, aggregator):
        # Every bias is the largest float, so every logit rounds to it and every
        # loss is equal: loss-clip weighs the eleven members alike, and the
        # eleven weighted biases sum past the largest float.
        config = tiny_config(topology={"num_benign": 11, "num_malicious": 0, "edge_prob": 1.0},
                             aggregator=aggregator)
        state = build_network(config, seed=43)
        state.models[:, -3:] = np.finfo(float).max
        with pytest.raises(SimulationError) as failure:
            run_round(state, 1)
        message = str(failure.value)
        prefix = "non-finite aggregate for client 0 at round 1 (seed 43)"
        if "baseline" in aggregator:
            assert message == prefix
        else:
            assert message.startswith(prefix + "; weights={")
            weights = ast.literal_eval(message[len(prefix + "; weights="):])
            assert list(weights) == list(range(11))
            assert len(set(weights.values())) == 1


def broadcast_matrix(state, models):
    """A round's broadcast matrix: row k holds the row models[k]; the other rows are zero."""
    out = np.zeros((state.graph.n, next(iter(models.values())).size))
    for k, model in models.items():
        out[k] = model
    return out


def loop_half_step(state, node_id, t):
    """Reference local SGD: per-client batch_gradient + sgd_step on the client's
    stream, over a copy of the client's train set."""
    train = state.train_data.subset(state.clients[node_id].train)
    gen = rng.stream(state.seed, node_id, t, "minibatch")
    n = len(train)
    model = ParamVector(state.models[node_id], train.num_classes, train.feature_dim)
    for _ in range(state.config.local_steps):
        batch = Minibatch(gen.choice(n, size=min(state.config.batch_size, n), replace=False))
        model = sgd_step(model, batch_gradient(model, train, batch),
                         state.config.learning_rate)
    return model


class TestStackedRoundEngine:
    """The stacked round engine must equal the per-client reference functions bit for bit."""

    def test_stacked_local_step_equals_per_client_loop(self):
        config = tiny_config(batch_size=8, local_steps=2, learning_rate=0.3)
        gen = np.random.default_rng(4)
        clients, models = {}, []
        # Train sizes below, at and above batch_size give three stacked groups.
        for k, n in enumerate([3, 8, 8, 20, 5, 13]):
            data = Dataset(gen.standard_normal((n, 6)), gen.integers(0, 3, n), 3)
            models.append(gen.standard_normal(21))
            clients[k] = (data, data)
        state = manual_state(config, graph_without_edges(6), clients, np.array(models))
        for t in (1, 2):
            stacked = _local_half_steps(state, t)
            for k in state.benign_ids():
                np.testing.assert_array_equal(
                    stacked[k], loop_half_step(state, k, t).values)
                state.models[k] = stacked[k]

    def test_plan_gathers_each_clients_own_train_rows(self):
        built = build_network(tiny_config(topology={"num_benign": 5, "num_malicious": 1,
                                                     "edge_prob": 0.6}), seed=43)
        gen = np.random.default_rng(6)
        data = Dataset(gen.standard_normal((9, 6)), gen.integers(0, 3, 9), 3)
        other = Dataset(gen.standard_normal((4, 6)), gen.integers(0, 3, 4), 3)
        by_hand = manual_state(tiny_config(), graph_without_edges(3),
                               {0: (data, data), 1: (other, data), 2: (data, other)},
                               np.zeros((3, 21)))
        built_trains = {k: built.train_data.subset(built.clients[k].train)
                        for k in built.benign_ids()}
        for state, trains in ((built, built_trains), (by_hand, {0: data, 1: other, 2: data})):
            plan = state.plan()
            assert plan.train_rows.dtype == np.int64
            for step in plan.steps:
                for k, start, n in zip(step.nodes, step.starts[:, 0], step.lengths):
                    train, rows = trains[k], plan.train_rows[start:start + n]
                    assert rows.tobytes() == state.clients[k].train.tobytes()
                    assert state.train_data.features[rows].tobytes() == train.features.tobytes()
                    assert state.train_data.labels[rows].tolist() == train.labels.tolist()

    def test_plan_stacks_each_groups_aux_sets_once_read_only(self):
        state = self.grouped_round_state({"tpm": "loss", "crs": "loss_clip"})
        plan = state.plan()
        assert len({len(state.clients[k].aux) for k in plan.benign}) > 1
        assert sorted(k for group in plan.groups for k in group.nodes) == plan.benign
        for group in plan.groups:
            assert group.nodes == sorted(group.nodes)
            n = len(state.clients[group.nodes[0]].aux)
            assert group.aux_features.shape == (len(group.nodes), 1, n, 8)
            assert group.aux_labels.shape == (len(group.nodes), n)
            for i, k in enumerate(group.nodes):
                aux = aux_set(state, k)
                assert group.aux_features[i, 0].tobytes() == aux.features.tobytes()
                assert group.aux_labels[i].tolist() == aux.labels.tolist()
            with pytest.raises(ValueError, match="read-only"):
                group.aux_features[0, 0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                group.aux_labels[0, 0] = 0
        assert state.plan() is plan

    def test_stacked_local_step_checks_shapes(self):
        # Rows of C*d+C = 18 parameters hold C=3, d=5 models; the data has d=6.
        config = tiny_config()
        data = Dataset(np.zeros((4, 6)), [0, 1, 2, 0], 3)
        clients = {k: (data, data) for k in (0, 1)}
        state = manual_state(config, graph_without_edges(2), clients, np.zeros((2, 3 * 5 + 3)))
        with pytest.raises(ShapeError, match="does not hold C=3, d=6 models"):
            _local_half_steps(state, 1)

    def test_stacked_local_step_equals_per_client_step_in_every_stream_block(self):
        from dflsim.sim import _local_half_step

        # Dirichlet train sets below and above batch_size give several step groups.
        config = tiny_config(scheme={"dirichlet": {"alpha": 0.5}}, batch_size=16, local_steps=2,
                             topology={"num_benign": 6, "num_malicious": 0, "edge_prob": 1.0})
        state = build_network(config, seed=43)
        assert len(state.plan().steps) > 1
        # Rounds in the first and second blocks of RoundStreams, and past config.rounds.
        for t in (1, 128, 129, config.rounds + 5):
            stacked = _local_half_steps(state, t)
            per_client = np.array([_local_half_step(state, k, t).values for k in state.benign_ids()])
            assert stacked.tobytes() == per_client.tobytes(), t
            state.models[state.benign_ids()] = stacked

    @pytest.mark.parametrize("aggregator", [
        {"tpm": "loss", "crs": "loss_clip"},
        {"tpm": "accuracy", "crs": {"temp_softmax": {"temperature": 0.1}}},
        {"tpm": "accuracy", "crs": "acc_clip"},
    ])
    def test_reweighting_round_equals_per_member_oracles(self, aggregator):
        config = tiny_config(
            dataset={"synthetic": {"num_classes": 10, "feature_dim": 64, "n_per_class": 40,
                                   "spread": 3.5, "seed": 7, "test_n_per_class": 10}},
            topology={"num_benign": 8, "num_malicious": 2, "edge_prob": 0.7},
            aggregator={"dfed_reweighting": aggregator},
            attack={"kind": "sign_flip", "factor": -10.0},
        )
        state = build_network(config, seed=43)
        oracle = build_network(config, seed=43)
        agg = state.config.aggregator
        for t in (1, 2, 3):
            run_round(state, t)
            halves = {k: loop_half_step(oracle, k, t) for k in oracle.benign_ids()}
            incoming = dict(halves)
            for m in oracle.malicious_ids():
                incoming[m] = ParamVector(_attack_payload(oracle, m, broadcast_matrix(
                    oracle, {k: half.values for k, half in halves.items()}), t), 10, 64)
            updated = {}
            for k in oracle.benign_ids():
                members = sorted({k, *np.flatnonzero(oracle.graph.adjacency[k]).tolist()})
                metrics = MetricVector(members, [
                    compute_tpm(agg.tpm, incoming[i], aux_set(oracle, k)) for i in members])
                weights = apply_crs(agg.crs, metrics)
                acc = None
                weight_of = dict(zip(weights.ids, weights.weights))
                for i in members:
                    w = weight_of[i]
                    if w != 0.0:
                        acc = w * incoming[i].values if acc is None else acc + w * incoming[i].values
                np.testing.assert_array_equal(state.models[k], acc)
                assert state.last_weights[k] == dict(zip(weights.ids, weights.weights.tolist()))
                updated[k] = acc
            for k, model in updated.items():
                oracle.models[k] = model

    @staticmethod
    def grouped_round_state(aggregator):
        """Dirichlet aux sets of unequal sizes, size groups shared by several
        clients, and closed neighborhoods of 9 to 14 members."""
        config = tiny_config(
            dataset={"synthetic": {"num_classes": 4, "feature_dim": 8, "n_per_class": 60,
                                   "spread": 1.0, "seed": 5, "test_n_per_class": 10}},
            scheme={"dirichlet": {"alpha": 0.5}},
            topology={"num_benign": 12, "num_malicious": 2, "edge_prob": 0.7},
            aggregator={"dfed_reweighting": aggregator},
            attack={"kind": "sign_flip", "factor": -10.0},
        )
        return build_network(config, seed=43)

    @staticmethod
    def round_broadcast(state, t):
        broadcast = state.models.copy()
        broadcast[state.benign_ids()] = _local_half_steps(state, t)
        for m in state.malicious_ids():
            broadcast[m] = _attack_payload(state, m, broadcast, t)
        return broadcast

    @staticmethod
    def per_client_oracle(state, broadcast, k):
        """(row, weights) of client k alone through the per-vector functions."""
        agg = state.config.aggregator
        members = np.flatnonzero(state.graph.adjacency[k] | (np.arange(state.graph.n) == k))
        weights = dfedreweighting_round_weights(
            agg.tpm, agg.crs, members, broadcast[members], aux_set(state, k))
        return reweight_aggregate(broadcast[members], weights), dict(zip(weights.ids, weights.weights.tolist()))

    @pytest.mark.parametrize("aggregator", [
        {"tpm": "loss", "crs": "loss_clip"},
        {"tpm": "accuracy", "crs": {"temp_softmax": {"temperature": 0.1}}},
        {"tpm": "accuracy", "crs": "acc_clip"},
    ])
    def test_grouped_round_equals_per_client_oracles(self, aggregator, monkeypatch):
        import dflsim.reweight as reweight
        import dflsim.sim as sim

        state, oracle = self.grouped_round_state(aggregator), self.grouped_round_state(aggregator)
        closed = state.graph.adjacency | np.eye(state.graph.n, dtype=bool)
        sizes = [(closed[k].sum(), len(state.clients[k].aux)) for k in state.benign_ids()]
        assert len({aux for _, aux in sizes}) > 1
        assert len(set(sizes)) < len(sizes)
        assert max(k for k, _ in sizes) >= 9

        def per_client(*args):
            raise AssertionError("a stock reweighting round aggregated client by client")

        built = []
        monkeypatch.setattr(sim, "_aggregate_one", per_client)
        monkeypatch.setattr(reweight, "MetricVector", lambda *args: built.append(args) or MetricVector(*args))
        for t in (1, 2, 3):
            run_round(state, t)
            assert built == []
            broadcast = self.round_broadcast(oracle, t)
            for k in oracle.benign_ids():
                row, weights = self.per_client_oracle(oracle, broadcast, k)
                assert state.models[k].tobytes() == row.tobytes()
                assert state.last_weights[k] == weights
                oracle.models[k] = row
            built.clear()
        assert list(state.last_weights) == state.benign_ids()

    def test_grouped_round_gives_a_nan_member_zero_weight(self):
        state = self.grouped_round_state({"tpm": "loss", "crs": "loss_clip"})
        broadcast = self.round_broadcast(state, 1)
        nan_node = state.malicious_ids()[0]
        broadcast[nan_node] = np.nan
        rows, weights, failures = reweight_round(
            TargetMetricKind.LOSS_ON_AUX, LossClip(), broadcast, state.plan(),
            state.train_data.num_classes)
        assert failures == {}
        seen = [k for k in state.benign_ids() if nan_node in weights[k]]
        assert seen
        for i, k in enumerate(state.benign_ids()):
            row, oracle_weights = self.per_client_oracle(state, broadcast, k)
            assert rows[i].tobytes() == row.tobytes()
            assert weights[k] == oracle_weights
            assert np.all(np.isfinite(rows[i]))
        assert all(weights[k][nan_node] == 0.0 for k in seen)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("uniform", [False, True])
    def test_grouped_round_mixes_each_row_in_ascending_member_order(self, uniform):
        # Each row against acc + w * row from acc = +0.0, one member at a time
        # in ascending id, non-finite rows zeroed: this pins the order in
        # which the mixing einsum sums, which numpy does not document.
        state = self.grouped_round_state({"tpm": "loss", "crs": "loss_clip"})
        broadcast = self.round_broadcast(state, 1)
        broadcast[:, 0] = -0.0
        broadcast[::2, 1], broadcast[1::2, 1] = -0.0, 0.0
        nan_node, inf_node = state.malicious_ids()
        broadcast[nan_node, 2] = np.nan
        broadcast[inf_node, 3:5] = [np.inf, -np.inf]
        crs = _UniformCRS() if uniform else LossClip()
        rows, weights, failures = reweight_round(
            TargetMetricKind.LOSS_ON_AUX, crs, broadcast, state.plan(), state.train_data.num_classes)
        assert failures == {}
        finite = np.isfinite(broadcast).all(axis=1)
        clean = np.where(finite[:, None], broadcast, 0.0)
        zeros, poisoned = 0, 0
        for i, k in enumerate(state.benign_ids()):
            if any(weights[k].get(m, 0.0) != 0.0 for m in (nan_node, inf_node)):
                assert not np.isfinite(rows[i]).all()
                poisoned += 1
                continue
            acc = np.zeros(broadcast.shape[1])
            for member, w in sorted(weights[k].items()):
                acc = acc + w * clean[member]
                zeros += w == 0.0 and finite[member]
            assert rows[i].tobytes() == acc.tobytes()
        # Loss-clip zero-weights finite and non-finite members; uniform weights poison rows.
        assert poisoned > 0 if uniform else (zeros > 0 and poisoned == 0)

    def test_round_weights_are_a_read_only_view_of_the_mixing_matrix(self):
        state = self.grouped_round_state({"tpm": "accuracy", "crs": "acc_clip"})
        run_round(state, 1)
        plan, weights = state.plan(), state.last_weights
        matrix = weights.matrix
        assert matrix.shape == (len(plan.benign), state.graph.n)
        assert not matrix[~plan.closed].any()
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        assert list(weights) == plan.benign and len(weights) == len(plan.benign)
        for i, k in enumerate(plan.benign):
            members = plan.neighborhoods[k].tolist()
            assert weights[k] == {m: matrix[i, m] for m in members}
            assert list(weights[k]) == members
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        with pytest.raises(TypeError):
            weights[plan.benign[0]] = {}
        assert state.malicious_ids()[0] not in weights

    def test_grouped_round_failure_names_its_node(self):
        # Nodes 0 and 2 are isolated, so they share the one-member group; node
        # 2's own model is NaN, which leaves loss-clip no finite metric.
        config = tiny_config(aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}})
        gen = np.random.default_rng(5)
        data = Dataset(gen.standard_normal((10, 6)), gen.integers(0, 3, 10), 3)
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[1, 3] = adjacency[3, 1] = True
        graph = TopologyGraph(4, adjacency, frozenset(range(4)), frozenset())
        models = np.zeros((4, 3 * 6 + 3))
        models[2] = np.nan
        clients = {k: (data, data) for k in range(4)}
        state = manual_state(config, graph, clients, models)
        with pytest.raises(SimulationError,
                           match="round 1 failed for seed 43 at node 2: loss-clip requires at least one"):
            run_round(state, 1)

    @pytest.mark.parametrize("aggregator, kernel", [
        ({"tpm": "loss", "crs": "loss_clip"}, "grouped_mean_loss"),
        ({"tpm": "accuracy", "crs": "acc_clip"}, "grouped_accuracy"),
    ])
    def test_grouped_kernel_is_looked_up_once_per_group_and_round(self, aggregator, kernel,
                                                                  monkeypatch):
        # A wrapper on the reweight module's attribute sees every group's
        # scoring: the round looks the kernel up when it runs, not at import.
        import dflsim.reweight as reweight

        state = self.grouped_round_state(aggregator)
        original, shapes = getattr(reweight, kernel), []

        def counted(params, *args):
            shapes.append(params.shape)
            return original(params, *args)

        monkeypatch.setattr(reweight, kernel, counted)
        for t in (1, 2):
            run_round(state, t)
        groups = state.plan().groups
        assert len(groups) > 1
        assert shapes == [(*group.members.shape, state.models.shape[1]) for group in groups] * 2

    def test_replaced_local_step_functions_are_called_per_client(self, monkeypatch):
        import dflsim.sim as sim

        config = tiny_config(
            topology={"num_benign": 5, "num_malicious": 1, "edge_prob": 0.6},
            aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
            attack={"kind": "sign_flip", "factor": -10.0},
            local_steps=2,
        )
        stacked, per_client = build_network(config, seed=43), build_network(config, seed=43)
        calls = {"batch_gradient": 0, "sgd_step": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sim, "batch_gradient", counted("batch_gradient", batch_gradient))
        monkeypatch.setattr(sim, "sgd_step", counted("sgd_step", sgd_step))
        for t in (1, 2):
            run_round(per_client, t)
        monkeypatch.undo()
        for t in (1, 2):
            run_round(stacked, t)
        assert calls == {"batch_gradient": 2 * 5 * 2, "sgd_step": 2 * 5 * 2}
        for k in stacked.benign_ids():
            np.testing.assert_array_equal(
                per_client.models[k], stacked.models[k])


_BASELINE_KINDS = [
    {"kind": "dfedavg"},
    {"kind": "median"},
    {"kind": "krum", "f": 2},
    {"kind": "multi_krum", "f": 2, "m": 2},
    {"kind": "trimmed_mean", "f": 2},
    {"kind": "flame", "beta": 1.0},
]

# Per-vector oracles: (closed neighborhood's rows, index of the own row) -> row.
_BASELINE_ORACLES = {
    "dfedavg": lambda params, own: dfedavg(params),
    "median": lambda params, own: median_agg(params),
    "krum": lambda params, own: krum(params, 2),
    "multi_krum": lambda params, own: multi_krum(params, 2, 2),
    "trimmed_mean": lambda params, own: trimmed_mean(params, 2),
    "flame": lambda params, own: flame_weighted(params[own], np.delete(params, own, axis=0), 1.0),
}


class TestBaselineDispatch:
    @pytest.mark.parametrize("kind", _BASELINE_KINDS)
    def test_each_baseline_matches_direct_aggregation(self, kind):
        from dflsim.sim import _local_half_step

        config = tiny_config(
            topology={"num_benign": 6, "num_malicious": 0, "edge_prob": 1.0},
            aggregator={"baseline": kind},
            dataset={"synthetic": {"num_classes": 3, "feature_dim": 6, "n_per_class": 60,
                                    "spread": 0.5, "seed": 5, "test_n_per_class": 20}},
        )
        # identical streams make the half-steps of a twin network bit-equal
        twin = build_network(config, seed=43)
        halves = np.array([_local_half_step(twin, k, 1).values for k in twin.benign_ids()])

        state = build_network(config, seed=43)
        run_round(state, 1)
        # Every client: FLAME is anchored on the own row, which is not always row 0.
        for k in state.benign_ids():
            expected = _BASELINE_ORACLES[kind["kind"]](halves, k)
            np.testing.assert_array_equal(state.models[k], expected, err_msg=k)

    @staticmethod
    def ten_client_network(kind, edge_prob, seed):
        config = tiny_config(
            topology={"num_benign": 10, "num_malicious": 0, "edge_prob": edge_prob},
            aggregator={"baseline": kind},
            dataset={"synthetic": {"num_classes": 3, "feature_dim": 6, "n_per_class": 60,
                                    "spread": 0.5, "seed": 5, "test_n_per_class": 20}},
        )
        return build_network(config, seed=seed)

    @pytest.mark.parametrize("kind", _BASELINE_KINDS)
    def test_grouped_baselines_equal_per_client_oracles(self, kind):
        from dflsim.sim import _local_half_step

        state = self.ten_client_network(kind, 0.6, 48)
        twin = self.ten_client_network(kind, 0.6, 48)
        closed = state.graph.adjacency | np.eye(state.graph.n, dtype=bool)
        sizes = closed.sum(axis=1).tolist()
        # Closed neighborhoods of 5 to 8 members, each size shared by several clients.
        assert len(set(sizes)) > 1 and all(sizes.count(size) > 1 for size in sizes)
        oracle = _BASELINE_ORACLES[kind["kind"]]
        for t in (1, 2):
            run_round(state, t)
            halves = np.array([_local_half_step(twin, k, t).values for k in twin.benign_ids()])
            for k in twin.benign_ids():
                members = np.flatnonzero(closed[k])
                expected = oracle(halves[members], members.tolist().index(k))
                assert state.models[k].tobytes() == expected.tobytes(), (t, k)
                twin.models[k] = expected

    def test_infeasible_grouped_krum_names_its_lowest_failing_node(self):
        state = self.ten_client_network({"kind": "krum", "f": 2}, 0.4, 50)
        closed = state.graph.adjacency | np.eye(state.graph.n, dtype=bool)
        # Krum with f=2 needs n - f - 2 >= 1, i.e. closed neighborhoods of 5 or more.
        failing = [k for k in state.benign_ids() if closed[k].sum() < 5]
        assert len({closed[k].sum() for k in failing}) > 1 and failing[0] > 0
        with pytest.raises(SimulationError,
                           match=f"round 1 failed for seed 50 at node {failing[0]}: krum needs"):
            run_round(state, 1)


# Fields without a default, per registered kind.
_REQUIRED = {"dirichlet": {"alpha": 1.0}, "label_skew": {"h": 2}, "temp_softmax": {"temperature": 0.5}}
# family -> (registry table, how a spec of that family goes into a RunConfig)
_KINDS = {
    "scheme": (SCHEMES, lambda config, spec: replace(config, scheme=spec)),
    "baseline": (BASELINES, lambda config, spec: replace(config, aggregator=spec)),
    "attack": (ATTACKS, lambda config, spec: replace(config, attack=AttackSpec(spec))),
    "crs": (CRSS, lambda config, spec: replace(config, aggregator=DFedReweightingSpec(
        TargetMetricKind.LOSS_ON_AUX if isinstance(spec, LossClip) else
        TargetMetricKind.ACCURACY_ON_AUX, spec))),
}


@pytest.mark.parametrize("family, name", [
    (family, name) for family, (table, _) in _KINDS.items() for name in table
])
def test_every_registered_kind_runs_a_round(family, name):
    table, place = _KINDS[family]
    base = tiny_config(
        topology={"num_benign": 6, "num_malicious": 1, "edge_prob": 1.0},
        dataset={"synthetic": {"num_classes": 3, "feature_dim": 6, "n_per_class": 60,
                                "spread": 0.5, "seed": 5, "test_n_per_class": 20}},
        aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
        attack={"kind": "sign_flip"},
    )
    state = build_network(place(base, table[name](**_REQUIRED.get(name, {}))), seed=43)
    run_round(state, 1)
    for k in state.benign_ids():
        row = state.models[k]
        assert np.all(np.isfinite(row)) and np.any(row != 0), (family, name, k)


@dataclass(frozen=True)
class _UniformCRS:
    """A CRS that weighs every member of a closed neighborhood alike."""

    favours = "high"

    def weights(self, metrics):
        return WeightVector(metrics.ids, np.full(len(metrics), 1 / len(metrics)))

    def rows(self, values):
        return np.full(values.shape, 1 / values.shape[1]), True


def test_a_crs_registered_by_name_alone_parses_and_runs(monkeypatch):
    # The class and its name in config.CRSS are all a CRS needs: the pairing
    # rule reads its favours, and the round its row form.
    monkeypatch.setitem(CRSS, "uniform", _UniformCRS)
    config = tiny_config(
        topology={"num_benign": 6, "num_malicious": 1, "edge_prob": 0.5},
        aggregator={"dfed_reweighting": {"tpm": "accuracy", "crs": "uniform"}},
        attack={"kind": "sign_flip"},
    )
    assert config_to_json_dict(config)["aggregator"] == {
        "dfed_reweighting": {"tpm": "accuracy", "crs": "uniform"}}
    state = build_network(config, seed=43)
    run_round(state, 1)
    neighborhoods = state.plan().neighborhoods
    assert len({len(members) for members in neighborhoods.values()}) > 1
    for k in state.benign_ids():
        members = neighborhoods[k].tolist()
        assert state.last_weights[k] == {m: 1 / len(members) for m in members}
    with pytest.raises(ConfigError, match="crs 'uniform' requires tpm 'accuracy', got 'loss'"):
        tiny_config(aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "uniform"}})


class TestAttackDispatch:
    def attack_state(self, attack, knowledge="omniscient"):
        config = tiny_config(
            topology={"num_benign": 3, "num_malicious": 1, "edge_prob": 1.0},
            attack=dict(attack, knowledge=knowledge),
        )
        return build_network(config, seed=43)

    def test_sign_flip_payload_flips_benign_mean(self):
        state = self.attack_state({"kind": "sign_flip", "factor": -10.0})
        halves = {k: np.full_like(state.models[k], k + 1.0)
                  for k in state.benign_ids()}
        payload = _attack_payload(state, 3, broadcast_matrix(state, halves), t=1)
        np.testing.assert_allclose(payload, -10.0 * 2.0 * np.ones_like(payload))

    def test_gaussian_payload_replays(self):
        state = self.attack_state({"kind": "gaussian", "sigma": 30.0})
        halves = {k: state.models[k] for k in state.benign_ids()}
        a = _attack_payload(state, 3, broadcast_matrix(state, halves), t=4)
        b = _attack_payload(state, 3, broadcast_matrix(state, halves), t=4)
        np.testing.assert_array_equal(a, b)
        assert a.std() > 20.0

    def test_alie_payload_uses_benign_statistics(self):
        state = self.attack_state({"kind": "alie", "z": 1.0})
        halves = {
            0: np.zeros(21),
            1: np.full(21, 2.0),
            2: np.full(21, 4.0),
        }
        payload = _attack_payload(state, 3, broadcast_matrix(state, halves), t=1)
        mu, sigma = 2.0, float(np.std([0.0, 2.0, 4.0]))
        np.testing.assert_allclose(payload, mu - sigma, atol=1e-12)

    def test_malicious_clients_hold_no_data(self):
        state = self.attack_state({"kind": "gaussian"})
        for m in state.malicious_ids():
            assert m not in state.clients

    def test_neighborhood_knowledge_restricts_view(self):
        config = tiny_config(
            topology={"num_benign": 3, "num_malicious": 1, "edge_prob": 1.0},
            attack={"kind": "sign_flip", "factor": -1.0, "knowledge": "neighborhood"},
        )
        state = build_network(config, seed=43)
        # disconnect malicious node 3 from benign 0
        adj = state.graph.adjacency.copy()
        adj[3, 0] = adj[0, 3] = False
        state.graph = TopologyGraph(4, adj, state.graph.benign, state.graph.malicious)
        halves = {k: np.full(21, float(k)) for k in state.benign_ids()}
        payload = _attack_payload(state, 3, broadcast_matrix(state, halves), t=1)
        # mean over visible benign {1, 2} only, flipped by -1
        np.testing.assert_allclose(payload, -1.5, atol=1e-12)

    @pytest.mark.parametrize("knowledge, failure", [
        ("neighborhood", "seed 43: malicious node 4 sees 1 benign models, but ALIE(z=None) "
                         "needs the mean and std of its visible benign models (at least 2)"),
        ("omniscient", None),
    ], ids=["neighborhood", "omniscient"])
    def test_alie_needs_two_visible_benign_models(self, knowledge, failure):
        # Malicious node 4 neighbors benign node 2 alone; omniscient, it sees all four.
        config = tiny_config(topology={"num_benign": 4, "num_malicious": 1, "edge_prob": 1.0},
                             attack={"kind": "alie", "knowledge": knowledge})
        adj = np.zeros((5, 5), dtype=bool)
        for i, j in [(0, 1), (1, 2), (2, 3), (2, 4)]:
            adj[i, j] = adj[j, i] = True
        graph = TopologyGraph(5, adj, frozenset(range(4)), frozenset({4}))
        if failure is None:
            check_neighborhoods(config, 43, graph)
            return
        with pytest.raises(ConfigError, match=re.escape(failure)):
            check_neighborhoods(config, 43, graph)


class TestEvaluation:
    def test_eval_mode_auto_resolution(self):
        assert tiny_config().resolved_eval_mode() == "local"
        attacked = tiny_config(
            topology={"num_benign": 3, "num_malicious": 1, "edge_prob": 1.0},
            attack={"kind": "gaussian"},
        )
        assert attacked.resolved_eval_mode() == "global"

    def test_round_metrics_accounting(self):
        config = tiny_config(rounds=2, eval_every=1)
        _, rows, _ = _run_seed(config, 43)
        for t in (0, 1, 2):
            round_rows = [row for row in rows if row[0] == t]
            accuracies = [float(row[3]) for row in round_rows]
            for row in round_rows:
                assert float(row[5]) == pytest.approx(float(np.mean(accuracies)))
                assert float(row[6]) == pytest.approx(float(np.var([a * 100 for a in accuracies])))

    @pytest.mark.parametrize("eval_mode", ["local", "global"])
    def test_evaluation_equals_per_vector_functions(self, eval_mode):
        config = tiny_config(
            topology={"num_benign": 5, "num_malicious": 1, "edge_prob": 0.8},
            aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
            attack={"kind": "gaussian", "sigma": 30.0},
            eval_mode=eval_mode,
        )
        state = build_network(config, seed=43)
        for t in (1, 2):
            run_round(state, t)
        accuracies, losses = evaluate_network(state)
        assert len(accuracies) == len(losses) == len(state.benign_ids())
        for k, acc, loss in zip(state.benign_ids(), accuracies, losses):
            model = ParamVector(state.models[k], 3, 6)
            eval_set = aux_set(state, k) if eval_mode == "local" else state.test_data
            assert type(acc) is float and type(loss) is float
            assert acc == evaluate_accuracy(model, eval_set)
            assert loss == evaluate_mean_loss(model, eval_set)

    @pytest.mark.parametrize("eval_mode", ["local", "global"])
    def test_evaluation_equals_per_client_calls(self, eval_mode):
        config = tiny_config(
            dataset={"synthetic": {"num_classes": 4, "feature_dim": 8, "n_per_class": 200,
                                   "spread": 1.0, "seed": 5, "test_n_per_class": 10}},
            scheme={"dirichlet": {"alpha": 0.5}},
            topology={"num_benign": 12, "num_malicious": 0, "edge_prob": 0.7},
            eval_mode=eval_mode,
        )
        state = build_network(config, seed=43)
        assert len({len(state.clients[k].aux) for k in state.benign_ids()}) > 1
        # Random models score differently, so a value in another client's row shows.
        state.models[:] = np.random.default_rng(3).standard_normal(state.models.shape)
        accuracies, losses = evaluate_network(state)
        shared = [group for group in state.plan().groups if len(group.nodes) > 1]
        assert shared and all(len({accuracies[p] for p in group.positions}) == len(group.nodes)
                              for group in shared)
        for k, acc, loss in zip(state.benign_ids(), accuracies, losses):
            eval_set = aux_set(state, k) if eval_mode == "local" else state.test_data
            model = ParamVector(state.models[k], 4, 8)
            assert type(acc) is float and type(loss) is float
            assert acc == evaluate_accuracy(model, eval_set)
            assert loss == evaluate_mean_loss(model, eval_set)

    def test_zero_rounds_reports_initial_metrics(self, tmp_path):
        config = tiny_config(rounds=0, name="t0")
        summary = run_experiment(config, outdir=str(tmp_path))
        rows = (tmp_path / "t0" / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header + one row per benign client at round 0
        assert all(r.split(",")[0] == "0" for r in rows[1:])
        # zero-init model predicts class 0 everywhere
        assert summary.mean_acc == pytest.approx(1.0 / 3.0, abs=0.2)


class TestHeldOutTestSet:
    """Set-up builds or reads the held-out test set only under global evaluation."""

    @pytest.mark.parametrize("attack", [None, {"kind": "gaussian"}], ids=["benign", "attacked"])
    @pytest.mark.parametrize("eval_mode", ["local", "global", "auto"])
    def test_synthetic_test_blobs_drawn_only_for_global_evaluation(self, eval_mode, attack,
                                                                    monkeypatch):
        import dflsim.sim as sim

        config = tiny_config(topology={"num_benign": 3, "num_malicious": 1 if attack else 0,
                                       "edge_prob": 1.0},
                             attack=attack, eval_mode=eval_mode, seeds=[43, 44])
        calls = []
        monkeypatch.setattr(sim, "gen_synthetic_blobs",
                            lambda *args: calls.append(args) or gen_synthetic_blobs(*args))
        states = [build_network(config, seed) for seed in config.seeds]
        monkeypatch.undo()
        wants_test = eval_mode == "global" or (eval_mode == "auto" and attack is not None)
        assert len(calls) == (2 if wants_test else 1) * len(config.seeds)
        for state in states:
            if wants_test:
                assert isinstance(state.test_data, Dataset) and len(state.test_data) == 3 * 20
            else:
                assert state.test_data is None

    def test_idx_test_pair_opened_only_for_global_evaluation(self, tmp_path):
        from test_data import write_idx_pair

        images = np.random.default_rng(0).integers(0, 256, size=(60, 2, 3))
        train_images, train_labels = write_idx_pair(tmp_path, images, [i % 3 for i in range(60)])
        missing = tmp_path / "missing-images.idx"
        idx = {"train_images": train_images, "train_labels": train_labels,
               "test_images": str(missing), "test_labels": str(tmp_path / "missing-labels.idx")}
        config = tiny_config(name="idx-local", dataset={"idx": idx}, eval_mode="local", rounds=2,
                             eval_every=1)
        assert setup_seed(config, 43).test_data is None
        run_experiment(config, outdir=str(tmp_path / "out"))
        assert (tmp_path / "out" / "idx-local" / "metrics.csv").exists()
        with pytest.raises(ConfigError, match=rf"seed 43: .*{re.escape(str(missing))}"):
            setup_seed(replace(config, eval_mode="global"), 43)


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        config = tiny_config(name="artifacts", rounds=2, eval_every=1)
        run_experiment(config, outdir=str(tmp_path))
        run_dir = tmp_path / "artifacts"
        for name in ("config.json", "topology.json", "metrics.csv", "summary.json"):
            assert (run_dir / name).exists(), name

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_parallel_below_one_rejected_before_any_output(self, tmp_path, parallel):
        with pytest.raises(ValueError, match="parallel must be at least 1"):
            run_experiment(tiny_config(name="bad-parallel"), parallel=parallel,
                           outdir=str(tmp_path))
        assert not (tmp_path / "bad-parallel").exists()

    def test_summary_recomputable_from_per_client_values(self, tmp_path):
        config = tiny_config(name="recompute", rounds=3, seeds=[43, 44])
        summary = run_experiment(config, outdir=str(tmp_path))
        per_seed_means = []
        for seed, block in summary.per_seed.items():
            accs = [block["final_accuracies"][k] for k in sorted(block["final_accuracies"])]
            assert block["mean_acc"] == pytest.approx(float(np.mean(accs)))
            per_seed_means.append(block["mean_acc"])
        assert summary.mean_acc == pytest.approx(float(np.mean(per_seed_means)))

    def test_determinism_across_runs_and_workers(self, tmp_path):
        config = tiny_config(name="det", rounds=4, eval_every=2)
        run_experiment(config, parallel=1, outdir=str(tmp_path / "a"))
        run_experiment(config, parallel=4, outdir=str(tmp_path / "b"))
        bytes_a = (tmp_path / "a" / "det" / "metrics.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "det" / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_seed_workers_get_one_blas_thread_unless_set(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        with _seed_pool(1) as pool:
            seen = [pool.submit(os.getenv, var).result(timeout=120)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
        assert seen == ["1", "3"]
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_parallel_seeds_write_the_serial_artifacts(self, tmp_path):
        config = tiny_config(
            name="par", rounds=4, eval_every=2, seeds=[43, 44], export_weights=True,
            topology={"num_benign": 4, "num_malicious": 1, "edge_prob": 1.0},
            aggregator={"dfed_reweighting": {"tpm": "accuracy",
                                             "crs": {"temp_softmax": {"temperature": 0.5}}}},
            attack={"kind": "gaussian", "sigma": 1.0},
        )
        run_experiment(config, parallel=1, outdir=str(tmp_path / "one"))
        run_experiment(config, parallel=2, outdir=str(tmp_path / "two"))
        one, two = tmp_path / "one" / "par", tmp_path / "two" / "par"
        names = sorted(path.name for path in one.iterdir())
        assert names == sorted(path.name for path in two.iterdir())
        assert {"weights_round_2.csv", "weights_round_4.csv"} <= set(names)
        for name in names:
            if name != "summary.json":
                assert (one / name).read_bytes() == (two / name).read_bytes(), name
        summaries = [json.loads((d / "summary.json").read_text()) for d in (one, two)]
        for doc in summaries:
            del doc["wall_clock_sec"]
        assert summaries[0] == summaries[1]
        assert set(summaries[0]["per_seed"]) == {"43", "44"}

    def test_data_conservation_through_run(self, tmp_path):
        config = tiny_config(name="conserve", rounds=3)
        state = build_network(config, seed=43)
        plan = partition_iid(state.train_data, config.topology.num_benign, 43)
        aux_split = split_auxiliary(state.train_data, plan, config.aux_fraction, 43)
        for t in range(1, 4):
            run_round(state, t)
        # client datasets were never replaced or resized
        for k in state.benign_ids():
            client = state.clients[k]
            np.testing.assert_array_equal(client.train, aux_split[k].train)
            np.testing.assert_array_equal(client.aux, aux_split[k].aux)
            np.testing.assert_array_equal(
                state.train_data.features[client.train],
                state.train_data.features[list(aux_split[k].train)])
            np.testing.assert_array_equal(
                state.train_data.features[client.aux],
                state.train_data.features[list(aux_split[k].aux)])
            total = len(client.train) + len(client.aux)
            assert total == len(plan.client_indices[k])

    def test_build_network_keeps_the_split_arrays_and_copies_no_examples(self, monkeypatch):
        import dflsim.sim as sim

        # Dirichlet alpha 0.05 on these blobs leaves four of the nine clients
        # of seed 3 with a single example: three topped up, one dealt it.
        config = tiny_config(
            dataset={"synthetic": {"num_classes": 5, "feature_dim": 3, "n_per_class": 40,
                                   "spread": 1.0, "seed": 22, "test_n_per_class": 10}},
            scheme={"dirichlet": {"alpha": 0.05}},
            topology={"num_benign": 9, "num_malicious": 0, "edge_prob": 1.0},
        )
        splits = []

        def recorded(data, plan, aux_fraction, seed):
            splits.append((plan, split_auxiliary(data, plan, aux_fraction, seed)))
            return splits[-1][1]

        def copied(*args):
            raise AssertionError("build_network copied client examples")

        monkeypatch.setattr(sim, "split_auxiliary", recorded)
        monkeypatch.setattr(Dataset, "subset", copied)
        state = build_network(config, seed=3)
        monkeypatch.undo()
        [(plan, split)] = splits
        singles = 0
        for k in state.benign_ids():
            client = state.clients[k]
            assert client is split[k]
            for idx in (client.train, client.aux):
                assert isinstance(idx, np.ndarray) and idx.dtype == np.int64
                assert not idx.flags.writeable
            np.testing.assert_array_equal(np.union1d(client.train, client.aux),
                                          plan.client_indices[k])
            if len(plan.client_indices[k]) == 1:
                singles += 1
                assert client.train is client.aux
            else:
                assert np.intersect1d(client.train, client.aux).size == 0
        assert singles == 4

    def test_weight_export_gated_by_eval_every(self, tmp_path):
        config = tiny_config(
            name="weights",
            rounds=4,
            eval_every=2,
            export_weights=True,
            topology={"num_benign": 5, "num_malicious": 0, "edge_prob": 0.6},
            aggregator={"dfed_reweighting": {"tpm": "accuracy",
                                             "crs": {"temp_softmax": {"temperature": 0.5}}}},
            seeds=[44, 43],
        )
        run_experiment(config, parallel=1, outdir=str(tmp_path))
        run_dir = tmp_path / "weights"
        assert (run_dir / "weights_round_2.csv").exists()
        assert (run_dir / "weights_round_4.csv").exists()
        assert not (run_dir / "weights_round_3.csv").exists()
        # Rows in file order: seeds in config order, then clients, then members ascending.
        expected = {2: [], 4: []}
        for seed in config.seeds:
            state = build_network(config, seed)
            for t in range(1, 5):
                run_round(state, t)
                if t in expected:
                    expected[t].extend((seed, client, member, w)
                                       for client, row in sorted(state.last_weights.items())
                                       for member, w in sorted(row.items()))
            # Neighborhoods of several sizes, so member order is not the same for every client.
            assert len({len(row) for row in state.last_weights.values()}) > 1
        for t, rows in expected.items():
            header, *lines = (run_dir / f"weights_round_{t}.csv").read_text().splitlines()
            assert header == "seed,client,member,weight"
            written = [line.split(",") for line in lines]
            assert [(int(s), int(c), int(m), float(w)) for s, c, m, w in written] == rows
            assert [w for *_, w in written] == [repr(w) for *_, w in rows]

    def test_per_member_path_exports_the_grouped_rounds_bytes(self, tmp_path, monkeypatch):
        import dflsim.reweight as reweight

        config = tiny_config(
            name="export", rounds=3, eval_every=1, export_weights=True, seeds=[44, 43],
            topology={"num_benign": 8, "num_malicious": 2, "edge_prob": 0.7},
            aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
            attack={"kind": "sign_flip", "factor": -10.0},
        )
        run_experiment(config, outdir=str(tmp_path / "grouped"))
        stock = reweight.compute_tpm
        monkeypatch.setattr(reweight, "compute_tpm", lambda *args: stock(*args))
        assert not reweight.scoring_is_stock()
        run_experiment(config, outdir=str(tmp_path / "each"))
        grouped, each = tmp_path / "grouped" / "export", tmp_path / "each" / "export"
        names = sorted(path.name for path in grouped.glob("*.csv"))
        assert names == ["metrics.csv", *(f"weights_round_{t}.csv" for t in (1, 2, 3))]
        assert sorted(path.name for path in each.glob("*.csv")) == names
        for name in names:
            assert (grouped / name).read_bytes() == (each / name).read_bytes(), name
        assert b",0.0\r\n" in (grouped / "weights_round_3.csv").read_bytes()

    def test_weights_file_holds_the_bytes_csv_writer_writes(self, tmp_path):
        config = tiny_config(name="bytes", rounds=1, eval_every=1, seeds=[44, 43])
        weights = [0.0, -0.0, 1.0, 1e-05, 5e-324, 0.1, 0.12345678901234568]
        clients, members = np.array([0, 0, 0, 1, 1, 2, 2]), np.array([0, 1, 2, 0, 1, 1, 2])
        results = [(*_run_seed(config, seed)[:2], {1: (clients, members, np.array(weights))})
                   for seed in config.seeds]
        _write_run(tmp_path, config, results, time.perf_counter())
        with open(tmp_path / "expected.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["seed", "client", "member", "weight"])
            for seed in config.seeds:
                writer.writerows([seed, client, member, repr(w)] for client, member, w
                                 in zip(clients.tolist(), members.tolist(), weights))
        written = (tmp_path / "weights_round_1.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()
        assert written.count(b"\r\n") == written.count(b"\n") == 1 + 2 * len(weights)
        assert b"\r\n44,0,1,-0.0\r\n" in written and written.endswith(b"43,2,2,0.12345678901234568\r\n")

    def test_summary_json_matches_returned_summary(self, tmp_path):
        config = tiny_config(name="roundtrip", rounds=2)
        summary = run_experiment(config, outdir=str(tmp_path))
        doc = json.loads((tmp_path / "roundtrip" / "summary.json").read_text())
        assert doc["cross_seed"]["mean_acc"] == summary.mean_acc
        assert doc["cross_seed"]["var_points"] == summary.var_points

    def test_outdir_precedence(self, tmp_path, monkeypatch):
        from dflsim.sim import resolve_outdir

        monkeypatch.setenv("DFLSIM_OUTDIR", str(tmp_path / "env"))
        config = tiny_config(name="prec", outdir=str(tmp_path / "cfg"))
        assert resolve_outdir(config, str(tmp_path / "flag")) == tmp_path / "flag" / "prec"
        assert resolve_outdir(config) == tmp_path / "cfg" / "prec"
        no_cfg = tiny_config(name="prec")
        assert resolve_outdir(no_cfg) == tmp_path / "env" / "prec"
        monkeypatch.delenv("DFLSIM_OUTDIR")
        assert resolve_outdir(no_cfg) == Path("runs") / "prec"

    def test_reweighting_snapshot_rows_normalized(self, tmp_path):
        config = tiny_config(
            name="snap",
            rounds=2,
            aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
        )
        state = build_network(config, seed=43)
        run_round(state, 1)
        assert set(state.last_weights) == set(state.benign_ids())
        for client, row in state.last_weights.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(w >= 0 for w in row.values())
