"""Self-test of the benchmark's instrument on a 3-round tiny config.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Traced call counts must equal their analytic values, tracing must not change
the outputs, and a missing entry point must read as zero calls.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layertrace import Target, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_doc  # noqa: E402

dflsim, sim, topology = run.import_dflsim()

TINY = {
    "name": "bench-selftest",
    "dataset": {"synthetic": {"num_classes": 3, "feature_dim": 4, "n_per_class": 30,
                              "spread": 1.0, "seed": 3, "test_n_per_class": 10}},
    "scheme": "iid",
    "topology": {"num_benign": 5, "num_malicious": 1, "edge_prob": 0.6},
    "rounds": 3,
    "batch_size": 4,
    "local_steps": 2,
    "aggregator": {"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
    "attack": {"kind": "sign_flip", "factor": -10.0},
    "seeds": [1, 2],
    "eval_every": 1,
}
# Streams drawn by build_network: train blobs, test blobs, topology,
# partition and aux split.
SETUP_STREAMS_PER_SEED = 5


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    config = dflsim.parse_config(TINY)
    runner = run.Runner(sim, TINY["name"])
    runner.scratch = tmp_path_factory.mktemp("bench")
    totals = run.new_weight_totals()
    untraced = runner.run(config)
    traced = runner.run(config, run.layer_targets(totals))
    assert runner.failed == 0, runner.notes
    return config, untraced, traced, totals


def test_traced_counts_equal_analytic_values(tiny_runs):
    config, _, traced, _ = tiny_runs
    tracer = traced.tracer
    n, rounds, seeds = config.topology.num_benign, config.rounds, len(config.seeds)
    closed_neighborhoods = sum(
        len(topology.neighbors(state.graph, node)) + 1
        for state in (sim.build_network(config, seed) for seed in config.seeds)
        for node in state.benign_ids()
    )
    assert tracer.calls("reweight.compute_tpm") == rounds * closed_neighborhoods
    assert tracer.calls("core_learning.batch_gradient") == rounds * n * config.local_steps * seeds
    assert tracer.calls("core_learning.sgd_step") == rounds * n * config.local_steps * seeds
    assert tracer.calls("rng.stream") == seeds * (rounds * n + SETUP_STREAMS_PER_SEED)
    assert tracer.calls("sim.run_round") == rounds * seeds
    assert tracer.calls("sim.evaluate_network") == len(run.eval_rounds(config)) * seeds
    assert tracer.calls("attacks.sign_flip_update") == rounds * seeds
    assert tracer.calls("baselines.dfedavg") == 0
    assert tracer.absent == set()


def test_self_time_excludes_children(tiny_runs):
    tracer = tiny_runs[2].tracer
    for layer in tracer.stats:
        assert tracer.self_seconds(layer) >= -1e-9, layer
    assert tracer.seconds("reweight.compute_tpm") >= tracer.seconds("core_learning.evaluate_mean_loss")
    assert tracer.self_seconds("sim.run_experiment") < tracer.seconds("sim.run_experiment")


def test_weight_tallies_cover_every_client_round(tiny_runs):
    config, _, _, totals = tiny_runs
    assert totals["rows"] == config.rounds * config.topology.num_benign * len(config.seeds)
    assert 0 <= totals["zero"] < totals["weights"]


def test_tracing_leaves_outputs_byte_identical(tiny_runs):
    _, untraced, traced, _ = tiny_runs
    assert untraced.metrics_csv == traced.metrics_csv


def test_absent_entry_point_reads_zero_and_originals_are_restored():
    original = sim.batch_gradient
    tracer = Tracer()
    targets = [
        Target("gone.layer", "dflsim.sim", "no_such_function"),
        Target("gone.module", "dflsim.no_such_module", "anything"),
        Target("core_learning.batch_gradient", "dflsim.sim", "batch_gradient"),
    ]
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert sim.batch_gradient is not original
            raise RuntimeError("interrupted run")
    assert sim.batch_gradient is original
    assert tracer.absent == {"gone.layer", "gone.module"}
    assert tracer.calls("gone.layer") == 0
    assert tracer.to_json_dict()["layers"]["gone.module"]["calls"] == 0


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_pinned_digests_match_the_reference_files():
    expected = json.loads((run.BENCH_DIR / "expected.json").read_text())
    assert expected["claim"] is None
    for workload in WORKLOADS:
        data = (run.REFERENCE_DIR / f"{workload}.metrics.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected["digests"][workload]
        assert run.max_deviation(data, data) == 0.0


def test_default_seed_is_the_acceptance_configuration():
    doc = config_doc("desk-lossclip-signflip", DEFAULT_SEED)
    assert doc["seeds"] == [43, 44, 45, 46]
    assert doc["dataset"]["synthetic"]["seed"] == 7
    other = config_doc("desk-lossclip-signflip", 1)
    assert other == config_doc("desk-lossclip-signflip", 1)
    assert other["seeds"] != doc["seeds"] and len(other["seeds"]) == 4
    assert other["dataset"]["synthetic"]["seed"] != 7
