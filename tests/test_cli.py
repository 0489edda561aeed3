import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dflsim import sim
from dflsim.cli import cli_main
from test_data import write_idx_pair

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_config_doc(name="cli-tiny", **overrides):
    doc = {
        "name": name,
        "dataset": {"synthetic": {"num_classes": 3, "feature_dim": 6, "n_per_class": 30,
                                   "spread": 0.5, "seed": 5, "test_n_per_class": 20}},
        "scheme": "iid",
        "topology": {"num_benign": 3, "num_malicious": 0, "edge_prob": 1.0},
        "rounds": 4,
        "aggregator": {"baseline": {"kind": "dfedavg"}},
        "attack": None,
        "seeds": [43],
        "eval_every": 2,
    }
    doc.update(overrides)
    return doc


def alie_sparse_doc(name, seeds):
    """ALIE seeing only its neighbors on sparse graphs: malicious node 9 of seed
    44 has no benign neighbor, and each malicious node of seed 45 has two or more."""
    return tiny_config_doc(
        name=name,
        topology={"num_benign": 8, "num_malicious": 2, "edge_prob": 0.3},
        attack={"kind": "alie", "knowledge": "neighborhood"},
        seeds=seeds,
    )


def overflow_doc(name, seeds):
    """Gaussian payloads of sigma 1e308 under DFedAvg on sparse graphs: the
    malicious node of seed 10 has no benign neighbor, so the run finishes; that
    of seed 44 neighbors clients 4 and 7, and client 4's round-2 average
    overflows."""
    return tiny_config_doc(
        name=name,
        topology={"num_benign": 8, "num_malicious": 1, "edge_prob": 0.3},
        attack={"kind": "gaussian", "sigma": 1e308},
        seeds=seeds,
    )


def ungenerable_doc(aggregator, tmp_path):
    """No edge on 8 benign nodes: seed 10's graph cannot be generated in 5 attempts."""
    return tiny_config_doc(
        name="ungenerable",
        topology={"num_benign": 8, "num_malicious": 0, "edge_prob": 0.0, "max_retries": 5},
        aggregator={"baseline": aggregator},
        seeds=[10],
    )


def uncoverable_doc(aggregator, tmp_path):
    """Label skew with h=1 on 4 clients cannot cover the 10 classes of an IDX
    file: seed 43 cannot be partitioned. A file's classes are known only once
    it is read, so this is a set-up failure; on synthetic data it is a parse-time one."""
    images, labels = write_idx_pair(tmp_path, np.zeros((20, 2, 3)), [i % 10 for i in range(20)])
    return tiny_config_doc(
        name="uncoverable",
        dataset={"idx": {"train_images": images, "train_labels": labels}},
        scheme={"label_skew": {"h": 1}},
        topology={"num_benign": 4, "num_malicious": 0, "edge_prob": 1.0},
        aggregator={"baseline": aggregator},
    )


def write_config(tmp_path, doc, filename="config.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(doc))
    return str(path)


# Config files a check rejects: (id, the file's text, the error printed after "config error: ",
# in which {path} stands for the file's path).
CLI_REJECTED = [
    ("invalid_json", '{"name": "cli-tiny",', "config file {path} is not valid JSON: "),
    ("attack_knowledge",
     json.dumps(tiny_config_doc(attack={"kind": "sign_flip", "knowledge": "neigborhood"})),
     "config.attack.knowledge: expected 'omniscient' or 'neighborhood', got 'neigborhood'\n"),
    ("rounds", json.dumps(tiny_config_doc(rounds=-1)), "config: rounds must be nonnegative\n"),
    ("missing_key", json.dumps({k: v for k, v in tiny_config_doc().items() if k != "aggregator"}),
     "config: missing required key(s) ['aggregator']\n"),
    ("not_an_object", "[]", "config: expected an object\n"),
    ("int_given_float", json.dumps(tiny_config_doc(rounds=10.7)),
     "config.rounds: expected an integer, got 10.7\n"),
    ("float_given_string", json.dumps(tiny_config_doc(learning_rate="0.1")),
     "config.learning_rate: expected a finite number, got '0.1'\n"),
    ("int_given_bool", json.dumps(tiny_config_doc(seeds=[True])),
     "config.seeds[0]: expected an integer, got True\n"),
    ("synthetic_classes",
     json.dumps(tiny_config_doc(dataset={"synthetic": {"num_classes": 1, "n_per_class": 30}})),
     "config.dataset.synthetic: need at least 2 classes\n"),
    ("uncoverable_synthetic",
     json.dumps(tiny_config_doc(dataset={"synthetic": {"num_classes": 10, "n_per_class": 10}},
                                scheme={"label_skew": {"h": 1}},
                                topology={"num_benign": 4, "num_malicious": 0, "edge_prob": 1.0})),
     "config: scheme on dataset.synthetic with topology.num_benign=4: 4 clients x h=1 slots cannot "
     "cover all 10 classes\n"),
    # Label skew deals each of 3 classes to up to ceil(4 x 2 / 3) = 3 clients, more than its 2
    # examples; under Dirichlet, 3 examples cannot give each of 4 clients one.
    ("label_skew_holders",
     json.dumps(tiny_config_doc(dataset={"synthetic": {"num_classes": 3, "n_per_class": 2}},
                                scheme={"label_skew": {"h": 2}},
                                topology={"num_benign": 4, "num_malicious": 0, "edge_prob": 1.0})),
     "config: scheme on dataset.synthetic with topology.num_benign=4: each class has 2 examples, "
     "fewer than the 3 clients one class is dealt to\n"),
    ("dirichlet_examples",
     json.dumps(tiny_config_doc(dataset={"synthetic": {"num_classes": 3, "n_per_class": 1}},
                                scheme={"dirichlet": {"alpha": 0.5}},
                                topology={"num_benign": 4, "num_malicious": 0, "edge_prob": 1.0})),
     "config: scheme on dataset.synthetic with topology.num_benign=4: 3 examples cannot give each "
     "of 4 clients one\n"),
]


class TestValidate:
    def test_shipped_configs_are_valid(self, capsys):
        for name in ("fairness_labelskew.json", "fairness_labelskew_dfedavg.json",
                     "robustness_signflip.json"):
            assert cli_main(["validate", str(REPO_CONFIGS / name)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_shipped_sweep_is_valid(self, capsys):
        assert cli_main(["validate", str(REPO_CONFIGS / "sweep_temperature.json")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"ok: 'temp-sweep-T{t}' is a valid run config" for t in ("0.01", "0.1", "0.5")]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = tiny_config_doc()
        doc["learning_rte"] = 0.1
        code = cli_main(["validate", write_config(tmp_path, doc)])
        assert code == 1
        assert "learning_rte" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("text, message", [row[1:] for row in CLI_REJECTED],
                             ids=[row[0] for row in CLI_REJECTED])
    def test_rejected_config_exits_one_with_its_message(self, tmp_path, capsys, command, text,
                                                         message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli_main([command, str(path), "--outdir", str(tmp_path / "out")]
                        if command == "run" else [command, str(path)]) == 1
        assert f"config error: {message.format(path=path)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_sweep_document_without_a_grid_exits_one(self, tmp_path, capsys, command):
        config = write_config(tmp_path, {"base": tiny_config_doc()}, "sweep.json")
        assert cli_main([command, config]) == 1
        assert ("config error: sweep config must have exactly the keys 'base' and 'grid'\n"
                in capsys.readouterr().err)

    def test_missing_file(self, capsys):
        assert cli_main(["validate", "/nonexistent/config.json"]) == 1

    def test_bad_attack_kind(self, tmp_path, capsys):
        doc = tiny_config_doc(attack={"kind": "teleport"})
        assert cli_main(["validate", write_config(tmp_path, doc)]) == 1


    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_idx_subsample_fraction_out_of_range(self, tmp_path, capsys, command):
        idx = {"train_images": "train-images", "train_labels": "train-labels",
               "subsample_fraction": 2}
        doc = tiny_config_doc(dataset={"idx": idx})
        assert cli_main([command, write_config(tmp_path, doc)]) == 1
        assert "config.dataset.idx: subsample_fraction" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("topology, message", [
        ({"num_benign": 1}, "num_benign must be at least 2"),
        ({"edge_prob": 1.5}, "edge_prob must lie in [0, 1]"),
        ({"num_malicious": -1}, "num_malicious must be nonnegative"),
        ({"max_retries": 0}, "max_retries must be positive"),
    ])
    def test_topology_out_of_range(self, tmp_path, capsys, command, topology, message):
        doc = tiny_config_doc(topology=topology)
        args = [command, write_config(tmp_path, doc)]
        if command == "run":
            args += ["--outdir", str(tmp_path / "out")]
        assert cli_main(args) == 1
        assert f"config.topology: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("tpm, crs", [
        ("loss", {"temp_softmax": {"temperature": 0.1}}),
        ("accuracy", "loss_clip"),
        ("loss", "acc_clip"),
    ])
    def test_wrong_direction_tpm_crs_pairing(self, tmp_path, capsys, command, tpm, crs):
        doc = tiny_config_doc(aggregator={"dfed_reweighting": {"tpm": tpm, "crs": crs}})
        args = [command, write_config(tmp_path, doc)]
        if command == "run":
            args += ["--outdir", str(tmp_path / "out")]
        assert cli_main(args) == 1
        assert "config.aggregator.dfed_reweighting: crs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Seed 43's graph with 10 benign and 2 malicious nodes at edge_prob 0.3 gives
    # benign nodes 0..9 closed neighborhoods of 5, 5, 6, 3, 4, 3, 8, 4, 3 and 2 models.
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("baseline, node, size, rule", [
        ({"kind": "krum", "f": 2}, 3, 3, "Krum(f=2) needs n - f - 2 >= 1 (at least 5)"),
        ({"kind": "multi_krum", "f": 1, "m": 2}, 3, 3,
         "MultiKrum(f=1, m=2) needs n - f - 2 >= 1 and m <= n (at least 4)"),
        ({"kind": "multi_krum", "f": 0, "m": 5}, 3, 3,
         "MultiKrum(f=0, m=5) needs n - f - 2 >= 1 and m <= n (at least 5)"),
        ({"kind": "trimmed_mean", "f": 1}, 9, 2, "TrimmedMean(f=1) needs n > 2f (at least 3)"),
    ])
    def test_baseline_infeasible_for_a_closed_neighborhood(self, tmp_path, capsys, command,
                                                           baseline, node, size, rule):
        doc = tiny_config_doc(
            name="infeasible",
            topology={"num_benign": 10, "num_malicious": 2, "edge_prob": 0.3},
            aggregator={"baseline": baseline},
            attack={"kind": "sign_flip"},
        )
        args = [command, write_config(tmp_path, doc)]
        if command == "run":
            args += ["--outdir", str(tmp_path / "out"), "--quiet"]
        assert cli_main(args) == 1
        assert (f"seed 43: node {node} has a closed neighborhood of {size} models, but {rule}"
                in capsys.readouterr().err)
        if command == "run":
            # Rejected before round 1: no round of the seed was run or recorded.
            run_dir = tmp_path / "out" / "infeasible"
            assert (run_dir / "metrics.csv").read_text().splitlines() == [
                "round,seed,client,acc,loss,mean_acc,var"]
            summary = json.loads((run_dir / "summary.json").read_text())
            assert summary["status"] == "failed" and summary["failed_seed"] == 43

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_neighborhood_alie_infeasible_for_a_malicious_node(self, tmp_path, capsys, command):
        doc = alie_sparse_doc("alie-sparse", [45, 44])
        args = [command, write_config(tmp_path, doc)]
        if command == "run":
            args += ["--outdir", str(tmp_path / "out"), "--quiet"]
        assert cli_main(args) == 1
        assert ("seed 44: malicious node 9 sees 0 benign models, but ALIE(knowledge='neighborhood', "
                "z=None) needs the mean and std of its visible benign models (at least 2)"
                ) in capsys.readouterr().err
        if command == "run":
            # Seed 44 is rejected before its round 1; seed 45 ran as it runs alone.
            run_dir = tmp_path / "out" / "alie-sparse"
            summary = json.loads((run_dir / "summary.json").read_text())
            assert summary["status"] == "failed" and summary["failed_seed"] == 44
            alone = write_config(tmp_path, alie_sparse_doc("alie-sparse", [45]), "alone.json")
            assert cli_main(["run", alone, "--outdir", str(tmp_path / "alone"), "--quiet"]) == 0
            assert ((run_dir / "metrics.csv").read_bytes()
                    == (tmp_path / "alone" / "alie-sparse" / "metrics.csv").read_bytes())

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("baseline, message", [
        ({"kind": "krum", "f": -1}, "f must be nonnegative"),
        ({"kind": "multi_krum", "f": -1}, "f must be nonnegative"),
        ({"kind": "multi_krum", "m": 0}, "m must be positive"),
        ({"kind": "trimmed_mean", "f": -1}, "f must be nonnegative"),
        ({"kind": "flame", "beta": 0}, "beta must be positive"),
    ])
    def test_out_of_range_baseline_parameter(self, tmp_path, capsys, command, baseline, message):
        doc = tiny_config_doc(aggregator={"baseline": baseline})
        args = [command, write_config(tmp_path, doc)]
        if command == "run":
            args += ["--outdir", str(tmp_path / "out"), "--quiet"]
        assert cli_main(args) == 1
        assert f"config error: config.aggregator.baseline: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds, command, flags, repeated", [
        ([43, 44, 43], "validate", [], 43),
        ([43, 44, 43], "run", [], 43),
        ([43], "run", ["--seed-override", "7,8,7"], 7),
    ])
    def test_repeated_seed_rejected(self, tmp_path, capsys, monkeypatch, seeds, command, flags,
                                    repeated):
        monkeypatch.setenv("DFLSIM_OUTDIR", str(tmp_path / "out"))
        config = write_config(tmp_path, tiny_config_doc(seeds=seeds))
        assert cli_main([command, config, *flags]) == 1
        assert f"seeds must be distinct: seed {repeated} is repeated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # An empty override names no seed; it must not fall back to the config's seeds.
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("override", ["", "7,x"])
    def test_seed_override_must_be_integers(self, tmp_path, capsys, command, override):
        doc = tiny_config_doc(name="badseeds")
        if command == "sweep":
            doc = {"base": doc, "grid": {"attack": [None]}}
        out = tmp_path / "out"
        assert cli_main([command, write_config(tmp_path, doc), "--seed-override", override,
                         "--outdir", str(out), "--quiet"]) == 1
        assert f"--seed-override expects integers, got {override!r}" in capsys.readouterr().err
        assert not out.exists()


class TestSetup:
    # validate, run and sweep set every seed up alike (sim.setup_seed), so a seed
    # that cannot be built exits 1 from each, named, whatever the aggregator.
    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("aggregator", [{"kind": "dfedavg"}, {"kind": "krum", "f": 0}],
                             ids=["dfedavg", "krum"])
    @pytest.mark.parametrize("make_doc, seed, message", [
        pytest.param(ungenerable_doc, 10, "failed to generate a graph with a connected benign "
                                          "subgraph after 5 attempts", id="ungenerable"),
        pytest.param(uncoverable_doc, 43, "4 clients x h=1 slots cannot cover all 10 classes",
                     id="uncoverable"),
    ])
    def test_a_seed_that_cannot_be_set_up_exits_one(self, tmp_path, capsys, command, aggregator,
                                                    make_doc, seed, message):
        doc = make_doc(aggregator, tmp_path)
        if command == "sweep":
            doc = {"base": doc, "grid": {}}
        out = tmp_path / "out"
        out.mkdir()
        args = [command, write_config(tmp_path, doc)]
        if command != "validate":
            args += ["--outdir", str(out), "--quiet"]
        assert cli_main(args) == 1
        assert f"config error: seed {seed}: {message}" in capsys.readouterr().err
        if command == "run":
            run_dir = out / doc["name"]
            assert (run_dir / "metrics.csv").read_text().splitlines() == [
                "round,seed,client,acc,loss,mean_acc,var"]
            summary = json.loads((run_dir / "summary.json").read_text())
            assert summary["status"] == "failed" and summary["failed_seed"] == seed
        else:
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_seed_that_cannot_be_set_up_keeps_the_seeds_before_it(self, tmp_path, capsys,
                                                                     workers):
        # With one attempt on 8 benign nodes at edge_prob 0.3, seed 40's graph is
        # connected and seed 41's is not.
        def doc(seeds):
            return tiny_config_doc(
                name="one-attempt",
                topology={"num_benign": 8, "num_malicious": 0, "edge_prob": 0.3,
                          "max_retries": 1},
                seeds=seeds,
            )

        both = write_config(tmp_path, doc([40, 41]))
        assert cli_main(["run", both, "--outdir", str(tmp_path / "both"), "--parallel", workers,
                         "--quiet"]) == 1
        assert "config error: seed 41: failed to generate a graph" in capsys.readouterr().err
        run_dir = tmp_path / "both" / "one-attempt"
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["status"] == "failed" and summary["failed_seed"] == 41
        alone = write_config(tmp_path, doc([40]), "alone.json")
        assert cli_main(["run", alone, "--outdir", str(tmp_path / "alone"), "--quiet"]) == 0
        assert ((run_dir / "metrics.csv").read_bytes()
                == (tmp_path / "alone" / "one-attempt" / "metrics.csv").read_bytes())


class TestUsage:
    def test_unknown_subcommand_exits_one(self, capsys):
        # A name that is no subcommand is a usage error, even with a readable config after it.
        for argv in (["frobnicate"], ["bounds", str(REPO_CONFIGS / "robustness_signflip.json")]):
            assert cli_main(argv) == 1
            assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        doc = tiny_config_doc()
        code = cli_main(["run", write_config(tmp_path, doc), "--warp-speed"])
        assert code == 1

    def test_no_subcommand_exits_one(self):
        assert cli_main([]) == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exits_one(self, tmp_path, capsys, command, parallel):
        doc = tiny_config_doc()
        if command == "sweep":
            doc = {"base": doc, "grid": {"attack": [None]}}
        args = [command, write_config(tmp_path, doc), "--parallel", parallel,
                "--outdir", str(tmp_path / "out"), "--quiet"]
        assert cli_main(args) == 1
        assert f"parallel must be at least 1, got {parallel}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_run_writes_artifacts(self, tmp_path):
        config = write_config(tmp_path, tiny_config_doc())
        code = cli_main(["run", config, "--outdir", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        run_dir = tmp_path / "out" / "cli-tiny"
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "summary.json").exists()

    def test_identical_runs_have_identical_checksums(self, tmp_path):
        config = write_config(tmp_path, tiny_config_doc(name="repeat"))
        digests = []
        for sub in ("x", "y"):
            assert cli_main(["run", config, "--outdir", str(tmp_path / sub),
                             "--quiet"]) == 0
            payload = (tmp_path / sub / "repeat" / "metrics.csv").read_bytes()
            digests.append(hashlib.sha256(payload).hexdigest())
        assert digests[0] == digests[1]

    def test_rounds_and_seed_overrides(self, tmp_path):
        config = write_config(tmp_path, tiny_config_doc(name="override"))
        assert cli_main(["run", config, "--outdir", str(tmp_path / "out"),
                         "--rounds", "2", "--seed-override", "7,8", "--quiet"]) == 0
        rows = (tmp_path / "out" / "override" / "metrics.csv").read_text().splitlines()
        seeds = {row.split(",")[1] for row in rows[1:]}
        rounds = {row.split(",")[0] for row in rows[1:]}
        assert seeds == {"7", "8"}
        assert max(int(r) for r in rounds) == 2

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DFLSIM_OUTDIR", str(tmp_path / "envout"))
        config = write_config(tmp_path, tiny_config_doc(name="envrun"))
        assert cli_main(["run", config, "--quiet"]) == 0
        assert (tmp_path / "envout" / "envrun" / "metrics.csv").exists()


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_seed_under_parallel_exits_two_and_is_named(self, tmp_path, capsys):
        doc = overflow_doc("overflow", [10, 44])
        code = cli_main(["run", write_config(tmp_path, doc), "--outdir", str(tmp_path / "out"),
                         "--parallel", "2", "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite aggregate for client 4 at round 2 (seed 44)" in err

    def test_failing_attack_names_the_malicious_node(self, tmp_path, capsys, monkeypatch):
        def refuse(model, factor):
            raise ValueError("payload refused")

        monkeypatch.setattr(sim, "sign_flip_update", refuse)
        doc = tiny_config_doc(
            name="attack-fails",
            topology={"num_benign": 6, "num_malicious": 1, "edge_prob": 0.3},
            attack={"kind": "sign_flip"},
            seeds=[40],
        )
        code = cli_main(["run", write_config(tmp_path, doc), "--outdir", str(tmp_path / "out"),
                         "--parallel", "1", "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "round 1 failed for seed 40 at node 6: payload refused" in err

    def test_a_failing_local_step_fails_its_round_and_exits_two(self, tmp_path, capsys,
                                                                monkeypatch):
        def refuse(*args):
            raise RuntimeError("step refused")

        monkeypatch.setattr(sim, "stacked_sgd_step", refuse)
        config = write_config(tmp_path, tiny_config_doc(name="step-fails", seeds=[43, 44]))
        code = cli_main(["run", config, "--outdir", str(tmp_path), "--quiet"])
        assert code == 2
        assert ("runtime failure: round 1 failed for seed 43: step refused\n"
                in capsys.readouterr().err)
        summary = json.loads((tmp_path / "step-fails" / "summary.json").read_text())
        assert summary["status"] == "failed" and summary["failed_seed"] == 43
        assert summary["per_seed"] == {}

    def test_a_failing_evaluation_exits_two_naming_its_seed_and_round(self, tmp_path, capsys,
                                                                       monkeypatch):
        original = sim.evaluate_network

        def refuse_seed_44(state):
            if state.seed == 44:
                raise FloatingPointError("overflow encountered in exp")
            return original(state)

        monkeypatch.setattr(sim, "evaluate_network", refuse_seed_44)
        config = write_config(tmp_path, tiny_config_doc(name="eval-fails", seeds=[43, 44]))
        code = cli_main(["run", config, "--outdir", str(tmp_path), "--quiet"])
        assert code == 2
        assert ("runtime failure: evaluation at round 0 failed for seed 44: overflow encountered in exp\n"
                in capsys.readouterr().err)
        summary = json.loads((tmp_path / "eval-fails" / "summary.json").read_text())
        assert summary["status"] == "failed" and summary["failed_seed"] == 44
        assert list(summary["per_seed"]) == ["43"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_seed_keeps_the_seeds_before_it(self, tmp_path, capsys):
        # Seed 10 finishes; seed 44 fails at round 2 (see overflow_doc).
        config = write_config(tmp_path, overflow_doc("overflow", [10, 44]))
        run_dirs = []
        for workers in ("1", "2"):
            outdir = tmp_path / f"p{workers}"
            assert cli_main(["run", config, "--outdir", str(outdir), "--parallel", workers,
                             "--quiet"]) == 2
            run_dirs.append(outdir / "overflow")
        serial, parallel = run_dirs
        rows = (serial / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 8 and {row.split(",")[1] for row in rows} == {"10"}
        assert list(json.loads((serial / "topology.json").read_text())["seeds"]) == ["10"]
        for name in ("config.json", "topology.json", "metrics.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
        summaries = [json.loads((d / "summary.json").read_text()) for d in run_dirs]
        for doc in summaries:
            del doc["wall_clock_sec"]
        assert summaries[0] == summaries[1]
        assert summaries[0]["status"] == "failed" and summaries[0]["failed_seed"] == 44
        assert list(summaries[0]["per_seed"]) == ["10"]
        assert summaries[0]["cross_seed"]["mean_acc"] == summaries[0]["per_seed"]["10"]["mean_acc"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_first_seed_writes_a_summary_without_cross_seed(self, tmp_path):
        doc = overflow_doc("overflow-first", [44, 10])
        assert cli_main(["run", write_config(tmp_path, doc), "--outdir", str(tmp_path),
                         "--quiet"]) == 2
        summary = json.loads((tmp_path / "overflow-first" / "summary.json").read_text())
        assert summary["status"] == "failed" and summary["failed_seed"] == 44
        assert summary["per_seed"] == {} and summary["cross_seed"] is None
        assert (tmp_path / "overflow-first" / "metrics.csv").read_text().splitlines() == [
            "round,seed,client,acc,loss,mean_acc,var"]

    def test_progress_is_one_record_per_evaluated_round_for_any_worker_count(
            self, tmp_path, caplog):
        config = write_config(tmp_path, tiny_config_doc(name="progress", seeds=[44, 43]))
        messages = []
        for workers in ("1", "2"):
            caplog.clear()
            assert cli_main(["run", config, "--outdir", str(tmp_path / workers),
                             "--parallel", workers]) == 0
            messages.append([r.getMessage() for r in caplog.records if r.name == "dflsim.sim"])
        assert messages[0] == messages[1]
        assert [m.split(":")[0] for m in messages[0]] == [
            f"[seed {seed}] round {t}" for seed in (44, 43) for t in (0, 2, 4)]
        caplog.clear()
        assert cli_main(["run", config, "--outdir", str(tmp_path / "q"), "--quiet"]) == 0
        assert not caplog.records


class TestReport:
    def test_report_reproduces_summary_numbers(self, tmp_path, capsys):
        config = write_config(tmp_path, tiny_config_doc(name="rep", seeds=[43, 44]))
        assert cli_main(["run", config, "--outdir", str(tmp_path / "out"),
                         "--quiet"]) == 0
        run_dir = tmp_path / "out" / "rep"
        capsys.readouterr()
        assert cli_main(["report", str(run_dir)]) == 0
        derived = json.loads(capsys.readouterr().out)
        stored = json.loads((run_dir / "summary.json").read_text())
        assert derived["cross_seed"]["mean_acc"] == stored["cross_seed"]["mean_acc"]
        assert derived["cross_seed"]["var_points"] == stored["cross_seed"]["var_points"]
        for seed, block in stored["per_seed"].items():
            assert derived["per_seed"][seed]["mean_acc"] == block["mean_acc"]
            assert derived["per_seed"][seed]["var_points"] == block["var_points"]

    def test_report_prints_the_summary_blocks_with_seeds_out_of_order(self, tmp_path, capsys):
        assert cli_main(["run", str(REPO_CONFIGS / "fairness_labelskew.json"), "--rounds", "3",
                         "--seed-override", "44,45,43", "--outdir", str(tmp_path),
                         "--quiet"]) == 0
        run_dir = tmp_path / "fairness-labelskew"
        capsys.readouterr()
        assert cli_main(["report", str(run_dir)]) == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads((run_dir / "summary.json").read_text())
        assert stored["status"] == "complete"
        assert list(stored["per_seed"]) == ["43", "44", "45"]  # sort_keys; seeds ran 44, 45, 43
        assert printed == {"per_seed": stored["per_seed"], "cross_seed": stored["cross_seed"]}

    @pytest.mark.parametrize("line, error", [
        ("1,43,0,0.5", "expected 7 values, got 4"),
        ("1,43,0,0.5,1.0,0.5,0.0,9", "expected 7 values, got 8"),
        ("1,43,0,high,1.0,0.5,0.0", "could not convert string to float: 'high'"),
        ("1.5,43,0,0.5,1.0,0.5,0.0", "invalid literal for int"),
    ])
    def test_report_rejects_a_malformed_row_naming_file_and_line(self, tmp_path, capsys, line,
                                                                  error):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("round,seed,client,acc,loss,mean_acc,var\n"
                           f"1,43,1,0.5,1.0,0.5,0.0\n{line}\n")
        assert cli_main(["report", str(tmp_path)]) == 1
        assert f"{metrics}, line 3: {error}" in capsys.readouterr().err

    def test_report_rejects_a_wrong_header(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("round,seed,client,acc,loss,mean_acc\n1,43,1,0.5,1.0,0.5\n")
        assert cli_main(["report", str(tmp_path)]) == 1
        assert (f"config error: {metrics}: expected the columns "
                "round,seed,client,acc,loss,mean_acc,var\n" in capsys.readouterr().err)

    def test_report_missing_dir(self, capsys):
        assert cli_main(["report", "/nonexistent/run"]) == 1


class TestSweep:
    def test_temperature_grid(self, tmp_path):
        doc = {
            "base": tiny_config_doc(
                name="sweepy",
                aggregator={"dfed_reweighting": {"tpm": "accuracy",
                                                 "crs": {"temp_softmax": {"temperature": 0.1}}}},
            ),
            "grid": {"temperature": [0.1, 0.5]},
        }
        config = write_config(tmp_path, doc, "sweep.json")
        assert cli_main(["sweep", config, "--outdir", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert (tmp_path / "out" / "sweepy-T0.1" / "summary.json").exists()
        assert (tmp_path / "out" / "sweepy-T0.5" / "summary.json").exists()

    def test_attack_grid(self, tmp_path):
        doc = {
            "base": tiny_config_doc(
                name="atksweep",
                topology={"num_benign": 3, "num_malicious": 1, "edge_prob": 1.0},
            ),
            "grid": {"attack": [None, {"kind": "sign_flip"}]},
        }
        config = write_config(tmp_path, doc, "sweep.json")
        assert cli_main(["sweep", config, "--outdir", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert (tmp_path / "out" / "atksweep-noattack" / "summary.json").exists()
        assert (tmp_path / "out" / "atksweep-attack-sign_flip" / "summary.json").exists()

    @pytest.mark.parametrize("temperatures", [["0.5"], [0.1, True], 0.5, [None]])
    def test_sweep_rejects_non_number_temperature(self, tmp_path, capsys, temperatures):
        doc = {
            "base": tiny_config_doc(
                name="sweepbad",
                aggregator={"dfed_reweighting": {"tpm": "accuracy",
                                                 "crs": {"temp_softmax": {"temperature": 0.1}}}},
            ),
            "grid": {"temperature": temperatures},
        }
        config = write_config(tmp_path, doc, "sweep.json")
        assert cli_main(["sweep", config, "--outdir", str(tmp_path / "out"), "--quiet"]) == 1
        assert "config error: grid.temperature" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, key", [
        ({"temperature": []}, "temperature"),
        ({"attack": []}, "attack"),
        ({"attack": {"kind": "sign_flip"}}, "attack"),
    ])
    def test_sweep_rejects_empty_or_non_list_grid(self, tmp_path, capsys, grid, key):
        doc = {"base": tiny_config_doc(name="sweepempty"), "grid": grid}
        config = write_config(tmp_path, doc, "sweep.json")
        assert cli_main(["sweep", config, "--outdir", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"config error: grid.{key}: expected a nonempty list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_rejects_a_bad_grid_point_before_any_run(self, tmp_path, capsys):
        # The first grid point is valid; the second names an unknown attack.
        doc = {
            "base": tiny_config_doc(
                name="sweeplate",
                topology={"num_benign": 3, "num_malicious": 1, "edge_prob": 1.0},
            ),
            "grid": {"attack": [None, {"kind": "teleport"}]},
        }
        out = tmp_path / "out"
        out.mkdir()
        config = write_config(tmp_path, doc, "sweep.json")
        assert cli_main(["sweep", config, "--outdir", str(out), "--quiet"]) == 1
        assert "config error: grid.attack" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sweep_rejects_unknown_grid_key(self, tmp_path):
        doc = {"base": tiny_config_doc(), "grid": {"q": [0.1]}}
        assert cli_main(["sweep", write_config(tmp_path, doc, "s.json")]) == 1

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_bad_grid_point_is_named_by_its_index(self, tmp_path, capsys, command):
        doc = {"base": tiny_config_doc(name="sweepindex"),
               "grid": {"attack": [None, {"kind": "teleport"}]}}
        out = tmp_path / "out"
        out.mkdir()
        args = [command, write_config(tmp_path, doc, "sweep.json")]
        if command == "sweep":
            args += ["--outdir", str(out), "--quiet"]
        assert cli_main(args) == 1
        assert "config error: grid.attack[1]: expected an object whose 'kind'" in (
            capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_infeasible_sweep_is_rejected_before_any_run(self, tmp_path, capsys, command):
        # Krum with f=2 needs closed neighborhoods of 5 models; node 3 of seed 43 has 3.
        base = tiny_config_doc(
            name="sweepkrum",
            topology={"num_benign": 10, "num_malicious": 2, "edge_prob": 0.3},
            aggregator={"baseline": {"kind": "krum", "f": 2}},
            attack={"kind": "sign_flip", "factor": -10.0},
        )
        doc = {"base": base, "grid": {"attack": [{"kind": "sign_flip"}, {"kind": "alie"}]}}
        out = tmp_path / "out"
        out.mkdir()
        args = [command, write_config(tmp_path, doc, "sweep.json")]
        if command == "sweep":
            args += ["--outdir", str(out), "--quiet"]
        assert cli_main(args) == 1
        assert "seed 43: node 3 has a closed neighborhood of 3 models" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("grid, name", [
        ({"temperature": [0.1, 0.1]}, "dup-T0.1"),
        ({"temperature": [1, 1.0]}, "dup-T1.0"),
        ({"temperature": [0.1], "attack": [None, {"kind": "sign_flip"},
                                           {"kind": "sign_flip", "factor": -2.0}]},
         "dup-T0.1-attack-sign_flip"),
    ])
    def test_runs_sharing_a_name_are_rejected_before_any_run(self, tmp_path, capsys, command,
                                                             grid, name):
        base = tiny_config_doc(
            name="dup",
            topology={"num_benign": 3, "num_malicious": 1, "edge_prob": 1.0},
            aggregator={"dfed_reweighting": {"tpm": "accuracy",
                                             "crs": {"temp_softmax": {"temperature": 0.1}}}},
        )
        out = tmp_path / "out"
        out.mkdir()
        args = [command, write_config(tmp_path, {"base": base, "grid": grid}, "sweep.json")]
        if command == "sweep":
            args += ["--outdir", str(out), "--quiet"]
        assert cli_main(args) == 1
        assert f"config error: grid: more than one run is named {name!r}" in (
            capsys.readouterr().err)
        assert list(out.iterdir()) == []
