"""The benchmark's workloads: run configs built from a workload seed.

Each workload is a config document for ``dflsim.parse_config``. The default
workload seed reproduces the acceptance seeds exactly (dataset seed 7,
experiment seeds from 43), so its ``metrics.csv`` digest can be pinned.
Any other workload seed derives fresh dataset and experiment seeds from it, so
the topology, partition, aux split and blobs are all regenerated.
"""
from __future__ import annotations

import copy

import numpy as np

DEFAULT_SEED = 0

_DESK_DATASET = {
    "num_classes": 10, "feature_dim": 64, "n_per_class": 200,
    "spread": 3.5, "seed": 7, "test_n_per_class": 100,
}

_DOCS = {
    # configs/robustness_signflip.json: the paper's robustness scenario.
    "desk-lossclip-signflip": {
        "dataset": {"synthetic": _DESK_DATASET},
        "scheme": "iid",
        "topology": {"num_benign": 10, "num_malicious": 2, "edge_prob": 0.7},
        "rounds": 500,
        "aggregator": {"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
        "attack": {"kind": "sign_flip", "factor": -10.0},
        # Four seeds, not the config file's two: TPM work follows each seed's
        # degree sum, and averaging four graphs halves its spread across
        # workload seeds.
        "seeds": [43, 44, 45, 46],
        "eval_every": 50,
    },
    # configs/fairness_labelskew_dfedavg.json: bypasses reweighting entirely.
    "desk-dfedavg-labelskew": {
        "dataset": {"synthetic": _DESK_DATASET},
        "scheme": {"label_skew": {"h": 4}},
        "topology": {"num_benign": 10, "num_malicious": 0, "edge_prob": 0.7},
        "rounds": 500,
        "aggregator": {"baseline": {"kind": "dfedavg"}},
        "attack": None,
        "seeds": [43, 44],
        "eval_every": 50,
    },
    # Larger N: scoring pairs grow with N^2; evaluation and weight export do work.
    "n50-accsoftmax-labelskew": {
        "dataset": {"synthetic": dict(_DESK_DATASET, n_per_class=1000)},
        "scheme": {"label_skew": {"h": 4}},
        "topology": {"num_benign": 50, "num_malicious": 0, "edge_prob": 0.7},
        "aggregator": {
            "dfed_reweighting": {"tpm": "accuracy", "crs": {"temp_softmax": {"temperature": 0.1}}}
        },
        "attack": None,
        # Two 50-round seeds cost one 100-round seed and halve the spread of
        # scoring work across workload seeds.
        "rounds": 50,
        "seeds": [43, 44],
        "eval_every": 5,
        "export_weights": True,
    },
}

WORKLOADS = tuple(_DOCS)


def config_doc(workload: str, seed: int = DEFAULT_SEED) -> dict:
    """The run config document of ``workload`` under workload seed ``seed``."""
    if workload not in _DOCS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    doc = copy.deepcopy(_DOCS[workload])
    doc["name"] = workload
    if seed != DEFAULT_SEED:
        state = np.random.SeedSequence([seed, WORKLOADS.index(workload)]).generate_state(
            1 + len(doc["seeds"])
        )
        derived = [int(x) for x in state]
        doc["dataset"]["synthetic"]["seed"] = derived[0]
        doc["seeds"] = derived[1:]
    return doc
