import json
import re
import warnings
from dataclasses import MISSING, fields, is_dataclass, replace
from enum import Enum
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from dflsim import rng
from dflsim.attacks import ALIE, Gaussian, Knowledge, SignFlip
from dflsim.baselines import Flame, Krum, MultiKrum, TrimmedMean
from dflsim.config import (
    ATTACKS,
    BASELINES,
    CRSS,
    DATASETS,
    SCHEMES,
    ConfigError,
    DFedReweightingSpec,
    RunConfig,
    SweepGrid,
    SyntheticSpec,
    _build,
    _encode,
    _FAMILIES,
    _Kinded,
    _non_null,
    config_to_json_dict,
    parse_config,
    parse_sweep,
)
from dflsim.data import Dirichlet, LabelSkew
from dflsim.reweight import LossClip, TargetMetricKind
from dflsim.sim import SimulationError, _run_seed, _stratified_subsample
from dflsim.topology import TopologyShape
from test_data import write_idx_pair


def minimal_doc(**overrides):
    doc = {
        "name": "defaults",
        "dataset": {"synthetic": {}},
        "scheme": "iid",
        "aggregator": {"baseline": {"kind": "dfedavg"}},
    }
    doc.update(overrides)
    return doc


class TestDefaults:
    def test_run_defaults(self):
        config = parse_config(minimal_doc())
        assert config.rounds == 500
        assert config.learning_rate == 0.01
        assert config.batch_size == 32
        assert config.local_steps == 1
        assert config.aux_fraction == 0.2
        assert config.seeds == (43, 44, 45, 46)
        assert config.eval_every == 10
        assert config.attack is None

    def test_topology_defaults(self):
        config = parse_config(minimal_doc())
        assert config.topology.num_benign == 10
        assert config.topology.num_malicious == 2
        assert config.topology.edge_prob == 0.7
        assert config.topology.max_retries == 1000

    def test_attack_defaults(self):
        assert Gaussian().sigma == 30.0
        assert SignFlip().factor == -10.0
        assert ALIE().z is None
        gaussian = parse_config(minimal_doc(attack={"kind": "gaussian"}))
        assert gaussian.attack == Gaussian(30.0)
        assert gaussian.attack.knowledge == "omniscient"
        flip = parse_config(minimal_doc(attack={"kind": "sign_flip"}))
        assert flip.attack == SignFlip(-10.0)

    def test_baseline_defaults(self):
        assert Krum().f == 2
        assert MultiKrum() == MultiKrum(f=2, m=2)
        assert TrimmedMean().f == 2
        assert Flame() == Flame(beta=1.0, include_self=True)
        krum = parse_config(minimal_doc(aggregator={"baseline": {"kind": "krum"}}))
        assert krum.aggregator == Krum(f=2)


class TestParsing:
    def test_scheme_variants(self):
        assert parse_config(minimal_doc(scheme={"dirichlet": {"alpha": 0.1}})).scheme == Dirichlet(0.1)
        assert parse_config(minimal_doc(scheme={"label_skew": {"h": 4}})).scheme == LabelSkew(4)

    def test_rejects_unknown_nested_key(self):
        doc = minimal_doc()
        doc["dataset"] = {"synthetic": {"num_classes": 3, "wiggle": 1}}
        with pytest.raises(ConfigError, match="wiggle"):
            parse_config(doc)

    def test_rejects_two_dataset_sources(self):
        doc = minimal_doc()
        doc["dataset"] = {"synthetic": {}, "idx": {"train_images": "a", "train_labels": "b"}}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_rejects_bad_crs(self):
        doc = minimal_doc(aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "mean_clip"}})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_doc(seeds=[]))

    def test_rejects_bad_eval_mode(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_doc(eval_mode="sideways"))


# Temp-softmax and acc-clip favour high metric values, loss-clip low ones.
PAIRINGS = [
    ("accuracy", {"temp_softmax": {"temperature": 0.1}}, True),
    ("accuracy", "acc_clip", True),
    ("loss", "loss_clip", True),
    ("loss", {"temp_softmax": {"temperature": 0.1}}, False),
    ("loss", "acc_clip", False),
    ("accuracy", "loss_clip", False),
]


@pytest.mark.parametrize("tpm, crs, ok", PAIRINGS)
def test_tpm_crs_pairing_must_optimise_the_right_direction(tpm, crs, ok):
    doc = minimal_doc(aggregator={"dfed_reweighting": {"tpm": tpm, "crs": crs}})
    if ok:
        assert parse_config(doc).aggregator.tpm.value == tpm
        return
    want = "loss" if crs == "loss_clip" else "accuracy"
    name = crs if isinstance(crs, str) else "temp_softmax"
    with pytest.raises(ConfigError, match=re.escape(
            f"config.aggregator.dfed_reweighting: crs '{name}' requires tpm '{want}', "
            f"got '{tpm}'")):
        parse_config(doc)


# Each value has the wrong type for its field; the error must name its JSON path.
MISTYPED = [
    ("config.aggregator.baseline.include_self",
     {"aggregator": {"baseline": {"kind": "flame", "include_self": "false"}}}),
    ("config.export_weights", {"export_weights": "false"}),
    ("config.rounds", {"rounds": 10.7}),
    ("config.aggregator.baseline.f", {"aggregator": {"baseline": {"kind": "krum", "f": 2.9}}}),
    ("config.learning_rate", {"learning_rate": float("nan")}),
    ("config.topology.edge_prob", {"topology": {"edge_prob": "high"}}),
    ("config.topology.num_benign", {"topology": {"num_benign": 2.5}}),
    ("config.aggregator.dfed_reweighting.crs.temp_softmax.temperature",
     {"aggregator": {"dfed_reweighting": {"tpm": "accuracy",
                                          "crs": {"temp_softmax": {"temperature": True}}}}}),
    ("config.attack.sigma", {"attack": {"kind": "gaussian", "sigma": float("inf")}}),
    ("config.name", {"name": 5}),
    ("config.seeds[0]", {"seeds": [1.5]}),
    ("config.seeds", {"seeds": []}),
    ("config.batch_size", {"batch_size": True}),
    ("config.local_steps", {"local_steps": 1.0}),
    ("config.eval_every", {"eval_every": "5"}),
    ("config.aux_fraction", {"aux_fraction": "0.5"}),
    ("config.eval_mode", {"eval_mode": 3}),
    ("config.outdir", {"outdir": 5}),
    ("config.topology.num_malicious", {"topology": {"num_malicious": True}}),
    ("config.scheme.label_skew.h", {"scheme": {"label_skew": {"h": 2.5}}}),
    ("config.scheme.dirichlet.alpha", {"scheme": {"dirichlet": {"alpha": "1"}}}),
    ("config.dataset.synthetic.num_classes", {"dataset": {"synthetic": {"num_classes": 3.0}}}),
    ("config.dataset.synthetic.seed", {"dataset": {"synthetic": {"seed": False}}}),
    ("config.attack.factor", {"attack": {"kind": "sign_flip", "factor": "big"}}),
    ("config.attack.z", {"attack": {"kind": "alie", "z": "1"}}),
]


@pytest.mark.parametrize("path, override", MISTYPED, ids=[path for path, _ in MISTYPED])
def test_mistyped_value_is_rejected_with_its_path(path, override):
    with pytest.raises(ConfigError, match=re.escape(f"{path}: expected")):
        parse_config(minimal_doc(**override))


@pytest.mark.parametrize("doc", [[], [minimal_doc()], "config", 3, None],
                         ids=["empty_list", "list", "string", "number", "null"])
def test_document_that_is_not_an_object_is_rejected(doc):
    with pytest.raises(ConfigError, match="^config: expected an object$"):
        parse_config(doc)


def doc_without(key):
    return {k: v for k, v in minimal_doc().items() if k != key}


TEMP_SOFTMAX = {"dfed_reweighting": {"tpm": "accuracy", "crs": {"temp_softmax": {"temperature": 1}}}}

# Well-typed documents that a check still rejects: (id, parser, document, the whole message).
REJECTED = [
    ("rounds", parse_config, minimal_doc(rounds=-1), "config: rounds must be nonnegative"),
    ("learning_rate", parse_config, minimal_doc(learning_rate=0),
     "config: learning_rate must be positive"),
    ("batch_size", parse_config, minimal_doc(batch_size=0), "config: batch_size must be positive"),
    ("local_steps", parse_config, minimal_doc(local_steps=0),
     "config: local_steps must be positive"),
    ("aux_fraction", parse_config, minimal_doc(aux_fraction=1),
     "config: aux_fraction must lie strictly between 0 and 1"),
    ("eval_every", parse_config, minimal_doc(eval_every=0), "config: eval_every must be positive"),
    ("eval_mode", parse_config, minimal_doc(eval_mode="both"),
     "config: eval_mode must be 'local', 'global', or 'auto'"),
    ("name_empty", parse_config, minimal_doc(name=""),
     "config: name must be a relative path whose components are not empty, '.' or '..', "
     "got ''"),
    ("name_parent", parse_config, minimal_doc(name="../escape"),
     "config: name must be a relative path whose components are not empty, '.' or '..', "
     "got '../escape'"),
    ("name_absolute", parse_config, minimal_doc(name="/tmp/abs-escape"),
     "config: name must be a relative path whose components are not empty, '.' or '..', "
     "got '/tmp/abs-escape'"),
    ("name_dot", parse_config, minimal_doc(name="a/./b"),
     "config: name must be a relative path whose components are not empty, '.' or '..', "
     "got 'a/./b'"),
    ("test_n_per_class", parse_config,
     minimal_doc(dataset={"synthetic": {"test_n_per_class": 0}}, eval_mode="global"),
     "config: global evaluation requires a positive test_n_per_class"),
    ("synthetic_num_classes", parse_config, minimal_doc(dataset={"synthetic": {"num_classes": 1}}),
     "config.dataset.synthetic: need at least 2 classes"),
    ("synthetic_feature_dim", parse_config, minimal_doc(dataset={"synthetic": {"feature_dim": 0}}),
     "config.dataset.synthetic: feature_dim must be positive"),
    ("synthetic_n_per_class", parse_config, minimal_doc(dataset={"synthetic": {"n_per_class": 0}}),
     "config.dataset.synthetic: n_per_class must be positive"),
    ("synthetic_spread", parse_config, minimal_doc(dataset={"synthetic": {"spread": -1}}),
     "config.dataset.synthetic: spread must be nonnegative"),
    ("label_skew_h", parse_config,
     minimal_doc(dataset={"synthetic": {"num_classes": 3}}, scheme={"label_skew": {"h": 4}}),
     "config: scheme on dataset.synthetic with topology.num_benign=10: h=4 exceeds the number of "
     "classes 3"),
    ("label_skew_slots", parse_config,
     minimal_doc(scheme={"label_skew": {"h": 2}}, topology={"num_benign": 4}),
     "config: scheme on dataset.synthetic with topology.num_benign=4: 4 clients x h=2 slots cannot "
     "cover all 10 classes"),
    ("label_skew_holders", parse_config,
     minimal_doc(dataset={"synthetic": {"num_classes": 3, "n_per_class": 2}},
                 scheme={"label_skew": {"h": 2}}, topology={"num_benign": 4}),
     "config: scheme on dataset.synthetic with topology.num_benign=4: each class has 2 examples, "
     "fewer than the 3 clients one class is dealt to"),
    ("dirichlet_examples", parse_config,
     minimal_doc(dataset={"synthetic": {"num_classes": 3, "n_per_class": 1}},
                 scheme={"dirichlet": {"alpha": 1}}, topology={"num_benign": 4}),
     "config: scheme on dataset.synthetic with topology.num_benign=4: 3 examples cannot give each "
     "of 4 clients one"),
    ("iid_n_per_class", parse_config,
     minimal_doc(dataset={"synthetic": {"n_per_class": 9}}),
     "config: scheme on dataset.synthetic with topology.num_benign=10: class 0 has 9 examples, "
     "fewer than 10 clients"),
    ("missing_key", parse_config, doc_without("scheme"),
     "config: missing required key(s) ['scheme']"),
    ("attack_not_an_object", parse_config, minimal_doc(attack="sign_flip"),
     "config.attack: expected an object whose 'kind' is one of ['alie', 'gaussian', "
     "'sign_flip'], got 'sign_flip'"),
    ("attack_knowledge", parse_config,
     minimal_doc(attack={"kind": "sign_flip", "knowledge": "neigborhood"}),
     "config.attack.knowledge: expected 'omniscient' or 'neighborhood', got 'neigborhood'"),
    ("sweep_keys", parse_sweep, {"base": minimal_doc()},
     "sweep config must have exactly the keys 'base' and 'grid'"),
    ("sweep_temperature", parse_sweep, {"base": minimal_doc(), "grid": {"temperature": [0.5]}},
     "temperature sweep requires a dfed_reweighting/temp_softmax aggregator"),
    ("sweep_attack_knowledge", parse_sweep,
     {"base": minimal_doc(aggregator=TEMP_SOFTMAX),
      "grid": {"attack": [{"kind": "alie", "knowledge": "all"}]}},
     "grid.attack[0].knowledge: expected 'omniscient' or 'neighborhood', got 'all'"),
]


@pytest.mark.parametrize("parse, doc, message", [row[1:] for row in REJECTED],
                         ids=[row[0] for row in REJECTED])
def test_rejected_document_names_its_check(parse, doc, message):
    with pytest.raises(ConfigError) as excinfo:
        parse(doc)
    assert str(excinfo.value) == message


def test_empty_seeds_are_rejected_when_replaced():
    # The parser rejects an empty list before RunConfig sees it; replace() reaches the check.
    with pytest.raises(ConfigError, match="^seeds must be nonempty$"):
        replace(parse_config(minimal_doc()), seeds=())


@pytest.mark.parametrize("kind", ATTACKS.values(), ids=ATTACKS.keys())
def test_every_attack_kind_rejects_unknown_knowledge(kind):
    assert kind().knowledge == "omniscient"
    assert kind(knowledge="neighborhood").knowledge == "neighborhood"
    with pytest.raises(ValueError, match=re.escape(
            "knowledge: expected 'omniscient' or 'neighborhood', got 'neigborhood'")):
        kind(knowledge="neigborhood")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_nan_and_infinity_literals_are_rejected(literal):
    synthetic = json.loads(f'{{"spread": {literal}}}')
    with pytest.raises(ConfigError, match=re.escape("config.dataset.synthetic.spread: expected")):
        parse_config(minimal_doc(dataset={"synthetic": synthetic}))


def test_ints_in_float_fields_are_stored_as_floats():
    config = parse_config(minimal_doc(learning_rate=1, topology={"edge_prob": 1}))
    assert type(config.learning_rate) is float and type(config.topology.edge_prob) is float


class TestParseTimeChecks:
    """Configs that cannot run are rejected by the parser, before any network is built."""

    @pytest.mark.parametrize("extra, message", [
        ({"subsample_fraction": 2}, "subsample_fraction must lie in"),
        ({"subsample_fraction": 0}, "subsample_fraction must lie in"),
        ({"test_images": "t10k-images"}, "test_images and test_labels must be given together"),
        ({"test_labels": "t10k-labels"}, "test_images and test_labels must be given together"),
    ])
    def test_idx_spec(self, extra, message):
        idx = {"train_images": "train-images", "train_labels": "train-labels", **extra}
        with pytest.raises(ConfigError, match=f"config.dataset.idx: {message}"):
            parse_config(minimal_doc(dataset={"idx": idx}))

    @pytest.mark.parametrize("override", [
        {"eval_mode": "global"},
        {"attack": {"kind": "sign_flip"}},  # "auto" resolves to global under attack
    ])
    def test_global_eval_needs_a_test_split(self, override):
        idx = {"train_images": "train-images", "train_labels": "train-labels"}
        with pytest.raises(ConfigError, match="global evaluation requires a test dataset"):
            parse_config(minimal_doc(dataset={"idx": idx}, **override))
        idx.update(test_images="t10k-images", test_labels="t10k-labels")
        parse_config(minimal_doc(dataset={"idx": idx}, **override))

    def test_local_eval_takes_any_test_n_per_class(self):
        # Local evaluation never builds the synthetic test set.
        synthetic = {"synthetic": {"test_n_per_class": 0}}
        assert parse_config(minimal_doc(dataset=synthetic)).resolved_eval_mode() == "local"

    def test_nested_relative_name_is_allowed(self):
        assert parse_config(minimal_doc(name="a/b")).name == "a/b"

    @pytest.mark.parametrize("overrides", [
        {"dataset": {"synthetic": {"n_per_class": 10}}},
        {"scheme": {"label_skew": {"h": 10}}},
        {"scheme": {"label_skew": {"h": 5}}, "topology": {"num_benign": 2}},
        {"dataset": {"synthetic": {"num_classes": 3, "n_per_class": 3}},
         "scheme": {"label_skew": {"h": 2}}, "topology": {"num_benign": 4}},
        {"dataset": {"synthetic": {"n_per_class": 1}}, "scheme": {"dirichlet": {"alpha": 1}}},
    ], ids=["iid", "label_skew_h", "label_skew_slots", "label_skew_holders", "dirichlet"])
    def test_partition_rules_accept_their_boundaries(self, overrides):
        parse_config(minimal_doc(**overrides))

    def test_idx_data_leaves_partition_rules_to_set_up(self):
        # The classes of an IDX file are known only once it is read.
        idx = {"train_images": "train-images", "train_labels": "train-labels"}
        parse_config(minimal_doc(dataset={"idx": idx}, scheme={"label_skew": {"h": 50}},
                                 eval_mode="local"))


_SAMPLE = {int: 3, float: 0.5, str: "x", bool: False, Knowledge: "neighborhood"}


def field_walk(cls, fill):
    """(name, type) of cls's required (fill="required") or all (fill="all") fields;
    an `X | None` field is typed X."""
    hints = get_type_hints(cls)
    return [(f.name, _non_null(hints[f.name])) for f in fields(cls)
            if fill == "all" or f.default is MISSING]


def sample_spec(cls, fill):
    """A cls whose required (fill="required") or all (fill="all") fields take sample values."""
    return cls(**{name: _SAMPLE[t] for name, t in field_walk(cls, fill)})


# family -> (registry table, how a spec of that family goes into a RunConfig)
FAMILIES = {
    # Three benign clients, so that IID finds an example of each class for each.
    "dataset": (DATASETS, lambda config, spec: replace(
        config, dataset=spec, topology=TopologyShape(num_benign=3))),
    "scheme": (SCHEMES, lambda config, spec: replace(config, scheme=spec)),
    "crs": (CRSS, lambda config, spec: replace(config, aggregator=DFedReweightingSpec(
        TargetMetricKind.LOSS_ON_AUX if isinstance(spec, LossClip) else
        TargetMetricKind.ACCURACY_ON_AUX, spec))),
    "baseline": (BASELINES, lambda config, spec: replace(config, aggregator=spec)),
    "attack": (ATTACKS, lambda config, spec: replace(config, attack=spec)),
}


@pytest.mark.parametrize("fill", ["required", "all"])
@pytest.mark.parametrize("family, name", [
    (family, name) for family, (table, _) in FAMILIES.items() for name in table
])
def test_every_registered_kind_round_trips(family, name, fill):
    table, place = FAMILIES[family]
    config = place(parse_config(minimal_doc()), sample_spec(table[name], fill))
    echo = config_to_json_dict(config)
    assert parse_config(echo) == config
    again = config_to_json_dict(parse_config(echo))
    assert json.dumps(again, sort_keys=True) == json.dumps(echo, sort_keys=True)


def test_echo_shapes():
    """The two documented JSON shapes: named families and kinded baselines/attacks."""
    idx = {"train_images": "train-images", "train_labels": "train-labels"}
    echo = config_to_json_dict(parse_config(minimal_doc(
        dataset={"idx": idx},
        scheme={"dirichlet": {"alpha": 1}},
        aggregator={"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
        attack={"kind": "alie"},
        eval_mode="local",
    )))
    assert echo["dataset"] == {"idx": dict(idx, subsample_seed=0)}  # null fields left out
    assert echo["scheme"] == {"dirichlet": {"alpha": 1.0}}
    assert echo["aggregator"] == {"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}}
    assert echo["attack"] == {"kind": "alie", "z": None, "knowledge": "omniscient"}
    assert echo["outdir"] is None
    krum = config_to_json_dict(parse_config(minimal_doc(aggregator={"baseline": {"kind": "krum"}})))
    assert krum["aggregator"] == {"baseline": {"kind": "krum", "f": 2}}
    assert krum["scheme"] == "iid" and krum["attack"] is None


def test_sweep_runs_are_named_temperature_outer_attack_inner():
    base = minimal_doc(name="grid", aggregator={
        "dfed_reweighting": {"tpm": "accuracy", "crs": {"temp_softmax": {"temperature": 0.1}}}})
    runs = parse_sweep({"base": base, "grid": {"temperature": [0.5, 2],
                                               "attack": [None, {"kind": "sign_flip"}]}})
    assert [run.name for run in runs] == [
        "grid-T0.5-noattack", "grid-T0.5-attack-sign_flip",
        "grid-T2.0-noattack", "grid-T2.0-attack-sign_flip"]
    assert [run.aggregator.crs.temperature for run in runs] == [0.5, 0.5, 2.0, 2.0]
    assert [run.attack for run in runs] == [None, SignFlip()] * 2
    assert parse_sweep({"base": base, "grid": {}}) == (parse_config(base),)


def test_sweep_grid_must_be_an_object():
    with pytest.raises(ConfigError, match=re.escape("grid: expected an object")):
        parse_sweep({"base": minimal_doc(), "grid": []})


def test_null_tuple_element_decodes_and_echoes():
    doc = {"attack": [None, {"kind": "sign_flip", "factor": -2.0, "knowledge": "neighborhood"}]}
    grid = _build(SweepGrid, doc, "grid")
    assert grid == SweepGrid(attack=(None, SignFlip(-2.0, knowledge="neighborhood")))
    assert _encode(SweepGrid, grid) == {"temperature": None, "attack": [
        None, {"kind": "sign_flip", "factor": -2.0, "knowledge": "neighborhood"}]}


# The fuzzer's values: per field name, else per type, each a pair (values the
# field's own rule accepts, values it rejects). The domains are small, so that
# a run takes milliseconds, and reach each rule's boundary.
FUZZ_FIELDS = {
    "name": (["fuzz", "fuzz/a"], ["", "../up"]),
    "num_classes": ([2, 3, 4, 6], [1]), "feature_dim": ([1, 3, 8], [0]),
    "n_per_class": ([1, 3, 10, 20], [0]), "spread": ([0.0, 1.0, 3.5], [-1.0]),
    "test_n_per_class": ([1, 4], [0]),
    # IDX files the test writes, with uneven classes, and one that is absent.
    "train_images": (["train-images.idx", "absent.idx"], []), "train_labels": (["train-labels.idx"], []),
    "test_images": (["test-images.idx"], []), "test_labels": (["test-labels.idx"], []),
    "subsample_fraction": ([0.5, 1.0], [0.0, 1.5]),
    "h": ([1, 2, 3, 5], [0]), "alpha": ([0.1, 1.0, 100.0], [0.0]),
    "num_benign": ([2, 3, 5, 8], [1]), "num_malicious": ([0, 1, 3], [-1]),
    "edge_prob": ([0.0, 0.3, 0.7, 1.0], [1.5]), "max_retries": ([1, 20], [0]),
    "rounds": ([0, 1, 3], [-1]), "learning_rate": ([0.01, 0.5, 1e300], [0.0]),
    "batch_size": ([1, 4, 50], [0]), "local_steps": ([1, 2], [0]),
    "aux_fraction": ([0.2, 0.5], [0.0, 1.0]), "seeds": ([[43], [43, 44]], [[], [43, 43]]),
    "eval_every": ([1, 2], [0]), "eval_mode": (["local", "global", "auto"], ["none"]),
    "outdir": (["fuzz-out"], []),
    "temperature": ([0.1, 10.0], [0.0]), "f": ([0, 1, 2, 4], [-1]), "m": ([1, 2, 4], [0]),
    "beta": ([0.5, 1.0], [0.0]), "sigma": ([30.0, 1e300], [0.0]), "factor": ([-10.0, 0.0, 1.0], []),
    "z": ([0.0, 1.0, 5.0], [-1.0]),
}
FUZZ_TYPES = {int: ([0, 1, 3], [-1]), float: ([0.5, 2.0], [-1.0]), bool: ([False, True], [])}
# How often a field takes a value its rule rejects.
FUZZ_REJECTED = 0.02
# Fields always given: the defaults of most are the paper's scale, too slow to
# run a few hundred times, and an IDX test set's two files go together.
FUZZ_GIVEN = {"rounds", "num_classes", "feature_dim", "n_per_class", "test_n_per_class", "num_benign",
              "test_images", "test_labels"}

# The set-up messages of the rules parse_config checks on a synthetic dataset
# (data.check_blobs, check_label_skew, check_iid, check_dirichlet, and the
# label-skew holder count those decide).
PARSE_TIME_MESSAGES = re.compile("|".join([
    "need at least 2 classes", "feature_dim must be positive", "n_per_class must be positive",
    "spread must be nonnegative", "exceeds the number of classes", "slots cannot cover all",
    "clients one class is dealt to", r"examples for \d+ holders", r"fewer than \d+ clients",
    "cannot give each of",
]))


def fuzz_json(gen, t, name=None):
    """A random JSON value for a field of type t named name: from the field's
    or type's domain, else a family member, a spec object walked field by
    field, a Literal's value or an Enum's. An optional field not in FUZZ_GIVEN
    is given in half the draws."""
    def pick(values):
        return values[gen.integers(len(values))]

    if name in FUZZ_FIELDS or t in FUZZ_TYPES:
        accepted, rejected = FUZZ_FIELDS.get(name) or FUZZ_TYPES[t]
        return pick(rejected if rejected and gen.random() < FUZZ_REJECTED else accepted)
    if t in _FAMILIES:
        family = _FAMILIES[t]
        kind = pick(sorted(family.table))
        body = fuzz_json(gen, family.table[kind])
        return {"kind": kind, **body} if isinstance(family, _Kinded) else {kind: body}
    if is_dataclass(t):
        required = {field for field, _ in field_walk(t, "required")}
        return {field: fuzz_json(gen, ft, field) for field, ft in field_walk(t, "all")
                if field in required or field in FUZZ_GIVEN or gen.random() < 0.5}
    if get_origin(t) is Literal:
        return pick(get_args(t))
    return pick([member.value for member in t])


def test_fuzzed_configs_are_rejected_at_parse_time_or_set_up_or_run(tmp_path, monkeypatch):
    """Each config is rejected by parse_config, or rejected at set-up with a
    ConfigError that names its seed, or runs its rounds, where a round that
    fails raises a SimulationError naming its seed and round. No other
    exception escapes, and no set-up rejection of a synthetic dataset is one
    a parse-time rule covers."""
    monkeypatch.chdir(tmp_path)
    pixels = rng.stream(18, purpose="test").integers(0, 256, size=(40, 2, 2))
    write_idx_pair(tmp_path, pixels[:32], np.repeat(np.arange(4), [12, 9, 3, 8]), prefix="train-")
    write_idx_pair(tmp_path, pixels[32:], np.repeat(np.arange(4), 2), prefix="test-")
    gen = rng.stream(17, purpose="test")
    outcomes = {"parse": 0, "set-up": 0, "round": 0, "ran": 0}
    for _ in range(400):
        doc = fuzz_json(gen, RunConfig)
        try:
            config = parse_config(doc)
        except ConfigError:
            outcomes["parse"] += 1
            continue
        outcome = "ran"
        for seed in config.seeds:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    _run_seed(config, seed)
            except ConfigError as exc:
                assert str(exc).startswith(f"seed {seed}: "), doc
                assert not (isinstance(config.dataset, SyntheticSpec)
                            and PARSE_TIME_MESSAGES.search(str(exc))), (doc, str(exc))
                outcome = "set-up"
            except SimulationError as exc:
                assert f"seed {seed}" in str(exc) and "round" in str(exc), (doc, str(exc))
                outcome = "round"
            if outcome != "ran":
                break
        outcomes[outcome] += 1
    assert min(outcomes.values()) > 0, outcomes


class TestSubsample:
    def test_stratified_fraction(self):
        from dflsim.data import gen_synthetic_blobs

        data = gen_synthetic_blobs(5, 4, 40, 1.0, seed=9)
        sub = _stratified_subsample(data, 0.25, seed=3)
        np.testing.assert_array_equal(np.bincount(sub.labels, minlength=5), np.full(5, 10))

    def test_deterministic(self):
        from dflsim.data import gen_synthetic_blobs

        data = gen_synthetic_blobs(3, 4, 20, 1.0, seed=9)
        a = _stratified_subsample(data, 0.5, seed=4)
        b = _stratified_subsample(data, 0.5, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
