"""Run configuration: typed experiment description plus strict JSON parsing.

The JSON schema is documented in the README. Parsing and the canonical echo
both walk the spec dataclasses' fields; unknown keys and values that do not
match a field's annotation are rejected with their JSON path.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints

from .attacks import ALIE, AttackKind, Gaussian, SignFlip
from .baselines import BaselineKind, DFedAvg, Flame, Krum, Median, MultiKrum, TrimmedMean
from .data import IID, Dirichlet, HeterogeneityScheme, LabelSkew
from .reweight import AccClip, CRSKind, LossClip, TargetMetricKind, TempSoftmax
from .topology import TopologyShape


class ConfigError(ValueError):
    """Configuration file does not match the schema."""


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 10
    feature_dim: int = 64
    n_per_class: int = 200
    spread: float = 1.0
    seed: int = 7
    test_n_per_class: int = 100


@dataclass(frozen=True)
class IdxSpec:
    train_images: str
    train_labels: str
    test_images: str | None = None
    test_labels: str | None = None
    subsample_fraction: float | None = None
    subsample_seed: int = 0

    def __post_init__(self):
        if self.subsample_fraction is not None and not 0 < self.subsample_fraction <= 1:
            raise ConfigError("subsample_fraction must lie in (0, 1]")
        if (self.test_images is None) != (self.test_labels is None):
            raise ConfigError("test_images and test_labels must be given together")


DatasetSource = Union[SyntheticSpec, IdxSpec]


@dataclass(frozen=True)
class DFedReweightingSpec:
    tpm: TargetMetricKind
    crs: CRSKind

    def __post_init__(self):
        # A CRS that favours low metric values paired with a TPM on which high
        # values are better, or the reverse, hands the weight to the worst models.
        if self.crs.favours != self.tpm.direction:
            name = next((n for n, cls in CRSS.items() if isinstance(self.crs, cls)), repr(self.crs))
            want = next(kind for kind in TargetMetricKind if kind.direction == self.crs.favours)
            raise ConfigError(f"crs {name!r} requires tpm {want.value!r}, got {self.tpm.value!r}")


AggregatorSpec = Union[DFedReweightingSpec, BaselineKind]


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    knowledge: str = "omniscient"  # or "neighborhood"


@dataclass(frozen=True)
class RunConfig:
    name: str
    dataset: DatasetSource
    scheme: HeterogeneityScheme
    aggregator: AggregatorSpec
    topology: TopologyShape = TopologyShape()
    rounds: int = 500
    learning_rate: float = 0.01
    batch_size: int = 32
    local_steps: int = 1
    attack: AttackSpec | None = None
    aux_fraction: float = 0.2
    seeds: tuple[int, ...] = (43, 44, 45, 46)
    eval_every: int = 10
    eval_mode: str = "auto"  # "local", "global", or "auto"
    export_weights: bool = False
    outdir: str | None = None

    def __post_init__(self):
        if self.rounds < 0:
            raise ConfigError("rounds must be nonnegative")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.local_steps < 1:
            raise ConfigError("local_steps must be positive")
        if not 0 < self.aux_fraction < 1:
            raise ConfigError("aux_fraction must lie strictly between 0 and 1")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"seeds must be distinct: seed {repeated[0]} is repeated")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be positive")
        if self.eval_mode not in ("local", "global", "auto"):
            raise ConfigError("eval_mode must be 'local', 'global', or 'auto'")
        if (self.resolved_eval_mode() == "global" and isinstance(self.dataset, IdxSpec)
                and self.dataset.test_images is None):
            raise ConfigError("global evaluation requires a test dataset (idx test paths)")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    def resolved_eval_mode(self) -> str:
        """'auto' means: fairness (local aux) without an attack, global test with one."""
        if self.eval_mode != "auto":
            return self.eval_mode
        return "global" if self.attack is not None else "local"


@dataclass(frozen=True)
class BoundsConfig:
    """A `dflsim bounds` document: the quadratic testbed and where to write."""

    smoothness: float = 1.0
    dim: int = 16
    eta: float = 0.1
    rounds: int = 100
    num_clients: int = 4
    noise_scale: float = 0.1
    seed: int = 43
    outdir: str | None = None


@dataclass(frozen=True)
class SweepGrid:
    """A `dflsim sweep` grid: each list given replaces that part of the base config."""

    temperature: tuple[float, ...] | None = None
    attack: tuple[AttackSpec | None, ...] | None = None


DATASETS = {"synthetic": SyntheticSpec, "idx": IdxSpec}
SCHEMES = {"iid": IID, "dirichlet": Dirichlet, "label_skew": LabelSkew}
CRSS = {"temp_softmax": TempSoftmax, "loss_clip": LossClip, "acc_clip": AccClip}
BASELINES = {
    "dfedavg": DFedAvg,
    "median": Median,
    "krum": Krum,
    "multi_krum": MultiKrum,
    "trimmed_mean": TrimmedMean,
    "flame": Flame,
}
ATTACKS = {"gaussian": Gaussian, "sign_flip": SignFlip, "alie": ALIE}


@cache
def _fields(cls) -> tuple:
    """(name, type, required) per field."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _non_null(t):
    """X for an `X | None` annotation, else t itself."""
    return next(a for a in get_args(t) if a is not type(None)) if type(None) in get_args(t) else t


def _bare(entry) -> bool:
    """A spec without fields, written as its bare name."""
    return is_dataclass(entry) and not fields(entry)


def _build(cls, obj, path: str):
    """A cls instance from a JSON object: its keys are cls's fields, typed by annotation."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    spec = _fields(cls)
    unknown = set(obj) - {name for name, *_ in spec}
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = {name for name, *_, required in spec if required} - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}")
    kwargs = {name: _decode(t, obj[name], f"{path}.{name}") for name, t, _ in spec if name in obj}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _decode(t, obj, path: str):
    """Check one JSON value against type t and convert it; `X | None` also takes null."""
    if obj is None and type(None) in get_args(t):
        return None
    t = _non_null(t)
    if t in _FAMILIES:
        return _FAMILIES[t].decode(obj, path)
    if t is bool:
        ok, want = isinstance(obj, bool), "true or false"
    elif t is int:
        ok, want = isinstance(obj, int) and not isinstance(obj, bool), "an integer"
    elif t is float:
        ok = isinstance(obj, (int, float)) and not isinstance(obj, bool) and math.isfinite(obj)
        obj, want = float(obj) if ok else obj, "a finite number"
    elif t is str:
        ok, want = isinstance(obj, str), "a string"
    elif get_origin(t) is tuple:
        if not (isinstance(obj, (list, tuple)) and obj):
            raise ConfigError(f"{path}: expected a nonempty list, got {obj!r}")
        return tuple(_decode(get_args(t)[0], x, f"{path}[{i}]") for i, x in enumerate(obj))
    elif isinstance(t, type) and issubclass(t, Enum):
        values = [m.value for m in t]
        ok, want = obj in values, " or ".join(map(repr, values))
        obj = t(obj) if ok else obj
    else:
        return _build(t, obj, path)
    if not ok:
        raise ConfigError(f"{path}: expected {want}, got {obj!r}")
    return obj


def _encode(t, value):
    """The JSON echo of a value of type t."""
    if value is None:
        return None
    t = _non_null(t)
    if t in _FAMILIES:
        return _FAMILIES[t].encode(value)
    if is_dataclass(t):
        return {name: _encode(ft, getattr(value, name)) for name, ft, _ in _fields(t)}
    if isinstance(value, Enum):
        return value.value
    if get_origin(t) is tuple:
        return [_encode(get_args(t)[0], x) for x in value]
    return value


@dataclass(frozen=True)
class _Named:
    """`"name"` for a spec without fields, or `{"name": {...}}`; the echo leaves out nulls."""

    table: dict

    def decode(self, obj, path: str):
        if isinstance(obj, str) and _bare(self.table.get(obj)):
            obj = {obj: {}}
        if not (isinstance(obj, dict) and len(obj) == 1 and next(iter(obj)) in self.table):
            raise ConfigError(f'{path}: expected {{"<name>": {{...}}}}, or "<name>" for a spec '
                              f'without fields, <name> in {sorted(self.table)}; got {obj!r}')
        ((name, body),) = obj.items()
        return _decode(self.table[name], body, f"{path}.{name}")

    def encode(self, value):
        name = next(n for n, e in self.table.items() if isinstance(value, get_args(e) or e))
        body = _encode(self.table[name], value)  # empty only for a spec without fields
        return {name: {k: v for k, v in body.items() if v is not None}} if body else name


@dataclass(frozen=True)
class _Kinded:
    """`{"kind": "name", ...}`: the spec's fields sit beside its name."""

    table: dict

    def decode(self, obj, path: str):
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if not isinstance(kind, str) or kind not in self.table:
            raise ConfigError(f"{path}: expected an object whose 'kind' is one of "
                              f"{sorted(self.table)}, got {obj!r}")
        return _build(self.table[kind], {k: v for k, v in obj.items() if k != "kind"}, path)

    def encode(self, value):
        name = next(n for n, cls in self.table.items() if isinstance(value, cls))
        return {"kind": name, **_encode(type(value), value)}


class _Attack(_Kinded):
    """An attack is kinded, with AttackSpec's `knowledge` beside the attack's own fields."""

    def decode(self, obj, path: str) -> AttackSpec:
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: expected null or an object with a 'kind' key")
        body = dict(obj)
        knowledge = body.pop("knowledge", "omniscient")
        if knowledge not in ("omniscient", "neighborhood"):
            raise ConfigError(
                f"{path}.knowledge: expected 'omniscient' or 'neighborhood', got {knowledge!r}"
            )
        return AttackSpec(super().decode(body, path), knowledge)

    def encode(self, spec: AttackSpec):
        return {**super().encode(spec.kind), "knowledge": spec.knowledge}


_FAMILIES = {
    DatasetSource: _Named(DATASETS),
    HeterogeneityScheme: _Named(SCHEMES),
    CRSKind: _Named(CRSS),
    BaselineKind: _Kinded(BASELINES),
    AggregatorSpec: _Named({"dfed_reweighting": DFedReweightingSpec, "baseline": BaselineKind}),
    AttackSpec: _Attack(ATTACKS),
}


def parse_config(doc: dict) -> RunConfig:
    """Validate a JSON document and build a RunConfig; raises ConfigError."""
    return _build(RunConfig, doc, "config")


def parse_bounds_config(doc: dict) -> BoundsConfig:
    """Validate a `dflsim bounds` document; raises ConfigError."""
    return _build(BoundsConfig, doc, "bounds")


def parse_sweep(doc) -> tuple[RunConfig, ...]:
    """The runs of a sweep document {"base": <run config>, "grid": {...}}, one per grid point,
    temperature outer and attack inner, each built and so checked; raises ConfigError."""
    if not isinstance(doc, dict) or set(doc) != {"base", "grid"}:
        raise ConfigError("sweep config must have exactly the keys 'base' and 'grid'")
    base, grid = parse_config(doc["base"]), _build(SweepGrid, doc["grid"], "grid")
    agg = base.aggregator
    if grid.temperature is not None and not (
            isinstance(agg, DFedReweightingSpec) and isinstance(agg.crs, TempSoftmax)):
        raise ConfigError("temperature sweep requires a dfed_reweighting/temp_softmax aggregator")
    axes, runs = [], []  # an axis lists (run name suffix, RunConfig field, value)
    try:
        if grid.temperature is not None:
            axes.append([(f"T{t!r}", "aggregator", replace(agg, crs=TempSoftmax(t)))
                         for t in grid.temperature])
        if grid.attack is not None:
            axes.append([("noattack" if a is None else f"attack-{_encode(AttackSpec, a)['kind']}",
                          "attack", a) for a in grid.attack])
        for point in itertools.product(*axes):
            name = "-".join([base.name] + [suffix for suffix, _, _ in point])
            if any(run.name == name for run in runs):
                raise ConfigError(f"more than one run is named {name!r}")
            runs.append(replace(base, name=name, **{field: value for _, field, value in point}))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    return tuple(runs)


def read_document(path: str):
    """The JSON document in a config file; raises ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def load_config(path: str) -> RunConfig:
    return parse_config(read_document(path))


def config_to_json_dict(config: RunConfig) -> dict:
    """Canonical JSON echo of a parsed config (written next to run outputs)."""
    return _encode(RunConfig, config)
