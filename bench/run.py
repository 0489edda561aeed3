#!/usr/bin/env python3
"""Run one dflsim benchmark workload; the last stdout line is one JSON result.

    python3 bench/run.py --workload desk-lossclip-signflip --seed 0 --seconds 20 --trace 0

Every run goes through the public library path, serially, one at a time:
``parse_config`` + ``sim.build_network`` per seed is the set-up, and one
``run_experiment(config, parallel=1, outdir=...)`` call is a run. Each
invocation first runs the workload at the default (acceptance) seed and checks
its ``metrics.csv`` against the digest pinned in ``expected.json``; that run
also supplies the deterministic quality metrics. It then times runs of the
workload built from ``--seed`` for ``--seconds`` seconds, each checked for
finite, well-formed output identical to the first. With ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer split instead.
See README.md in this directory for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
from layertrace import Target, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, config_doc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_REPEATS = 41
SETUP_WARMUP = 3
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "mean_acc": "fraction",
    "acc_var_points": "points2",
}

# Layers traced at the lookup site their caller uses.
_LAYER_SITES = [
    ("sim.run_experiment", "dflsim.sim", "run_experiment"),
    ("sim.build_network", "dflsim.sim", "build_network"),
    ("data.gen_synthetic_blobs", "dflsim.sim", "gen_synthetic_blobs"),
    ("data.partition", "dflsim.sim", "partition_iid"),
    ("data.partition", "dflsim.sim", "partition_label_skew"),
    ("data.partition", "dflsim.sim", "partition_dirichlet"),
    ("data.split_auxiliary", "dflsim.sim", "split_auxiliary"),
    ("topology.generate", "dflsim.sim", "generate"),
    ("sim.evaluate_network", "dflsim.sim", "evaluate_network"),
    ("core_learning.batch_gradient", "dflsim.sim", "batch_gradient"),
    ("core_learning.sgd_step", "dflsim.sim", "sgd_step"),
    ("rng.stream", "dflsim.rng", "stream"),
    ("attacks.sign_flip_update", "dflsim.sim", "sign_flip_update"),
    ("reweight.dfedreweighting_round_weights", "dflsim.sim", "dfedreweighting_round_weights"),
    ("reweight.compute_tpm", "dflsim.reweight", "compute_tpm"),
    ("core_learning.evaluate_mean_loss", "dflsim.reweight", "evaluate_mean_loss"),
    ("core_learning.evaluate_accuracy", "dflsim.reweight", "evaluate_accuracy"),
    ("reweight.apply_crs", "dflsim.reweight", "apply_crs"),
    ("reweight.reweight_aggregate", "dflsim.sim", "reweight_aggregate"),
    ("baselines.dfedavg", "dflsim.sim", "dfedavg"),
]

# (metric, unit, layer, field): fields are "calls", "s" (inclusive), "self_s".
_TRACED = [
    ("sim.run_experiment.s", "s", "sim.run_experiment", "s"),
    ("sim.run_round.calls", "count", "sim.run_round", "calls"),
    ("sim.run_round.s", "s", "sim.run_round", "s"),
    ("sim.run_round.self_s", "s", "sim.run_round", "self_s"),
    ("sim.evaluate_network.calls", "count", "sim.evaluate_network", "calls"),
    ("sim.evaluate_network.s", "s", "sim.evaluate_network", "s"),
    ("sim.artifacts_s", "s", "sim.run_experiment", "self_s"),
    ("sim.build_network.s", "s", "sim.build_network", "s"),
    ("data.gen_synthetic_blobs.s", "s", "data.gen_synthetic_blobs", "s"),
    ("data.partition.s", "s", "data.partition", "s"),
    ("data.split_auxiliary.s", "s", "data.split_auxiliary", "s"),
    ("topology.generate.s", "s", "topology.generate", "s"),
    ("core_learning.batch_gradient.calls", "count", "core_learning.batch_gradient", "calls"),
    ("core_learning.batch_gradient.self_s", "s", "core_learning.batch_gradient", "self_s"),
    ("core_learning.sgd_step.calls", "count", "core_learning.sgd_step", "calls"),
    ("core_learning.sgd_step.self_s", "s", "core_learning.sgd_step", "self_s"),
    ("rng.stream.calls", "count", "rng.stream", "calls"),
    ("rng.stream.self_s", "s", "rng.stream", "self_s"),
    ("reweight.compute_tpm.calls", "count", "reweight.compute_tpm", "calls"),
    ("reweight.compute_tpm.s", "s", "reweight.compute_tpm", "s"),
    ("reweight.compute_tpm.self_s", "s", "reweight.compute_tpm", "self_s"),
    ("core_learning.evaluate_mean_loss.s", "s", "core_learning.evaluate_mean_loss", "s"),
    ("core_learning.evaluate_accuracy.s", "s", "core_learning.evaluate_accuracy", "s"),
    ("reweight.dfedreweighting_round_weights.s", "s", "reweight.dfedreweighting_round_weights", "s"),
    ("reweight.dfedreweighting_round_weights.self_s", "s", "reweight.dfedreweighting_round_weights", "self_s"),
    ("reweight.apply_crs.s", "s", "reweight.apply_crs", "s"),
    ("reweight.reweight_aggregate.s", "s", "reweight.reweight_aggregate", "s"),
    ("baselines.dfedavg.calls", "count", "baselines.dfedavg", "calls"),
    ("baselines.dfedavg.s", "s", "baselines.dfedavg", "s"),
    ("attacks.sign_flip_update.calls", "count", "attacks.sign_flip_update", "calls"),
    ("attacks.sign_flip_update.s", "s", "attacks.sign_flip_update", "s"),
]

# Metrics computed from counts, the network and the aggregation weights.
_DERIVED = {
    "core_learning.param_vectors": "count",
    "core_learning.param_bytes_copied": "B",
    "reweight.aux_rows_scored": "count",
    "reweight.tpm_flops": "flop",
    "reweight.zero_weight_share": "fraction",
    "reweight.malicious_weight_mass": "fraction",
    "trace.overhead_share": "fraction",
}

PER_LAYER = {**{name: unit for name, unit, _, _ in _TRACED}, **_DERIVED}
# Counts and computed sizes repeat exactly between runs of one config.
EXACT_UNITS = ("count", "B", "flop")


class OutputError(Exception):
    """A run's artifacts are malformed, non-finite or differ from the reference."""


def import_dflsim():
    """Import dflsim from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import dflsim
    from dflsim import sim, topology

    if SRC.resolve() not in Path(dflsim.__file__).resolve().parents:
        raise ImportError(f"dflsim resolved to {dflsim.__file__}, not under {SRC}")
    return dflsim, sim, topology


def provenance(dflsim, sim) -> dict:
    """Machine, interpreter, numpy/BLAS and source identity of this measurement."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "dflsim": getattr(dflsim, "__version__", None),
        "source_fingerprint": sim.source_fingerprint(),
        "execution": "serial: one process, one run at a time, run_experiment(parallel=1)",
    }


def blas_threads():
    """OpenBLAS's current thread count, read from the loaded library; None if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def eval_rounds(config) -> list:
    """Rounds with metrics rows: 0, every eval_every-th round and the last."""
    rounds = {0, config.rounds}
    rounds.update(range(config.eval_every, config.rounds + 1, config.eval_every))
    return sorted(rounds)


def check_artifacts(run_dir: Path, config) -> tuple:
    """Validate one run directory; return (metrics.csv bytes, mean_acc, var_points)."""
    data = (run_dir / "metrics.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    expected = len(config.seeds) * len(eval_rounds(config)) * config.topology.num_benign
    if len(rows) != expected:
        raise OutputError(f"metrics.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        values = [float(row[col]) for col in ("acc", "loss", "mean_acc", "var")]
        if not all(math.isfinite(v) for v in values):
            raise OutputError(f"non-finite metrics row {row}")
        if not 0.0 <= values[0] <= 1.0:
            raise OutputError(f"accuracy outside [0, 1] in row {row}")
    cross = json.loads((run_dir / "summary.json").read_text())["cross_seed"]
    mean_acc, var_points = float(cross["mean_acc"]), float(cross["var_points"])
    if not (math.isfinite(mean_acc) and math.isfinite(var_points)):
        raise OutputError(f"non-finite cross-seed summary {cross}")
    if config.export_weights:
        files = len(list(run_dir.glob("weights_round_*.csv")))
        if files != len(eval_rounds(config)) - 1:
            raise OutputError(f"{files} weights_round files, expected {len(eval_rounds(config)) - 1}")
    return data, mean_acc, var_points


def max_deviation(data: bytes, reference: bytes) -> float:
    """Max abs difference of the acc and loss columns; inf if rows do not align."""
    ours = list(csv.reader(io.StringIO(data.decode())))
    theirs = list(csv.reader(io.StringIO(reference.decode())))
    if len(ours) != len(theirs) or ours[0] != theirs[0]:
        return math.inf
    header = ours[0]
    key = [header.index(c) for c in ("round", "seed", "client")]
    cols = [header.index(c) for c in ("acc", "loss")]
    worst = 0.0
    for a, b in zip(ours[1:], theirs[1:]):
        if [a[i] for i in key] != [b[i] for i in key]:
            return math.inf
        worst = max(worst, *(abs(float(a[i]) - float(b[i])) for i in cols))
    return worst


class RunResult(NamedTuple):
    seconds: float
    metrics_csv: bytes
    mean_acc: float
    var_points: float
    tracer: Optional[Tracer]


class Runner:
    """Runs configs through run_experiment, checks outputs and counts failures."""

    def __init__(self, sim, workload: str):
        self.sim = sim
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.scratch = OUT_DIR / f"{workload}-{os.getpid()}"

    def run(self, config, tracer_targets=None) -> Optional[RunResult]:
        """One checked run, traced when targets are given; None if it failed."""
        self.attempted += 1
        tracer = Tracer() if tracer_targets is not None else None
        try:
            with tracer.installed(tracer_targets) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                self.sim.run_experiment(config, parallel=1, outdir=str(self.scratch))
                seconds = time.perf_counter() - start
            data, mean_acc, var_points = check_artifacts(self.scratch / config.name, config)
        except Exception:  # noqa: BLE001 - a failed run is counted, reported and ends the loop
            self.failed += 1
            self.notes.append(traceback.format_exc())
            return None
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        return RunResult(seconds, data, mean_acc, var_points, tracer)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.notes.append(message)


def check_reference(runner: Runner, result: RunResult, expected: dict) -> None:
    """Compare a default-seed run's metrics.csv with the pinned digest."""
    pinned = expected["digests"][runner.workload]
    digest = hashlib.sha256(result.metrics_csv).hexdigest()
    if digest == pinned:
        return
    reference = (REFERENCE_DIR / f"{runner.workload}.metrics.csv").read_bytes()
    deviation = max_deviation(result.metrics_csv, reference)
    tolerance = expected["tolerance"]["max_abs_acc_loss_deviation"]
    message = (
        f"metrics.csv sha256 {digest} differs from pinned {pinned}; "
        f"max |acc/loss| deviation from the reference is {deviation:.3g} (tolerance {tolerance:g})"
    )
    if deviation <= tolerance:
        runner.notes.append(message)
    else:
        runner.fail(message)


def time_setup(dflsim, sim, topology, doc: dict) -> tuple:
    """Median seconds of parse_config + build_network over every seed.

    Also returns the parsed config and the aux rows one full TPM scoring pass
    reads per round (sum over benign clients of closed-neighbourhood size x
    |aux|), taken from the networks the last repeat built.
    """
    samples, states = [], None
    for _ in range(SETUP_WARMUP + SETUP_REPEATS):
        # Free the previous repeat's networks first, so that set-up does not
        # hold two copies of the data and inflate peak_rss_mb.
        states = None
        start = time.perf_counter()
        config = dflsim.parse_config(doc)
        states = [sim.build_network(config, seed) for seed in config.seeds]
        samples.append(time.perf_counter() - start)
    aux_rows = sum(
        (len(topology.neighbors(state.graph, node)) + 1) * len(state.clients[node].aux)
        for state in states
        for node in state.benign_ids()
    )
    return statistics.median(samples[SETUP_WARMUP:]), config, aux_rows


def new_weight_totals() -> dict:
    return {"rows": 0, "weights": 0, "zero": 0, "malicious_mass": 0.0}


def layer_targets(totals: dict) -> list:
    """Every traced lookup site; run_round also tallies its weights into totals."""
    targets = [Target(layer, owner, attr) for layer, owner, attr in _LAYER_SITES]
    targets.append(Target("sim.run_round", "dflsim.sim", "run_round", after=weights_hook(totals)))
    targets.append(Target("core_learning.param_vectors", "dflsim.core_learning:ParamVector",
                          "__post_init__", timed=False))
    return targets


def weights_hook(totals: dict):
    """After each run_round, tally zero weights and weight mass on malicious members."""

    def after(_result, args):
        state = args[0]
        malicious = state.graph.malicious
        for row in getattr(state, "last_weights", {}).values():
            totals["rows"] += 1
            for member, weight in row.items():
                totals["weights"] += 1
                totals["zero"] += weight == 0.0
                if member in malicious:
                    totals["malicious_mass"] += weight

    return after


def traced_metrics(tracer: Tracer, totals: dict, config, aux_rows: int, reweighting: bool) -> dict:
    layers = {"calls": tracer.calls, "s": tracer.seconds, "self_s": tracer.self_seconds}
    out = {name: layers[field](layer) for name, _, layer, field in _TRACED}
    spec = config.dataset
    params = spec.num_classes * spec.feature_dim + spec.num_classes
    out["core_learning.param_vectors"] = tracer.calls("core_learning.param_vectors")
    out["core_learning.param_bytes_copied"] = 8 * params * out["core_learning.param_vectors"]
    rows = config.rounds * aux_rows if reweighting else 0
    out["reweight.aux_rows_scored"] = rows
    out["reweight.tpm_flops"] = 2 * spec.num_classes * spec.feature_dim * rows
    out["reweight.zero_weight_share"] = totals["zero"] / totals["weights"] if totals["weights"] else 0.0
    out["reweight.malicious_weight_mass"] = (
        totals["malicious_mass"] / totals["rows"] if totals["rows"] else 0.0
    )
    return out


def measure(args, dflsim, sim, topology, expected: dict) -> dict:
    doc = config_doc(args.workload, args.seed)
    runner = Runner(sim, args.workload)
    setup_s, config, aux_rows = time_setup(dflsim, sim, topology, doc)

    reference_config = dflsim.parse_config(config_doc(args.workload, DEFAULT_SEED))
    reference = runner.run(reference_config)
    if reference is None:
        return {"runner": runner}
    check_reference(runner, reference, expected)
    first = reference.metrics_csv if args.seed == DEFAULT_SEED else None

    def checked(result):
        nonlocal first
        if result is None:
            return False
        if first is None:
            first = result.metrics_csv
        elif result.metrics_csv != first:
            runner.fail("metrics.csv differs between repeats of the same config")
            return False
        return True

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while len(untraced) < MIN_RUNS or time.perf_counter() < deadline:
            result = runner.run(config)
            if not checked(result):
                break
            untraced.append(result.seconds)
        return {
            "runner": runner,
            "metrics": {
                "setup_s": setup_s,
                "run_s": statistics.median(untraced) if untraced else None,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "mean_acc": reference.mean_acc,
                "acc_var_points": reference.var_points,
            },
            "samples": {"run_s": untraced},
        }

    reweighting = "dfed_reweighting" in doc["aggregator"]
    layer_runs, last_tracer = [], None
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        result = runner.run(config)
        if not checked(result):
            break
        untraced.append(result.seconds)
        totals = new_weight_totals()
        result = runner.run(config, layer_targets(totals))
        if not checked(result):
            break
        traced.append(result.seconds)
        last_tracer = result.tracer
        layer_runs.append(traced_metrics(last_tracer, totals, config, aux_rows, reweighting))
    if not layer_runs:
        return {"runner": runner}
    for name, unit in PER_LAYER.items():
        if unit in EXACT_UNITS and len({run[name] for run in layer_runs}) > 1:
            runner.fail(f"{name} differs between traced runs of the same config")
    metrics = {
        name: layer_runs[0][name] if PER_LAYER[name] in EXACT_UNITS
        else statistics.median(run[name] for run in layer_runs)
        for name in layer_runs[0]
    }
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    trace_doc = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
                 "provenance": provenance(dflsim, sim),
                 "last_traced_run": last_tracer.to_json_dict()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.seed{args.seed}.trace.json").write_text(
        json.dumps(trace_doc, indent=2, sort_keys=True)
    )
    return {"runner": runner, "metrics": metrics,
            "samples": {"untraced_s": untraced, "traced_s": traced}}


def report(args, outcome: dict) -> int:
    runner = outcome["runner"]
    for note in runner.notes:
        print(note, file=sys.stderr)
    metrics = outcome.get("metrics")
    units = PER_LAYER if args.trace else END_TO_END
    if metrics is None or any(metrics.get(name) is None for name in units):
        print(f"{args.workload}: no measurement ({runner.failed} of {runner.attempted} runs failed)",
              file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {runner.attempted}  failed {runner.failed}")
    for name, samples in outcome["samples"].items():
        quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        print(f"  {name}: n={len(samples)} median={statistics.median(samples):.4f} "
              f"q1={quartiles[0]:.4f} q3={quartiles[2]:.4f}")
    base = metrics.get("sim.run_experiment.s")
    for name, unit in units.items():
        share = f"  ({metrics[name] / base:6.1%} of run)" if base and unit == "s" else ""
        print(f"  {name:48s} {metrics[name]:>16.6g} {unit}{share}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {DEFAULT_SEED} is the acceptance configuration")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the traced per-layer split instead of end-to-end metrics")
    args = parser.parse_args(argv)
    try:
        dflsim, sim, topology = import_dflsim()
    except ImportError as exc:
        print(f"cannot import dflsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    return report(args, measure(args, dflsim, sim, topology, expected))


if __name__ == "__main__":
    sys.exit(main())
