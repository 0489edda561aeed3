#!/usr/bin/env python3
"""Interleaved A/B pairs of the benchmark between two source trees, with an A/A control.

    python3 tools/ab.py --base <rev> [--head <rev> | --head WORKTREE] [--workload NAME ...]
                        [--pairs 10] [--seconds 20] [--seed N] --out BENCH_<n>.json

Each side is a git rev of this repository, or WORKTREE: the checkout's tracked
files as they stand, new files once ``git add`` has staged them. Each is copied
into a fresh temporary directory with ``git archive``, and a second copy of the
base is the A/A control. For every workload, each pair runs
the base, the head and the control once each, every run a fresh process of its
own tree's ``bench/run.py`` at one ``--seconds`` and one workload seed: ``--seed``,
or else the bench's default.
Pair i runs the sides in the (i mod 6)-th of their six orders, so each side runs
first, second and last equally often over every six pairs. BLAS threading is
whatever the environment sets, the same for every run, and is recorded.

The JSON written to --out holds every run's metrics, exit status and stderr notes
(the bench's "differs from pinned" digest notes among them) and, per end-to-end
metric of BENCHMARK.json, each side's per-pair values, median and quartiles, the
head's and the control's wins against the base, the head's against the control,
the verdict under the metric's bound, and whether the head shows a gain or
reads worse. The control runs the base's code, so a gain, and a regression,
must hold against it too: a gap that the two copies of the base also show
comes from the order or the copy, not the code. A gain must also be measured
by identical benchmark code: each side records the sha256 of its ``bench/``
tree and ``BENCHMARK.json``, and when the base's and the head's differ,
``same_benchmark`` is false and no metric reads a gain. Provenance: the revs
and commits, each tree's ``sim.source_fingerprint()``, numpy, SIMD dispatch
and BLAS as ``numeric_environment()`` reads them, the CPU count and the load
average.
Exits 1 if any run failed or read ``correct: false``.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SIDES = ("base", "head", "control")
ORDERS = list(itertools.permutations(SIDES))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Copy rev's files into the new directory dest with git archive; return its commit.

    WORKTREE is first made a commit by ``git stash create``, which moves no ref,
    so the checkout is copied the same way as a rev: the kind of copy moves
    set-up time and peak memory.
    """
    if rev == WORKTREE:
        rev = git("stash", "create") or "HEAD"
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return git("rev-parse", f"{rev}^{{commit}}")


def fingerprint(tree: Path) -> str:
    code = ("import sys; sys.path.insert(0, 'src'); "
            "from dflsim import sim; print(sim.source_fingerprint())")
    return subprocess.run([sys.executable, "-c", code], cwd=tree, check=True, capture_output=True,
                          text=True).stdout.strip()


def benchmark_digest(tree: Path) -> str:
    """sha256 over tree's BENCHMARK.json and every file under its bench/: each
    file's path relative to tree and the sha256 of its bytes, in path order."""
    files = [tree / "BENCHMARK.json", *(tree / "bench").rglob("*")]
    digest = hashlib.sha256()
    for path in sorted(p for p in files if p.is_file()):
        digest.update(f"{path.relative_to(tree).as_posix()}\0".encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def numeric_environment() -> dict:
    """What the runs' bytes and speed depend on besides the source: numpy, the
    SIMD targets it was built for and dispatches to on this machine, the BLAS
    it links, the kernel and thread count that BLAS chose when it loaded, and
    the variables that steer them. A value that cannot be read is None."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    # Asked of the loaded OpenBLAS, which numpy's own wheels build with prefixed,
    # suffixed symbol names; the extension's handle also finds its libraries' symbols.
    try:
        library = ctypes.CDLL(umath.__file__)
    except OSError:
        library = None
    openblas = {}
    for key, name, restype in (("core", "get_corename", ctypes.c_char_p),
                               ("threads", "get_num_threads", ctypes.c_int)):
        found = [getattr(library, symbol, None)
                 for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}")]
        function = next(filter(None, found), None)
        if function is not None:
            function.argtypes, function.restype = [], restype
            openblas[key] = function()
    core = openblas.get("core")
    return {
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_core": core.decode() if core else None,
        "openblas_threads": openblas.get("threads"),
        "variables": {var: os.environ.get(var) for var in
                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")},
    }


def run_bench(tree: Path, workload: str, seconds: float, seed: int | None) -> dict:
    """One fresh-process run of tree's bench/run.py: its exit code, verdict, metrics and notes."""
    command = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
               "--seconds", str(seconds), *([] if seed is None else ["--seed", str(seed)])]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {
        "exit": proc.returncode,
        "correct": result.get("correct") is True,
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
        "notes": [line for line in proc.stderr.splitlines() if line.strip()],
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base: list, other: list, better: str, bound: float) -> dict:
    """other against base over the pairs where both ran, under BENCHMARK.json's rules.

    A side wins a pair when it reads better, ties counting for neither. "worse"
    means the other side's median is worse than the base's by more than bound,
    as a fraction of the base's median; "unresolved" that it is not, but the
    base's interquartile range is wider than the bound and not every run of the
    other side reads better than every run of the base. "gain" holds when the
    other side wins nine tenths of the pairs and its median is better than the
    base's by more than the base's interquartile range.
    """
    pairs = [(b, o) for b, o in zip(base, other) if b is not None and o is not None]
    if not pairs:
        return {"pairs": 0}
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (o - b) < 0 for b, o in pairs)
    losses = sum(sign * (o - b) > 0 for b, o in pairs)
    b_spread, o_spread = spread([b for b, _ in pairs]), spread([o for _, o in pairs])
    mb, mo = b_spread["median"], o_spread["median"]
    change = (mo - mb) / abs(mb) if mb else None
    worse = change is not None and sign * change > bound
    all_better = max(sign * o for _, o in pairs) < min(sign * b for b, _ in pairs)
    wide = mb != 0 and b_spread["iqr"] / abs(mb) > bound
    return {
        "pairs": len(pairs), "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
        "base": b_spread, "other": o_spread, "median_change": change,
        "verdict": "worse" if worse else "unresolved" if wide and not all_better else "within_bound",
        "gain": wins >= 0.9 * len(pairs) and sign * (mb - mo) > b_spread["iqr"],
    }


def judge(values: dict, better: str, bound: float, same_benchmark: bool = True) -> dict:
    """The head and the control against the base, the head against the control,
    and whether the head shows a gain, or reads worse beyond the bound: against
    the base and the control both. No gain holds unless the base and the head
    ran the same benchmark code (same_benchmark)."""
    head_vs_base = compare(values["base"], values["head"], better, bound)
    head_vs_control = compare(values["control"], values["head"], better, bound)
    return {
        "head_vs_base": head_vs_base,
        "control_vs_base": compare(values["base"], values["control"], better, bound),
        "head_vs_control": head_vs_control,
        "gain": bool(same_benchmark and head_vs_base.get("gain") and head_vs_control.get("gain")),
        "worse": head_vs_base.get("verdict") == head_vs_control.get("verdict") == "worse",
    }


def measure_workload(trees: dict, workload: str, args, metrics: list, same_benchmark: bool) -> dict:
    runs = []
    for i in range(args.pairs):
        for side in ORDERS[i % len(ORDERS)]:
            run = run_bench(trees[side], workload, args.seconds, args.seed)
            runs.append({"pair": i, "side": side, **run})
            shown = " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
            print(f"{workload} pair {i} {side}: exit {run['exit']} correct {run['correct']} {shown}",
                  file=sys.stderr, flush=True)
    table = {}
    for metric in metrics:
        # Per side, the metric's value in each pair; None where that run failed.
        values = {side: [None] * args.pairs for side in SIDES}
        for run in runs:
            if run["correct"]:
                values[run["side"]][run["pair"]] = run["metrics"].get(metric["name"])
        table[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"], **values,
            **judge(values, metric["better"], metric["bound"], same_benchmark),
        }
    failed = {side: sum(not r["correct"] for r in runs if r["side"] == side) for side in SIDES}
    digest_notes = sorted({note for r in runs for note in r["notes"] if "pinned" in note})
    return {"failed": failed, "digest_notes": digest_notes, "metrics": table, "runs": runs}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git rev of the base side")
    parser.add_argument("--head", default="HEAD", help=f"git rev of the head side, or {WORKTREE}")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to measure, repeatable; default every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--seed", type=int, help="workload seed; default bench/run.py's own")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    started, load = time.strftime("%Y-%m-%dT%H:%M:%S%z"), os.getloadavg()
    with tempfile.TemporaryDirectory(prefix="dflsim-ab-") as tmp:
        trees, sides = {}, {}
        for side, rev in zip(SIDES, (args.base, args.head, args.base)):
            trees[side] = Path(tmp) / side
            commit = export(rev, trees[side])
            sides[side] = {"rev": rev, "commit": commit, "source_fingerprint": fingerprint(trees[side]),
                           "benchmark_sha256": benchmark_digest(trees[side])}
        same_benchmark = sides["base"]["benchmark_sha256"] == sides["head"]["benchmark_sha256"]
        results = {w: measure_workload(trees, w, args, benchmark["end_to_end"], same_benchmark)
                   for w in args.workload or workloads}
    doc = {
        "command": ["python3", "tools/ab.py", *(argv if argv is not None else sys.argv[1:])],
        "sides": sides,
        "same_benchmark": same_benchmark,
        "settings": {"pairs": args.pairs, "seconds": args.seconds,
                     "workload_seed": "bench/run.py's default" if args.seed is None else args.seed,
                     "orders": [list(order) for order in ORDERS]},
        "provenance": {
            "started": started, "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "load_average_start": load, "load_average_end": os.getloadavg(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "environment": numeric_environment(),
        },
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    # Why no metric reads a gain when the sides' benchmarks differ.
    unmeasured = "" if same_benchmark else (" (base and head run different bench/ or BENCHMARK.json;"
                                            " a gain must be measured by identical benchmark code)")
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            head, control = metric["head_vs_base"], metric["control_vs_base"]
            if head["pairs"]:
                print(f"{workload:26s} {name:15s} base {head['base']['median']:.6g} "
                      f"[IQR {head['base']['iqr']:.3g}] head {head['other']['median']:.6g} "
                      f"wins {head['wins']}/{head['pairs']} {head['verdict']}; control wins "
                      f"{control.get('wins')}/{control['pairs']} {control.get('verdict')}; "
                      f"gain {metric['gain']}{unmeasured} worse {metric['worse']}")
    return 1 if any(sum(r["failed"].values()) for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
