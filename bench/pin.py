#!/usr/bin/env python3
"""Pin the default-seed outputs: write reference/*.metrics.csv and expected.json.

    python3 bench/pin.py

Run it only when a change is meant to alter the simulator's outputs, and say
in the change how far they moved (``run.py`` reports the max deviation).
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess

from run import BENCH_DIR, OUT_DIR, REFERENCE_DIR, check_artifacts, import_dflsim, provenance
from workloads import DEFAULT_SEED, WORKLOADS, config_doc

TOLERANCE = 1e-6


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> None:
    dflsim, sim, _ = import_dflsim()
    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / "pin"
    digests = {}
    try:
        for workload in WORKLOADS:
            config = dflsim.parse_config(config_doc(workload, DEFAULT_SEED))
            sim.run_experiment(config, parallel=1, outdir=str(scratch))
            data, _, _ = check_artifacts(scratch / config.name, config)
            (REFERENCE_DIR / f"{workload}.metrics.csv").write_bytes(data)
            digests[workload] = hashlib.sha256(data).hexdigest()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected = {
        "claim": None,
        "digests": digests,
        "tolerance": {"max_abs_acc_loss_deviation": TOLERANCE},
        "provenance": dict(provenance(dflsim, sim), git_commit=git_commit()),
    }
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
