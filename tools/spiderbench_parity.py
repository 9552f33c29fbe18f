#!/usr/bin/env python3
"""Check that the five spiderbench workloads still simulate the same run.

Usage::

    python tools/spiderbench_parity.py            # compare, exit 1 on a move
    python tools/spiderbench_parity.py --record   # rewrite the record

``benchmarks/BENCH_parity.json`` holds, per workload, the ``fingerprint``
(a CRC over the simulated results) and the ``events`` count of one
``benchmarks/spiderbench/run.py --child`` repetition at seed 11,
variant 0.  Both repeat exactly for a seed, so a refactor that claims
byte parity reproduces all five pairs, and a change that moves simulated
results by design re-records them in its own commit.  Each child runs
with ``PYTHONHASHSEED=0``, one at a time (~4 s each); a repetition that
fails an operation or trips a violation is a mismatch whatever its
fingerprint.  The pairs that moved are written to
``benchmarks/BENCH_parity_mismatch.json`` (CI uploads it).  No
dependencies beyond what spiderbench itself imports.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD_PATH = ROOT / "benchmarks" / "BENCH_parity.json"
MISMATCH_PATH = ROOT / "benchmarks" / "BENCH_parity_mismatch.json"
WORKLOADS = (
    "geo_write_closed",
    "geo_mixed_think",
    "irmc_rc_1k",
    "flash_crowd_armed",
    "leader_crash_open",
)
SEED = 11
VARIANT = 0
RERECORD = "python tools/spiderbench_parity.py --record"


def run_child(workload: str) -> dict:
    """One ``--child`` repetition; the JSON it prints last."""
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "spiderbench" / "run.py"),
            "--child", workload, "--seed", str(SEED), "--variant", str(VARIANT),
            "--trace", "0",
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    record = "--record" in argv
    expected = {} if record else json.loads(RECORD_PATH.read_text())["workloads"]
    actual, moved = {}, {}
    for workload in WORKLOADS:
        rep = run_child(workload)
        actual[workload] = {"fingerprint": rep["fingerprint"], "events": rep["events"]}
        unhealthy = {
            key: rep[key] for key in ("failed", "violations") if rep[key]
        }
        if unhealthy or (not record and actual[workload] != expected.get(workload)):
            moved[workload] = {
                "expected": expected.get(workload), "actual": actual[workload], **unhealthy
            }
        print(f"{workload}: {actual[workload]['fingerprint']} / {actual[workload]['events']}"
              f"{'  MOVED' if workload in moved else ''}")
    if moved:
        MISMATCH_PATH.write_text(json.dumps(moved, indent=2) + "\n")
        print(f"{len(moved)} of {len(WORKLOADS)} workloads moved or unhealthy "
              f"(details: {MISMATCH_PATH.relative_to(ROOT)}).\n"
              f"Re-record only for a change that moves simulated results by design, "
              f"in its own commit: {RERECORD}")
        return 1
    if record:
        RECORD_PATH.write_text(
            json.dumps({"seed": SEED, "variant": VARIANT, "workloads": actual}, indent=2) + "\n"
        )
        print(f"recorded {RECORD_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
