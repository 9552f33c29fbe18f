"""spiderbench runner: one command, every metric by name, non-zero on failure.

Three ways in (see ``README.md``):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one workload,
  the shape ``BENCHMARK.json`` promises: repetitions for about ``S``
  seconds, the last line of stdout one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``);
* ``run.py [--seed 11] [--out FILE]`` — the full ledger: 5 repetitions of
  every workload interleaved round-robin, one traced repetition each,
  the unit-cost probes, one JSON report;
* ``run.py --compare A.json B.json`` / ``--selfcheck`` — judge two
  reports against the bounds in ``BENCHMARK.json``.

Every repetition is its own child process (``--child``), one at a time,
with ``PYTHONHASHSEED=0``; the parent only aggregates.
"""

# lint: allow-file[D102] -- the runner *measures* host time; simulated
# results are pinned separately by sim_fingerprint
from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

_STARTED_WALL_S = time.perf_counter()

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _entry in (str(HERE.parent), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from spiderbench import report  # noqa: E402 - needs the path set above

SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out" / "spiderbench.json"
FULL_REPS = 5
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# Child: one repetition
# ----------------------------------------------------------------------
def child_rep(workload: str, seed: int, variant: int, trace: bool, scale: float) -> dict:
    """Run one repetition in this process and describe it as plain data."""
    import resource
    import zlib

    from spiderbench import ledger
    from spiderbench.workloads import run_workload, summarise

    # Variant 0 is the seed itself (so seed 11 reproduces the committed
    # BENCH_overload.json); the others are namespaced derivations of it.
    inputs = seed if variant == 0 else zlib.crc32(f"bench:{seed}:variant:{variant}".encode())
    outcome, instruments = run_workload(workload, inputs, scale=scale, trace=trace)
    collect_started = time.perf_counter()
    summary = summarise(outcome)
    ops = len(outcome.samples)
    end_ms = outcome.end_ms
    run_cpu_s, run_wall_s, events = instruments.between(0.0, end_ms)
    events -= outcome.probe_events
    idle_events = instruments.between(instruments.idle_from_ms, end_ms)[2]
    layers = summary["layers"]
    layers["sim.events_per_op"] = events / ops
    layers["sim.idle_events_per_sim_s"] = idle_events / (
        (end_ms - instruments.idle_from_ms) / 1000.0
    )
    rep = {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "attempted": outcome.offered,
        "failed": outcome.failed,
        "ops": ops,
        "events": events,
        "fingerprint": outcome.fingerprint,
        "notes": outcome.notes,
        "violations": outcome.violations,
        "sim": {"end_to_end": summary["end_to_end"], "layers": layers},
        "host": {
            # CPU seconds since the interpreter started: imports, build, plan
            "setup_s": instruments.first_run_cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "run_cpu_s": run_cpu_s,
            "run_wall_s": run_wall_s,
            "wall_over_cpu": run_wall_s / run_cpu_s,
            # per slice of simulated time: (cpu_s, events)
            "slices": [(leg[1], leg[3]) for leg in instruments.legs],
        },
    }
    if trace:
        calls, self_time = ledger.fold_profile(instruments.profile, ops)
        traffic, unowned = ledger.fold_traffic(instruments.traffic, ops)
        rep["trace"] = {
            "exact": {**calls, **traffic},
            "host": self_time,
            "traffic_unowned": unowned,
        }
    issue_end = instruments.first_run_wall_s + instruments.between(0.0, instruments.issue_end_ms)[1]
    spans = (
        ("setup", _STARTED_WALL_S, instruments.first_run_wall_s),
        ("issue", instruments.first_run_wall_s, issue_end),
        ("drain", issue_end, instruments.last_run_wall_s),
        ("collect", collect_started, time.perf_counter()),
    )
    rep["spans"] = [
        {
            "name": name,
            "parent": "rep",
            "start_s": start - _STARTED_WALL_S,
            "end_s": end - _STARTED_WALL_S,
        }
        for name, start, end in spans
    ]
    return rep


# ----------------------------------------------------------------------
# Parent: children, one at a time
# ----------------------------------------------------------------------
def spawn(*arguments: str) -> dict:
    """Run this file as a child process; parse the JSON it prints last."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"spiderbench: child {' '.join(arguments)} exited {done.returncode}")
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def spawn_rep(workload: str, seed: int, variant: int = 0, trace: bool = False) -> dict:
    return spawn(
        "--child", workload, "--seed", str(seed), "--variant", str(variant),
        "--trace", str(int(trace)),
    )


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_contract(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload, as ``BENCHMARK.json`` describes it."""
    spec = load_spec()
    units = report.units_of(spec)
    deadline = time.monotonic() + seconds
    reps = [spawn_rep(workload, seed)]
    if trace:
        result = report.aggregate(reps)
        report.add_trace(result, spawn_rep(workload, seed, trace=True), reps[0])
        result["layers_host"].update(spawn("--probe"))
        names = [metric["name"] for metric in spec["per_layer"]]
    else:
        # every variant once, one of them twice (the determinism check),
        # then more for as long as the time allows
        while len(reps) <= report.VARIANTS or time.monotonic() < deadline:
            reps.append(spawn_rep(workload, seed, variant=len(reps) % report.VARIANTS))
        result = report.aggregate(reps)
        names = [metric["name"] for metric in spec["end_to_end"]]
    report.print_result(result, units)
    print(report.contract_line(result, names, units))
    return 1 if result["violations"] else 0


def run_full(seed: int, out: pathlib.Path) -> dict:
    """Every workload, ``FULL_REPS`` repetitions interleaved round-robin so
    a noisy burst does not land on one workload, then one traced
    repetition each, then the probes."""
    spec = load_spec()
    units = report.units_of(spec)
    names = [workload["name"] for workload in spec["workloads"]]
    reps = {name: [] for name in names}
    for index in range(FULL_REPS):
        for name in names:
            reps[name].append(spawn_rep(name, seed, variant=index % report.VARIANTS))
    full = {"benchmark": "spiderbench", "seed": seed, "workloads": {}}
    for name in names:
        result = report.aggregate(reps[name])
        report.add_trace(result, spawn_rep(name, seed, trace=True), reps[name][0])
        full["workloads"][name] = result
        report.print_result(result, units)
    full["probes"] = spawn("--probe")
    print("== probes")
    report.print_metrics(full["probes"], units)
    full["ok"] = not any(result["violations"] for result in full["workloads"].values())
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out}")
    return full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (BENCHMARK.json shape)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--variant", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(pathlib.Path(path).read_text()) for path in args.compare)
        return report.compare_reports(first, second, load_spec())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"spiderbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        rep = child_rep(args.child, args.seed, args.variant, bool(args.trace), args.scale)
        print(json.dumps(rep))
        return 0
    if args.probe:
        from spiderbench.probes import run_probes

        print(json.dumps(run_probes()))
        return 0
    if args.workload:
        return run_contract(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.selfcheck:
        first = run_full(args.seed, args.out.with_suffix(".a.json"))
        second = run_full(args.seed, args.out.with_suffix(".b.json"))
        agree = report.compare_reports(first, second, load_spec(), same_code=True)
        return 1 if agree or not (first["ok"] and second["ok"]) else 0
    return 0 if run_full(args.seed, args.out)["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
