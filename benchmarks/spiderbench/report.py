"""Fold repetitions into results, print them, and judge two reports.

Plain data in, plain data out: nothing here imports the program, so the
runner can load it before it knows whether ``src/repro`` exists.

A *repetition* is what one child process measured (``run.child_rep``); a
*result* is a workload's repetitions folded by :func:`aggregate`; a
*report* is the full-ledger file holding every workload's result.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

#: end-to-end metrics measured on the host clock.
HOST_METRICS = ("host_us_per_op", "setup_s", "peak_rss_mb")
#: if even the least disturbed repetition's wall clock ran this far ahead
#: of its CPU clock, a host time resting on the run is unresolved.
MAX_WALL_OVER_CPU = 1.15
#: input variants of one seed that a run cycles its repetitions through.
VARIANTS = 3


def slice_floor_s(reps: Sequence[dict], rank: int = 0) -> float:
    """Host CPU seconds one repetition costs when nothing disturbs it.

    Every repetition times ``Simulator.run`` in the same slices of
    simulated time, and does the same kind of work in a given slice.
    Noise on a shared box only ever adds time, and it comes in bursts, so
    for each slice take the cheapest CPU time per event that any
    repetition achieved (``rank=1``: the second cheapest), charge it for
    the slice's mean event count, and add the slices up.  A whole
    repetition has to be quiet to give a good minimum; a slice only needs
    one quiet repetition out of all that ran.
    """
    total = 0.0
    for column in zip(*(rep["host"]["slices"] for rep in reps)):
        per_event = sorted(cpu_s / max(events, 1) for cpu_s, events in column)
        mean_events = statistics.fmean(events for _cpu_s, events in column)
        total += per_event[min(rank, len(per_event) - 1)] * mean_events
    return total


def _runner_up_gap(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return (ordered[1] - ordered[0]) / ordered[0] if len(ordered) > 1 else 0.0


def _quartile_gap(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def aggregate(reps: List[dict]) -> dict:
    """Fold a workload's untraced repetitions into one result.

    Repetitions cycle through :data:`VARIANTS` input variants of the seed
    (variant 0 is the seed itself).  Simulated numbers are exact for an
    input: two repetitions of one variant must agree on all of them and
    on the fingerprint, or the run is non-deterministic and fails.  The
    simulated end-to-end metrics are the median over the variants, which
    steadies the tail percentiles across seeds (one variant in which a
    crash swallows a dozen in-flight requests does not set the p99);
    counts (``attempted``, ``failed``, ``ops``) are summed; the exact
    per-layer counters are variant 0's, the one the traced repetition
    repeats.

    Host times report a floor, because noise on a shared box is one-sided:
    ``host_us_per_op`` the slice floor (:func:`slice_floor_s`), ``setup_s``
    the fastest repetition; ``peak_rss_mb`` the median.  ``host_resolution``
    says how well each is resolved — the distance to the runner-up floor,
    or the quartile distance of the median — as a share of the value.
    """
    variants: Dict[int, dict] = {}
    violations: List[str] = []
    for rep in reps:
        first = variants.setdefault(rep["variant"], rep)
        if (rep["sim"], rep["fingerprint"]) != (first["sim"], first["fingerprint"]):
            violations.append(
                f"non-deterministic: two repetitions of {rep['workload']} seed "
                f"{rep['seed']} variant {rep['variant']} disagree on simulated results"
            )
    inputs = [variants[index] for index in sorted(variants)]
    for rep in inputs:
        violations += [f"variant {rep['variant']}: {text}" for text in rep["violations"]]
        if rep["failed"]:
            violations.append(
                f"variant {rep['variant']}: {rep['failed']} of {rep['attempted']} ops failed"
            )
    base = inputs[0]
    end_to_end = {
        name: statistics.median(rep["sim"]["end_to_end"][name] for rep in inputs)
        for name in base["sim"]["end_to_end"]
    }
    floor_s = slice_floor_s(reps)
    mean_ops = statistics.fmean(rep["ops"] for rep in reps)
    setups = [rep["host"]["setup_s"] for rep in reps]
    memory = [rep["host"]["peak_rss_mb"] for rep in reps]
    end_to_end["host_us_per_op"] = floor_s / mean_ops * 1e6
    end_to_end["setup_s"] = min(setups)
    end_to_end["peak_rss_mb"] = statistics.median(memory)
    return {
        "workload": base["workload"],
        "seed": base["seed"],
        "reps": len(reps),
        "attempted": sum(rep["attempted"] for rep in inputs),
        "failed": sum(rep["failed"] for rep in inputs),
        "ops": sum(rep["ops"] for rep in inputs),
        "fingerprints": [rep["fingerprint"] for rep in inputs],
        "notes": base["notes"],
        "violations": violations,
        "end_to_end": end_to_end,
        "end_to_end_by_variant": [rep["sim"]["end_to_end"] for rep in inputs],
        "layers_exact": dict(base["sim"]["layers"]),
        "layers_host": {
            "sim.events_per_host_s": statistics.fmean(rep["events"] for rep in reps) / floor_s
        },
        "host_reps": [
            {name: value for name, value in rep["host"].items() if name != "slices"}
            for rep in reps
        ],
        "host_resolution": {
            "host_us_per_op": (slice_floor_s(reps, rank=1) - floor_s) / floor_s,
            "setup_s": _runner_up_gap(setups),
            "peak_rss_mb": _quartile_gap(memory),
        },
        "least_wall_over_cpu": min(rep["host"]["wall_over_cpu"] for rep in reps),
        "spans": base["spans"],
    }


def add_trace(result: dict, traced: dict, untraced: dict) -> None:
    """Fold the traced repetition's ledger into ``result`` — never into an
    end-to-end metric.  The hooks cost no simulated time, so the traced
    repetition's simulated results must equal the untraced ones."""
    if (traced["sim"], traced["fingerprint"]) != (untraced["sim"], untraced["fingerprint"]):
        result["violations"].append("the traced repetition changed simulated results")
    trace = traced["trace"]
    result["layers_exact"].update(trace["exact"])
    host = result["layers_host"]
    host.update(trace["host"])
    host["trace.overhead_ratio"] = traced["host"]["run_cpu_s"] / untraced["host"]["run_cpu_s"]
    # The profiler reads the wall clock, so its coverage is taken against
    # the traced repetition's wall time inside Simulator.run.
    host["trace.profiled_share"] = host.pop("trace.profiled_s") / traced["host"]["run_wall_s"]
    result["trace_spans"] = traced["spans"]
    result["traffic_unowned"] = trace["traffic_unowned"]


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def units_of(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(values: Dict[str, float], units: Dict[str, str]) -> None:
    for name, value in sorted(values.items()):
        print(f"  {name:36s} {value:18.6f} {units.get(name, '')}")


def print_result(result: dict, units: Dict[str, str]) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  reps {result['reps']}  "
        f"attempted {result['attempted']}  failed {result['failed']}  ops {result['ops']}  "
        f"sim_fingerprints {result['fingerprints']}"
    )
    for section in ("end_to_end", "layers_exact", "layers_host"):
        print_metrics(result[section], units)
    for violation in result["violations"]:
        print(f"  VIOLATION: {violation}")


def contract_line(result: dict, names: Sequence[str], units: Dict[str, str]) -> str:
    """The one JSON object ``BENCHMARK.json`` promises as the last line."""
    values = {**result["end_to_end"], **result["layers_exact"], **result["layers_host"]}
    return json.dumps(
        {
            "correct": not result["violations"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
        }
    )


# ----------------------------------------------------------------------
# Comparing two reports
# ----------------------------------------------------------------------
def _verdict(metric: dict, a: float, b: float) -> str:
    if a == b:
        return "identical"
    change = (b - a) / abs(a) if a else float("inf")
    gain = change if metric["better"] == "higher" else -change
    if gain < -metric["bound"]:
        return "regressed"
    return "improved" if gain > metric["bound"] else "within bound"


def _unresolved(metric: dict, result: dict) -> bool:
    if result["host_resolution"][metric["name"]] > metric["bound"]:
        return True
    return metric["unit"] != "MB" and result["least_wall_over_cpu"] > MAX_WALL_OVER_CPU


def compare_reports(a: dict, b: dict, spec: dict, same_code: bool = False) -> int:
    """One row per (workload, end-to-end metric), B judged against A.

    * ``identical`` — reads exactly the same (a simulated metric must, for
      one seed, unless the program's simulated behaviour changed);
    * ``improved`` / ``within bound`` / ``regressed`` — by the metric's
      ``better`` direction and ``bound`` (a share of A's value);
    * ``unresolved`` — a host metric measured more coarsely than its bound
      (``host_resolution``), or a host time from a run in which every
      repetition's wall/cpu was above 1.15: the difference, whatever it
      reads, is not evidence.

    Counts and fingerprints compare by exact equality, one row each per
    workload.  Returns 1 if any metric regressed.  ``same_code`` (the
    self-check of two runs of one commit) also fails on any simulated
    difference and on a host metric that moved past its bound either way.
    """
    rows: List[Tuple[str, str, str, str]] = []
    bad = 0
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        left, right = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = left["end_to_end"][name], right["end_to_end"][name]
            verdict = _verdict(metric, x, y)
            host = name in HOST_METRICS
            if same_code:
                bad += not (verdict == "identical" or (host and verdict == "within bound"))
            else:
                bad += verdict == "regressed"
            if host and verdict != "identical" and (
                _unresolved(metric, left) or _unresolved(metric, right)
            ):
                verdict = f"unresolved (reads {verdict})"
            rows.append((workload, name, f"{x:.6g} -> {y:.6g}", verdict))
        same_print = left["fingerprints"] == right["fingerprints"]
        changed = sorted(
            name
            for name in set(left["layers_exact"]) | set(right["layers_exact"])
            if left["layers_exact"].get(name) != right["layers_exact"].get(name)
        )
        rows.append(
            (workload, "sim_fingerprints", f"{left['fingerprints']} -> {right['fingerprints']}",
             "identical" if same_print else "changed")
        )
        rows.append(
            (workload, "exact counters", f"{len(left['layers_exact'])} compared",
             "identical" if not changed else "changed: " + ", ".join(changed[:6]))
        )
        if same_code and (not same_print or changed):
            bad += 1
    widths = [max(len(row[column]) for row in rows) for column in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)), row[3], sep="  ")
    print(f"{bad} row(s) outside the bounds" if bad else "all rows inside the bounds")
    return 1 if bad else 0
