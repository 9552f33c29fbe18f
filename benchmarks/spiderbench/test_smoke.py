"""Smoke test of the benchmark itself: schema and determinism, ~1/10 scale.

Not a measurement — it checks that every workload still runs clean
against the current program, that two runs of one input agree exactly,
that tracing leaves simulated results alone, and that the runner emits
exactly the metric names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json

from spiderbench import report
from spiderbench.probes import PROBES
from spiderbench.run import load_spec, spawn
from spiderbench.workloads import WORKLOADS, run_workload, summarise

SCALE = 0.1
SEED = 11


def _child(workload: str, trace: int) -> dict:
    return spawn(
        "--child", workload, "--seed", str(SEED), "--trace", str(trace), "--scale", str(SCALE)
    )


def test_spiderbench_smoke():
    spec = load_spec()
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    simulated = [
        metric["name"] for metric in spec["end_to_end"]
        if metric["name"] not in report.HOST_METRICS
    ]
    for name in WORKLOADS:
        first, _ = run_workload(name, SEED, scale=SCALE)
        again, _ = run_workload(name, SEED, scale=SCALE)
        assert first.violations == [], (name, first.violations)
        assert first.failed == 0 and first.offered > 0, name
        assert first.fingerprint == again.fingerprint, name
        summary = summarise(first)
        assert summary == summarise(again), name
        assert sorted(summary["end_to_end"]) == sorted(simulated), name
        assert all(value > 0 for value in summary["end_to_end"].values()), name

    # The child -> aggregate -> trace fold path, on the workload that goes
    # through a scenario stack (so both wrapped seams are exercised).
    untraced = _child("flash_crowd_armed", trace=0)
    traced = _child("flash_crowd_armed", trace=1)
    result = report.aggregate([untraced, untraced])
    report.add_trace(result, traced, untraced)
    result["layers_host"].update(dict.fromkeys(PROBES, 1.0))
    assert result["violations"] == []
    units = report.units_of(spec)
    for section in ("end_to_end", "per_layer"):
        names = [metric["name"] for metric in spec[section]]
        line = json.loads(report.contract_line(result, names, units))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == names
    reported = set(result["end_to_end"]) | set(result["layers_exact"]) | set(result["layers_host"])
    assert reported == set(units), sorted(reported ^ set(units))
    assert result["layers_exact"]["deploy.calls_per_op"] > 0
    assert result["layers_exact"]["consensus.view_changes"] == 0
