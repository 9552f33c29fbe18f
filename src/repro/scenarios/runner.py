"""The overload scenario's runner: one validated cell.

:func:`run` validates a :class:`~repro.scenarios.spec.ScenarioSpec` and
replays its precomputed ``flash-plan`` arrival schedule against the
spec's cluster topology (with or without a middleware chain), returning
latency, backlog and SLO counters.  The plan is a pure function of the
workload fragment and the seed, so a baseline and an armed scenario
sharing a workload see byte-identical offered load — which is what makes
their comparison an A/B (``benchmarks/test_overload.py``).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.scenarios.spec import ScenarioSpec

__all__ = ["run"]


def run(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    """Validate and execute one overload cell, returning its stats dict."""
    from repro.crypto.costs import CostModel, use_cost_model
    from repro.deploy import build
    from repro.experiments.common import fresh_env
    from repro.metrics import summarize
    from repro.workload.traffic import flash_plan

    spec.validate()
    options = spec.workload.options_dict()
    plan = flash_plan(seed, **options)
    scale = spec.scale_dict()
    cost_scale = scale.get("cost_scale", 1.0)
    drain_ms = scale.get("drain_ms", 0.0)
    probe_ms = scale.get("probe_ms", 50.0)
    n_sessions = options["sessions"]
    duration_ms = options["duration_ms"]

    with use_cost_model(CostModel().scaled(cost_scale)):
        sim, network = fresh_env(seed=seed, jitter=0.0)
        cluster = build(sim, spec.topology, network=network)
        sessions = [
            cluster.session(f"u{index}", "virginia") for index in range(n_sessions)
        ]

        def fire(descriptor):
            session_index, kind, key = descriptor
            session = sessions[session_index]
            if kind == "write":
                session.write(key, sim.now)
            else:
                session.read(key)

        for arrival_ms, descriptor in plan:
            sim.schedule_at(arrival_ms, fire, descriptor)

        peak_backlog = [0]

        def probe():
            backlog = sum(session.pending_ops for session in sessions)
            if backlog > peak_backlog[0]:
                peak_backlog[0] = backlog
            if sim.now < duration_ms:
                sim.schedule_at(sim.now + probe_ms, probe)

        sim.schedule_at(0.0, probe)
        sim.run(until=duration_ms + drain_ms)

        samples = [sample for s in sessions for sample in s.completed]
        writes = [
            (kind, issued, latency) for kind, _key, issued, latency in samples
        ]
        flash = summarize(
            writes,
            kind="write",
            after_ms=options["flash_start_ms"],
            before_ms=options["flash_end_ms"],
        )
        overall = summarize(writes, kind="write")
        result = {
            "middleware": [entry.name for entry in spec.topology.middleware],
            "writes_completed": overall.count,
            "write_p50_ms": round(overall.p50, 1),
            "write_p99_ms": round(overall.p99, 1),
            "flash_write_p99_ms": round(flash.p99, 1),
            "peak_backlog": peak_backlog[0],
            "events": sim.events_processed,
            "offered_ops": len(plan),
        }
        if cluster.chain is not None:
            snap = cluster.middleware_instance("slo-metrics").snapshot()
            result["slo"] = {
                "offered": snap["offered"],
                "completed": snap["completed"],
                "served": snap["served"],
                "shed": snap["shed"],
                "max_inflight": snap["max_inflight"],
            }
        return result
