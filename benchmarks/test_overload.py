"""Overload smoke: flash crowd vs the session middleware chain.

The traffic-shaping story in one A/B run: a 2-shard cluster (costs x10,
so each agreement group saturates around ~250 writes/s) is offered the
*same* precomputed open-loop arrival schedule twice — Zipfian-hot keys,
a steady baseline phase, then a flash-crowd window at roughly 4x the
cluster's write saturation rate.

* **baseline** — no middleware.  The open-loop backlog has nowhere to
  go: session queues grow without bound for the length of the flash and
  write latency climbs to most of a second.
* **armed** — slo-metrics + admission + rate-limit + read-cache.  The
  admission gate bounds queued-plus-in-flight work per shard, the token
  bucket clips per-session bursts, and the read cache absorbs the
  Zipfian-hot weak reads.  Excess load is shed *synchronously* as
  ``Rejected`` instead of queueing, so admitted writes keep a bounded
  p99 through the flash, and the SLO counters reconcile exactly:
  ``offered == completed + served + shed``.

Both arms are thin :class:`~repro.scenarios.ScenarioSpec` definitions
executed by :func:`repro.scenarios.run`; they share one ``flash-plan``
workload fragment, and the precomputed arrival schedule is a pure
function of that fragment and the seed — the A/B comparison sees
byte-identical offered load *by construction*, and the equal
``offered_ops`` of the two arms shows it.

The test compares its report with ``benchmarks/BENCH_overload.json``,
field by field, before it asserts anything else; a moved field lands in
``benchmarks/BENCH_mismatch.json``.  Recorded results (seed 11, flash
window 2.0-3.5 s at 4000 ops/s offered, ~6900 ops total):

    baseline: flash-window write p99 ~840 ms, peak backlog ~980 ops
    armed:    flash-window write p99  ~72 ms, peak backlog   60 ops
              (<= 2 shards x admission depth 32), ~1070 ops shed as
              ``Rejected(overload)``, ~1230 hot reads served from the
              cache, and offered == completed + served + shed exactly

A session lane sends the same-key writes queued behind its in-flight
one as one compound request, so a hot key's backlog drains one
ordering round per run rather than per write.

Run directly to re-record (only for a change that moves simulated
results by design, in its own commit) and print the report::

    PYTHONPATH=src python benchmarks/test_overload.py
"""

from __future__ import annotations

import json

import records
from repro.scenarios import ScenarioSpec
from repro.scenarios import run as run_scenario

SEED = 11

COST_SCALE = 10.0
N_SHARDS = 2
SESSIONS = 24
N_KEYS = 32
ZIPF_SKEW = 0.99
WRITE_FRACTION = 0.5

# Two shards saturate around ~500 writes/s at costs x10 (see the
# sharding benchmark); at a 50% write mix that is ~1000 ops/s, so the
# flash window offers ~4x saturation.
BASE_RATE = 240.0  # ops/s, comfortably below saturation
FLASH_RATE = 4_000.0  # ops/s, ~4x the saturated write throughput
FLASH_START_MS = 2_000.0
FLASH_END_MS = 3_500.0
DURATION_MS = 5_000.0
DRAIN_MS = 40_000.0
PROBE_MS = 50.0

#: the shared workload fragment — same dict in both scenarios, so both
#: arms replay the same plan.
WORKLOAD = {
    "kind": "flash-plan",
    "sessions": SESSIONS,
    "n_keys": N_KEYS,
    "skew": ZIPF_SKEW,
    "write_fraction": WRITE_FRACTION,
    "base_rate": BASE_RATE,
    "flash_rate": FLASH_RATE,
    "flash_start_ms": FLASH_START_MS,
    "flash_end_ms": FLASH_END_MS,
    "duration_ms": DURATION_MS,
}

ARMED_MIDDLEWARE = [
    {"name": "slo-metrics"},
    {"name": "admission", "options": {"depth": 32}},
    {"name": "rate-limit", "options": {"rate": 150.0, "burst": 30.0}},
    {"name": "read-cache", "options": {"lease_ms": 300.0}},
]


def overload_scenario(name: str, middleware) -> ScenarioSpec:
    return ScenarioSpec.of(
        name=name,
        stack="overload",
        topology={
            "shards": [
                {
                    "shard_id": f"s{index}",
                    "groups": [{"group_id": f"g{index}", "region": "virginia"}],
                }
                for index in range(N_SHARDS)
            ],
            "config": {},
            "middleware": list(middleware),
        },
        workload=WORKLOAD,
        scale={"cost_scale": COST_SCALE, "drain_ms": DRAIN_MS, "probe_ms": PROBE_MS},
    )


def run_all(seed: int = SEED) -> dict:
    baseline = run_scenario(overload_scenario("overload-baseline", ()), seed)
    armed = run_scenario(overload_scenario("overload-armed", ARMED_MIDDLEWARE), seed)
    offered_ops = baseline.pop("offered_ops")
    assert armed.pop("offered_ops") == offered_ops
    return {
        "benchmark": "overload",
        "seed": seed,
        "sessions": SESSIONS,
        "cost_scale": COST_SCALE,
        "offered_ops": offered_ops,
        "base_rate_ops_s": BASE_RATE,
        "flash_rate_ops_s": FLASH_RATE,
        "flash_window_ms": [FLASH_START_MS, FLASH_END_MS],
        "baseline": baseline,
        "armed": armed,
    }


def test_middleware_bounds_overload():
    report = run_all(SEED)
    baseline, armed = report["baseline"], report["armed"]
    print()
    for label, stats in (("baseline", baseline), ("armed", armed)):
        print(
            f"  {label:8s}: flash write p99 {stats['flash_write_p99_ms']:8.1f} ms  "
            f"peak backlog {stats['peak_backlog']:5d}"
        )
    assert records.mismatches("overload", report) == []

    # The accounting identity is exact: every offered op either completed,
    # was served locally (cache), or was shed with a reason.
    slo = armed["slo"]
    offered = sum(slo["offered"].values())
    completed = sum(slo["completed"].values())
    served = sum(slo["served"].values())
    shed = sum(slo["shed"].values())
    assert offered == report["offered_ops"]
    assert offered == completed + served + shed
    # The flash actually overloaded the cluster and the chain responded:
    # load was shed and the Zipfian-hot reads hit the cache.
    assert shed > 0
    assert served > 0

    # The headline: with the chain armed, admitted writes keep a bounded
    # p99 through the flash window; the unprotected baseline's open-loop
    # backlog drives p99 several times higher (queueing for most of a
    # second).
    assert armed["flash_write_p99_ms"] < 1_500.0
    assert baseline["flash_write_p99_ms"] >= 3.0 * armed["flash_write_p99_ms"]
    # And the queue growth itself is bounded by the admission depth
    # (per shard) instead of tracking the offered backlog.
    assert baseline["peak_backlog"] >= 5 * armed["peak_backlog"]


if __name__ == "__main__":  # pragma: no cover
    report = run_all()
    records.PATHS["overload"].write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
