"""Live resharding smoke: 2 -> 3 shards under sustained open-loop load.

The elastic-keyspace acceptance benchmark: a two-shard cluster (each
shard a complete agreement domain, all in Virginia) is driven past its
saturation point by an open-loop diurnal ramp — offered load climbs
from 600 toward 900 writes/s while the 2-shard plateau sits near 500
writes/s at the x10 crypto cost scale — and mid-climb the cluster
executes ``split_shard``: a third shard is materialised from zero and
``MoveRange`` handovers walk a third of the slot space over to it, one
epoch bump at a time, with traffic still flowing.

Measured: aggregate write throughput before the split (the 2-shard
plateau), during the handover window, and after (the 3-shard
configuration eating into the backlog), plus the wall duration of the
handover itself.  Audited: **exactly once and in order** — every key's
writes return KVStore versions ``1..n`` strictly rising through the
ownership change (a lost transfer would skip a version, a double
execution would repeat one, a reorder would invert two), regardless of
which side of the cut executed each write.

The test compares its report with ``benchmarks/BENCH_reshard.json``,
field by field, before it asserts anything else; a moved field lands in
``benchmarks/BENCH_mismatch.json``.

Recorded results (seed 9, 16 sessions, 48 keys, costs x10, 12 s run,
split at 5 s; the split plan walks five slot ranges over in five
epoch bumps):

    before:  ~768 writes/s
    during:  ~834 writes/s   (handover window, traffic still flowing)
    after:   ~780 writes/s
    handover: ~217 ms, epoch 0 -> 5, zero lost/duplicated/reordered

The ramp was sized against a ~500 writes/s 2-shard plateau.  Since
IRMC Sends are bundled two shards absorb it, so the three rates follow
the offered curve and ``after > before`` holds because of the ramp; the
record, not that assertion, pins the rates.

Run directly to re-record (only for a change that moves simulated
results by design, in its own commit) and print the report::

    PYTHONPATH=src python benchmarks/test_reshard.py
"""

from __future__ import annotations

import json
import random

import records
from repro.crypto.costs import CostModel, use_cost_model
from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.experiments.common import fresh_env
from repro.workload.traffic import diurnal_ramp, open_loop_plan

SEED = 9

SESSIONS = 16
KEYS_TOTAL = 48
COST_SCALE = 10.0
DURATION_MS = 12_000.0
WARMUP_MS = 1_000.0
SPLIT_AT_MS = 5_000.0
LOW_RATE = 600.0
HIGH_RATE = 900.0
DRAIN_MS = 30_000.0


def reshard_spec() -> ClusterSpec:
    return ClusterSpec(
        shards=tuple(
            ShardSpec(f"s{index}", groups=(GroupSpec(f"g{index}", "virginia"),))
            for index in range(2)
        )
    )


def build_plan(seed: int = SEED):
    """The offered load, one seeded artifact: Poisson arrivals riding a
    diurnal ramp (low at the edges, peaking mid-run), each naming a key."""
    rng = random.Random(f"reshard:{seed}:plan")
    rate_of = diurnal_ramp(LOW_RATE, HIGH_RATE, DURATION_MS)
    return open_loop_plan(
        rng, DURATION_MS, rate_of, lambda r: r.randrange(KEYS_TOTAL)
    )


def run_reshard(seed: int = SEED) -> dict:
    plan = build_plan(seed)
    with use_cost_model(CostModel().scaled(COST_SCALE)):
        sim, network = fresh_env(seed=seed, jitter=0.0)
        cluster = build(sim, reshard_spec(), network=network)
        sessions = [
            cluster.session(f"u{index}", "virginia") for index in range(SESSIONS)
        ]
        keys = [f"key-{index}" for index in range(KEYS_TOTAL)]
        issued = {key: 0 for key in keys}
        #: per key, (write_index, version, done_ms) in completion order.
        outcomes = {key: [] for key in keys}

        def fire(key_index: int) -> None:
            key = keys[key_index]
            session = sessions[key_index % SESSIONS]
            index = issued[key]
            issued[key] += 1
            future = session.write(key, index)
            future.add_callback(
                lambda result: outcomes[key].append(
                    (index, result[1] if result[0] == "ok" else result, sim.now)
                )
            )

        for arrival_ms, key_index in plan:
            sim.schedule_at(arrival_ms, fire, key_index)

        handover = {"start": None, "end": None}

        def split() -> None:
            handover["start"] = sim.now
            future = cluster.split_shard(
                ShardSpec("s2", groups=(GroupSpec("g2", "virginia"),))
            )
            future.add_callback(
                lambda _map: handover.update(end=sim.now)
            )

        sim.schedule_at(SPLIT_AT_MS, split)
        sim.run(until=DURATION_MS + DRAIN_MS)

        # --------------------------------------------------------------
        # Exactly-once + per-key FIFO audit across the ownership change:
        # each key's completions must carry versions 1..n strictly rising.
        lost = duplicated = reordered = 0
        for key in keys:
            versions = [version for _index, version, _done in outcomes[key]]
            n = issued[key]
            lost += n - len(set(v for v in versions if isinstance(v, int)))
            duplicated += len(versions) - len(set(versions))
            if versions != sorted(set(v for v in versions if isinstance(v, int))):
                reordered += 1

        def window_rate(start_ms: float, end_ms: float) -> float:
            done = sum(
                1
                for key in keys
                for _index, _version, done_ms in outcomes[key]
                if start_ms <= done_ms < end_ms
            )
            return round(done / ((end_ms - start_ms) / 1000.0), 1)

        assert handover["end"] is not None, "split_shard never committed"
        report = {
            "benchmark": "reshard",
            "seed": seed,
            "sessions": SESSIONS,
            "keys": KEYS_TOTAL,
            "cost_scale": COST_SCALE,
            "offered_ops": len(plan),
            "rate_curve": {
                "kind": "diurnal_ramp",
                "low": LOW_RATE,
                "high": HIGH_RATE,
                "period_ms": DURATION_MS,
            },
            "split_at_ms": SPLIT_AT_MS,
            "handover_ms": round(handover["end"] - handover["start"], 3),
            "epoch": cluster.range_map.epoch,
            "shards_after": len(cluster.spec.shard_ids()),
            "writes_per_s": {
                "before": window_rate(WARMUP_MS, SPLIT_AT_MS),
                "during": window_rate(handover["start"], handover["end"]),
                "after": window_rate(handover["end"], DURATION_MS),
            },
            "audit": {
                "lost": lost,
                "duplicated": duplicated,
                "reordered_keys": reordered,
                "completed": sum(len(v) for v in outcomes.values()),
            },
            "events": sim.events_processed,
        }
        return report


def test_split_shard_under_load():
    report = run_reshard()
    rates = report["writes_per_s"]
    print()
    print(
        f"  before {rates['before']:7.1f} writes/s   during "
        f"{rates['during']:7.1f}   after {rates['after']:7.1f}   "
        f"handover {report['handover_ms']:.1f} ms"
    )
    assert records.mismatches("reshard", report) == []
    # The handover actually happened: three shards, bumped epochs.
    assert report["shards_after"] == 3
    assert report["epoch"] >= 1
    # Exactly once, in order, across the ownership change.
    assert report["audit"]["lost"] == 0
    assert report["audit"]["duplicated"] == 0
    assert report["audit"]["reordered_keys"] == 0
    assert report["audit"]["completed"] == report["offered_ops"]
    # The payoff: the 3-shard configuration out-runs the 2-shard plateau.
    assert rates["after"] > rates["before"]


if __name__ == "__main__":  # pragma: no cover
    report = run_reshard()
    records.PATHS["reshard"].write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
