"""Sharded-throughput smoke: aggregate writes/s vs shard count.

The first scale-out benchmark of the declarative deployment API:
write-only sessions drive clusters of 1, 2 and 4 shards (each shard a
complete agreement domain: 4 agreement replicas + one 3-replica
execution group, all in Virginia).  Keys pin each session to one shard
via the cluster's epoch-0 routing table, and the population grows
with the shard count — 32 closed-loop sessions per shard — so that every
shard is saturated at every count (a fixed population of 32 stopped
saturating more than one shard once bundled IRMC Sends tripled a shard's
capacity: at 4 shards it was bound by 32 sessions / 21.5 ms, not by the
shards).  The crypto cost model is scaled x10 so a shard saturates at a
population the simulator handles quickly — exactly the batching
benchmark's setup — which makes the shard count the bottleneck under
test: N independent shards should order roughly N times the writes of
one.

The test compares its report with ``benchmarks/BENCH_sharding.json``,
field by field, before it asserts anything else; a moved field lands in
``benchmarks/BENCH_mismatch.json``.

Recorded results (seed 9, 32 sessions per shard, costs x10, 6 s runs):

    1 shard:    ~991 writes/s   p50 ~33 ms   (execution CPU bound)
    2 shards:  ~1982 writes/s   p50 ~33 ms   (~2.0x)
    4 shards:  ~3973 writes/s   p50 ~33 ms   (~4.0x)

i.e. aggregate write throughput scales linearly with the shard count at
an unchanged per-op latency — shards share nothing, so independent
agreement domains are a clean scale-out axis.

Run directly to re-record (only for a change that moves simulated
results by design, in its own commit) and print the report::

    PYTHONPATH=src python benchmarks/test_sharding.py
"""

from __future__ import annotations

import json

import records
from repro.crypto.costs import CostModel, use_cost_model
from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.experiments.common import fresh_env
from repro.metrics import summarize

SEED = 9

SHARD_COUNTS = (1, 2, 4)
SESSIONS_PER_SHARD = 32
COST_SCALE = 10.0
DURATION_MS = 6_000.0
WARMUP_MS = 1_000.0


def sharded_spec(n_shards: int) -> ClusterSpec:
    return ClusterSpec(
        shards=tuple(
            ShardSpec(f"s{index}", groups=(GroupSpec(f"g{index}", "virginia"),))
            for index in range(n_shards)
        )
    )


def run_shard_count(n_shards: int, seed: int = SEED) -> dict:
    with use_cost_model(CostModel().scaled(COST_SCALE)):
        sim, network = fresh_env(seed=seed, jitter=0.0)
        cluster = build(sim, sharded_spec(n_shards), network=network)
        shard_ids = cluster.spec.shard_ids()
        sessions = []
        session_key = {}
        per_shard = {sid: 0 for sid in shard_ids}
        for index in range(SESSIONS_PER_SHARD * n_shards):
            shard_id = shard_ids[index % n_shards]
            session = cluster.session(f"u{index}", "virginia")
            # One dedicated key per session, owned by its designated shard.
            key = cluster.range_map.keys_for(
                shard_id, per_shard[shard_id] + 1, prefix=f"{shard_id}:k"
            )[-1]
            per_shard[shard_id] += 1
            sessions.append(session)
            session_key[session.name] = key

        def issue(session):
            if sim.now >= DURATION_MS:
                return
            future = session.write(session_key[session.name], sim.now)
            future.add_callback(lambda _result: issue(session))

        for session in sessions:
            sim.schedule_at(0.0, issue, session)
        sim.run(until=DURATION_MS + 20_000.0)

        samples = [sample for s in sessions for sample in s.completed]
        summary = summarize(
            [(kind, issued, latency) for kind, _key, issued, latency in samples],
            kind="write",
            after_ms=WARMUP_MS,
        )
        window_s = (DURATION_MS - WARMUP_MS) / 1000.0
        return {
            "shards": n_shards,
            "writes_per_s": round(summary.count / window_s, 1),
            "p50_ms": round(summary.p50, 1),
            "events": sim.events_processed,
        }


def run_all(seed: int = SEED) -> dict:
    results = {n: run_shard_count(n, seed) for n in SHARD_COUNTS}
    return {
        "benchmark": "sharding",
        "seed": seed,
        "sessions_per_shard": SESSIONS_PER_SHARD,
        "cost_scale": COST_SCALE,
        "results": {str(n): stats for n, stats in results.items()},
    }


def test_write_throughput_scales_with_shard_count():
    report = run_all()
    results = {int(n): stats for n, stats in report["results"].items()}
    print()
    for n, stats in sorted(results.items()):
        print(
            f"  {n} shard(s): {stats['writes_per_s']:7.1f} writes/s  "
            f"p50 {stats['p50_ms']:7.1f} ms"
        )
    assert records.mismatches("sharding", report) == []
    # The tentpole claim: aggregate write throughput scales with the
    # shard count while one shard is saturated.
    assert results[2]["writes_per_s"] >= 1.5 * results[1]["writes_per_s"]
    assert results[4]["writes_per_s"] >= 2.5 * results[1]["writes_per_s"]
    # The curve is monotone.
    assert results[4]["writes_per_s"] > results[2]["writes_per_s"]
    # And shards share nothing: the same per-shard load, the same latency.
    assert results[4]["p50_ms"] <= 1.1 * results[1]["p50_ms"]


if __name__ == "__main__":  # pragma: no cover
    report = run_all()
    records.PATHS["sharding"].write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
