"""Golden-parity regressions: migrated surfaces == their hand-wired originals.

Every experiment surface that moved onto the declarative scenario path
must stay byte-identical to the code it replaced.  Each test here runs a
(reduced-scale) cell through the scenario runner AND through an inline
copy of the pre-migration wiring, then compares results exactly — no
tolerances.  The full-scale equivalents are pinned by committed
artifacts: ``tests/chaos_golden.json`` (every chaos and reshard suite
cell, compared by ``tests/test_chaos_golden.py`` and the
``benchmarks/test_chaos.py`` sweep), ``BENCH_overload.json`` and the
perf ``sim_fingerprint``s.
"""

from __future__ import annotations

import pathlib

from repro.scenarios import BuildCache, ScenarioSpec, load_suite
from repro.scenarios import run as run_scenario

SUITE_PATH = pathlib.Path(__file__).parent.parent / "suites" / "chaos.yaml"


# ----------------------------------------------------------------------
# chaos: suites/chaos.yaml declares the sweep (its cells: the golden file)
# ----------------------------------------------------------------------
def test_chaos_suite_declares_the_full_sweep():
    suite = load_suite(SUITE_PATH)
    assert sorted(spec.name for spec in suite.scenarios) == sorted(
        [
            "pbft", "pbft-vc-crash", "pbft-wipe", "raft", "raft-skew",
            "spider", "spider-cp-crash", "spider-disk", "spider-shard",
            "spider-reshard", "irmc-rc", "irmc-sc", "irmc-sc-wipe",
            "irmc-equivocate",
        ]
    )
    assert suite.seeds == tuple(range(1, 13))


# ----------------------------------------------------------------------
# fig7: scenario cell == hand-wired build + measure
# ----------------------------------------------------------------------
def test_fig7_cell_matches_handwired_path():
    from repro.experiments.common import (
        REGION_LABEL, REGIONS, RunScale, build_bft, fresh_env, measure_latency,
    )

    scale_kwargs = dict(
        clients_per_region=1, duration_ms=1500.0, warmup_ms=300.0,
        think_ms=200.0, drain_ms=3000.0,
    )
    spec = ScenarioSpec.of(
        name="fig7-parity",
        stack="fig7-latency",
        params={"system": "bft", "leader": "tokyo"},
        workload={"kind": "closed-loop", **scale_kwargs},
    )
    row = run_scenario(spec, 3)

    sim, network = fresh_env(seed=3)
    system = build_bft(sim, network, leader="tokyo")
    summaries = measure_latency(
        sim, system.make_client, REGIONS, RunScale(**scale_kwargs), kinds=["write"]
    )
    expected = {"system": "BFT", "leader": REGION_LABEL["tokyo"]}
    for region in REGIONS:
        expected[f"{REGION_LABEL[region]} p50"] = summaries[region].p50
        expected[f"{REGION_LABEL[region]} p90"] = summaries[region].p90
    assert row == expected


# ----------------------------------------------------------------------
# fig9: scenario cell == direct bench_channel probes
# ----------------------------------------------------------------------
def test_fig9_cell_matches_handwired_path():
    from repro.experiments.fig9_irmc import bench_channel

    spec = ScenarioSpec.of(
        name="fig9-parity",
        stack="irmc-bench",
        params={"channel": "rc"},
        workload={
            "kind": "irmc-stream", "size": 256, "duration_ms": 500.0,
            "cpu_probe_rate_per_s": 800.0,
        },
    )
    row = run_scenario(spec, 1)

    saturated = bench_channel("rc", 256, 500.0, seed=1)
    paced = bench_channel("rc", 256, 500.0, seed=1, rate_per_s=800.0)
    assert row == {
        "irmc": "RC",
        "size [B]": 256,
        "throughput [msg/s]": saturated.throughput_per_s,
        "sender CPU [%]": paced.sender_cpu * 100,
        "receiver CPU [%]": paced.receiver_cpu * 100,
        "WAN [MB/s]": saturated.wan_mbps,
        "LAN [MB/s]": saturated.lan_mbps,
    }


# ----------------------------------------------------------------------
# overload: scenario A/B == hand-wired plan replay (and shared plan)
# ----------------------------------------------------------------------
def test_overload_cells_match_handwired_path():
    import random

    from repro.core import SpiderConfig
    from repro.crypto.costs import CostModel, use_cost_model
    from repro.deploy import (
        ClusterSpec, GroupSpec, MiddlewareSpec, ShardSpec, build,
    )
    from repro.experiments.common import fresh_env
    from repro.metrics import summarize
    from repro.workload import ZipfianKeys, flash_crowd, open_loop_plan

    duration_ms, drain_ms = 800.0, 4000.0
    workload = {
        "kind": "flash-plan", "sessions": 4, "n_keys": 8, "skew": 0.99,
        "write_fraction": 0.5, "base_rate": 80.0, "flash_rate": 600.0,
        "flash_start_ms": 250.0, "flash_end_ms": 550.0,
        "duration_ms": duration_ms,
    }
    armed_middleware = [
        {"name": "slo-metrics"},
        {"name": "admission", "options": {"depth": 8}},
    ]

    cache = BuildCache()
    rows = {}
    for label, middleware in (("baseline", []), ("armed", armed_middleware)):
        spec = ScenarioSpec.of(
            name=f"overload-parity-{label}",
            stack="overload",
            topology={
                "shards": [
                    {"shard_id": "s0",
                     "groups": [{"group_id": "g0", "region": "virginia"}]},
                ],
                "config": {},
                "middleware": middleware,
            },
            workload=workload,
            scale={"cost_scale": 10.0, "drain_ms": drain_ms, "probe_ms": 50.0},
        )
        rows[label] = run_scenario(spec, 11, cache)

    # Both arms replayed ONE cached plan — the A/B contract.
    assert cache.stats()["hits"] == 1

    # Hand-wired reference, exactly the pre-migration wiring.
    rng = random.Random(11)
    keys = ZipfianKeys(8, skew=0.99)
    rate_of = flash_crowd(80.0, 600.0, 250.0, 550.0)

    def describe(r):
        kind = "write" if r.random() < 0.5 else "weak-read"
        return (r.randrange(4), kind, keys.sample(r))

    plan = open_loop_plan(rng, duration_ms, rate_of, describe)

    def reference(middleware):
        with use_cost_model(CostModel().scaled(10.0)):
            sim, network = fresh_env(seed=11, jitter=0.0)
            cluster = build(
                sim,
                ClusterSpec(
                    shards=(ShardSpec("s0", groups=(GroupSpec("g0", "virginia"),)),),
                    config=SpiderConfig(),
                    middleware=tuple(middleware),
                ),
                network=network,
            )
            sessions = [cluster.session(f"u{i}", "virginia") for i in range(4)]

            def fire(descriptor):
                index, kind, key = descriptor
                session = sessions[index]
                if kind == "write":
                    session.write(key, sim.now)
                else:
                    session.read(key)

            for arrival_ms, descriptor in plan:
                sim.schedule_at(arrival_ms, fire, descriptor)
            peak = [0]

            def probe():
                backlog = sum(s.pending_ops for s in sessions)
                peak[0] = max(peak[0], backlog)
                if sim.now < duration_ms:
                    sim.schedule_at(sim.now + 50.0, probe)

            sim.schedule_at(0.0, probe)
            sim.run(until=duration_ms + drain_ms)
            samples = [x for s in sessions for x in s.completed]
            writes = [(k, i, l) for k, _key, i, l in samples]
            flash = summarize(writes, kind="write", after_ms=250.0, before_ms=550.0)
            overall = summarize(writes, kind="write")
            out = {
                "middleware": [m.name for m in middleware],
                "writes_completed": overall.count,
                "write_p50_ms": round(overall.p50, 1),
                "write_p99_ms": round(overall.p99, 1),
                "flash_write_p99_ms": round(flash.p99, 1),
                "peak_backlog": peak[0],
                "events": sim.events_processed,
            }
            if cluster.has_middleware:
                snap = cluster.middleware_instance("slo-metrics").snapshot()
                out["slo"] = {
                    key: snap[key]
                    for key in ("offered", "completed", "served", "shed", "max_inflight")
                }
            return out

    armed_chain = (
        MiddlewareSpec.of("slo-metrics"),
        MiddlewareSpec.of("admission", depth=8),
    )
    for label, middleware in (("baseline", ()), ("armed", armed_chain)):
        got = dict(rows[label])
        offered = got.pop("offered_ops")
        assert offered == len(plan)
        assert got == reference(middleware), label
