"""Golden-parity regressions: migrated surfaces == their hand-wired originals.

Every experiment surface that moved onto a declarative path (the
overload scenario; the figure tables of ``repro.experiments.figures``)
must stay byte-identical to the code it replaced.  Each test here runs a
(reduced-scale) cell through the runner AND through an inline copy of
the pre-migration wiring, then compares results exactly — no
tolerances.  The full-scale equivalents are pinned by committed
artifacts: ``tests/chaos_golden.json`` (every cell of
``repro.chaos.SUITES``, compared by ``tests/test_chaos_golden.py`` and
the ``benchmarks/test_chaos.py`` sweep), ``BENCH_overload.json``,
``BENCH_figures.json`` and spiderbench's ``BENCH_parity.json``.
"""

from __future__ import annotations

from repro.chaos import CASES, SEEDS, SUITES
from repro.scenarios import ScenarioSpec
from repro.scenarios import run as run_scenario


# ----------------------------------------------------------------------
# chaos: SUITES["chaos"] declares the sweep (its cells: the golden file)
# ----------------------------------------------------------------------
def test_chaos_suite_declares_the_full_sweep():
    """Every row of the table, as it stands, at seeds 1-12."""
    assert SUITES["chaos"] == {name: (name, {}) for name in CASES}
    assert sorted(SUITES["chaos"]) == sorted(
        [
            "pbft", "pbft-vc-crash", "pbft-skew", "pbft-wipe",
            "spider", "spider-cp-crash", "spider-disk", "spider-shard",
            "spider-reshard", "irmc-rc", "irmc-sc", "irmc-sc-wipe",
            "irmc-equivocate",
        ]
    )
    assert SEEDS == tuple(range(1, 13))


# ----------------------------------------------------------------------
# fig7: one table cell == the wiring the table replaced, spelled out
# ----------------------------------------------------------------------
def test_fig7_cell_matches_handwired_path():
    from repro.deploy import BftSpec, build
    from repro.experiments.common import RunScale
    from repro.experiments.figures import FIG7, run_cell
    from repro.metrics import summarize
    from repro.net import Network, Topology
    from repro.sim import Simulator
    from repro.workload import ClosedLoopDriver, OperationMix

    scale = RunScale(
        clients_per_region=1, duration_ms=1500.0, warmup_ms=300.0,
        think_ms=200.0, drain_ms=3000.0,
    )
    cell = next(c for c in FIG7.cells if c.labels == ("BFT", "T"))
    row = run_cell(cell, scale, seed=3)

    # Reference, spelled out: flat BFT led from Tokyo, one writer per region.
    sim = Simulator(seed=3)
    network = Network(sim, Topology(), jitter=0.05)
    system = build(
        sim, BftSpec(regions=("tokyo", "virginia", "oregon", "ireland")), network=network
    )
    clients = {}
    for region in ("virginia", "oregon", "ireland", "tokyo"):
        clients[region] = system.make_client(f"cl-{region}-0", region)
        ClosedLoopDriver(
            sim, clients[region], think_ms=200.0, mix=OperationMix(write=1.0),
            duration_ms=1500.0,
        )
    sim.run(until=1500.0 + 3000.0)
    summaries = [
        summarize(client.completed, kinds=["write"], after_ms=300.0)
        for client in clients.values()
    ]
    assert all(summary.count > 0 for summary in summaries)
    assert row == [
        "BFT", "T", *(s.p50 for s in summaries), *(s.p90 for s in summaries)
    ]


# ----------------------------------------------------------------------
# fig9: one IRMC row == two hand-wired pumps (saturating, then paced)
# ----------------------------------------------------------------------
def test_fig9_cell_matches_handwired_path():
    # Not covered by BENCH_figures.json alone: pacing the probe from
    # ``(position - 1) * interval_ms`` moves its CPU cells by < 1e-6.
    from repro.experiments.figures import irmc_row
    from repro.irmc import IrmcConfig, make_channel
    from repro.net import Network, Payload, Site, Topology
    from repro.sim import Process, Simulator
    from repro.sim.routing import RoutedNode

    size, duration_ms, warmup_ms = 256, 500.0, 100.0

    def pump(rate_per_s):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter=0.0)
        senders = [
            network.register(RoutedNode(sim, f"s{i}", Site("virginia", i + 1)))
            for i in range(3)
        ]
        receivers = [
            network.register(RoutedNode(sim, f"r{i}", Site("tokyo", i + 1)))
            for i in range(4)
        ]
        config = IrmcConfig(fs=1, fr=1, capacity=2048, progress_interval_ms=200.0)
        tx, rx = make_channel("rc", "bench", senders, receivers, config)

        interval_ms = 1000.0 / rate_per_s if rate_per_s else 0.0

        def sender_loop(endpoint):
            position, payload, started = 1, Payload(size, label="bench"), sim.now
            while True:
                yield endpoint.send(0, position, payload)
                due = started + position * interval_ms
                if interval_ms and due > sim.now:
                    yield due - sim.now
                position += 1

        def receiver_loop(endpoint, deliveries):
            position = 1
            while True:
                yield endpoint.receive(0, position)
                deliveries.append(sim.now)
                if position % 64 == 0:
                    endpoint.move_window(0, position + 1)
                position += 1

        deliveries = []
        for node in senders:
            Process(sim, sender_loop(tx[node.name]), node=node)
        for index, node in enumerate(receivers):
            sink = deliveries if index == 0 else []
            Process(sim, receiver_loop(rx[node.name], sink), node=node)
        sim.run(until=warmup_ms)
        before = network.snapshot()
        busy = [node.busy_ms for node in senders + receivers]
        sim.run(until=duration_ms)
        after = network.snapshot()
        window_ms = duration_ms - warmup_ms
        shares = [
            (node.busy_ms - was) / window_ms
            for node, was in zip(senders + receivers, busy)
        ]
        return {
            "throughput": sum(1 for t in deliveries if t >= warmup_ms)
            / (window_ms / 1000.0),
            "sender_cpu": min(1.0, sum(shares[:3]) / 3),
            "receiver_cpu": min(1.0, sum(shares[3:]) / 4),
            "wan": network.interval_mbps(before, after, wan=True),
            "lan": network.interval_mbps(before, after, wan=False),
        }

    saturated, paced = pump(0.0), pump(1200.0)
    assert irmc_row("rc", size, duration_ms, seed=1) == {
        "irmc": "RC",
        "size [B]": size,
        "throughput [msg/s]": saturated["throughput"],
        "sender CPU [%]": paced["sender_cpu"] * 100,
        "receiver CPU [%]": paced["receiver_cpu"] * 100,
        "WAN [MB/s]": saturated["wan"],
        "LAN [MB/s]": saturated["lan"],
    }


# ----------------------------------------------------------------------
# overload: scenario A/B == hand-wired plan replay (one plan for both)
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
        rows[label] = run_scenario(spec, 11)

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
