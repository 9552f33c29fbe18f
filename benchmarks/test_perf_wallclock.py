"""Wall-clock macro-benchmark for the simulator's hot paths.

Unlike the figure benchmarks (which report *simulated* latency and
throughput), this harness measures how fast the simulator itself runs:
wall-clock seconds and events per wall-clock second for two paper-shaped
scenarios, with a fixed seed so runs are comparable across commits:

* ``fig7_write_saturated`` — the standard 4-region Spider deployment
  driven by closed-loop write clients with zero think time (a saturated
  Fig. 7-style workload dominated by consensus + commit-channel traffic).
* ``fig9_irmc_<kind>_<size>`` — one commit-channel-shaped IRMC channel
  (3 senders Virginia -> 4 receivers Tokyo) pumped at saturation, for
  both RC and SC variants (the Fig. 9b sweep).

Results are written to ``benchmarks/BENCH_perf.json``.  Each scenario
also records a ``sim_fingerprint`` over its simulated results: the
fingerprint must be byte-identical across commits for the same seed —
wall-clock optimisations must never change simulated outcomes.

Run directly for the full table::

    PYTHONPATH=src python benchmarks/test_perf_wallclock.py

or via pytest (the ``bench`` marker keeps it out of tier-1)::

    PYTHONPATH=src python -m pytest -q benchmarks/test_perf_wallclock.py
"""

# lint: allow-file[D102] -- this harness *measures* wall-clock time;
# simulated results are pinned separately by sim_fingerprint
from __future__ import annotations

import json
import pathlib
import time

from repro.deploy import build
from repro.experiments.common import REGIONS, fresh_env, spider_spec
from repro.irmc import IrmcConfig, make_channel
from repro.metrics import sim_fingerprint
from repro.net import Payload, Site
from repro.sim import Process
from repro.sim.routing import RoutedNode
from repro.workload import ClosedLoopDriver, OperationMix

SEED = 11
OUTPUT_PATH = pathlib.Path(__file__).parent / "BENCH_perf.json"

#: Saturated write workload scale (kept modest so CI smoke stays fast).
FIG7_CLIENTS_PER_REGION = 6
FIG7_DURATION_MS = 12_000.0

#: IRMC sweep scale.
IRMC_SIZES = [1024, 16384]
IRMC_DURATION_MS = 3_000.0
IRMC_WINDOW_MOVE_BATCH = 64
IRMC_CAPACITY = 2048


# ----------------------------------------------------------------------
# Scenario: saturated Fig. 7-style write workload
# ----------------------------------------------------------------------
def run_fig7_write_saturated(seed: int = SEED) -> dict:
    sim, network = fresh_env(seed=seed)
    system = build(sim, spider_spec(), network=network)
    clients = []
    for region in REGIONS:
        for index in range(FIG7_CLIENTS_PER_REGION):
            client = system.make_client(f"cl-{region}-{index}", region)
            clients.append(client)
            ClosedLoopDriver(
                sim,
                client,
                think_ms=0.0,
                mix=OperationMix(write=1.0),
                duration_ms=FIG7_DURATION_MS,
            )
    sim.run(until=FIG7_DURATION_MS + 20_000.0)
    writes = sum(len(client.completed) for client in clients)
    return {
        "events": sim.events_processed,
        "sim_ms": sim.now,
        "writes_completed": writes,
        "sim_fingerprint": sim_fingerprint(
            [(client.name, client.completed) for client in clients]
        ),
    }


# ----------------------------------------------------------------------
# Scenario: Fig. 9b-style IRMC channel at saturation
# ----------------------------------------------------------------------
def run_irmc_saturated(kind: str, size: int, seed: int = SEED) -> dict:
    sim, network = fresh_env(seed=seed, jitter=0.0)
    senders = [
        network.register(RoutedNode(sim, f"s{i}", Site("virginia", i + 1)))
        for i in range(3)
    ]
    receivers = [
        network.register(RoutedNode(sim, f"r{i}", Site("tokyo", i + 1)))
        for i in range(4)
    ]
    config = IrmcConfig(fs=1, fr=1, capacity=IRMC_CAPACITY, progress_interval_ms=200.0)
    tx_endpoints, rx_endpoints = make_channel(kind, "perf", senders, receivers, config)

    def sender_loop(endpoint):
        position = 1
        payload = Payload(size, label="perf")
        while True:
            yield endpoint.send(0, position, payload)
            position += 1

    def receiver_loop(endpoint, deliveries):
        position = 1
        while True:
            yield endpoint.receive(0, position)
            deliveries.append(sim.now)
            if position % IRMC_WINDOW_MOVE_BATCH == 0:
                endpoint.move_window(0, position + 1)
            position += 1

    deliveries: list = []
    for node in senders:
        Process(sim, sender_loop(tx_endpoints[node.name]), node=node)
    for index, node in enumerate(receivers):
        sink = deliveries if index == 0 else []
        Process(sim, receiver_loop(rx_endpoints[node.name], sink), node=node)
    sim.run(until=IRMC_DURATION_MS)
    return {
        "events": sim.events_processed,
        "sim_ms": sim.now,
        "delivered": len(deliveries),
        "sim_fingerprint": sim_fingerprint(deliveries),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _timed(fn, *args) -> dict:
    started = time.perf_counter()
    stats = fn(*args)
    wall_s = time.perf_counter() - started
    stats["wall_s"] = round(wall_s, 3)
    stats["events_per_s"] = round(stats["events"] / wall_s) if wall_s > 0 else 0
    return stats


def run_all(seed: int = SEED) -> dict:
    scenarios = {"fig7_write_saturated": _timed(run_fig7_write_saturated, seed)}
    for kind in ("rc", "sc"):
        for size in IRMC_SIZES:
            scenarios[f"fig9_irmc_{kind}_{size}"] = _timed(
                run_irmc_saturated, kind, size, seed
            )
    total_events = sum(s["events"] for s in scenarios.values())
    total_wall = sum(s["wall_s"] for s in scenarios.values())
    return {
        "benchmark": "perf_wallclock",
        "seed": seed,
        "scenarios": scenarios,
        "total": {
            "events": total_events,
            "wall_s": round(total_wall, 3),
            "events_per_s": round(total_events / total_wall) if total_wall else 0,
        },
    }


def test_perf_wallclock():
    report = run_all()
    fig7 = report["scenarios"]["fig7_write_saturated"]
    # The scenarios must actually exercise the system end to end.
    assert fig7["writes_completed"] > 500, fig7
    for name, stats in report["scenarios"].items():
        assert stats["events"] > 1_000, (name, stats)
        assert stats["events_per_s"] > 0, (name, stats)
    OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print()
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":  # pragma: no cover
    report = run_all()
    OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
