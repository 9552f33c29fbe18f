"""System-level throughput benchmark (beyond the paper's figures).

Measures completed writes per second for Spider and the BFT baseline as
the closed-loop client population grows, demonstrating that Spider's
throughput scales with execution groups while the flat WAN protocol's
per-request cost dominates BFT.
"""

from repro.deploy import build
from repro.experiments.common import REGIONS, fresh_env
from repro.experiments.figures import BFT, SPIDER
from repro.metrics import summarize
from repro.workload import drive_clients

DURATION_MS = 8_000.0
WARMUP_MS = 1_000.0


def _run(spec, clients_per_region, seed=5):
    sim, network = fresh_env(seed=seed)
    system = build(sim, spec, network=network)
    clients = []
    for region in REGIONS:
        for index in range(clients_per_region):
            clients.append(system.make_client(f"c-{region}-{index}", region))
    drive_clients(sim, clients, think_ms=100.0, duration_ms=DURATION_MS)
    sim.run(until=DURATION_MS + 20_000.0)
    samples = [s for c in clients for s in c.completed]
    summary = summarize(samples, kind="write", after_ms=WARMUP_MS)
    window_s = (DURATION_MS - WARMUP_MS) / 1000.0
    return {
        "ops_per_s": summary.count / window_s,
        "p50_ms": summary.p50,
        "clients": len(clients),
    }


class TestSystemThroughput:
    def test_spider_vs_bft_scaling(self):
        results = {
            label: {n: _run(spec, n) for n in (1, 3)}
            for label, spec in (("SPIDER", SPIDER), ("BFT", BFT))
        }
        print()
        for label, by_population in results.items():
            for n, metrics in by_population.items():
                print(
                    f"  {label:7s} {metrics['clients']:2d} clients: "
                    f"{metrics['ops_per_s']:7.1f} writes/s  "
                    f"p50 {metrics['p50_ms']:6.1f} ms"
                )
        # Closed-loop throughput = population / (latency + think): Spider's
        # far lower latency yields far higher completed-write rates.
        for n in (1, 3):
            assert (
                results["SPIDER"][n]["ops_per_s"]
                > 1.5 * results["BFT"][n]["ops_per_s"]
            )
        # And Spider's rate grows with the client population.
        assert (
            results["SPIDER"][3]["ops_per_s"]
            > 2.0 * results["SPIDER"][1]["ops_per_s"]
        )
        # Latency stays flat while load triples (no saturation).
        assert results["SPIDER"][3]["p50_ms"] < 2 * results["SPIDER"][1]["p50_ms"]
