"""A geo-replicated key-value store under load, Spider vs the baselines.

Deploys the paper's standard four-region setting for all three
architectures (Spider, flat BFT, hierarchical HFT), drives closed-loop
clients in every region, and prints per-region write/weak-read latency —
a miniature of the paper's Figures 7 and 8.

Run with::

    python examples/geo_kvstore.py
"""

from repro.deploy import BftSpec, ClusterSpec, HftSpec, build
from repro.metrics import summarize
from repro.sim import Simulator
from repro.workload import ClosedLoopDriver, OperationMix

REGIONS = ("virginia", "oregon", "ireland", "tokyo")
DURATION_MS = 10_000.0

#: one spec per architecture; Spider gets one execution group per region.
SPECS = {
    "SPIDER": ClusterSpec.single(regions=REGIONS, agreement_region="virginia"),
    "BFT": BftSpec(regions=REGIONS),
    "HFT": HftSpec(regions=REGIONS),
}


def run_one(name: str) -> None:
    sim = Simulator(seed=7)
    system = build(sim, SPECS[name])
    clients = {}
    for region in REGIONS:
        writer = system.make_client(f"w-{region}", region)
        reader = system.make_client(f"r-{region}", region)
        ClosedLoopDriver(sim, writer, think_ms=250.0, duration_ms=DURATION_MS)
        ClosedLoopDriver(
            sim,
            reader,
            think_ms=250.0,
            mix=OperationMix(write=0.0, weak_read=1.0),
            duration_ms=DURATION_MS,
        )
        clients[region] = (writer, reader)
    sim.run(until=DURATION_MS + 15_000.0)

    print(f"--- {name} ---")
    for region, (writer, reader) in clients.items():
        writes = summarize(writer.completed, kind="write", after_ms=1_000.0)
        reads = summarize(reader.completed, kind="weak-read", after_ms=1_000.0)
        print(
            f"  {region:10s} writes p50 {writes.p50:6.1f} ms (n={writes.count:3d})"
            f"   weak reads p50 {reads.p50:6.1f} ms (n={reads.count:3d})"
        )
    print()


def main() -> None:
    for name in ("SPIDER", "BFT", "HFT"):
        run_one(name)
    print("expected shape (paper Figs. 7/8): SPIDER writes beat BFT and HFT")
    print("in every region; SPIDER and HFT weak reads are ~1-2 ms while BFT")
    print("weak reads pay for a wide-area reply quorum.")


if __name__ == "__main__":
    main()
