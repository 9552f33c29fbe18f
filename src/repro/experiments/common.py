"""Shared experiment scaffolding: the result table, the run scale, the
paper's regions and its standard deployment as a spec.

Kept light on purpose: the benchmark harness imports this module, so it
pulls in neither the figure tables nor the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.app import KVStore
from repro.core import SpiderConfig
from repro.core.config import DEFAULT_AGREEMENT_ZONES
from repro.deploy import ClusterSpec
from repro.net import Network, Topology
from repro.sim import Simulator

REGIONS = ["virginia", "oregon", "ireland", "tokyo"]
REGION_LABEL = {
    "virginia": "V",
    "oregon": "O",
    "ireland": "I",
    "tokyo": "T",
}
#: Nearby extra fault domains used when tolerating f=2 (paper Fig. 11).
NEARBY = {
    "virginia": "ohio",
    "oregon": "california",
    "ireland": "london",
    "tokyo": "seoul",
}


@dataclass
class ExperimentResult:
    """A printable table of experiment output."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def format(self) -> str:
        widths = {
            column: max(
                len(column),
                *(len(_fmt(row.get(column, ""))) for row in self.rows),
            )
            if self.rows
            else len(column)
            for column in self.columns
        }
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(column.ljust(widths[column]) for column in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(
                    _fmt(row.get(column, "")).ljust(widths[column])
                    for column in self.columns
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def fresh_env(seed: int = 1, jitter: float = 0.05):
    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=jitter)
    return sim, network


# ----------------------------------------------------------------------
# Deployment specs (the paper's standard 4-region deployment, f=1)
# ----------------------------------------------------------------------
def spider_spec(
    regions: Sequence[str] = tuple(REGIONS),
    leader_zone_order: Optional[List[int]] = None,
    config: Optional[SpiderConfig] = None,
    app_factory=KVStore,
) -> ClusterSpec:
    """The paper's deployment as a spec: agreement group in Virginia AZs,
    one execution group per region (each group named after its region).
    ``leader_zone_order`` rotates which AZ hosts the initial consensus
    leader (paper: V-1 / V-2 / V-4 / V-6)."""
    return ClusterSpec.single(
        regions=tuple(regions),
        agreement_region="virginia",
        agreement_zones=tuple(leader_zone_order or DEFAULT_AGREEMENT_ZONES),
        config=config or SpiderConfig(),
        app_factory=app_factory,
    )


@dataclass
class RunScale:
    """Knobs shrinking an experiment for quick runs.

    ``drain_ms`` is how long the simulation keeps running past the
    issue window so in-flight requests complete; long-tail deployments
    (sharded runs, heavy batching, WAN-heavy routes) can widen it rather
    than silently truncating their slowest requests.
    """

    clients_per_region: int = 3
    duration_ms: float = 15_000.0
    warmup_ms: float = 2_000.0
    think_ms: float = 300.0
    drain_ms: float = 20_000.0

    @classmethod
    def quick(cls) -> "RunScale":
        return cls(clients_per_region=2, duration_ms=6_000.0, warmup_ms=1_000.0, think_ms=250.0)
