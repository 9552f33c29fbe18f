"""The paper's evaluation, Figs. 7-11, as tables of cells.

A :class:`Cell` is one table row as data: the deployment (a
``repro.deploy`` spec object), the closed-loop population that drives it
and what to summarise.  :func:`run_cell` is the only code that turns a
cell into numbers, ``deploy.build(spec)`` the only constructor and
:func:`populate` the only client loop — the four latency tables, Fig. 10
and :func:`measure_latency` all go through it.  The two figures that are
not latency tables keep what is theirs alone: Fig. 10 its joining client
site and time buckets, Figs. 9b-9d the IRMC pump.

``FIGURES[name](quick=False, seed=1)`` is the entry point.  ``quick``
shrinks client counts and durations and drops the cells marked
``full_only``; the quick tables at seed 1 are pinned by
``benchmarks/BENCH_figures.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import SpiderConfig
from repro.deploy import BftSpec, ClusterSpec, GroupSpec, HftSpec, ShardSpec, build
from repro.errors import ReproError
from repro.experiments.common import (
    NEARBY,
    REGION_LABEL,
    REGIONS,
    ExperimentResult,
    RunScale,
    fresh_env,
    spider_spec,
)
from repro.irmc import IrmcConfig, make_channel
from repro.metrics import LatencySummary, summarize, time_series
from repro.net import Payload, Site
from repro.sim import Process
from repro.sim.routing import RoutedNode
from repro.workload import ClosedLoopDriver, OperationMix


class CellError(ReproError):
    """A population was not served.  Its row must not print: an empty
    region summarises to 0.0, which reads as "faster than every baseline"."""


# ----------------------------------------------------------------------
# The population loop
# ----------------------------------------------------------------------
def populate(
    sim,
    make_client: Callable[[str, str], object],
    regions: Sequence[str],
    per_region: int,
    roles: Sequence[Tuple[str, Optional[OperationMix]]],
    **driver,
) -> List[ClosedLoopDriver]:
    """One closed-loop driver per region x index x role, nested that way.

    A role is ``(name prefix, operation mix)``; ``driver`` goes to every
    :class:`ClosedLoopDriver`.  The nesting and the client names
    (``{prefix}-{region}-{index}``) are the determinism contract: a
    driver's RNG is seeded by its client's name, and events scheduled for
    the same instant fire in creation order.
    """
    return [
        ClosedLoopDriver(
            sim, make_client(f"{prefix}-{region}-{index}", region), mix=mix, **driver
        )
        for region in regions
        for index in range(per_region)
        for prefix, mix in roles
    ]


def settle(sim, drivers: Sequence[ClosedLoopDriver], until_ms: float) -> None:
    """Run to ``until_ms``; every request issued must be answered by then
    (a driver gives up on a wedged request without a word)."""
    sim.run(until=until_ms)
    for driver in drivers:
        client = driver.client
        if driver.issued > len(client.completed):
            raise CellError(
                f"client {client.name} in {client.site.region}: request "
                f"{driver.issued} still unanswered at {until_ms:.0f} ms"
            )


def measure_latency(
    sim,
    make_client: Callable[[str, str], object],
    regions: Sequence[str],
    scale: RunScale,
    mix: Optional[OperationMix] = None,
    kinds: Optional[Sequence[str]] = None,
    strong_read_quorum: Optional[int] = None,
) -> Dict[str, LatencySummary]:
    """Run closed-loop clients in each region; return per-region summaries
    of the ``kinds`` samples issued after the warm-up (``mix`` None: writes
    only).  Raises :class:`CellError` rather than summarise nothing."""
    drivers = populate(
        sim,
        make_client,
        regions,
        scale.clients_per_region,
        [("cl", mix)],
        think_ms=scale.think_ms,
        duration_ms=scale.duration_ms,
        strong_read_quorum=strong_read_quorum,
    )
    settle(sim, drivers, scale.duration_ms + scale.drain_ms)
    summaries: Dict[str, LatencySummary] = {}
    for region in regions:
        clients = [d.client for d in drivers if d.client.site.region == region]
        summaries[region] = summarize(
            [sample for client in clients for sample in client.completed],
            kinds=kinds,
            after_ms=scale.warmup_ms,
        )
        if summaries[region].count == 0:
            raise CellError(
                f"region {region}: no sample after the {scale.warmup_ms:.0f} ms "
                f"warm-up from clients {[client.name for client in clients]}"
            )
    return summaries


# ----------------------------------------------------------------------
# Cells and the table runner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One row of a latency table."""

    labels: Tuple[str, ...]  #: the row's leading columns
    spec: object  #: ClusterSpec / BftSpec / HftSpec
    mix: Optional[OperationMix] = None  #: None: writes only
    kinds: Tuple[str, ...] = ("write",)  #: sample kinds to summarise
    strong_read_quorum: Optional[int] = None  #: BFT's read-only fast path
    seed_offset: int = 0  #: added to the run's seed
    full_only: bool = False  #: dropped by ``--quick``


def run_cell(cell: Cell, scale: RunScale, seed: int) -> List[object]:
    """Build the cell's deployment, drive clients in the four regions and
    return its row: labels, then p50 per region, then p90 per region."""
    sim, network = fresh_env(seed=seed + cell.seed_offset)
    system = build(sim, cell.spec, network=network)
    summaries = measure_latency(
        sim, system.make_client, REGIONS, scale, cell.mix, cell.kinds, cell.strong_read_quorum
    )
    return [
        *cell.labels,
        *(summaries[region].p50 for region in REGIONS),
        *(summaries[region].p90 for region in REGIONS),
    ]


@dataclass(frozen=True)
class Table:
    """A latency figure: its cells, run one after the other."""

    title: str
    label_columns: Tuple[str, ...]
    cells: Tuple[Cell, ...]
    note: str

    def __call__(self, quick: bool = False, seed: int = 1) -> ExperimentResult:
        scale = RunScale.quick() if quick else RunScale()
        result = ExperimentResult(
            title=self.title,
            columns=[
                *self.label_columns,
                *(f"{REGION_LABEL[r]} {p}" for p in ("p50", "p90") for r in REGIONS),
            ],
            notes=[self.note],
        )
        for cell in self.cells:
            if not (quick and cell.full_only):
                result.add_row(**dict(zip(result.columns, run_cell(cell, scale, seed))))
        return result


# ----------------------------------------------------------------------
# The latency tables
# ----------------------------------------------------------------------
#: the paper's standard deployments (four regions, f = 1, led from Virginia)
BFT = BftSpec(regions=tuple(REGIONS), leader="virginia")
HFT = HftSpec(regions=tuple(REGIONS), leader="virginia")
SPIDER = spider_spec()

# Fig. 7: for BFT and HFT the leader (site) rotates through the four
# regions; for Spider the consensus leader rotates through four Virginia
# availability zones — which, per the paper, should barely matter.
SPIDER_LEADER_ZONES = {
    "V-1": [1, 2, 4, 6],
    "V-2": [2, 1, 4, 6],
    "V-4": [4, 1, 2, 6],
    "V-6": [6, 1, 2, 4],
}
FIG7 = Table(
    "Fig. 7 - 50th/90th percentile write latency [ms]",
    ("system", "leader"),
    tuple(
        Cell(
            (system, REGION_LABEL[leader]),
            replace(spec, leader=leader),
            full_only=leader in ("oregon", "ireland"),
        )
        for leader in REGIONS
        for system, spec in (("BFT", BFT), ("HFT", HFT))
    )
    + tuple(
        Cell(
            ("SPIDER", label),
            spider_spec(leader_zone_order=zones),
            full_only=label in ("V-4", "V-6"),
        )
        for label, zones in SPIDER_LEADER_ZONES.items()
    ),
    "paper shape: SPIDER well below BFT/HFT everywhere; SPIDER rows "
    "nearly identical across leader zones",
)

# Fig. 8: strong reads — BFT uses its read-only quorum fast path (2f+1
# matching replies), HFT and Spider order the read; weak reads — answered
# by the f+1 replicas nearest the client (Spider/HFT: local; BFT: one WAN
# reply).  The weak rows run at ``seed + 1``.
_STRONG = dict(
    mix=OperationMix(write=0.0, strong_read=1.0), kinds=("strong-read", "quorum-read")
)
_WEAK = dict(
    mix=OperationMix(write=0.0, weak_read=1.0), kinds=("weak-read",), seed_offset=1
)
FIG8 = Table(
    "Fig. 8 - 50th/90th percentile read latency [ms]",
    ("system", "consistency"),
    (
        Cell(("BFT", "strong"), BFT, strong_read_quorum=3, **_STRONG),
        Cell(("BFT", "weak"), BFT, **_WEAK),
        Cell(("HFT", "strong"), HFT, **_STRONG),
        Cell(("HFT", "weak"), HFT, **_WEAK),
        Cell(("SPIDER", "strong"), SPIDER, **_STRONG),
        Cell(("SPIDER", "weak"), SPIDER, **_WEAK),
    ),
    "paper shape: weak reads <= ~2 ms for HFT and SPIDER, WAN-bound for "
    "BFT; SPIDER strong reads beat BFT/HFT except in Tokyo",
)

# Fig. 9a, the cost of the modular architecture.  Spider-0E: the agreement
# group executes requests itself (no IRMCs, no execution groups).
# Spider-1E: one execution group, co-located with the agreement group in
# Virginia.  Spider: one execution group per region.
FIG9_MODULARITY = Table(
    "Fig. 9a - 50th/90th percentile write latency [ms] (modularity)",
    ("variant",),
    (
        Cell(
            ("SPIDER-0E",),
            ClusterSpec(
                shards=(ShardSpec("s0"),), config=SpiderConfig(), execute_locally=True
            ),
        ),
        Cell(("SPIDER-1E",), spider_spec(regions=["virginia"])),
        Cell(("SPIDER",), SPIDER),
    ),
    "paper shape: all three variants within ~14 ms of each other per "
    "region (WAN to Virginia dominates)",
)


# Fig. 11, f = 2: extra replicas sit in nearby regions (``NEARBY``) to gain
# fault domains.  BFT: 7 regions.  HFT: 7-replica sites spanning a region
# and its partner, so the 2f+1 = 5 threshold pulls a cross-region share
# into every local round.  Spider: a 7-member agreement group over four
# Virginia and three Ohio AZs (the PBFT quorum of 5 includes one Ohio
# replica — the source of the paper's moderate rise) and execution groups
# of 5 spanning a region and its partner.
def _with_nearby(region: str, local: int, nearby: int) -> Tuple[Site, ...]:
    return tuple(Site(region, zone + 1) for zone in range(local)) + tuple(
        Site(NEARBY[region], zone + 1) for zone in range(nearby)
    )


def spider_f2_spec(virginia_zones: Sequence[int]) -> ClusterSpec:
    shard = ShardSpec(
        "s0",
        groups=tuple(
            GroupSpec(region, region, sites=_with_nearby(region, 3, 2))
            for region in REGIONS
        ),
        agreement_sites=tuple(Site("virginia", zone) for zone in virginia_zones)
        + tuple(Site("ohio", zone) for zone in (1, 2, 3)),
    )
    return ClusterSpec(shards=(shard,), config=SpiderConfig(fa=2, fe=2))


FIG11 = Table(
    "Fig. 11 - 50th/90th percentile write latency [ms], f=2",
    ("system", "leader"),
    (
        Cell(
            ("BFT", "V"),
            replace(BFT, regions=(*REGIONS, "ohio", "california", "london"), f=2),
        ),
        Cell(
            ("HFT", "V"),
            HftSpec(
                regions=tuple(REGIONS),
                f=2,
                site_layout=tuple((r, _with_nearby(r, 4, 3)) for r in REGIONS),
            ),
        ),
        Cell(("SPIDER", "V-1"), spider_f2_spec((1, 2, 3, 4))),
        Cell(("SPIDER", "V-2"), spider_f2_spec((2, 1, 3, 4)), full_only=True),
        Cell(("SPIDER", "V-4"), spider_f2_spec((4, 1, 2, 3)), full_only=True),
        Cell(("SPIDER", "V-6"), spider_f2_spec((6, 1, 2, 3)), full_only=True),
    ),
    "paper shape: moderate rise vs f=1 for HFT/SPIDER (larger groups, "
    "nearby-region members); SPIDER remains lowest",
)


# ----------------------------------------------------------------------
# Fig. 10: a new client site (Sao Paulo) joins at runtime
# ----------------------------------------------------------------------
JOIN_FRACTION = 0.72  # the paper joins at t=80 s of ~110 s

#: (system, deployment, how its Sao Paulo clients connect).  BFT: to the
#: existing four replicas.  BFT-WV: five replicas from the start, weight 2
#: on Virginia and Oregon.  HFT: to the nearest existing site.  Spider: to
#: a new execution group, added through consensus shortly before they start.
FIG10_SYSTEMS = (
    ("BFT", BFT, {}),
    (
        "BFT-WV",
        replace(
            BFT,
            regions=(*REGIONS, "saopaulo"),
            weights=(("oregon", 2.0), ("virginia", 2.0)),
        ),
        {},
    ),
    ("HFT", HFT, {"site_region": "virginia"}),
    ("SPIDER", SPIDER, {"group_id": "saopaulo"}),
)
#: every site runs a writer and a (weak) reader per client index
FIG10_ROLES = (
    ("w", OperationMix(write=1.0)),
    ("r", OperationMix(write=0.0, weak_read=1.0)),
)


def fig10(quick: bool = False, seed: int = 1) -> ExperimentResult:
    end_ms = 40_000.0 if quick else 100_000.0
    join_ms = end_ms * JOIN_FRACTION
    per_region = 1 if quick else 2
    think_ms, bucket_ms = 300.0, 5_000.0

    writes: Dict[str, Dict[float, float]] = {}  # column -> bucket -> mean latency
    reads: Dict[str, Dict[float, float]] = {}
    for name, spec, joiner in FIG10_SYSTEMS:
        sim, network = fresh_env(seed=seed)
        system = build(sim, spec, network=network)
        if isinstance(spec, ClusterSpec):
            # Start the group's replicas now; agree on AddGroup shortly
            # before the new clients arrive (Section 3.6).
            shard = system.system
            group = shard.create_group_replicas("saopaulo", "saopaulo")
            sim.schedule(
                max(0.0, join_ms - 5_000.0),
                shard.admin.add_group,
                "saopaulo",
                group.member_names,
            )
        drivers = populate(
            sim,
            system.make_client,
            REGIONS,
            per_region,
            FIG10_ROLES,
            think_ms=think_ms,
            duration_ms=end_ms,
        ) + populate(
            sim,
            lambda name, region: system.make_client(name, region, **joiner),
            ["saopaulo"],
            per_region,
            FIG10_ROLES,
            think_ms=think_ms,
            start_ms=join_ms,
            duration_ms=end_ms - join_ms,
        )
        settle(sim, drivers, end_ms + 5_000.0)
        samples = [sample for d in drivers for sample in d.client.completed]
        writes[f"{name} w"] = time_series(samples, bucket_ms, kind="write")
        reads[f"{name} r"] = time_series(samples, bucket_ms, kind="weak-read")

    series = {**writes, **reads}
    result = ExperimentResult(
        title=(
            f"Fig. 10 - average latency over time [ms]; Sao Paulo joins at "
            f"{join_ms / 1000.0:.0f} s"
        ),
        columns=["t [s]", *series],
        notes=[
            "paper shape: write averages jump at the join for all systems; "
            "BFT-WV tracks BFT; only SPIDER keeps weak reads flat and low"
        ],
    )
    for bucket in sorted(set().union(*writes.values())):
        means = {column: at.get(bucket, 0.0) for column, at in series.items()}
        result.add_row(**{"t [s]": bucket / 1000.0}, **means)
    return result


# ----------------------------------------------------------------------
# Figs. 9b-9d: IRMC throughput, CPU usage and network usage
# ----------------------------------------------------------------------
# One channel connects three senders in Virginia to four receivers in
# Tokyo (the commit-channel shape, f_s = f_r = 1).  Senders pump messages
# of a given size as fast as windows and their CPUs allow; receivers
# consume in order and advance the flow-control window in batches.
WINDOW_MOVE_BATCH = 64
#: Window capacity for the saturation probe.  Must exceed the
#: bandwidth-delay product (~4000 msg/s x 160 ms RTT = 640 in flight) or
#: flow control, not CPU/NIC, caps throughput.
PROBE_CAPACITY = 2048
#: Offered load for the CPU-usage comparison (Fig. 9c): below both
#: variants' saturation point so the per-message cost difference shows.
CPU_PROBE_RATE_PER_S = 1200.0


def pump_channel(
    kind: str, size: int, duration_ms: float, seed: int = 1, rate_per_s: float = 0.0
) -> Dict[str, float]:
    """Drive one channel (at ``rate_per_s``, or saturating when 0) and
    measure steady-state rates over the last 80 % of the run."""
    sim, network = fresh_env(seed=seed, jitter=0.0)
    senders = [
        network.register(RoutedNode(sim, f"s{i}", Site("virginia", i + 1)))
        for i in range(3)
    ]
    receivers = [
        network.register(RoutedNode(sim, f"r{i}", Site("tokyo", i + 1)))
        for i in range(4)
    ]
    config = IrmcConfig(fs=1, fr=1, capacity=PROBE_CAPACITY, progress_interval_ms=200.0)
    tx_endpoints, rx_endpoints = make_channel(kind, "bench", senders, receivers, config)

    interval_ms = 1000.0 / rate_per_s if rate_per_s else 0.0

    def sender_loop(endpoint):
        position = 1
        payload = Payload(size, label="bench")
        started = sim.now
        while True:
            yield endpoint.send(0, position, payload)
            if interval_ms:
                # Open-loop pacing: stay on schedule rather than drifting.
                target = started + position * interval_ms
                if target > sim.now:
                    yield target - sim.now
            position += 1

    def receiver_loop(endpoint, counters):
        position = 1
        while True:
            yield endpoint.receive(0, position)
            counters.append(sim.now)
            if position % WINDOW_MOVE_BATCH == 0:
                endpoint.move_window(0, position + 1)
            position += 1

    deliveries: List[float] = []
    for node in senders:
        Process(sim, sender_loop(tx_endpoints[node.name]), node=node)
    for index, node in enumerate(receivers):
        counters = deliveries if index == 0 else []
        Process(sim, receiver_loop(rx_endpoints[node.name], counters), node=node)

    warmup = duration_ms * 0.2
    sim.run(until=warmup)
    snapshot = network.snapshot()
    busy_before = {node.name: node.busy_ms for node in senders + receivers}
    sim.run(until=duration_ms)
    measured_ms = duration_ms - warmup
    after = network.snapshot()

    def cpu_share(nodes) -> float:
        share = sum(
            (node.busy_ms - busy_before[node.name]) / measured_ms for node in nodes
        ) / len(nodes)
        return min(1.0, share)

    return {
        "throughput_per_s": sum(1 for t in deliveries if t >= warmup)
        / (measured_ms / 1000.0),
        "sender_cpu": cpu_share(senders),
        "receiver_cpu": cpu_share(receivers),
        "wan_mbps": network.interval_mbps(snapshot, after, wan=True),
        "lan_mbps": network.interval_mbps(snapshot, after, wan=False),
    }


def irmc_row(kind: str, size: int, duration_ms: float, seed: int) -> Dict[str, object]:
    """One Fig. 9 row: a saturating probe (throughput, network) and one
    paced at :data:`CPU_PROBE_RATE_PER_S` (CPU per message)."""
    saturated = pump_channel(kind, size, duration_ms, seed=seed)
    paced = pump_channel(
        kind, size, duration_ms, seed=seed, rate_per_s=CPU_PROBE_RATE_PER_S
    )
    return {
        "irmc": kind.upper(),
        "size [B]": size,
        "throughput [msg/s]": saturated["throughput_per_s"],
        "sender CPU [%]": paced["sender_cpu"] * 100,
        "receiver CPU [%]": paced["receiver_cpu"] * 100,
        "WAN [MB/s]": saturated["wan_mbps"],
        "LAN [MB/s]": saturated["lan_mbps"],
    }


def fig9_irmc(quick: bool = False, seed: int = 1) -> ExperimentResult:
    sizes = (256, 4096) if quick else (256, 1024, 4096, 16384)
    duration_ms = 2_000.0 if quick else 5_000.0
    rows = [
        irmc_row(kind, size, duration_ms, seed)
        for kind in ("rc", "sc")
        for size in sizes
    ]
    return ExperimentResult(
        title="Fig. 9b-9d - IRMC throughput / CPU / network vs message size",
        columns=list(rows[0]),
        rows=rows,
        notes=[
            "paper shape: RC throughput > SC; throughput falls with size; SC "
            "WAN volume a fraction of RC's, paid for with LAN share traffic"
        ],
    )


#: the entry point: figure name -> ``(quick=False, seed=1) -> ExperimentResult``
FIGURES = {
    "fig7": FIG7,
    "fig8": FIG8,
    "fig9_modularity": FIG9_MODULARITY,
    "fig9_irmc": fig9_irmc,
    "fig10": fig10,
    "fig11": FIG11,
}
