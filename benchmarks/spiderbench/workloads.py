"""The five workloads, their correctness gates and their simulated metrics.

Each workload is a function ``(seed, scale, instruments) -> Outcome``: it
generates its inputs from ``seed`` (every RNG stream is a namespaced
``f"bench:{seed}:..."`` string), builds a deployment through the public
API, runs it, and hands back what clients saw plus the public counters
of every layer.  :func:`summarise` turns an :class:`Outcome` into named
metrics; :func:`run_workload` is the one entry point.

``scale`` shrinks a workload for the smoke test: populations and offered
rates on the client-driven workloads, simulated time on the two whose
shape depends on saturation (``irmc_rc_1k``, ``flash_crowd_armed``).
All reported numbers use ``scale=1``.

"op" means one completed client operation; on ``irmc_rc_1k`` it means
one channel delivery.  *Ordered* ops are the ones that cross the
wide-area ordered path: writes, strong reads, channel deliveries.
"""

from __future__ import annotations

import json
import pathlib
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import repro.deploy
from repro.chaos.invariants import check_recovered_frontier
from repro.experiments.common import REGIONS, fresh_env, spider_spec
from repro.irmc import IrmcConfig, make_channel
from repro.metrics import percentile
from repro.net import Payload, Site
from repro.scenarios import ScenarioSpec
from repro.scenarios import run as run_scenario
from repro.sim import Process
from repro.sim.routing import RoutedNode
from repro.workload import ClosedLoopDriver, OperationMix, open_loop_plan

from spiderbench.ledger import Instruments, shard_counters

#: an op slower than this (or shed, failed, unfinished) misses the SLO.
SLO_LIMIT_MS = 500.0
#: the simulated tail whose event rate is reported as the idle cost.
IDLE_TAIL_MS = 1_000.0
ORDERED_KINDS = ("write", "strong-read", "delivery")

#: (kind, issued_ms, latency_ms, region) — one completed op as a client saw it.
Sample = Tuple[str, float, float, str]


@dataclass
class Outcome:
    """What one repetition of a workload produced (all simulated)."""

    samples: List[Sample]
    offered: int
    #: ops that errored or were still unfinished at the end of the drain
    #: (ops shed by admission control are refusals by design, not failures).
    failed: int
    #: [start, end) of the measurement window, simulated ms.
    window: Tuple[float, float]
    end_ms: float
    fingerprint: int
    violations: List[str] = field(default_factory=list)
    #: exact per-layer counters, already named ``<layer>.<metric>``.
    counters: Dict[str, float] = field(default_factory=dict)
    #: events scheduled by the benchmark's own probes (not the program's).
    probe_events: int = 0
    #: data recorded beside the metrics (parity anchors), never compared.
    notes: Dict[str, Any] = field(default_factory=dict)


def _crc(obj: Any) -> int:
    return zlib.crc32(repr(obj).encode("utf-8", errors="replace"))


def _converged(shards: Sequence[Any]) -> List[str]:
    """Every execution replica of a shard must hold the same app state."""
    violations = []
    for shard in shards:
        states = {
            replica.name: repr(replica.app.snapshot())
            for group in shard.groups.values()
            for replica in group.replicas
        }
        if len(set(states.values())) > 1:
            violations.append(
                f"state divergence among execution replicas {sorted(states)}"
            )
    return violations


def _unique(traces: Dict[str, Sequence[Tuple]]) -> List[str]:
    """No client may see one op complete twice."""
    return [
        f"client {name} reported a completed op twice"
        for name, trace in sorted(traces.items())
        if len(set(trace)) != len(trace)
    ]


#: counters only some workloads feed; the others report them as 0.
OPTIONAL_COUNTERS = (
    "core.agreement_cpu_ms_per_op", "core.execution_cpu_ms_per_op", "core.leader_cpu_util",
    "consensus.instances_per_op", "consensus.ops_per_batch", "consensus.view_changes",
    "consensus.state_transfers", "consensus.payload_fetches", "consensus.catchup_ms",
    "irmc.sent_per_op", "irmc.delivered_per_op", "checkpoints.stable_per_kop",
    "deploy.shed_share", "deploy.cache_served_share", "deploy.rate_limit_sheds",
    "deploy.max_inflight", "deploy.peak_backlog",
)


def _layer_counters(network, shards: Sequence[Any], ops: int, issue_ms: float) -> Dict[str, float]:
    """Per-op quotients of the network's and the shards' public counters."""
    per_op = 1.0 / max(ops, 1)
    counters = {
        "net.wan_msgs_per_op": network.wan.messages * per_op,
        "net.lan_msgs_per_op": network.lan.messages * per_op,
        "net.wan_bytes_per_op": network.wan.bytes * per_op,
        "net.lan_bytes_per_op": network.lan.bytes * per_op,
        "net.dropped": network.dropped,
    }
    counters.update(dict.fromkeys(OPTIONAL_COUNTERS, 0.0))
    if shards:
        totals = shard_counters(shards)
        instances = totals["instances"]
        counters.update(
            {
                "core.agreement_cpu_ms_per_op": totals["agreement_cpu_ms"] * per_op,
                "core.execution_cpu_ms_per_op": totals["execution_cpu_ms"] * per_op,
                "core.leader_cpu_util": totals["leader_cpu_ms"] / issue_ms,
                "consensus.instances_per_op": instances * per_op,
                "consensus.ops_per_batch": (
                    totals["requests_ordered"] / instances if instances else 0.0
                ),
                "consensus.view_changes": totals["view_changes"],
                "consensus.state_transfers": totals["state_transfers"],
                "consensus.payload_fetches": totals["payload_fetches"],
                "irmc.sent_per_op": totals["irmc_sent"] * per_op,
                "irmc.delivered_per_op": totals["irmc_delivered"] * per_op,
                "checkpoints.stable_per_kop": totals["stable_checkpoints"] * per_op * 1000.0,
            }
        )
    return counters


# ----------------------------------------------------------------------
# geo_write_closed / geo_mixed_think
# ----------------------------------------------------------------------
def _geo_closed(
    seed: int,
    instruments: Instruments,
    clients_per_region: int,
    think_ms: float,
    mix: OperationMix,
    issue_ms: float,
) -> Outcome:
    """The paper deployment (agreement in Virginia, execution groups in
    V/O/I/T) under closed-loop clients in every region; 1 s of warm-up,
    3 s of drain."""
    warmup_ms, drain_ms = 1_000.0, 3_000.0
    sim, network = fresh_env(seed=seed, jitter=0.05)
    cluster = repro.deploy.build(sim, spider_spec(), network=network)
    system = cluster.system
    drivers = []
    for region in REGIONS:
        for index in range(clients_per_region):
            client = system.make_client(f"cl-{region}-{index}", region)
            drivers.append(
                (
                    region,
                    ClosedLoopDriver(
                        sim,
                        client,
                        think_ms=think_ms,
                        mix=mix,
                        duration_ms=issue_ms,
                        rng=random.Random(f"bench:{seed}:driver:{client.name}"),
                    ),
                )
            )
    end_ms = issue_ms + drain_ms
    instruments.issue_end_ms, instruments.idle_from_ms = issue_ms, end_ms - IDLE_TAIL_MS
    sim.run(until=end_ms)

    samples = [
        (kind, issued, latency, region)
        for region, driver in drivers
        for kind, issued, latency in driver.client.completed
    ]
    offered = sum(driver.issued for _region, driver in drivers)
    traces = {driver.client.name: driver.client.completed for _region, driver in drivers}
    return Outcome(
        samples=samples,
        offered=offered,
        failed=offered - len(samples),
        window=(warmup_ms, issue_ms),
        end_ms=end_ms,
        fingerprint=_crc(sorted(traces.items())),
        violations=_converged([system]) + _unique(traces),
        counters=_layer_counters(network, [system], len(samples), issue_ms),
    )


def geo_write_closed(seed: int, scale: float, instruments: Instruments) -> Outcome:
    """6 zero-think write clients per region: the full write path with the
    agreement CPU ~30 % busy, so latency is WAN + protocol rounds."""
    return _geo_closed(
        seed,
        instruments,
        clients_per_region=max(1, round(6 * scale)),
        think_ms=0.0,
        mix=OperationMix(write=1.0),
        issue_ms=5_000.0,
    )


def geo_mixed_think(seed: int, scale: float, instruments: Instruments) -> Outcome:
    """12 thinking clients per region, 50 % weak / 25 % strong reads /
    25 % writes: weak reads bypass consensus and IRMC entirely."""
    return _geo_closed(
        seed,
        instruments,
        clients_per_region=max(1, round(12 * scale)),
        think_ms=100.0,
        mix=OperationMix(write=0.25, weak_read=0.5, strong_read=0.25),
        issue_ms=10_000.0,
    )


# ----------------------------------------------------------------------
# irmc_rc_1k
# ----------------------------------------------------------------------
IRMC_WINDOW_MOVE_BATCH = 64
IRMC_CAPACITY = 2048


def irmc_rc_1k(seed: int, scale: float, instruments: Instruments) -> Outcome:
    """One IRMC-RC channel, 3 senders (Virginia) -> 4 receivers (Tokyo),
    pumped at window saturation: no consensus, core, deploy or app.

    Payload sizes are drawn from the seed around 1 KiB (768-1280 B), and
    the links carry the same 5 % jitter as every other workload, so no
    reported time reads the same on two seeds.
    """
    issue_ms, drain_ms, warmup_ms = 5_000.0 * scale, 1_000.0, 500.0 * scale
    sim, network = fresh_env(seed=seed, jitter=0.05)
    instruments.watch(network)
    senders = [
        network.register(RoutedNode(sim, f"s{i}", Site("virginia", i + 1)))
        for i in range(3)
    ]
    receivers = [
        network.register(RoutedNode(sim, f"r{i}", Site("tokyo", i + 1)))
        for i in range(4)
    ]
    config = IrmcConfig(fs=1, fr=1, capacity=IRMC_CAPACITY, progress_interval_ms=200.0)
    tx_endpoints, rx_endpoints = make_channel("rc", "bench", senders, receivers, config)
    sizes = random.Random(f"bench:{seed}:irmc-sizes")
    payloads = [Payload(sizes.randrange(768, 1281), label="bench") for _ in range(4096)]

    submitted: Dict[str, int] = {}
    first_submit: Dict[int, float] = {}
    deliveries: List[Tuple[int, float]] = []

    def sender_loop(name, endpoint):
        position = 1
        while sim.now < issue_ms:
            first_submit.setdefault(position, sim.now)
            yield endpoint.send(0, position, payloads[position % len(payloads)])
            submitted[name] = position
            position += 1

    def receiver_loop(endpoint, sink):
        position = 1
        while True:
            yield endpoint.receive(0, position)
            if sink is not None:
                sink.append((position, sim.now))
            if position % IRMC_WINDOW_MOVE_BATCH == 0:
                endpoint.move_window(0, position + 1)
            position += 1

    for node in senders:
        Process(sim, sender_loop(node.name, tx_endpoints[node.name]), node=node)
    for index, node in enumerate(receivers):
        sink = deliveries if index == 0 else None
        Process(sim, receiver_loop(rx_endpoints[node.name], sink), node=node)
    end_ms = issue_ms + drain_ms
    instruments.issue_end_ms = instruments.idle_from_ms = issue_ms
    sim.run(until=end_ms)

    # A position is offered once fs + 1 senders submitted it: fewer copies
    # can never be delivered, whatever the channel does.
    offered = sorted(submitted.values())[-(config.fs + 1)]
    samples = [
        ("delivery", first_submit[position], at - first_submit[position], "tokyo")
        for position, at in deliveries
    ]
    positions = [position for position, _at in deliveries]
    violations = []
    if positions != list(range(1, len(positions) + 1)):
        violations.append("channel delivered out of order or with gaps")
    per_op = 1.0 / max(len(deliveries), 1)
    counters = _layer_counters(network, [], len(deliveries), issue_ms)
    counters["irmc.sent_per_op"] = sum(e.sent_count for e in tx_endpoints.values()) * per_op
    counters["irmc.delivered_per_op"] = (
        sum(e.delivered_count for e in rx_endpoints.values()) * per_op
    )
    return Outcome(
        samples=samples,
        offered=offered,
        failed=offered - len(deliveries),
        window=(warmup_ms, issue_ms),
        end_ms=end_ms,
        fingerprint=_crc(deliveries),
        violations=violations,
        counters=counters,
    )


# ----------------------------------------------------------------------
# flash_crowd_armed
# ----------------------------------------------------------------------
#: the armed arm of ``benchmarks/test_overload.py``, as data.
FLASH_SESSIONS = 24
FLASH_MIDDLEWARE = [
    {"name": "slo-metrics"},
    {"name": "admission", "options": {"depth": 32}},
    {"name": "rate-limit", "options": {"rate": 150.0, "burst": 30.0}},
    {"name": "read-cache", "options": {"lease_ms": 300.0}},
]


def flash_scenario(scale: float) -> ScenarioSpec:
    return ScenarioSpec.of(
        name="overload-armed",
        stack="overload",
        topology={
            "shards": [
                {
                    "shard_id": f"s{index}",
                    "groups": [{"group_id": f"g{index}", "region": "virginia"}],
                }
                for index in range(2)
            ],
            "config": {},
            "middleware": FLASH_MIDDLEWARE,
        },
        workload={
            "kind": "flash-plan",
            "sessions": FLASH_SESSIONS,
            "n_keys": 32,
            "skew": 0.99,
            "write_fraction": 0.5,
            "base_rate": 240.0,
            "flash_rate": 4_000.0,
            "flash_start_ms": 2_000.0 * scale,
            "flash_end_ms": 3_500.0 * scale,
            "duration_ms": 5_000.0 * scale,
        },
        scale={"cost_scale": 10.0, "drain_ms": 40_000.0 * scale, "probe_ms": 50.0},
    )


def _overload_parity(seed: int, scale: float, stats: Dict[str, Any]) -> List[str]:
    """At the committed file's seed, this workload *is* the armed arm of
    ``benchmarks/BENCH_overload.json`` and must read exactly as it does."""
    committed_path = pathlib.Path(__file__).resolve().parents[1] / "BENCH_overload.json"
    if scale != 1.0 or not committed_path.is_file():
        return []
    committed = json.loads(committed_path.read_text())
    if committed["seed"] != seed:
        return []
    return [
        f"BENCH_overload.json armed {name} is {committed['armed'][name]!r}, measured {stats[name]!r}"
        for name in ("write_p50_ms", "write_p99_ms", "writes_completed", "events", "slo")
        if committed["armed"][name] != stats[name]
    ]


def flash_crowd_armed(seed: int, scale: float, instruments: Instruments) -> Outcome:
    """Open loop: a Zipfian flash crowd at ~4x write saturation against 2
    shards behind slo-metrics + admission + rate-limit + read-cache.  The
    only CPU-saturated workload, and the only one the session layer
    decides.  Arrivals fire at their due simulated instant, so generator
    lateness is 0 by construction and latency is timed from due time."""
    spec = flash_scenario(scale)
    options = spec.workload.options_dict()
    issue_ms = options["duration_ms"]
    end_ms = issue_ms + spec.scale_dict()["drain_ms"]
    instruments.issue_end_ms, instruments.idle_from_ms = issue_ms, end_ms - IDLE_TAIL_MS
    stats = run_scenario(spec, seed)

    cluster, network = instruments.cluster, instruments.network
    sessions = [cluster.sessions[f"u{index}"] for index in range(FLASH_SESSIONS)]
    samples = [
        (kind, issued, latency, session.region)
        for session in sessions
        for kind, _key, issued, latency in session.completed
    ]
    slo = stats["slo"]
    offered = sum(slo["offered"].values())
    completed = sum(slo["completed"].values())
    served = sum(slo["served"].values())
    shed = sum(slo["shed"].values())
    traces = {session.name: session.completed for session in sessions}
    violations = _converged(cluster.shards.values()) + _unique(traces)
    if offered != stats["offered_ops"]:
        violations.append(f"plan offered {stats['offered_ops']} ops, chain saw {offered}")
    if completed + served != len(samples):
        violations.append(
            f"sessions saw {len(samples)} ops finish, chain counted {completed + served}"
        )
    violations += _overload_parity(seed, scale, stats)
    counters = _layer_counters(network, list(cluster.shards.values()), len(samples), issue_ms)
    counters.update(
        {
            "deploy.shed_share": shed / offered,
            "deploy.cache_served_share": served / offered,
            "deploy.rate_limit_sheds": cluster.middleware_instance("rate-limit").shed_count,
            "deploy.max_inflight": max(slo["max_inflight"].values()),
            "deploy.peak_backlog": stats["peak_backlog"],
        }
    )
    return Outcome(
        samples=samples,
        offered=offered,
        # offered == completed + served + shed is the gate: anything left
        # over was neither answered nor refused.
        failed=offered - completed - served - shed,
        window=(0.0, issue_ms),
        end_ms=end_ms,
        fingerprint=_crc(sorted(traces.items())),
        violations=violations,
        counters=counters,
        probe_events=int(issue_ms // 50.0) + 1,
        # the stack's own rounded numbers: at seed 11 they must read as the
        # armed arm of benchmarks/BENCH_overload.json does (366.2, 2314)
        notes={"stack_write_p99_ms": stats["write_p99_ms"], "shed": shed,
               "stack_events": stats["events"]},
    )


# ----------------------------------------------------------------------
# leader_crash_open
# ----------------------------------------------------------------------
def leader_crash_open(seed: int, scale: float, instruments: Instruments) -> Outcome:
    """Open loop with a fault: 120 writes/s keep coming due while ``ag0``
    (the PBFT leader) is down from 3 s to 6 s, so the outage is counted.
    The only workload that runs view change, state transfer and
    checkpoint catch-up."""
    issue_ms, drain_ms = 10_000.0, 5_000.0
    crash_ms, recover_ms = 3_000.0, 6_000.0
    rate = 120.0 * scale
    sim, network = fresh_env(seed=seed, jitter=0.05)
    cluster = repro.deploy.build(sim, spider_spec(), network=network)
    system = cluster.system
    per_region = max(1, round(12 * scale))
    sessions = [
        cluster.session(f"u-{region}-{index}", region)
        for region in REGIONS
        for index in range(per_region)
    ]
    plan = open_loop_plan(
        random.Random(f"bench:{seed}:crash-plan"),
        issue_ms,
        lambda _now: rate,
        lambda rng: (rng.randrange(len(sessions)), f"key-{rng.randrange(64)}"),
    )
    futures = []

    def fire(descriptor):
        index, key = descriptor
        futures.append(sessions[index].write(key, sim.now))

    for due_ms, descriptor in plan:
        sim.schedule_at(due_ms, fire, descriptor)

    leader, peers = system.agreement_replicas[0], system.agreement_replicas[1:]
    sim.schedule_at(crash_ms, leader.crash)
    sim.schedule_at(recover_ms, leader.recover)

    # Benchmark probes: they read state and schedule only themselves, so
    # they shift no protocol event (the runner subtracts their count).
    probes = {"events": 0, "catchup_ms": 0.0, "peak_backlog": 0}

    def probe_catchup():
        probes["events"] += 1
        if leader.ag.delivered_seq >= max(peer.ag.delivered_seq for peer in peers):
            probes["catchup_ms"] = sim.now - recover_ms
        else:
            sim.schedule_at(sim.now + 1.0, probe_catchup)

    def probe_backlog():
        probes["events"] += 1
        backlog = sum(session.pending_ops for session in sessions)
        probes["peak_backlog"] = max(probes["peak_backlog"], backlog)
        if sim.now < issue_ms:
            sim.schedule_at(sim.now + 50.0, probe_backlog)

    sim.schedule_at(recover_ms, probe_catchup)
    sim.schedule_at(0.0, probe_backlog)
    end_ms = issue_ms + drain_ms
    instruments.issue_end_ms, instruments.idle_from_ms = issue_ms, end_ms - IDLE_TAIL_MS
    sim.run(until=end_ms)

    samples = [
        (kind, issued, latency, session.region)
        for session in sessions
        for kind, _key, issued, latency in session.completed
    ]
    unfinished = sum(1 for future in futures if not future.done)
    refused = sum(
        1 for future in futures
        if future.done and isinstance(future.value, repro.deploy.Rejected)
    )
    traces = {session.name: session.completed for session in sessions}
    violations = _converged([system]) + _unique(traces)
    violations += check_recovered_frontier(
        {replica.name: replica.ag.delivered_seq for replica in system.agreement_replicas},
        obligated=[leader.name],
        where="agreement replica",
    )
    if len(samples) != len(plan):
        violations.append(f"{len(plan)} writes offered, {len(samples)} completed")
    counters = _layer_counters(network, [system], len(samples), issue_ms)
    counters.update(
        {
            "consensus.catchup_ms": probes["catchup_ms"],
            "deploy.peak_backlog": probes["peak_backlog"],
        }
    )
    return Outcome(
        samples=samples,
        offered=len(plan),
        failed=unfinished + refused,
        window=(0.0, issue_ms),
        end_ms=end_ms,
        fingerprint=_crc(sorted(traces.items())),
        violations=violations,
        counters=counters,
        probe_events=probes["events"],
    )


WORKLOADS: Dict[str, Callable[[int, float, Instruments], Outcome]] = {
    "geo_write_closed": geo_write_closed,
    "geo_mixed_think": geo_mixed_think,
    "irmc_rc_1k": irmc_rc_1k,
    "flash_crowd_armed": flash_crowd_armed,
    "leader_crash_open": leader_crash_open,
}


# ----------------------------------------------------------------------
# Simulated metrics
# ----------------------------------------------------------------------
def _latencies(samples: Sequence[Sample], kinds: Sequence[str], after_ms: float, region=None):
    return [
        latency
        for kind, issued, latency, where in samples
        if kind in kinds and issued >= after_ms and (region is None or where == region)
    ]


def summarise(outcome: Outcome) -> Dict[str, Dict[str, float]]:
    """Named simulated metrics of one repetition (exact for a seed).

    ``end_to_end`` holds what a user of the system sees; ``layers`` the
    per-kind, per-region and per-layer detail.  Percentiles skip the
    warm-up; p99 is reported because every workload has n >= 1000 ordered
    ops at ``scale=1`` (``ordered_n`` says so).
    """
    samples = outcome.samples
    start_ms, stop_ms = outcome.window
    ordered = _latencies(samples, ORDERED_KINDS, start_ms)
    done_at = sorted(
        issued + latency
        for kind, issued, latency, _region in samples
        if kind in ORDERED_KINDS
    )
    in_window = [at for at in done_at if start_ms <= at]
    gaps = [later - earlier for earlier, later in zip(in_window, in_window[1:])]
    completions = sum(
        1 for _kind, issued, latency, _region in samples
        if start_ms <= issued + latency < stop_ms
    )
    within_limit = sum(1 for _k, _i, latency, _r in samples if latency <= SLO_LIMIT_MS)
    end_to_end = {
        "ordered_p50_ms": percentile(ordered, 50),
        "ordered_p99_ms": percentile(ordered, 99),
        "ops_per_sim_s": completions / ((stop_ms - start_ms) / 1000.0),
        "slo_ok_share": within_limit / outcome.offered,
    }
    layers = dict(outcome.counters)
    layers["core.ordered_n"] = len(ordered)
    # Longest interval with no ordered op completing.  It spans the leader
    # crash where there is one; elsewhere it is an extreme of the arrival
    # pattern and too seed-dependent to bound, hence a layer metric.
    layers["consensus.unavail_ms"] = max(gaps) if gaps else 0.0
    for name, kinds, p in (
        ("core.write_p50_ms", ("write",), 50),
        ("core.write_p99_ms", ("write",), 99),
        ("core.strong_read_p50_ms", ("strong-read",), 50),
        ("core.strong_read_p90_ms", ("strong-read",), 90),
        ("core.weak_read_p50_ms", ("weak-read",), 50),
    ):
        layers[name] = percentile(_latencies(samples, kinds, start_ms), p)
    for region in REGIONS:
        layers[f"core.write_p50_ms.{region}"] = percentile(
            _latencies(samples, ("write",), start_ms, region), 50
        )
    layers["workload.failed_share"] = outcome.failed / outcome.offered
    layers["workload.slo_miss_share"] = 1.0 - within_limit / outcome.offered
    return {"end_to_end": end_to_end, "layers": layers}


def run_workload(name: str, seed: int, scale: float = 1.0, trace: bool = False):
    """Run one repetition; returns ``(outcome, instruments)``."""
    with Instruments(trace=trace) as instruments:
        outcome = WORKLOADS[name](seed, scale, instruments)
    return outcome, instruments
