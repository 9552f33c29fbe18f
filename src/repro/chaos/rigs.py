"""The four stack rigs chaos cases run on.

A rig wires one protocol stack onto the run's simulator and network,
schedules that stack's deterministic workload and returns a :class:`Rig`:
the nodes the fault engine may hit and an ``evaluate`` callable that
turns the evidence collected during the run into invariant violations.
Nothing else lives here — the simulator, the schedule, the engine and
the result belong to :meth:`repro.chaos.cases.ChaosCase.run`, and every
number a rig reads comes from the case record it is handed.

* ``consensus`` — one PBFT group ordering a broadcast workload.
* ``irmc``      — one IRMC channel (RC or SC), 3 senders -> 4 receivers.
* ``spider``    — the full single-shard deployment with closed-loop
  clients.
* ``sharded``   — a two-shard cluster behind the session surface, run
  either statically (shard isolation) or across a live range handover.

Design notes on recovery: crash/recovered replicas owe **full
liveness**.  PBFT state transfer and the Spider driver-process restart
(checkpoint-fetch-on-boot) make crash/recover symmetric, so
completion-after-heal is asserted for ever-crashed replicas too.  The
one recovery-aware twist is at the Spider layer, where a rejoiner that
adopted a checkpoint legitimately skips the covered operations — there
the obligation becomes *state* completion plus journal-subsequence
safety instead of journal-prefix equality (see
:mod:`repro.chaos.invariants`).  The rigs' own driver loops (drains,
IRMC sender/receiver loops) are restartable through node recovery hooks,
mirroring how the real replicas respawn their driver processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.app.kvstore import KVStore
from repro.chaos.actions import FaultAction
from repro.chaos.invariants import (
    check_client_fifo,
    check_completion,
    check_exactly_once,
    check_journal_agreement,
    check_journal_subsequence,
    check_recovered_frontier,
    check_reshard_handover,
    check_sequence_agreement,
    check_state_completion,
    check_views_converged,
)
from repro.consensus.interface import batch_items
from repro.consensus.pbft import PbftConfig, PbftReplica, is_noop
from repro.core import SpiderConfig
from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.irmc import IrmcConfig, TooOld, make_channel
from repro.irmc.base import BY_POSITION, OVERFLOW_FACTOR
from repro.net import Site
from repro.sim import Process
from repro.sim.process import sleep
from repro.sim.routing import RoutedNode

__all__ = [
    "Rig", "RIGS", "PBFT_NODES", "IRMC_SENDERS", "IRMC_RECEIVERS",
    "SPIDER_CLIENT_HOMES", "SHARD_IDS",
]


@dataclass
class Rig:
    """What a wired stack hands back to the run loop."""

    #: every node of the stack, in registration order (the fault engine's
    #: target map and the ``crashed_ever`` census are taken from it)
    nodes: Sequence[Any]
    #: ``crashed_ever -> (violations, stats)``, called once faults healed
    evaluate: Callable[[Set[str]], Tuple[List[str], Dict[str, Any]]]
    #: traffic that can only be placed once the schedule is known
    probe: Optional[Callable[[Sequence[FaultAction]], None]] = None
    max_events: int = 6_000_000


# ======================================================================
# consensus: PBFT alone
# ======================================================================
#: the consensus rig's four replicas (f = 1)
PBFT_NODES = ("r0", "r1", "r2", "r3")


def _logged(replica):
    """``(seq, payload)`` of everything the replica's own log holds as
    delivered, ascending."""
    slots = replica.log.slots
    return [
        (seq, slots[seq].pre_prepare.payload)
        for seq in sorted(slots)
        if slots[seq].delivered
    ]


def consensus(case, sim, network) -> Rig:
    """One PBFT group in one region ordering a broadcast workload."""
    nodes = [
        network.register(RoutedNode(sim, name, Site("virginia", index + 1)))
        for index, name in enumerate(PBFT_NODES)
    ]
    config = PbftConfig(view_timeout_ms=500.0)
    replicas = [PbftReplica(node, "pbft", nodes, config) for node in nodes]
    delivered: Dict[str, List[Tuple[int, Any]]] = {n.name: [] for n in nodes}
    drains: Dict[str, Process] = {}

    def drain(replica):
        while True:
            seq, payload = yield replica.next_delivery()
            delivered[replica.node.name].append((seq, payload))

    def spawn_drain(node, replica):
        drains[node.name] = Process(
            sim, drain(replica), node=node, name=f"drain-{node.name}"
        )

    def restart_drain(node, replica):
        # The old drain's in-flight resumption died with the crash (or
        # still holds a live continuation if the crash fell between
        # resumptions) — stop it either way, reconcile deliveries whose
        # resolution was dropped with the CPU queue from the replica's
        # own log, and respawn the driver, mirroring the Spider-layer
        # process restart.
        drains[node.name].stop()
        replica.reset_delivery()
        have = {seq for seq, _ in delivered[node.name]}
        queued = set(replica.queue.pending_seqs())
        for seq, payload in _logged(replica):
            if seq not in have and seq not in queued:
                delivered[node.name].append((seq, payload))
        delivered[node.name].sort(key=lambda pair: pair[0])
        spawn_drain(node, replica)

    for node, replica in zip(nodes, replicas):
        spawn_drain(node, replica)
        node.add_recovery_hook(
            lambda node=node, replica=replica: restart_drain(node, replica)
        )
        # The delivery journal models the replica's on-disk applied
        # log: a wipe destroys it, and the rebooted replica must
        # re-earn every entry through checkpoint install + replay or
        # catch-up (exactly-once still holds because the
        # pre-wipe journal is gone with the disk it lived on).
        node.add_wipe_hook(lambda name=node.name: delivered[name].clear())

    def order_everywhere(at, payload):
        for replica in replicas:
            sim.schedule_at(at, replica.order, payload)

    expected = [("op", index) for index in range(case.ops)]
    for index, payload in enumerate(expected):
        order_everywhere(100.0 + index * case.op_interval_ms, payload)
    probes = [("probe", index) for index in range(3)]

    def probe(actions):
        # Probe traffic after every fault window: commits past the last
        # faulted slot are what show a laggard its gap (the catch-up
        # loop).
        probe_at = max([case.horizon_ms] + [a.end_ms for a in actions]) + 500.0
        for index, payload in enumerate(probes):
            order_everywhere(probe_at + index * 200.0, payload)

    def evaluate(crashed_ever):
        names = [n.name for n in nodes]
        flat = {
            name: [
                item
                for _, payload in delivered[name]
                for item in batch_items(payload)
                if not is_noop(item)
            ]
            for name in names
        }
        violations = []
        violations += check_sequence_agreement(delivered, names)
        violations += check_exactly_once(flat, names)
        # Crash/recovered replicas rejoin via state transfer (NewView
        # replay + log-suffix evidence), so *everyone* owes the complete
        # history once faults healed — no exemption.
        violations += check_completion(expected + probes, flat)
        # Ever-crashed (including ever-wiped) replicas must additionally
        # stand at the group's exact delivery frontier: checkpoint-free
        # recovery is only done when the whole suffix replayed.
        violations += check_recovered_frontier(
            {r.node.name: r.delivered_seq for r in replicas},
            obligated=crashed_ever,
            where="pbft replica",
        )
        violations += _check_views(case, replicas, "pbft replica")
        stats = {
            "delivered": {name: delivered[name] for name in names},
            "view": max(r.view for r in replicas),
        }
        return violations, stats

    return Rig(nodes, evaluate, probe=probe)


# ======================================================================
# irmc: one channel alone (RC or SC)
# ======================================================================
IRMC_SENDERS = ("s0", "s1", "s2")
IRMC_RECEIVERS = ("r0", "r1", "r2", "r3")


def irmc(case, sim, network) -> Rig:
    """One IRMC channel: 3 senders (Virginia) -> 4 receivers (Oregon).

    Two subchannels probe the two liveness contracts separately:

    * ``"bulk"`` — capacity covers the whole stream, so no position is
      ever flow-controlled away: every honest receiver must eventually
      deliver *everything* (heartbeat retransmission heals loss).
    * ``"s"`` — a sliding window the senders advance as they go, exactly
      like the request channel under client progress: up to
      ``n_r - (f_r + 1)`` receivers may legitimately be skipped past
      positions via ``TooOld`` (in Spider they then fetch a checkpoint),
      but every honest receiver must keep *progressing* to the end of the
      stream — a receiver wedged forever on one position is a liveness
      bug even when skipping is allowed.
    """
    sender_nodes = [
        network.register(RoutedNode(sim, name, Site("virginia", index + 1)))
        for index, name in enumerate(IRMC_SENDERS)
    ]
    receiver_nodes = [
        network.register(RoutedNode(sim, name, Site("oregon", index + 1)))
        for index, name in enumerate(IRMC_RECEIVERS)
    ]
    # ``bulk`` uses the window-covers-everything configuration of
    # Spider's commit channels (capacity >= checkpoint interval);
    # ``s`` exercises the sliding-window flow-control paths.
    config = IrmcConfig(
        fs=1,
        fr=1,
        capacity=case.positions,
        progress_interval_ms=100.0,
        collector_timeout_ms=300.0,
        move_heartbeat_ms=250.0,
    )
    senders, receivers = make_channel(
        case.channel, "ch", sender_nodes, receiver_nodes, config
    )
    received: Dict[str, List[Tuple[int, Any]]] = {name: [] for name in IRMC_RECEIVERS}
    progressed: Dict[str, List[Tuple[int, Any]]] = {name: [] for name in IRMC_RECEIVERS}
    finished: Dict[str, int] = {}
    #: highest position each sender loop completed (restart cursor)
    sent_upto: Dict[str, int] = {name: 0 for name in IRMC_SENDERS}
    procs: Dict[Tuple[str, str], Process] = {}

    def sender_loop(endpoint, name, start):
        for position in range(start, case.positions + 1):
            endpoint.send(
                "s", position, ("m", position),
                window=max(1, position - case.capacity + 1),
            )
            endpoint.send("bulk", position, ("b", position))
            sent_upto[name] = position
            yield sleep(case.send_interval_ms)

    def bulk_loop(endpoint, name, start):
        for position in range(start, case.positions + 1):
            result = yield endpoint.receive("bulk", position)
            if isinstance(result, TooOld):  # cannot happen: full window
                continue
            received[name].append((position, result))

    def window_loop(endpoint, name, start):
        position = start
        while position <= case.positions:
            result = yield endpoint.receive("s", position)
            if isinstance(result, TooOld):
                position = max(position + 1, result.new_start)
                continue
            progressed[name].append((position, result))
            position += 1
        finished[name] = position

    def spawn(role, loop, endpoint, name, start):
        procs[(role, name)] = Process(
            sim, loop(endpoint, name, start), node=endpoint.node, name=f"{role}-{name}"
        )

    def restart_sender(endpoint, name):
        # Driver-process restart, rig edition: resume the stream where
        # the dead loop left off (loop bodies are atomic on the node
        # CPU, so the cursor is exact).
        procs[("tx", name)].stop()
        spawn("tx", sender_loop, endpoint, name, sent_upto[name] + 1)

    def restart_receiver(endpoint, name):
        # Re-reads land on the endpoint's retained delivery book (bulk
        # never moves its window), so resolutions lost with the crash
        # are recovered instantly; the sliding-window loop's TooOld
        # handling absorbs any window movement it slept through.
        procs[("rxb", name)].stop()
        next_bulk = received[name][-1][0] + 1 if received[name] else 1
        spawn("rxb", bulk_loop, endpoint, name, next_bulk)
        if name not in finished:
            procs[("rxw", name)].stop()
            next_window = progressed[name][-1][0] + 1 if progressed[name] else 1
            spawn("rxw", window_loop, endpoint, name, next_window)

    for name, endpoint in senders.items():
        spawn("tx", sender_loop, endpoint, name, 1)
        endpoint.node.add_recovery_hook(
            lambda endpoint=endpoint, name=name: restart_sender(endpoint, name)
        )
    for name, endpoint in receivers.items():
        spawn("rxb", bulk_loop, endpoint, name, 1)
        spawn("rxw", window_loop, endpoint, name, 1)
        endpoint.node.add_recovery_hook(
            lambda endpoint=endpoint, name=name: restart_receiver(endpoint, name)
        )

    def evaluate(crashed_ever):
        violations = []
        # Integrity: anything delivered anywhere must be exactly what the
        # honest senders submitted at that position, on both subchannels.
        for book, marker in ((received, "b"), (progressed, "m")):
            for name, entries in book.items():
                for position, payload in entries:
                    if payload != (marker, position):
                        violations.append(
                            f"safety/integrity: {name} got {payload!r} "
                            f"at position {position}"
                        )
        observers = {
            name: [p for p, _ in entries] for name, entries in received.items()
        }
        violations += check_exactly_once(observers, received)
        # Full-window channel: every honest receiver — crash/recovered ones
        # included, their loops respawn and re-read the retained delivery
        # book — must deliver everything.
        violations += check_completion(
            list(range(1, case.positions + 1)), observers, where="receiver"
        )
        # Sliding-window channel: every honest receiver must reach the end
        # of the stream (delivering or skipping), never wedge.
        for name in IRMC_RECEIVERS:
            if name not in finished:
                last = progressed[name][-1][0] if progressed[name] else 0
                violations.append(
                    f"liveness/progress: receiver {name} wedged after "
                    f"position {last} on the sliding-window subchannel"
                )
        # Bounded bookkeeping under the overflow cap (the Byzantine-flood
        # memory promise in irmc/base.py).
        cap = config.capacity * OVERFLOW_FACTOR
        for name, endpoint in receivers.items():
            for book in endpoint.BOOKS:
                if book.shape is not BY_POSITION:
                    continue
                for subchannel, positions in getattr(endpoint, book.name).items():
                    if len(positions) > cap:
                        violations.append(
                            f"memory/bounded: {name}.{book.name}[{subchannel!r}] "
                            f"holds {len(positions)} > cap {cap}"
                        )
        return violations, {"received": received, "progressed": progressed}

    return Rig(sender_nodes + receiver_nodes, evaluate)


# ======================================================================
# Spider deployments: shared evidence and checks
# ======================================================================
class _JournalKVStore(KVStore):
    """KVStore journaling every applied operation, for journal agreement."""

    def __init__(self):
        super().__init__()
        self.journal: List[Any] = []

    def apply(self, operation):
        self.journal.append(operation)
        return super().apply(operation)


def _put_journal(replica) -> List[Any]:
    return [op for op in replica.app.journal if op[0] == "put"]


def _check_group_invariants(
    groups, crashed_ever, expected_writes, expected_state
) -> List[str]:
    """The recovery-aware per-group obligations shared by every Spider
    rig: prefix agreement + exactly-once for never-crashed replicas,
    subsequence safety for checkpoint-adopting rejoiners, journal
    completion for the former and *state* completion for everyone."""
    violations: List[str] = []
    for group in groups:
        journals = {replica.name: _put_journal(replica) for replica in group.replicas}
        never_crashed = [n for n in journals if n not in crashed_ever]
        recovered = [n for n in journals if n in crashed_ever]
        violations += check_journal_agreement(journals, never_crashed)
        violations += check_exactly_once(journals, journals)
        if recovered:
            reference_pool = never_crashed or list(journals)
            reference = max((journals[n] for n in reference_pool), key=len)
            violations += check_journal_subsequence(
                reference,
                {n: journals[n] for n in recovered},
                where=f"{group.group_id} recovered replica",
            )
        violations += check_completion(
            expected_writes,
            {n: journals[n] for n in never_crashed},
            where=f"{group.group_id} replica",
        )
        violations += check_state_completion(
            expected_state,
            {replica.name: replica.app.snapshot()[0] for replica in group.replicas},
            where=f"{group.group_id} replica",
        )
    return violations


def _check_views(case, replicas, where: str) -> List[str]:
    """views/converged over the PBFT replicas that are up, if the case
    owes it."""
    if "views-converged" not in case.invariants:
        return []
    return check_views_converged(
        {r.name: (r.view, r.in_view_change) for r in replicas if not r.node.crashed},
        where=where,
    )


def _check_agreement_frontier(agreement_replicas, label: str = "") -> List[str]:
    """After heal + settle every agreement replica of one shard must sit
    at the same consensus frontier (PBFT's catch-up loop and cp-ag
    adoption close any hole a crash, wipe or partition opened).  The
    Spider form of the general frontier invariant, with *every* replica
    obligated — "all equal" and "all at the max" coincide."""
    return check_recovered_frontier(
        {replica.name: replica.ag.delivered_seq for replica in agreement_replicas},
        where=f"agreement replica{label}",
    )


def _register_wipe_journals(groups) -> None:
    """Model the execution journals as on-disk state for wipe windows.

    The journal is observer evidence collected *on* the replica: a disk
    wipe destroys it with everything else, and the rebooted replica only
    re-earns entries it actually re-applies (checkpoint-skipped
    operations legitimately never reappear — the subsequence/state
    obligations cover them).  Registered after the replica's own wipe
    hook, so the pristine-app restore runs first and the journal clear
    wins.
    """
    for group in groups:
        for replica in group.replicas:
            replica.add_wipe_hook(lambda app=replica.app: app.journal.clear())


# ======================================================================
# spider: the full single-shard deployment
# ======================================================================
#: home group of client ``c{i}`` — the ``clients`` knob is capped here
SPIDER_CLIENT_HOMES = ("g0", "g0", "g1")


def spider(case, sim, network) -> Rig:
    """The full deployment: agreement in Virginia, groups in VA + Tokyo.

    One shard (groups g0/g1) keeps the node graph byte-identical to the
    historical hand-wired deployment, so recorded sweep outcomes carry
    over."""
    regions = {"g0": "virginia", "g1": "tokyo"}
    shard = ShardSpec(
        "s0", groups=tuple(GroupSpec(group, region) for group, region in regions.items())
    )
    spec = ClusterSpec(
        shards=(shard,),
        config=SpiderConfig(**dict(case.spider_config)),
        app_factory=_JournalKVStore,
    )
    system = build(sim, spec, network=network).system
    _register_wipe_journals(system.groups.values())
    clients = [
        system.make_client(f"c{i}", regions[home], group_id=home)
        for i, home in enumerate(SPIDER_CLIENT_HOMES[: case.clients])
    ]
    completions: Dict[str, List[Tuple[int, Any]]] = {c.name: [] for c in clients}

    # ``think_ms`` between a reply and the next chained request paces the
    # workload across the whole fault horizon, so fault windows always
    # hit in-flight traffic (a workload that drains before the first
    # window opens would make every invariant vacuously green).
    def issue(client, index=0):
        if index >= case.requests_per_client:
            return
        future = client.write(("put", f"w-{client.name}-{index}", index))
        future.add_callback(
            lambda result: (
                completions[client.name].append((index, result)),
                sim.schedule(case.think_ms, issue, client, index + 1),
            )
        )

    for client in clients:
        sim.schedule_at(200.0, issue, client)

    def evaluate(crashed_ever):
        violations = []
        expected_writes = [
            ("put", f"w-{client.name}-{index}", index)
            for client in clients
            for index in range(case.requests_per_client)
        ]
        expected_state = {key: value for _, key, value in expected_writes}
        # Prefix agreement / exactly-once / subsequence safety for
        # rejoiners / journal + state completion (see the shared helper).
        violations += _check_group_invariants(
            system.groups.values(), crashed_ever, expected_writes, expected_state
        )
        violations += check_client_fifo(completions)
        # Recovered agreement replicas owe full liveness too.
        violations += _check_agreement_frontier(system.agreement_replicas)
        violations += _check_views(
            case, [replica.ag for replica in system.agreement_replicas], "agreement replica"
        )
        for client in clients:
            done = len(completions[client.name])
            if done < case.requests_per_client:
                violations.append(
                    f"liveness/client: {client.name} completed {done}/"
                    f"{case.requests_per_client} requests"
                )
        stats = {
            "completions": completions,
            "view": max(r.ag.view for r in system.agreement_replicas),
        }
        return violations, stats

    return Rig(system.all_nodes, evaluate, max_events=12_000_000)


# ======================================================================
# sharded: two shards behind sessions — static, or across a handover
# ======================================================================
SHARD_IDS = ("sa", "sb")
_EXEC_GROUPS = {"sa": "a0", "sb": "b0"}


def sharded(case, sim, network) -> Rig:
    """Two complete agreement domains (``sa`` / ``sb``, each 4 agreement
    replicas + one 3-replica execution group) behind the sharded session
    surface, every session in Virginia.  Without a ``moves`` plan the
    keyspace stays put and the run proves shard isolation; with one it
    is handed over mid-run and the cut is audited."""
    spec = ClusterSpec(
        shards=tuple(
            ShardSpec(
                shard_id,
                groups=(GroupSpec(_EXEC_GROUPS[shard_id], region),),
                agreement_region=region,
            )
            for shard_id, region in zip(SHARD_IDS, case.shard_regions)
        ),
        app_factory=_JournalKVStore,
    )
    cluster = build(sim, spec, network=network)
    for shard_id in SHARD_IDS:
        _register_wipe_journals(cluster.shard(shard_id).groups.values())
    body = _isolation if case.moves is None else _handover
    return Rig(cluster.all_nodes, body(case, sim, cluster), max_events=12_000_000)


def _drive_sessions(case, sim, sessions, keys):
    """Closed loop per session: write ``keys[name][i]``, await the reply,
    think, write the next.  Returns the ``(index, issued_at, done_at)``
    book per session, for FIFO + latency checks."""
    completions: Dict[str, List[Tuple[int, float, float]]] = {
        s.name: [] for s in sessions
    }

    def issue(session, index=0):
        if index >= case.requests_per_session:
            return
        issued_at = sim.now
        future = session.write(keys[session.name][index], f"{session.name}:{index}")
        future.add_callback(
            lambda result: (
                completions[session.name].append((index, issued_at, sim.now)),
                sim.schedule(case.think_ms, issue, session, index + 1),
            )
        )

    for session in sessions:
        sim.schedule_at(200.0, issue, session)
    return completions


def _issued(case, keys, sessions):
    """Every write ``sessions`` issue, and the state they leave behind."""
    writes = [
        ("put", keys[s.name][index], f"{s.name}:{index}")
        for s in sessions
        for index in range(case.requests_per_session)
    ]
    return writes, {key: value for _, key, value in writes}


def _check_shards(case, cluster, crashed_ever, expected) -> List[str]:
    """Completion-after-heal **per shard**: ``expected[shard_id]`` is the
    ``(writes, state)`` that shard owes — crash/recovered replicas and
    all — plus its agreement frontier and views."""
    violations: List[str] = []
    for shard_id in SHARD_IDS:
        shard = cluster.shard(shard_id)
        writes, state = expected[shard_id]
        violations += _check_group_invariants(
            shard.groups.values(), crashed_ever, writes, state
        )
        violations += _check_agreement_frontier(
            shard.agreement_replicas, label=f"[{shard_id}]"
        )
        violations += _check_views(
            case,
            [replica.ag for replica in shard.agreement_replicas],
            f"agreement replica[{shard_id}]",
        )
    return violations


def _check_sessions(case, sessions, completions) -> List[str]:
    violations = check_client_fifo(
        {name: [(i, done) for i, _, done in comps] for name, comps in completions.items()}
    )
    for session in sessions:
        done = len(completions[session.name])
        if done < case.requests_per_session:
            violations.append(
                f"liveness/session: {session.name} completed {done}/"
                f"{case.requests_per_session} requests"
            )
    return violations


def _isolation(case, sim, cluster):
    """Static keyspace, faults confined to shard ``sa``: ``sb`` must not
    stall.  Sessions write keys owned by their designated shard."""
    by_shard: Dict[str, List[Any]] = {}
    keys: Dict[str, List[str]] = {}
    for shard_id in SHARD_IDS:
        by_shard[shard_id] = []
        for index in range(case.sessions_per_shard):
            session = cluster.session(f"u-{shard_id}-{index}", "virginia")
            by_shard[shard_id].append(session)
            # Disjoint per-session key pools: the expected state maps
            # each key to exactly one session's write, so the invariant
            # holds regardless of how concurrent sessions interleave.
            keys[session.name] = cluster.range_map.keys_for(
                shard_id,
                case.requests_per_session,
                prefix=f"{shard_id}:{index}:k",
            )
    sessions = [s for shard_id in SHARD_IDS for s in by_shard[shard_id]]
    completions = _drive_sessions(case, sim, sessions, keys)

    def evaluate(crashed_ever):
        violations = _check_shards(
            case,
            cluster,
            crashed_ever,
            {shard_id: _issued(case, keys, by_shard[shard_id]) for shard_id in SHARD_IDS},
        )
        violations += _check_sessions(case, sessions, completions)
        # Non-interference: the unfaulted shard runs at normal latency
        # even while shard sa's fault windows are open.
        for session in by_shard["sb"]:
            for index, issued_at, done_at in completions[session.name]:
                latency = done_at - issued_at
                if latency > case.latency_budget_ms:
                    violations.append(
                        "liveness/shard-isolation: unfaulted shard op "
                        f"{session.name}#{index} took {latency:.0f} ms "
                        f"(> {case.latency_budget_ms:.0f} ms budget)"
                    )
        return violations, {"completions": completions}

    return evaluate


def _keys_in_slots(range_map, wanted_slots, count, prefix) -> List[str]:
    """The first ``count`` ``{prefix}{i}`` keys hashing into
    ``wanted_slots`` — deterministic in the table alone."""
    keys: List[str] = []
    index = 0
    while len(keys) < count:
        key = f"{prefix}{index}"
        index += 1
        if range_map.slot_of(key) in wanted_slots:
            keys.append(key)
    return keys


def _handover(case, sim, cluster):
    """The ``moves`` plan runs mid-flight: ordered ``MoveRange`` handovers
    while mover sessions keep writing keys *inside* the moving range and
    stationary sessions write keys that never move."""
    moves = case.moves
    initial_map = cluster.range_map
    moving_slots = {
        slot for lo, hi, _src, _dst, _epoch in moves for slot in range(lo, hi)
    }

    # Stationary sessions write keys that never change owner; movers
    # hammer one key each *inside* the moving range, so their write
    # streams cross the ownership cut mid-flight.
    stationary: Dict[str, List[Any]] = {}
    keys: Dict[str, List[str]] = {}
    per_session = case.requests_per_session
    for shard_id in SHARD_IDS:
        pool = _keys_in_slots(
            initial_map,
            set(initial_map.slots_of(shard_id)) - moving_slots,
            case.sessions_per_shard * per_session,
            f"{shard_id}:k",
        )
        stationary[shard_id] = []
        for index in range(case.sessions_per_shard):
            session = cluster.session(f"u-{shard_id}-{index}", "virginia")
            stationary[shard_id].append(session)
            keys[session.name] = pool[index * per_session : (index + 1) * per_session]
    moved_keys = _keys_in_slots(initial_map, moving_slots, case.movers, "m:")
    movers = []
    for index in range(case.movers):
        session = cluster.session(f"mover-{index}", "virginia")
        movers.append(session)
        keys[session.name] = [moved_keys[index]] * per_session
    sessions = [s for shard_id in SHARD_IDS for s in stationary[shard_id]] + movers
    completions = _drive_sessions(case, sim, sessions, keys)

    # The handover plan runs sequentially from move_at_ms; the chaos
    # schedule is aimed at its windows.
    handover: Dict[str, Any] = {"start": None, "end": None}

    def run_move(index: int) -> None:
        if handover["start"] is None:
            handover["start"] = sim.now
        if index >= len(moves):
            handover["end"] = sim.now
            return
        lo, hi, src, dst, _epoch = moves[index]
        cluster.move_range(lo, hi, src, dst).add_callback(
            lambda _map: run_move(index + 1)
        )

    sim.schedule_at(case.move_at_ms, run_move, 0)

    def evaluate(crashed_ever):
        src_shard, dst_shard = moves[0][2], moves[-1][3]
        # Per-shard expectations cover the stationary writes; migrated
        # keys are audited separately across the cut.  The destination's
        # final state additionally owes every mover's last write.
        expected = {
            shard_id: _issued(case, keys, stationary[shard_id])
            for shard_id in SHARD_IDS
        }
        last = per_session - 1
        expected[dst_shard][1].update(
            {keys[s.name][last]: f"{s.name}:{last}" for s in movers}
        )
        violations = _check_shards(case, cluster, crashed_ever, expected)
        # The cross-cut audit: per migrated key, source-journal prefix +
        # destination-journal suffix == the issued sequence, and the
        # source replicas dropped the range.
        expected_cut = {
            keys[s.name][0]: [f"{s.name}:{index}" for index in range(per_session)]
            for s in movers
        }

        def replicas_of(shard_id):
            return [
                replica
                for group in cluster.shard(shard_id).groups.values()
                for replica in group.replicas
            ]

        def never_crashed_journals(shard_id):
            return {
                replica.name: _put_journal(replica)
                for replica in replicas_of(shard_id)
                if replica.name not in crashed_ever
            }

        violations += check_reshard_handover(
            expected_cut,
            never_crashed_journals(src_shard),
            never_crashed_journals(dst_shard),
            {r.name: r.app.snapshot()[0] for r in replicas_of(src_shard)},
        )
        if handover["end"] is None:
            violations.append(
                "liveness/reshard: the handover plan did not complete "
                f"(started at {handover['start']})"
            )
        final_epoch = cluster.range_map.epoch
        if final_epoch != moves[-1][4]:
            violations.append(
                f"safety/reshard: routing table sits at epoch {final_epoch}, "
                f"plan ends at epoch {moves[-1][4]}"
            )
        violations += _check_sessions(case, sessions, completions)
        stats = {
            "completions": completions,
            "handover": dict(handover),
            "epoch": final_epoch,
        }
        return violations, stats

    return evaluate


#: rig name (a case's ``stack``) -> rig
RIGS: Dict[str, Callable[..., Rig]] = {
    "consensus": consensus,
    "irmc": irmc,
    "spider": spider,
    "sharded": sharded,
}
