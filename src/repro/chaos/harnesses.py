"""Full-stack harnesses the chaos campaign runs schedules against.

Each harness builds one stack configuration from a bare seed, derives a
fault schedule within that stack's fault budget, runs a deterministic
workload through the fault windows, and evaluates the invariant checkers
once every fault healed:

* ``spider``   — the full Spider deployment (agreement group + two
  execution groups + closed-loop clients).
* ``pbft``     — the PBFT agreement component alone.
* ``raft``     — the Raft agreement component alone.
* ``irmc-rc`` / ``irmc-sc`` — one IRMC channel alone.

Everything is a pure function of ``(config name, seed)``: victims,
schedules and workloads all derive from string-seeded private RNGs, so a
failing case is reproducible from its one-line ``(name, seed)`` and
shrinkable offline (:mod:`repro.chaos.shrink`).

Besides the palette-drawing stacks there are two *targeted* recovery
configurations (``pbft-vc-crash``, ``spider-cp-crash``) whose schedules
are hand-shaped — crash a replica mid-view-change, or crash the same
execution replica twice across checkpoint windows — with seeded jitter
for coverage, plus the sharding configuration ``spider-shard``: a
two-shard :class:`~repro.deploy.ClusterSpec` deployment where faults
only ever hit one shard and the other owes *normal-latency* completion
throughout (shard isolation), with completion-after-heal asserted per
shard.  The Spider stacks build from declarative specs via
:func:`repro.deploy.build`.

The adversary-and-environment palette adds five more configurations:

* ``pbft-wipe``      — durable-state loss and authenticated equivocation
  against PBFT (palette draw of ``wipe``/``equivocate``);
* ``raft-skew``      — durable-state loss and clock skew against Raft;
* ``spider-disk``    — targeted: wipe an execution replica while a peer's
  stored checkpoints rot (``corrupt_cp``), then wipe an agreement replica;
* ``irmc-equivocate`` — targeted: one sender equivocates behind the
  crypto boundary while a receiver loses its disk;
* ``irmc-sc-wipe``   — targeted: a receiver and then a sender of an
  IRMC-SC reboot empty (collector failover must route around the
  sender's lost bundles).

Replicas that rebooted empty owe the strongest recovery claim: the
:func:`check_recovered_frontier` invariant requires every ever-crashed
(and therefore every ever-wiped) replica to stand at the group's exact
delivery frontier once faults healed.

Design notes on fault budgets: node-targeted faults only ever hit the
victims chosen per run (at most the stack's ``f``).  Crash/recovered
replicas owe **full liveness**: PBFT state transfer, Raft timer re-arm
and the Spider driver-process restart (checkpoint-fetch-on-boot) make
crash/recover symmetric, so completion-after-heal is asserted for
ever-crashed replicas too.  The one recovery-aware twist is at the
Spider layer, where a rejoiner that adopted a checkpoint legitimately
skips the covered operations — there the obligation becomes *state*
completion plus journal-subsequence safety instead of journal-prefix
equality (see :mod:`repro.chaos.invariants`).  The harnesses' own driver
loops (drains, IRMC sender/receiver loops) are restartable through node
recovery hooks, mirroring how the real replicas respawn their driver
processes.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.app.kvstore import KVStore
from repro.chaos.actions import ChaosEngine, FaultAction
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
)
from repro.chaos.schedule import ChaosProfile, generate_schedule
from repro.consensus.interface import batch_items
from repro.consensus.pbft import PbftConfig, PbftReplica, is_noop
from repro.consensus.raft import RaftConfig, RaftReplica
from repro.core import SpiderConfig
from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.elastic import validate_moves
from repro.irmc import IrmcConfig, TooOld, make_channel
from repro.errors import ConfigurationError
from repro.net import Network, Site, Topology
from repro.sim import Process, Simulator
from repro.sim.routing import RoutedNode

__all__ = [
    "CampaignResult",
    "HARNESSES",
    "HARNESS_KINDS",
    "get_harness",
    "make_harness",
]


@dataclass
class CampaignResult:
    """Outcome of one chaos case: a (config, seed) pair."""

    config: str
    seed: int
    actions: List[FaultAction]
    violations: List[str]
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> int:
        """Stable checksum of the simulated evidence, for parity checks."""
        return zlib.crc32(
            repr((sorted(self.stats.items()), self.violations)).encode(
                "utf-8", errors="replace"
            )
        )

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"[{self.config} seed={self.seed} actions={len(self.actions)}] {status}"


class StackHarness:
    """Base class: one stack configuration the campaign can attack.

    The palette knobs (``fault_kinds``, ``max_actions``,
    ``partition_regions``, ``min_start_ms``/``horizon_ms``) and the run
    scale are plain class attributes, so a scenario spec can rebuild a
    configuration declaratively via :func:`make_harness` — same values,
    byte-identical campaign.  **Order matters** in ``fault_kinds``: the
    palette draw in :func:`~repro.chaos.schedule.generate_schedule`
    enumerates choices in tuple order, so reordering the kinds reshuffles
    every seeded schedule.  ``invariant_names`` declares the stack's
    obligations in the :data:`~repro.chaos.invariants.INVARIANTS`
    vocabulary; a spec's invariant set must match it exactly.
    """

    name = "stack"
    #: node-targeted palette kinds, in draw order (empty: targeted stack)
    fault_kinds: Tuple[str, ...] = ()
    #: regions eligible for partition draws
    partition_regions: Tuple[str, ...] = ()
    #: fault-window budget per generated schedule
    max_actions = 5
    #: the invariants this stack's run() enforces, by registry name
    invariant_names: Tuple[str, ...] = ()

    def profile(self, seed: int) -> ChaosProfile:
        raise NotImplementedError

    def validate_knobs(self) -> None:
        """Structural validation of knob *values* after overrides landed.

        :func:`make_harness` rejects unknown knob names; this hook lets a
        harness kind reject malformed values (e.g. an inconsistent move
        plan) during ``ScenarioSpec.validate()``, before any node exists.
        Default: everything goes.
        """

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        """The seeded fault schedule for this ``(config, seed)`` case.

        Default: draw from the stack's fault palette via
        :func:`~repro.chaos.schedule.generate_schedule`.  Targeted
        harnesses override this to shape specific scenarios (e.g. a crash
        inside a view-change window) while keeping seeded jitter.
        """
        return generate_schedule(self.name, seed, self.profile(seed))

    def run(
        self,
        seed: int,
        actions: Optional[Sequence[FaultAction]] = None,
        chaos: bool = True,
    ) -> CampaignResult:
        """Run one case.

        ``actions=None`` derives the seeded schedule; an explicit list
        replays it (the shrinker's trial runs).  ``chaos=False`` runs the
        identical workload without constructing the chaos layer at all —
        the byte-parity reference for the no-fault case.
        """
        raise NotImplementedError


def _victims(name: str, seed: int, pool: Sequence[str], count: int) -> Tuple[str, ...]:
    rng = random.Random(f"chaos:{seed}:{name}:victims")
    pool = list(pool)
    return tuple(rng.sample(pool, min(count, len(pool))))


# ======================================================================
# PBFT-only
# ======================================================================
class PbftHarness(StackHarness):
    """Four PBFT replicas in one region ordering a broadcast workload."""

    name = "pbft"
    n = 4
    ops = 18
    op_interval_ms = 250.0
    min_start_ms = 400.0
    horizon_ms = 8_000.0
    settle_ms = 22_000.0
    fault_kinds = ("crash", "silence", "delay", "drop", "duplicate", "mute_half")
    fault_links = 3
    invariant_names = (
        "sequence-agreement",
        "exactly-once",
        "completion",
        "recovered-frontier",
    )

    def _names(self) -> List[str]:
        return [f"r{i}" for i in range(self.n)]

    def profile(self, seed: int) -> ChaosProfile:
        names = self._names()
        victims = _victims(self.name, seed, names, 1)  # f = 1
        link_rng = random.Random(f"chaos:{seed}:{self.name}:links")
        pairs = [(a, b) for a in names for b in names if a != b]
        links = tuple(link_rng.sample(pairs, self.fault_links))
        return ChaosProfile(
            node_kinds=tuple(self.fault_kinds),
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            links=links,
            max_actions=self.max_actions,
        )

    def run(self, seed, actions=None, chaos=True):
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        nodes = [
            network.register(RoutedNode(sim, name, Site("virginia", index + 1)))
            for index, name in enumerate(self._names())
        ]
        config = PbftConfig(view_timeout_ms=500.0)
        replicas = [PbftReplica(node, "pbft", nodes, config) for node in nodes]
        delivered: Dict[str, List[Tuple[int, Any]]] = {n.name: [] for n in nodes}
        drains: Dict[str, Process] = {}

        def drain(replica):
            while True:
                seq, payload = yield replica.next_delivery()
                delivered[replica.node.name].append((seq, payload))

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
            for seq in sorted(replica.log.slots):
                slot = replica.log.slots[seq]
                if slot.delivered and seq not in have and seq not in queued:
                    delivered[node.name].append((seq, slot.pre_prepare.payload))
            delivered[node.name].sort(key=lambda pair: pair[0])
            drains[node.name] = Process(
                sim, drain(replica), node=node, name=f"drain-{node.name}"
            )

        for node, replica in zip(nodes, replicas):
            drains[node.name] = Process(
                sim, drain(replica), node=node, name=f"drain-{node.name}"
            )
            node.add_recovery_hook(
                lambda node=node, replica=replica: restart_drain(node, replica)
            )
            # The delivery journal models the replica's on-disk applied
            # log: a wipe destroys it, and the rebooted replica must
            # re-earn every entry through checkpoint install + replay
            # (exactly-once still holds because the pre-wipe journal is
            # gone with the disk it lived on).
            node.add_wipe_hook(lambda name=node.name: delivered[name].clear())

        expected = [("op", index) for index in range(self.ops)]
        for index, payload in enumerate(expected):
            at = 100.0 + index * self.op_interval_ms
            for replica in replicas:
                sim.schedule_at(at, replica.order, payload)

        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            engine = ChaosEngine(
                sim, network, {n.name: n for n in nodes}, seed_tag=f"chaos:{seed}:{self.name}"
            )
            engine.install(actions)

        # Probe traffic after every fault window: commits past the last
        # faulted slot are what trigger gap retransmission on laggards.
        probe_at = max([self.horizon_ms] + [a.end_ms for a in actions]) + 500.0
        probes = [("probe", index) for index in range(3)]
        for index, payload in enumerate(probes):
            for replica in replicas:
                sim.schedule_at(probe_at + index * 200.0, replica.order, payload)

        sim.run(until=self.settle_ms, max_events=6_000_000)
        if engine is not None:
            engine.undo_all()

        crashed_ever = {n.name for n in nodes if n.crash_count > 0}
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
        # PBFT recovery is only done when the whole suffix replayed.
        violations += check_recovered_frontier(
            {r.node.name: r.delivered_seq for r in replicas},
            obligated=crashed_ever,
            where="pbft replica",
        )
        stats = {
            "delivered": {name: delivered[name] for name in names},
            "view": max(r.view for r in replicas),
            "crashed_ever": sorted(crashed_ever),
            "events": sim.events_processed,
        }
        return CampaignResult(self.name, seed, actions, violations, stats)


class PbftViewChangeCrashHarness(PbftHarness):
    """Crash a replica *while the group is mid-view-change*.

    A targeted two-window schedule instead of a palette draw: the view-0
    leader is silenced long enough for its peers' view timers (500 ms
    here) to fire, and a seeded non-leader victim crashes inside that
    view-change turbulence.  Both windows heal before the horizon; the
    recovered replica must re-enter the — possibly several views later —
    protocol via state transfer and still deliver the complete workload.
    Note the overlap deliberately exceeds ``f = 1`` benign faults (one
    silenced, one crashed): progress may fully stall inside the windows,
    which is exactly what makes completion-after-heal a recovery claim
    rather than a masking claim.
    """

    name = "pbft-vc-crash"
    settle_ms = 25_000.0  # state transfer adds a round trip or two

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        rng = random.Random(f"chaos:{seed}:{self.name}:windows")
        names = self._names()
        leader = names[0]  # leader of view 0
        victim = names[1 + rng.randrange(len(names) - 1)]
        silence_at = round(self.min_start_ms + rng.random() * 1_000.0, 3)
        silence_dur = round(1_200.0 + rng.random() * 1_800.0, 3)
        # The crash window opens right as the view change kicks off
        # (view_timeout_ms = 500 in this harness).
        crash_at = round(silence_at + 300.0 + rng.random() * 700.0, 3)
        crash_dur = round(1_500.0 + rng.random() * 2_500.0, 3)
        return [
            FaultAction(
                kind="silence", target=leader,
                start_ms=silence_at, duration_ms=silence_dur,
            ),
            FaultAction(
                kind="crash", target=victim,
                start_ms=crash_at, duration_ms=crash_dur,
            ),
        ]


class PbftWipeHarness(PbftHarness):
    """Durable-state loss and authenticated equivocation against PBFT.

    The palette draws ``wipe`` (the crash also destroys the disk: log,
    view, votes — everything) and ``equivocate`` (the victim misuses its
    *own* keys to send payload variants behind valid per-receiver MAC
    vector entries) against one seeded victim — the ``f = 1`` budget,
    exercised with the two adversary families the benign palette cannot
    reach.  A wiped replica reboots at view 0 / seq 0 and must rebuild
    the complete history through digest-first state transfer plus
    payload-on-miss fetches; an equivocating leader splits the honest
    prepare votes so no forged payload can reach a commit quorum without
    2f+1 backing, and the view change re-orders the starved payloads.
    Completion still covers *everything* and ever-crashed replicas owe
    the exact frontier.
    """

    name = "pbft-wipe"
    settle_ms = 25_000.0  # full-history state transfer adds round trips
    fault_kinds = ("wipe", "equivocate")

    def profile(self, seed: int) -> ChaosProfile:
        victims = _victims(self.name, seed, self._names(), 1)  # f = 1
        return ChaosProfile(
            node_kinds=tuple(self.fault_kinds),
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            max_actions=self.max_actions,
        )


# ======================================================================
# Raft-only
# ======================================================================
class RaftHarness(StackHarness):
    """Three Raft replicas; crash/recover plus lossy links (CFT budget)."""

    name = "raft"
    n = 3
    ops = 15
    op_interval_ms = 300.0
    min_start_ms = 1_200.0  # first election settles
    horizon_ms = 8_000.0
    settle_ms = 25_000.0
    fault_kinds = ("crash", "silence", "delay", "drop", "duplicate")
    fault_links = 2
    invariant_names = (
        "sequence-agreement",
        "exactly-once",
        "completion",
        "recovered-frontier",
    )

    def _names(self) -> List[str]:
        return [f"n{i}" for i in range(self.n)]

    def profile(self, seed: int) -> ChaosProfile:
        names = self._names()
        victims = _victims(self.name, seed, names, 1)  # minority of 3
        link_rng = random.Random(f"chaos:{seed}:{self.name}:links")
        pairs = [(a, b) for a in names for b in names if a != b]
        links = tuple(link_rng.sample(pairs, self.fault_links))
        return ChaosProfile(
            node_kinds=tuple(self.fault_kinds),
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            links=links,
            max_actions=self.max_actions,
        )

    def run(self, seed, actions=None, chaos=True):
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        nodes = [
            network.register(RoutedNode(sim, name, Site("virginia", index + 1)))
            for index, name in enumerate(self._names())
        ]
        replicas = [RaftReplica(node, "raft", nodes, RaftConfig()) for node in nodes]
        delivered: Dict[str, List[Tuple[int, Any]]] = {n.name: [] for n in nodes}
        drains: Dict[str, Process] = {}

        def drain(replica):
            while True:
                seq, payload = yield replica.next_delivery()
                delivered[replica.node.name].append((seq, payload))

        def restart_drain(node, replica):
            # Same pattern as the PBFT harness: stop the orphaned driver,
            # reconcile resolutions that died with the CPU queue from the
            # replica's own log, respawn.
            drains[node.name].stop()
            replica.reset_delivery()
            have = {seq for seq, _ in delivered[node.name]}
            queued = set(replica.queue.pending_seqs())
            for index in range(replica.low_water, replica.delivered_index + 1):
                if index <= replica.offset or index in have or index in queued:
                    continue
                entry = replica.log[index - replica.offset - 1]
                delivered[node.name].append((index, entry.payload))
            delivered[node.name].sort(key=lambda pair: pair[0])
            drains[node.name] = Process(
                sim, drain(replica), node=node, name=f"drain-{node.name}"
            )

        for node, replica in zip(nodes, replicas):
            drains[node.name] = Process(
                sim, drain(replica), node=node, name=f"drain-{node.name}"
            )
            node.add_recovery_hook(
                lambda node=node, replica=replica: restart_drain(node, replica)
            )
            # Same durable-state model as the PBFT harness: the journal is
            # the replica's disk, so a wipe destroys it and the replica
            # must re-earn every entry through log replication.
            node.add_wipe_hook(lambda name=node.name: delivered[name].clear())

        expected = [("op", index) for index in range(self.ops)]
        for index, payload in enumerate(expected):
            at = 1_000.0 + index * self.op_interval_ms
            for replica in replicas:
                sim.schedule_at(at, replica.order, payload)

        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            engine = ChaosEngine(
                sim, network, {n.name: n for n in nodes}, seed_tag=f"chaos:{seed}:{self.name}"
            )
            engine.install(actions)

        probe_at = max([self.horizon_ms] + [a.end_ms for a in actions]) + 1_000.0
        probes = [("probe", index) for index in range(3)]
        for index, payload in enumerate(probes):
            for replica in replicas:
                sim.schedule_at(probe_at + index * 300.0, replica.order, payload)

        sim.run(until=self.settle_ms, max_events=6_000_000)
        if engine is not None:
            engine.undo_all()

        names = [n.name for n in nodes]
        crashed_ever = {n.name for n in nodes if n.crash_count > 0}
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
        # Recovered replicas re-arm their timer chains and resync through
        # AppendEntries (probe traffic guarantees post-heal replication),
        # so everyone owes the full history — no exemption.
        violations += check_completion(expected + probes, flat)
        # Ever-crashed/wiped replicas must have caught up to the exact
        # delivery frontier (AppendEntries walks next_index back to 1 for
        # a wiped follower, then replays the full suffix).
        violations += check_recovered_frontier(
            {r.node.name: r.delivered_index for r in replicas},
            obligated=crashed_ever,
            where="raft replica",
        )
        stats = {
            "delivered": {name: delivered[name] for name in names},
            "terms": max(r.term for r in replicas),
            "crashed_ever": sorted(crashed_ever),
            "events": sim.events_processed,
        }
        return CampaignResult(self.name, seed, actions, violations, stats)


class RaftSkewHarness(RaftHarness):
    """Durable-state loss and clock skew against Raft.

    The palette draws ``wipe`` and ``skew`` against one seeded victim.  A
    wiped replica forgets its vote and its log; the post-wipe quarantine
    must keep it from voting (it may already have voted in the term it
    forgot) or standing for election until a live leader adopts it, after
    which AppendEntries walks ``next_index`` back to 1 and replays the
    whole suffix.  Skew multiplies the victim's local timer rate by up to
    2x in either direction: a fast clock turns the victim into a serial
    election agitator (term inflation the leader must absorb), a slow one
    makes it the last to notice a dead leader.  Either way, safety and
    the exact recovered frontier are owed once the window heals.
    """

    name = "raft-skew"
    settle_ms = 30_000.0  # skew-driven elections burn extra rounds
    fault_kinds = ("wipe", "skew")

    def profile(self, seed: int) -> ChaosProfile:
        victims = _victims(self.name, seed, self._names(), 1)  # minority
        return ChaosProfile(
            node_kinds=tuple(self.fault_kinds),
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            max_actions=self.max_actions,
        )


# ======================================================================
# IRMC-only (RC and SC)
# ======================================================================
class IrmcHarness(StackHarness):
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

    kind = "rc"
    name = "irmc-rc"
    positions = 24
    send_interval_ms = 150.0
    capacity = 4
    min_start_ms = 300.0
    horizon_ms = 6_000.0
    settle_ms = 30_000.0
    fault_kinds = ("crash", "silence", "delay", "drop", "duplicate")
    partition_regions = ("virginia",)  # WAN disruption between the groups
    invariant_names = ("exactly-once", "completion")

    def _sender_names(self) -> List[str]:
        return [f"s{i}" for i in range(3)]

    def _receiver_names(self) -> List[str]:
        return [f"r{i}" for i in range(4)]

    def profile(self, seed: int) -> ChaosProfile:
        victims = _victims(self.name, seed, self._sender_names(), 1)  # fs = 1
        victims += _victims(self.name + ":rx", seed, self._receiver_names(), 1)  # fr = 1
        return ChaosProfile(
            node_kinds=tuple(self.fault_kinds),
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            regions=tuple(self.partition_regions),
            max_actions=self.max_actions,
        )

    def run(self, seed, actions=None, chaos=True):
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        sender_nodes = [
            network.register(RoutedNode(sim, name, Site("virginia", index + 1)))
            for index, name in enumerate(self._sender_names())
        ]
        receiver_nodes = [
            network.register(RoutedNode(sim, name, Site("oregon", index + 1)))
            for index, name in enumerate(self._receiver_names())
        ]
        # ``bulk`` uses the window-covers-everything configuration of
        # Spider's commit channels (capacity >= checkpoint interval);
        # ``s`` exercises the sliding-window flow-control paths.
        config = IrmcConfig(
            fs=1,
            fr=1,
            capacity=self.positions,
            progress_interval_ms=100.0,
            collector_timeout_ms=300.0,
            move_heartbeat_ms=250.0,
        )
        senders, receivers = make_channel(
            self.kind, "ch", sender_nodes, receiver_nodes, config
        )
        received: Dict[str, List[Tuple[int, Any]]] = {
            name: [] for name in self._receiver_names()
        }
        progressed: Dict[str, List[Tuple[int, Any]]] = {
            name: [] for name in self._receiver_names()
        }
        finished: Dict[str, int] = {}
        #: highest position each sender loop completed (restart cursor)
        sent_upto: Dict[str, int] = {name: 0 for name in self._sender_names()}
        procs: Dict[Tuple[str, str], Process] = {}

        def sender_loop(endpoint, name, start):
            from repro.sim.process import sleep

            for position in range(start, self.positions + 1):
                endpoint.send(
                    "s", position, ("m", position),
                    window=max(1, position - self.capacity + 1),
                )
                endpoint.send("bulk", position, ("b", position))
                sent_upto[name] = position
                yield sleep(self.send_interval_ms)

        def bulk_loop(endpoint, name, start):
            for position in range(start, self.positions + 1):
                result = yield endpoint.receive("bulk", position)
                if isinstance(result, TooOld):  # cannot happen: full window
                    continue
                received[name].append((position, result))

        def window_loop(endpoint, name, start):
            position = start
            while position <= self.positions:
                result = yield endpoint.receive("s", position)
                if isinstance(result, TooOld):
                    position = max(position + 1, result.new_start)
                    continue
                progressed[name].append((position, result))
                position += 1
            finished[name] = position

        def restart_sender(endpoint, name):
            # Driver-process restart, harness edition: resume the stream
            # where the dead loop left off (loop bodies are atomic on the
            # node CPU, so the cursor is exact).
            procs[("tx", name)].stop()
            procs[("tx", name)] = Process(
                sim,
                sender_loop(endpoint, name, sent_upto[name] + 1),
                node=endpoint.node,
                name=f"tx-{name}",
            )

        def restart_receiver(endpoint, name):
            # Re-reads land on the endpoint's retained ``_delivered`` book
            # (bulk never moves its window), so resolutions lost with the
            # crash are recovered instantly; the sliding-window loop's
            # TooOld handling absorbs any window movement it slept through.
            procs[("rxb", name)].stop()
            next_bulk = received[name][-1][0] + 1 if received[name] else 1
            procs[("rxb", name)] = Process(
                sim,
                bulk_loop(endpoint, name, next_bulk),
                node=endpoint.node,
                name=f"rxb-{name}",
            )
            if name not in finished:
                procs[("rxw", name)].stop()
                next_window = progressed[name][-1][0] + 1 if progressed[name] else 1
                procs[("rxw", name)] = Process(
                    sim,
                    window_loop(endpoint, name, next_window),
                    node=endpoint.node,
                    name=f"rxw-{name}",
                )

        for name, endpoint in senders.items():
            procs[("tx", name)] = Process(
                sim, sender_loop(endpoint, name, 1), node=endpoint.node, name=f"tx-{name}"
            )
            endpoint.node.add_recovery_hook(
                lambda endpoint=endpoint, name=name: restart_sender(endpoint, name)
            )
        for name, endpoint in receivers.items():
            procs[("rxb", name)] = Process(
                sim, bulk_loop(endpoint, name, 1), node=endpoint.node, name=f"rxb-{name}"
            )
            procs[("rxw", name)] = Process(
                sim, window_loop(endpoint, name, 1), node=endpoint.node, name=f"rxw-{name}"
            )
            endpoint.node.add_recovery_hook(
                lambda endpoint=endpoint, name=name: restart_receiver(endpoint, name)
            )

        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            all_nodes = {n.name: n for n in sender_nodes + receiver_nodes}
            engine = ChaosEngine(
                sim, network, all_nodes, seed_tag=f"chaos:{seed}:{self.name}"
            )
            engine.install(actions)

        sim.run(until=self.settle_ms, max_events=6_000_000)
        if engine is not None:
            engine.undo_all()

        crashed_ever = {
            n.name for n in sender_nodes + receiver_nodes if n.crash_count > 0
        }
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
        violations += check_exactly_once(
            {name: [p for p, _ in entries] for name, entries in received.items()},
            received,
        )
        expected = list(range(1, self.positions + 1))
        observers = {
            name: [p for p, _ in entries] for name, entries in received.items()
        }
        # Full-window channel: every honest receiver — crash/recovered ones
        # included, their loops respawn and re-read the retained delivery
        # book — must deliver everything.
        violations += check_completion(expected, observers, where="receiver")
        # Sliding-window channel: every honest receiver must reach the end
        # of the stream (delivering or skipping), never wedge.
        for name in self._receiver_names():
            if name not in finished:
                last = progressed[name][-1][0] if progressed[name] else 0
                violations.append(
                    f"liveness/progress: receiver {name} wedged after "
                    f"position {last} on the sliding-window subchannel"
                )
        # Bounded bookkeeping under the overflow cap (the Byzantine-flood
        # memory promise in irmc/base.py).
        cap = config.capacity * config.overflow_factor
        for name, endpoint in receivers.items():
            for book_name in ("_votes", "_payloads"):
                book = getattr(endpoint, book_name, None)
                if not book:
                    continue
                for subchannel, positions in book.items():
                    if len(positions) > cap:
                        violations.append(
                            f"memory/bounded: {name}.{book_name}[{subchannel!r}] "
                            f"holds {len(positions)} > cap {cap}"
                        )
        stats = {
            "received": received,
            "progressed": progressed,
            "crashed_ever": sorted(crashed_ever),
            "events": sim.events_processed,
        }
        return CampaignResult(self.name, seed, actions, violations, stats)


class IrmcScHarness(IrmcHarness):
    kind = "sc"
    name = "irmc-sc"


class IrmcEquivocateHarness(IrmcHarness):
    """Authenticated equivocation by a sender, plus a wiped receiver.

    A targeted two-window schedule.  One seeded sender turns Byzantine
    and equivocates: each ``SendMsg`` carries a per-receiver payload
    variant behind a *valid* signature, so authentication alone cannot
    unmask it — and because a receiver counts only the first copy per
    sender, the forged votes are permanent.  That consumes the full
    ``f_s = 1`` budget: the ``f_s + 1 = 2`` matching copies the two
    correct senders supply are exactly enough to deliver the true
    payload at every receiver.  Overlapping it, one seeded receiver is
    wiped — vote books, delivery cursors and retirement tombstones all
    gone — and must rebuild from live retransmissions without ever
    delivering a forged variant or a duplicate.
    """

    name = "irmc-equivocate"

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        rng = random.Random(f"chaos:{seed}:{self.name}:windows")
        liar = self._sender_names()[rng.randrange(3)]
        victim = self._receiver_names()[rng.randrange(4)]
        lie_at = round(self.min_start_ms + rng.random() * 1_000.0, 3)
        lie_dur = round(2_000.0 + rng.random() * 2_500.0, 3)
        wipe_at = round(lie_at + 400.0 + rng.random() * 1_200.0, 3)
        wipe_dur = round(1_200.0 + rng.random() * 1_800.0, 3)
        fraction = round(0.6 + rng.random() * 0.4, 4)
        return [
            FaultAction(
                kind="equivocate", target=liar,
                start_ms=lie_at, duration_ms=lie_dur, param=fraction,
            ),
            FaultAction(
                kind="wipe", target=victim,
                start_ms=wipe_at, duration_ms=wipe_dur,
            ),
        ]


class IrmcScWipeHarness(IrmcScHarness):
    """Durable-state loss on both sides of an IRMC-SC channel.

    Sequential targeted wipes: first a receiver (its share buffers,
    collector-progress gossip and delivery cursors vanish; it rebuilds
    from peer Progress exchange and sender retransmission), then — after
    the first window healed — a sender (its signature-share bundles and
    collector state vanish; it cannot re-assemble old bundles because
    correct peers only share shares once, so receiver-side collector
    failover must route around the hole while the other ``f_s + 1``
    senders keep the stream complete).  The windows are disjoint in
    time, so each stays within the ``f_s = f_r = 1`` budget.
    """

    name = "irmc-sc-wipe"

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        rng = random.Random(f"chaos:{seed}:{self.name}:windows")
        rx_victim = self._receiver_names()[rng.randrange(4)]
        tx_victim = self._sender_names()[rng.randrange(3)]
        rx_at = round(self.min_start_ms + rng.random() * 1_000.0, 3)
        rx_dur = round(1_200.0 + rng.random() * 1_500.0, 3)
        tx_at = round(rx_at + rx_dur + 300.0 + rng.random() * 700.0, 3)
        tx_dur = round(1_200.0 + rng.random() * 1_500.0, 3)
        return [
            FaultAction(
                kind="wipe", target=rx_victim,
                start_ms=rx_at, duration_ms=rx_dur,
            ),
            FaultAction(
                kind="wipe", target=tx_victim,
                start_ms=tx_at, duration_ms=tx_dur,
            ),
        ]


# ======================================================================
# Full Spider
# ======================================================================
class _JournalKVStore(KVStore):
    """KVStore journaling every applied operation, for journal agreement."""

    def __init__(self):
        super().__init__()
        self.journal: List[Any] = []

    def apply(self, operation):
        self.journal.append(operation)
        return super().apply(operation)


def _check_spider_group_invariants(
    groups, crashed_ever, expected_writes, expected_state
) -> List[str]:
    """The recovery-aware per-group obligations shared by every Spider
    harness: prefix agreement + exactly-once for never-crashed replicas,
    subsequence safety for checkpoint-adopting rejoiners, journal
    completion for the former and *state* completion for everyone."""
    violations: List[str] = []
    for group in groups:
        journals = {
            replica.name: [op for op in replica.app.journal if op[0] == "put"]
            for replica in group.replicas
        }
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


def _check_agreement_frontier(agreement_replicas, label: str = "") -> List[str]:
    """After heal + settle every agreement replica of one shard must sit
    at the same consensus frontier (state transfer + gap fetch + cp-ag
    adoption close any hole a crash, wipe or partition opened).  The
    Spider form of the general frontier invariant, with *every* replica
    obligated — "all equal" and "all at the max" coincide."""
    return check_recovered_frontier(
        {replica.name: replica.ag.delivered_seq for replica in agreement_replicas},
        where=f"agreement replica{label}",
    )


def _register_spider_wipe_journals(groups) -> None:
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


class SpiderHarness(StackHarness):
    """The full deployment: agreement in Virginia, groups in VA + Tokyo."""

    name = "spider"
    clients = 3
    requests_per_client = 8
    #: think time between a reply and the next chained request — paces the
    #: workload across the whole fault horizon so fault windows always hit
    #: in-flight traffic (a workload that drains before the first window
    #: opens would make every invariant vacuously green).
    think_ms = 1_600.0
    min_start_ms = 1_000.0
    horizon_ms = 12_000.0
    settle_ms = 75_000.0
    fault_kinds = ("crash", "silence", "delay", "drop", "mute_half")
    partition_regions = ("tokyo",)
    max_actions = 4
    invariant_names = (
        "journal-agreement",
        "exactly-once",
        "journal-subsequence",
        "completion",
        "state-completion",
        "client-fifo",
        "recovered-frontier",
    )

    def profile(self, seed: int) -> ChaosProfile:
        victims = _victims(self.name + ":ag", seed, [f"ag{i}" for i in range(4)], 1)
        victims += _victims(self.name + ":ex", seed, [f"g0-e{i}" for i in range(3)], 1)
        return ChaosProfile(
            node_kinds=tuple(self.fault_kinds),
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            regions=tuple(self.partition_regions),
            max_actions=self.max_actions,
        )

    def make_config(self) -> SpiderConfig:
        return SpiderConfig()

    def make_spec(self) -> ClusterSpec:
        """The stack as a declarative spec (single shard, groups g0/g1).

        One shard keeps the node graph byte-identical to the historical
        hand-wired harness, so recorded sweep outcomes carry over."""
        shard = ShardSpec(
            "s0",
            groups=(GroupSpec("g0", "virginia"), GroupSpec("g1", "tokyo")),
        )
        return ClusterSpec(
            shards=(shard,), config=self.make_config(), app_factory=_JournalKVStore
        )

    def run(self, seed, actions=None, chaos=True):
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        system = build(sim, self.make_spec(), network=network).system
        _register_spider_wipe_journals(system.groups.values())
        homes = ["g0", "g0", "g1"]
        regions = {"g0": "virginia", "g1": "tokyo"}
        clients = [
            system.make_client(f"c{i}", regions[homes[i]], group_id=homes[i])
            for i in range(self.clients)
        ]
        completions: Dict[str, List[Tuple[int, Any]]] = {c.name: [] for c in clients}

        def issue(client, index=0):
            if index >= self.requests_per_client:
                return
            future = client.write(("put", f"w-{client.name}-{index}", index))
            future.add_callback(
                lambda result: (
                    completions[client.name].append((index, result)),
                    sim.schedule(self.think_ms, issue, client, index + 1),
                )
            )

        for client in clients:
            sim.schedule_at(200.0, issue, client)

        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            chaos_nodes = {n.name: n for n in system.all_nodes}
            engine = ChaosEngine(
                sim, network, chaos_nodes, seed_tag=f"chaos:{seed}:{self.name}"
            )
            engine.install(actions)

        sim.run(until=self.settle_ms, max_events=12_000_000)
        if engine is not None:
            engine.undo_all()

        crashed_ever = {n.name for n in system.all_nodes if n.crash_count > 0}
        violations = []
        expected_writes = [
            ("put", f"w-{client.name}-{index}", index)
            for client in clients
            for index in range(self.requests_per_client)
        ]
        expected_state = {
            f"w-{client.name}-{index}": index
            for client in clients
            for index in range(self.requests_per_client)
        }
        # Prefix agreement / exactly-once / subsequence safety for
        # rejoiners / journal + state completion (see the shared helper).
        violations += _check_spider_group_invariants(
            system.groups.values(), crashed_ever, expected_writes, expected_state
        )
        violations += check_client_fifo(completions)
        # Recovered agreement replicas owe full liveness too.
        violations += _check_agreement_frontier(system.agreement_replicas)
        for client in clients:
            done = len(completions[client.name])
            if done < self.requests_per_client:
                violations.append(
                    f"liveness/client: {client.name} completed {done}/"
                    f"{self.requests_per_client} requests"
                )
        stats = {
            "completions": completions,
            "crashed_ever": sorted(crashed_ever),
            "view": max(r.ag.view for r in system.agreement_replicas),
            "events": sim.events_processed,
        }
        return CampaignResult(self.name, seed, actions, violations, stats)


class SpiderCheckpointCrashHarness(SpiderHarness):
    """Crash an execution replica across checkpoint windows — twice.

    Tightened checkpoint cadence (``ke = 4``) and a minimal commit-channel
    window (capacity 4) make the group checkpoint every few requests and
    move the window right behind, so a multi-second crash almost surely
    straddles checkpoint generation *and* forces the rejoiner through the
    ``TooOld`` → checkpoint-fetch-on-boot path.  The second window makes
    the same replica crash/recover twice within one run — the respawned
    driver processes must survive being killed again.
    """

    name = "spider-cp-crash"

    def make_config(self) -> SpiderConfig:
        return SpiderConfig(ka=8, ke=4, commit_capacity=4)

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        rng = random.Random(f"chaos:{seed}:{self.name}:windows")
        victim = f"g0-e{rng.randrange(3)}"
        first_at = round(self.min_start_ms + rng.random() * 2_000.0, 3)
        first_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
        second_at = round(first_at + first_dur + 400.0 + rng.random() * 800.0, 3)
        second_dur = round(1_500.0 + rng.random() * 2_000.0, 3)
        return [
            FaultAction(
                kind="crash", target=victim,
                start_ms=first_at, duration_ms=first_dur,
            ),
            FaultAction(
                kind="crash", target=victim,
                start_ms=second_at, duration_ms=second_dur,
            ),
        ]


class SpiderDiskHarness(SpiderHarness):
    """Storage catastrophe inside one Spider group: wipe plus bit rot.

    Targeted schedule against the tightened-checkpoint configuration
    (``ke = 4``, commit window 4).  One execution replica of ``g0`` is
    *wiped* — it reboots with a genesis application and must install the
    latest group checkpoint before it can touch the commit stream.
    While it is down, a *different* ``g0`` execution replica has its
    checkpoint store corrupted (seeded bit rot / truncation), so the
    rejoiner's fetch may well land on a peer holding damaged state: the
    digest check at serve/load time must detect the rot, discard it and
    fall back to a clean peer rather than install garbage.  A later
    window wipes one agreement replica, which must rebuild ordering
    state from the agreement checkpoint protocol.  All invariants of the
    base harness apply, including the agreement-frontier equality.
    """

    name = "spider-disk"

    def make_config(self) -> SpiderConfig:
        return SpiderConfig(ka=8, ke=4, commit_capacity=4)

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        rng = random.Random(f"chaos:{seed}:{self.name}:windows")
        exec_victim = f"g0-e{rng.randrange(3)}"
        others = [f"g0-e{i}" for i in range(3) if f"g0-e{i}" != exec_victim]
        rotten = others[rng.randrange(2)]
        ag_victim = f"ag{rng.randrange(4)}"
        wipe_at = round(self.min_start_ms + rng.random() * 2_000.0, 3)
        wipe_dur = round(2_500.0 + rng.random() * 2_500.0, 3)
        # Rot the peer mid-wipe so the rejoiner's checkpoint fetch races
        # the damage; the corruption itself is instantaneous (undo no-op).
        rot_at = round(wipe_at + wipe_dur * 0.5, 3)
        ag_at = round(wipe_at + wipe_dur + 500.0 + rng.random() * 1_000.0, 3)
        ag_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
        return [
            FaultAction(
                kind="wipe", target=exec_victim,
                start_ms=wipe_at, duration_ms=wipe_dur,
            ),
            FaultAction(
                kind="corrupt_cp", target=rotten,
                start_ms=rot_at, duration_ms=100.0,
            ),
            FaultAction(
                kind="wipe", target=ag_victim,
                start_ms=ag_at, duration_ms=ag_dur,
            ),
        ]


class SpiderShardHarness(StackHarness):
    """Two shards, faults confined to one: the other must not stall.

    The cluster runs two complete agreement domains (``sa`` / ``sb``,
    each 4 agreement replicas + one 3-replica execution group in
    Virginia) behind the sharded session surface; sessions write keys
    owned by their designated shard.  The fault palette only ever hits
    shard ``sa``'s nodes.  Obligations:

    * completion-after-heal **per shard** — both shards (including the
      faulted one, crash/recovered replicas and all) eventually apply
      every write and answer every session;
    * **non-interference** — the unfaulted shard's operations complete at
      normal latency *during* shard ``sa``'s fault windows: every
      ``sb``-keyed operation finishes within ``latency_budget_ms`` of
      issue, orders of magnitude below the settle horizon.  Shards share
      nothing but the network, so a wedged shard ``sa`` leaking into
      ``sb``'s latency would be a routing/isolation bug.
    """

    name = "spider-shard"
    shard_ids = ("sa", "sb")
    exec_groups = {"sa": "a0", "sb": "b0"}
    sessions_per_shard = 2
    requests_per_session = 6
    think_ms = 1_800.0
    min_start_ms = 1_000.0
    horizon_ms = 12_000.0
    settle_ms = 75_000.0
    fault_kinds = ("crash", "silence", "delay", "drop", "mute_half")
    max_actions = 4
    invariant_names = (
        "journal-agreement",
        "exactly-once",
        "journal-subsequence",
        "completion",
        "state-completion",
        "client-fifo",
        "recovered-frontier",
    )
    #: per-op completion bound for the unfaulted shard (normal Virginia
    #: round trips are tens of ms; this allows queueing slack while still
    #: catching any cross-shard stall).
    latency_budget_ms = 5_000.0

    def make_spec(self) -> ClusterSpec:
        return ClusterSpec(
            shards=tuple(
                ShardSpec(
                    shard_id,
                    groups=(GroupSpec(self.exec_groups[shard_id], "virginia"),),
                )
                for shard_id in self.shard_ids
            ),
            app_factory=_JournalKVStore,
        )

    def profile(self, seed: int) -> ChaosProfile:
        victims = _victims(
            self.name + ":ag", seed, [f"sa-ag{i}" for i in range(4)], 1
        )
        victims += _victims(
            self.name + ":ex", seed, [f"a0-e{i}" for i in range(3)], 1
        )
        return ChaosProfile(
            node_kinds=tuple(self.fault_kinds),
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            max_actions=self.max_actions,
        )

    def run(self, seed, actions=None, chaos=True):
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        cluster = build(sim, self.make_spec(), network=network)
        for shard_id in self.shard_ids:
            _register_spider_wipe_journals(cluster.shard(shard_id).groups.values())

        sessions = []
        session_shard: Dict[str, str] = {}
        keys: Dict[str, List[str]] = {}
        for shard_id in self.shard_ids:
            for index in range(self.sessions_per_shard):
                session = cluster.session(f"u-{shard_id}-{index}", "virginia")
                sessions.append(session)
                session_shard[session.name] = shard_id
                # Disjoint per-session key pools: expected_state below maps
                # each key to exactly one session's write, so the invariant
                # holds regardless of how concurrent sessions interleave.
                keys[session.name] = cluster.partitioner.keys_for(
                    shard_id,
                    self.requests_per_session,
                    prefix=f"{shard_id}:{index}:k",
                )
        #: (index, issued_at, done_at) per session, for FIFO + latency
        completions: Dict[str, List[Tuple[int, float, float]]] = {
            s.name: [] for s in sessions
        }

        def issue(session, index=0):
            if index >= self.requests_per_session:
                return
            issued_at = sim.now
            key = keys[session.name][index]
            future = session.write(key, f"{session.name}:{index}")
            future.add_callback(
                lambda result: (
                    completions[session.name].append((index, issued_at, sim.now)),
                    sim.schedule(self.think_ms, issue, session, index + 1),
                )
            )

        for session in sessions:
            sim.schedule_at(200.0, issue, session)

        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            chaos_nodes = {n.name: n for n in cluster.all_nodes}
            engine = ChaosEngine(
                sim, network, chaos_nodes, seed_tag=f"chaos:{seed}:{self.name}"
            )
            engine.install(actions)

        sim.run(until=self.settle_ms, max_events=12_000_000)
        if engine is not None:
            engine.undo_all()

        crashed_ever = {n.name for n in cluster.all_nodes if n.crash_count > 0}
        violations = []
        # Per-shard expectations: every write a shard's sessions issued.
        for shard_id in self.shard_ids:
            shard = cluster.shard(shard_id)
            my_sessions = [s for s in sessions if session_shard[s.name] == shard_id]
            expected_writes = [
                ("put", keys[s.name][index], f"{s.name}:{index}")
                for s in my_sessions
                for index in range(self.requests_per_session)
            ]
            expected_state = {
                keys[s.name][index]: f"{s.name}:{index}"
                for s in my_sessions
                for index in range(self.requests_per_session)
            }
            violations += _check_spider_group_invariants(
                shard.groups.values(), crashed_ever, expected_writes, expected_state
            )
            violations += _check_agreement_frontier(
                shard.agreement_replicas, label=f"[{shard_id}]"
            )
        violations += check_client_fifo(
            {name: [(i, done) for i, _, done in comps] for name, comps in completions.items()}
        )
        for session in sessions:
            done = len(completions[session.name])
            if done < self.requests_per_session:
                violations.append(
                    f"liveness/session: {session.name} completed {done}/"
                    f"{self.requests_per_session} requests"
                )
        # Non-interference: the unfaulted shard runs at normal latency
        # even while shard sa's fault windows are open.
        for session in sessions:
            if session_shard[session.name] != "sb":
                continue
            for index, issued_at, done_at in completions[session.name]:
                latency = done_at - issued_at
                if latency > self.latency_budget_ms:
                    violations.append(
                        "liveness/shard-isolation: unfaulted shard op "
                        f"{session.name}#{index} took {latency:.0f} ms "
                        f"(> {self.latency_budget_ms:.0f} ms budget)"
                    )
        stats = {
            "completions": completions,
            "crashed_ever": sorted(crashed_ever),
            "events": sim.events_processed,
        }
        return CampaignResult(self.name, seed, actions, violations, stats)


class SpiderReshardHarness(SpiderShardHarness):
    """Live range handover under crash, wipe and partition — exactly once.

    Two shards again, but geographically split: ``sa`` (agreement +
    group ``a0``) lives in Virginia, ``sb`` (agreement + group ``b0``)
    in Oregon, with every session in Virginia.  Mid-run the cluster
    executes the ``moves`` plan — ordered ``MoveRange`` handovers
    pushing a slot range from ``sa`` to ``sb`` — while dedicated mover
    sessions keep writing keys *inside* the moving range and stationary
    sessions write keys that never move.  The targeted schedule attacks
    the handover itself: a crash or disk wipe of one ``a0`` execution
    replica straddling the transfer window, plus a partition of Oregon
    opening across the epoch bump (the install phase is intra-Oregon
    and completes inside the partition; Virginia sessions retry across
    it).  Obligations: everything the shard harness enforces per shard,
    plus the cross-cut audit (``reshard-handover``) — each migrated
    key's write history splits cleanly between the source journal
    prefix and the destination journal suffix, with the source state
    dropping the range entirely.  The non-interference latency budget
    is deliberately *not* enforced: the partition makes cross-region
    stalls legitimate here.
    """

    name = "spider-reshard"
    #: region per shard: the destination lives across a WAN link so the
    #: partition draw can sever clients from it mid-handover.
    shard_regions = {"sa": "virginia", "sb": "oregon"}
    #: the handover plan, in order: (lo, hi, src, dst, epoch) per move.
    moves = ((2, 3, "sa", "sb", 1),)
    #: when the first handover is kicked off.
    move_at_ms = 4_000.0
    #: sessions pinned to keys inside the moving range.
    movers = 2
    fault_kinds = ("crash", "wipe", "partition")
    partition_regions = ("oregon",)
    max_actions = 2
    invariant_names = (
        "journal-agreement",
        "exactly-once",
        "journal-subsequence",
        "completion",
        "state-completion",
        "client-fifo",
        "recovered-frontier",
        "reshard-handover",
    )

    def _moves(self) -> List[Tuple[int, int, str, str, int]]:
        # Suite files carry the plan as nested lists; make_harness only
        # tuplifies the top level.
        return [tuple(entry) for entry in self.moves]

    def validate_knobs(self) -> None:
        validate_moves(self.shard_ids, self._moves())

    def make_spec(self) -> ClusterSpec:
        return ClusterSpec(
            shards=tuple(
                ShardSpec(
                    shard_id,
                    groups=(
                        GroupSpec(
                            self.exec_groups[shard_id],
                            self.shard_regions[shard_id],
                        ),
                    ),
                    agreement_region=self.shard_regions[shard_id],
                )
                for shard_id in self.shard_ids
            ),
            app_factory=_JournalKVStore,
        )

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        rng = random.Random(f"chaos:{seed}:{self.name}:windows")
        victim = f"a0-e{rng.randrange(3)}"
        kind = ("crash", "wipe")[rng.randrange(2)]
        # The node fault straddles the transfer window on the source side.
        hit_at = round(self.move_at_ms - 600.0 + rng.random() * 1_200.0, 3)
        hit_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
        # The partition opens across the epoch bump and severs Virginia
        # from the destination shard (the handover itself completes in
        # milliseconds, so the window must open at or just before kickoff
        # to actually span it).
        part_at = round(self.move_at_ms - 250.0 + rng.random() * 500.0, 3)
        part_dur = round(2_500.0 + rng.random() * 2_500.0, 3)
        return [
            FaultAction(kind=kind, target=victim, start_ms=hit_at, duration_ms=hit_dur),
            FaultAction(
                kind="partition", target="oregon",
                start_ms=part_at, duration_ms=part_dur,
            ),
        ]

    def _keys_in_slots(self, range_map, wanted_slots, count, prefix):
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

    def run(self, seed, actions=None, chaos=True):
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        cluster = build(sim, self.make_spec(), network=network)
        for shard_id in self.shard_ids:
            _register_spider_wipe_journals(cluster.shard(shard_id).groups.values())

        moves = self._moves()
        initial_map = cluster.partitioner.range_map
        moving_slots = {
            slot for lo, hi, _src, _dst, _epoch in moves for slot in range(lo, hi)
        }

        # Stationary sessions write keys that never change owner; movers
        # hammer one key each *inside* the moving range, so their write
        # streams cross the ownership cut mid-flight.
        sessions = []
        session_shard: Dict[str, str] = {}
        keys: Dict[str, List[str]] = {}
        for shard_id in self.shard_ids:
            stationary = self._keys_in_slots(
                initial_map,
                set(initial_map.slots_of(shard_id)) - moving_slots,
                self.sessions_per_shard * self.requests_per_session,
                f"{shard_id}:k",
            )
            for index in range(self.sessions_per_shard):
                session = cluster.session(f"u-{shard_id}-{index}", "virginia")
                sessions.append(session)
                session_shard[session.name] = shard_id
                keys[session.name] = stationary[
                    index * self.requests_per_session:
                    (index + 1) * self.requests_per_session
                ]
        moved_keys = self._keys_in_slots(
            initial_map, moving_slots, self.movers, "m:"
        )
        for index in range(self.movers):
            session = cluster.session(f"mover-{index}", "virginia")
            sessions.append(session)
            session_shard[session.name] = moves[-1][3]  # final owner
            keys[session.name] = [moved_keys[index]] * self.requests_per_session
        completions: Dict[str, List[Tuple[int, float, float]]] = {
            s.name: [] for s in sessions
        }

        def issue(session, index=0):
            if index >= self.requests_per_session:
                return
            issued_at = sim.now
            key = keys[session.name][index]
            future = session.write(key, f"{session.name}:{index}")
            future.add_callback(
                lambda result: (
                    completions[session.name].append((index, issued_at, sim.now)),
                    sim.schedule(self.think_ms, issue, session, index + 1),
                )
            )

        for session in sessions:
            sim.schedule_at(200.0, issue, session)

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

        sim.schedule_at(self.move_at_ms, run_move, 0)

        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            chaos_nodes = {n.name: n for n in cluster.all_nodes}
            engine = ChaosEngine(
                sim, network, chaos_nodes, seed_tag=f"chaos:{seed}:{self.name}"
            )
            engine.install(actions)

        sim.run(until=self.settle_ms, max_events=12_000_000)
        if engine is not None:
            engine.undo_all()

        crashed_ever = {n.name for n in cluster.all_nodes if n.crash_count > 0}
        violations = []
        src_shard, dst_shard = moves[0][2], moves[-1][3]
        mover_names = [f"mover-{index}" for index in range(self.movers)]
        # Per-shard expectations cover the stationary writes; migrated
        # keys are audited separately across the cut.  The destination's
        # final state additionally owes every mover's last write.
        for shard_id in self.shard_ids:
            shard = cluster.shard(shard_id)
            my_sessions = [s for s in sessions if session_shard[s.name] == shard_id]
            stationary_sessions = [
                s for s in my_sessions if s.name not in mover_names
            ]
            expected_writes = [
                ("put", keys[s.name][index], f"{s.name}:{index}")
                for s in stationary_sessions
                for index in range(self.requests_per_session)
            ]
            expected_state = {
                keys[s.name][index]: f"{s.name}:{index}"
                for s in stationary_sessions
                for index in range(self.requests_per_session)
            }
            if shard_id == dst_shard:
                last = self.requests_per_session - 1
                expected_state.update(
                    {
                        keys[name][last]: f"{name}:{last}"
                        for name in mover_names
                    }
                )
            violations += _check_spider_group_invariants(
                shard.groups.values(), crashed_ever, expected_writes, expected_state
            )
            violations += _check_agreement_frontier(
                shard.agreement_replicas, label=f"[{shard_id}]"
            )
        # The cross-cut audit: per migrated key, source-journal prefix +
        # destination-journal suffix == the issued sequence, and the
        # source replicas dropped the range.
        expected_cut = {
            keys[name][0]: [
                f"{name}:{index}" for index in range(self.requests_per_session)
            ]
            for name in mover_names
        }

        def put_journals(shard_id, only_never_crashed):
            journals = {}
            for group in cluster.shard(shard_id).groups.values():
                for replica in group.replicas:
                    if only_never_crashed and replica.name in crashed_ever:
                        continue
                    journals[replica.name] = [
                        op for op in replica.app.journal if op[0] == "put"
                    ]
            return journals

        violations += check_reshard_handover(
            expected_cut,
            put_journals(src_shard, only_never_crashed=True),
            put_journals(dst_shard, only_never_crashed=True),
            {
                replica.name: replica.app.snapshot()[0]
                for group in cluster.shard(src_shard).groups.values()
                for replica in group.replicas
            },
        )
        if handover["end"] is None:
            violations.append(
                "liveness/reshard: the handover plan did not complete "
                f"(started at {handover['start']})"
            )
        final_epoch = cluster.partitioner.epoch
        if moves and final_epoch != moves[-1][4]:
            violations.append(
                f"safety/reshard: routing table sits at epoch {final_epoch}, "
                f"plan ends at epoch {moves[-1][4]}"
            )
        violations += check_client_fifo(
            {name: [(i, done) for i, _, done in comps] for name, comps in completions.items()}
        )
        for session in sessions:
            done = len(completions[session.name])
            if done < self.requests_per_session:
                violations.append(
                    f"liveness/session: {session.name} completed {done}/"
                    f"{self.requests_per_session} requests"
                )
        stats = {
            "completions": completions,
            "crashed_ever": sorted(crashed_ever),
            "events": sim.events_processed,
            "handover": dict(handover),
            "epoch": final_epoch,
        }
        return CampaignResult(self.name, seed, actions, violations, stats)


#: Stack configuration name -> harness class (the declarative surface
#: :func:`make_harness` builds from).
HARNESS_KINDS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        SpiderHarness,
        SpiderCheckpointCrashHarness,
        SpiderDiskHarness,
        SpiderShardHarness,
        SpiderReshardHarness,
        PbftHarness,
        PbftViewChangeCrashHarness,
        PbftWipeHarness,
        RaftHarness,
        RaftSkewHarness,
        IrmcHarness,
        IrmcScHarness,
        IrmcEquivocateHarness,
        IrmcScWipeHarness,
    )
}

HARNESSES: Dict[str, StackHarness] = {
    name: cls() for name, cls in HARNESS_KINDS.items()
}

#: knob names scenario specs may never override — they are the stack's
#: identity, not its tuning.
_FIXED_KNOBS = ("name", "kind", "invariant_names")


def tunable_knobs(cls: type) -> List[str]:
    """The overridable class attributes of a harness kind."""
    knobs = []
    for key in dir(cls):
        if key.startswith("_") or key in _FIXED_KNOBS:
            continue
        if callable(getattr(cls, key)):
            continue
        knobs.append(key)
    return sorted(knobs)


def make_harness(config: str, **overrides) -> StackHarness:
    """Build a stack harness declaratively: a kind name plus knob values.

    ``overrides`` set class attributes on the fresh instance (run scale,
    fault palette, windows...).  Unknown knobs raise
    :class:`~repro.errors.ConfigurationError` naming the tunable set, so
    a typo in a suite file fails at validation time, before any node
    exists.  An instance built with overrides equal to the class defaults
    is byte-identical in behaviour to the registry instance — that is the
    migration contract for ``suites/chaos.yaml``.
    """
    try:
        cls = HARNESS_KINDS[config]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos config {config!r}; known: {sorted(HARNESS_KINDS)}"
        ) from None
    harness = cls()
    for key in sorted(overrides):
        if key.startswith("_") or key in _FIXED_KNOBS or not hasattr(cls, key):
            raise ConfigurationError(
                f"chaos config {config!r} has no tunable knob {key!r}; "
                f"tunable: {tunable_knobs(cls)}"
            )
        default = getattr(cls, key)
        if callable(default):
            raise ConfigurationError(
                f"chaos config {config!r}: {key!r} is behaviour, not a knob"
            )
        value = overrides[key]
        if isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)  # suite files carry lists
        setattr(harness, key, value)
    return harness


def get_harness(name: str) -> StackHarness:
    try:
        return HARNESSES[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos config {name!r}; known: {sorted(HARNESSES)}"
        ) from None
