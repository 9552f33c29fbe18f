"""The chaos configurations as data, and the one loop that runs them.

A :class:`ChaosCase` is a frozen record: which stack rig
(:mod:`repro.chaos.rigs`) the run is wired on, the run-scale knobs that
rig reads, and the fault plan — either a palette drawn per seed from
victim pools, or (six *targeted* cases) a plain function shaping specific
windows with seeded jitter.  :data:`CASES` is the whole table, fourteen
entries; :func:`chaos_case` is the only lookup, with overrides checked
against what the case declares; :meth:`ChaosCase.run` owns the
simulator and network, the schedule, the engine install/undo, the run
and the :class:`CampaignResult`.  :data:`SUITES` names the pinned
sweeps over that table (each scenario a case name plus overrides), and
:func:`run_cells` is the one loop that runs their ``(scenario, seed)``
cells.

Everything is a pure function of ``(case name, seed)``: victims,
schedules and workloads all derive from string-seeded private RNGs
(``chaos:{seed}:{name}:victims|links|windows``), so a failing case is
reproducible from its one-line ``(name, seed)`` and shrinkable offline
(:mod:`repro.chaos.shrink`).

Fault budgets: node-targeted palette faults only ever hit the victims
drawn per run from the case's pools (at most the stack's ``f`` each).
Replicas that rebooted empty owe the strongest recovery claim — the
``recovered-frontier`` invariant requires every ever-crashed (and
therefore every ever-wiped) replica to stand at the group's exact
delivery frontier once faults healed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.actions import NODE_KINDS, ChaosEngine, FaultAction
from repro.chaos.invariants import resolve_invariants
from repro.chaos.rigs import (
    IRMC_RECEIVERS,
    IRMC_SENDERS,
    PROTOCOLS,
    RIGS,
    SHARD_IDS,
    SPIDER_CLIENT_HOMES,
)
from repro.chaos.schedule import ChaosProfile, generate_schedule
from repro.elastic import validate_moves
from repro.errors import ConfigurationError
from repro.net import Network, Topology
from repro.sim import Simulator

__all__ = [
    "CampaignResult",
    "ChaosCase",
    "CASES",
    "KNOBS",
    "SEEDS",
    "SUITES",
    "chaos_case",
    "run_cells",
    "suite_scenarios",
]


@dataclass
class CampaignResult:
    """Outcome of one chaos run: a (config, seed) pair."""

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


#: The fields a scenario may override — on a case that sets them.  A
#: knob left ``None`` is one neither the case's rig nor its schedule
#: reads, and overriding it is an error rather than a silent no-op.
KNOBS = (
    "ops", "op_interval_ms",
    "positions", "send_interval_ms", "capacity",
    "clients", "requests_per_client",
    "sessions_per_shard", "requests_per_session", "latency_budget_ms",
    "move_at_ms", "movers", "moves",
    "think_ms", "settle_ms",
    "fault_kinds", "max_actions", "min_start_ms", "horizon_ms",
    "fault_links", "partition_regions",
)


@dataclass(frozen=True)
class ChaosCase:
    """One chaos configuration: a stack rig, its knobs, its fault plan."""

    name: str
    #: which rig of :data:`repro.chaos.rigs.RIGS` wires the run
    stack: str
    #: the obligations the rig's evaluation enforces, in the
    #: :data:`~repro.chaos.invariants.INVARIANTS` vocabulary (a name
    #: outside it fails when the row is built)
    invariants: Tuple[str, ...]
    #: simulated time the run is given (faults heal long before)
    settle_ms: float

    # -- rig constants (never overridable) ------------------------------
    #: consensus: key into :data:`repro.chaos.rigs.PROTOCOLS`
    protocol: Optional[str] = None
    #: irmc: channel implementation, ``"rc"`` or ``"sc"``
    channel: Optional[str] = None
    #: spider: ``SpiderConfig`` fields that differ from the defaults
    spider_config: Tuple[Tuple[str, int], ...] = ()
    #: sharded: region of each of :data:`~repro.chaos.rigs.SHARD_IDS`
    shard_regions: Tuple[str, ...] = ()

    # -- run scale ------------------------------------------------------
    ops: Optional[int] = None
    op_interval_ms: Optional[float] = None
    positions: Optional[int] = None
    send_interval_ms: Optional[float] = None
    #: irmc: width of the sliding-window subchannel
    capacity: Optional[int] = None
    clients: Optional[int] = None
    requests_per_client: Optional[int] = None
    sessions_per_shard: Optional[int] = None
    requests_per_session: Optional[int] = None
    #: think time between a reply and the next chained request
    think_ms: Optional[float] = None
    #: per-op completion bound for the unfaulted shard (normal Virginia
    #: round trips are tens of ms; this allows queueing slack while still
    #: catching any cross-shard stall)
    latency_budget_ms: Optional[float] = None
    #: the handover plan, in order: (lo, hi, src, dst, epoch) per move
    moves: Optional[Tuple[Tuple[int, int, str, str, int], ...]] = None
    #: when the first handover is kicked off
    move_at_ms: Optional[float] = None
    #: sessions pinned to keys inside the moving range
    movers: Optional[int] = None

    # -- fault plan -----------------------------------------------------
    #: node-targeted palette kinds.  **Order matters**: the draw in
    #: :func:`~repro.chaos.schedule.generate_schedule` enumerates choices
    #: in tuple order, so reordering reshuffles every seeded schedule.
    fault_kinds: Optional[Tuple[str, ...]] = None
    #: fault-window budget per generated schedule
    max_actions: Optional[int] = None
    #: earliest fault start (let the system boot/elect first)
    min_start_ms: Optional[float] = None
    #: every generated window ends by here
    horizon_ms: Optional[float] = None
    #: victim pools of the palette draw: (rng-tag suffix, nodes, count)
    pools: Tuple[Tuple[str, Tuple[str, ...], int], ...] = ()
    #: directed links (among the first pool's nodes) open to link faults
    fault_links: Optional[int] = None
    #: regions eligible for partition draws
    partition_regions: Optional[Tuple[str, ...]] = None
    #: targeted cases: ``(case, seed) -> [FaultAction]`` instead of a draw
    schedule: Optional[Callable[["ChaosCase", int], List[FaultAction]]] = None

    def __post_init__(self) -> None:
        resolve_invariants(self.invariants)

    def knobs(self) -> List[str]:
        """The override names this case accepts."""
        return [key for key in KNOBS if getattr(self, key) is not None]

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        """The seeded fault schedule of this ``(case, seed)`` pair."""
        if self.schedule is not None:
            return self.schedule(self, seed)
        victims: Tuple[str, ...] = ()
        for suffix, names, count in self.pools:
            rng = random.Random(f"chaos:{seed}:{self.name}{suffix}:victims")
            victims += tuple(rng.sample(list(names), count))
        links: Tuple[Tuple[str, str], ...] = ()
        if self.fault_links:
            names = self.pools[0][1]
            pairs = [(a, b) for a in names for b in names if a != b]
            rng = random.Random(f"chaos:{seed}:{self.name}:links")
            links = tuple(rng.sample(pairs, self.fault_links))
        profile = ChaosProfile(
            node_kinds=self.fault_kinds,
            victims=victims,
            min_start_ms=self.min_start_ms,
            horizon_ms=self.horizon_ms,
            regions=self.partition_regions or (),
            links=links,
            max_actions=self.max_actions,
        )
        return generate_schedule(self.name, seed, profile)

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

        Same-instant events tie-break on insertion order, so the sequence
        is fixed: the rig wires nodes and schedules its workload, then
        the engine installs the windows, then the rig places whatever
        traffic depends on the schedule.
        """
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        rig = RIGS[self.stack](self, sim, network)
        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            nodes = {node.name: node for node in rig.nodes}
            engine = ChaosEngine(sim, network, nodes, seed_tag=f"chaos:{seed}:{self.name}")
            engine.install(actions)
        if rig.probe is not None:
            rig.probe(actions)
        sim.run(until=self.settle_ms, max_events=rig.max_events)
        if engine is not None:
            engine.undo_all()
        crashed_ever = {node.name for node in rig.nodes if node.crash_count > 0}
        violations, stats = rig.evaluate(crashed_ever)
        stats["crashed_ever"] = sorted(crashed_ever)
        stats["events"] = sim.events_processed
        return CampaignResult(self.name, seed, actions, violations, stats)


# ======================================================================
# Targeted schedules: hand-shaped windows, seeded jitter
# ======================================================================
def _windows_rng(case: ChaosCase, seed: int) -> random.Random:
    return random.Random(f"chaos:{seed}:{case.name}:windows")


def _crash_mid_view_change(case: ChaosCase, seed: int) -> List[FaultAction]:
    """Crash a replica *while the group is mid-view-change*.

    A targeted two-window schedule instead of a palette draw: the view-0
    leader is silenced long enough for its peers' view timers (500 ms
    in the consensus rig) to fire, and a seeded non-leader victim crashes
    inside that view-change turbulence.  Both windows heal before the
    horizon; the recovered replica must re-enter the — possibly several
    views later — protocol via state transfer and still deliver the
    complete workload.  Note the overlap deliberately exceeds ``f = 1``
    benign faults (one silenced, one crashed): progress may fully stall
    inside the windows, which is exactly what makes completion-after-heal
    a recovery claim rather than a masking claim.
    """
    rng = _windows_rng(case, seed)
    names = PROTOCOLS["pbft"].nodes
    leader = names[0]  # leader of view 0
    victim = names[1 + rng.randrange(len(names) - 1)]
    silence_at = round(case.min_start_ms + rng.random() * 1_000.0, 3)
    silence_dur = round(1_200.0 + rng.random() * 1_800.0, 3)
    # The crash window opens right as the view change kicks off.
    crash_at = round(silence_at + 300.0 + rng.random() * 700.0, 3)
    crash_dur = round(1_500.0 + rng.random() * 2_500.0, 3)
    return [
        FaultAction("silence", leader, silence_at, silence_dur),
        FaultAction("crash", victim, crash_at, crash_dur),
    ]


def _equivocating_sender(case: ChaosCase, seed: int) -> List[FaultAction]:
    """Authenticated equivocation by a sender, plus a wiped receiver.

    A targeted two-window schedule.  One seeded sender turns Byzantine
    and equivocates: each ``SendMsg`` (each entry of a
    ``SendsMsg`` bundle) carries a per-receiver payload
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
    rng = _windows_rng(case, seed)
    liar = IRMC_SENDERS[rng.randrange(3)]
    victim = IRMC_RECEIVERS[rng.randrange(4)]
    lie_at = round(case.min_start_ms + rng.random() * 1_000.0, 3)
    lie_dur = round(2_000.0 + rng.random() * 2_500.0, 3)
    wipe_at = round(lie_at + 400.0 + rng.random() * 1_200.0, 3)
    wipe_dur = round(1_200.0 + rng.random() * 1_800.0, 3)
    fraction = round(0.6 + rng.random() * 0.4, 4)
    return [
        FaultAction("equivocate", liar, lie_at, lie_dur, fraction),
        FaultAction("wipe", victim, wipe_at, wipe_dur),
    ]


def _wipe_both_sides(case: ChaosCase, seed: int) -> List[FaultAction]:
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
    rng = _windows_rng(case, seed)
    rx_victim = IRMC_RECEIVERS[rng.randrange(4)]
    tx_victim = IRMC_SENDERS[rng.randrange(3)]
    rx_at = round(case.min_start_ms + rng.random() * 1_000.0, 3)
    rx_dur = round(1_200.0 + rng.random() * 1_500.0, 3)
    tx_at = round(rx_at + rx_dur + 300.0 + rng.random() * 700.0, 3)
    tx_dur = round(1_200.0 + rng.random() * 1_500.0, 3)
    return [
        FaultAction("wipe", rx_victim, rx_at, rx_dur),
        FaultAction("wipe", tx_victim, tx_at, tx_dur),
    ]


def _double_crash_across_checkpoints(case: ChaosCase, seed: int) -> List[FaultAction]:
    """Crash an execution replica across checkpoint windows — twice.

    Tightened checkpoint cadence (``ke = 4``) and a minimal commit-channel
    window (capacity 4) make the group checkpoint every few requests and
    move the window right behind, so a multi-second crash almost surely
    straddles checkpoint generation *and* forces the rejoiner through the
    ``TooOld`` → checkpoint-fetch-on-boot path.  The second window makes
    the same replica crash/recover twice within one run — the respawned
    driver processes must survive being killed again.
    """
    rng = _windows_rng(case, seed)
    victim = f"g0-e{rng.randrange(3)}"
    first_at = round(case.min_start_ms + rng.random() * 2_000.0, 3)
    first_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
    second_at = round(first_at + first_dur + 400.0 + rng.random() * 800.0, 3)
    second_dur = round(1_500.0 + rng.random() * 2_000.0, 3)
    return [
        FaultAction("crash", victim, first_at, first_dur),
        FaultAction("crash", victim, second_at, second_dur),
    ]


def _wipe_races_bit_rot(case: ChaosCase, seed: int) -> List[FaultAction]:
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
    ``spider`` case apply, including the agreement-frontier equality.
    """
    rng = _windows_rng(case, seed)
    exec_victim = f"g0-e{rng.randrange(3)}"
    others = [f"g0-e{i}" for i in range(3) if f"g0-e{i}" != exec_victim]
    rotten = others[rng.randrange(2)]
    ag_victim = f"ag{rng.randrange(4)}"
    wipe_at = round(case.min_start_ms + rng.random() * 2_000.0, 3)
    wipe_dur = round(2_500.0 + rng.random() * 2_500.0, 3)
    # Rot the peer mid-wipe so the rejoiner's checkpoint fetch races
    # the damage; the corruption itself is instantaneous (undo no-op).
    rot_at = round(wipe_at + wipe_dur * 0.5, 3)
    ag_at = round(wipe_at + wipe_dur + 500.0 + rng.random() * 1_000.0, 3)
    ag_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
    return [
        FaultAction("wipe", exec_victim, wipe_at, wipe_dur),
        FaultAction("corrupt_cp", rotten, rot_at, 100.0),
        FaultAction("wipe", ag_victim, ag_at, ag_dur),
    ]


def _attack_the_handover(case: ChaosCase, seed: int) -> List[FaultAction]:
    """Live range handover under crash, wipe and partition — exactly once.

    Two shards, geographically split: ``sa`` (agreement + group ``a0``)
    lives in Virginia, ``sb`` (agreement + group ``b0``) in Oregon — the
    destination sits across a WAN link so a partition can sever clients
    from it mid-handover.  The schedule attacks the handover itself: a
    crash or disk wipe of one ``a0`` execution replica straddling the
    transfer window, plus a partition of Oregon opening across the epoch
    bump (the install phase is intra-Oregon and completes inside the
    partition; Virginia sessions retry across it).  Obligations:
    everything the ``spider-shard`` case enforces per shard, plus the
    cross-cut audit (``reshard-handover``) — each migrated key's write
    history splits cleanly between the source journal prefix and the
    destination journal suffix, with the source state dropping the range
    entirely.  The non-interference latency budget is deliberately *not*
    enforced: the partition makes cross-region stalls legitimate here.
    """
    rng = _windows_rng(case, seed)
    victim = f"a0-e{rng.randrange(3)}"
    kind = ("crash", "wipe")[rng.randrange(2)]
    # The node fault straddles the transfer window on the source side.
    hit_at = round(case.move_at_ms - 600.0 + rng.random() * 1_200.0, 3)
    hit_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
    # The partition opens across the epoch bump and severs Virginia
    # from the destination shard (the handover itself completes in
    # milliseconds, so the window must open at or just before kickoff
    # to actually span it).
    part_at = round(case.move_at_ms - 250.0 + rng.random() * 500.0, 3)
    part_dur = round(2_500.0 + rng.random() * 2_500.0, 3)
    return [
        FaultAction(kind, victim, hit_at, hit_dur),
        FaultAction("partition", "oregon", part_at, part_dur),
    ]


# ======================================================================
# The table
# ======================================================================
_CONSENSUS_OWES = (
    "sequence-agreement", "exactly-once", "completion", "recovered-frontier",
)
_IRMC_OWES = ("exactly-once", "completion")
_SPIDER_OWES = (
    "journal-agreement", "exactly-once", "journal-subsequence", "completion",
    "state-completion", "client-fifo", "recovered-frontier", "views-converged",
)

_PBFT_NODES = PROTOCOLS["pbft"].nodes
_RAFT_NODES = PROTOCOLS["raft"].nodes
_AGREEMENT = tuple(f"ag{i}" for i in range(4))
_G0 = tuple(f"g0-e{i}" for i in range(3))

# Per stack: what every case on it shares.  The cases add their fault plan.
_PBFT = dict(
    stack="consensus", protocol="pbft", invariants=_CONSENSUS_OWES + ("views-converged",),
    ops=18, op_interval_ms=250.0, min_start_ms=400.0, horizon_ms=8_000.0,
)
_RAFT = dict(
    stack="consensus", protocol="raft", invariants=_CONSENSUS_OWES,
    ops=15, op_interval_ms=300.0,
    min_start_ms=1_200.0,  # first election settles
    horizon_ms=8_000.0,
)
_IRMC = dict(
    stack="irmc", invariants=_IRMC_OWES, settle_ms=30_000.0,
    positions=24, send_interval_ms=150.0, capacity=4, min_start_ms=300.0,
)
_IRMC_PALETTE = dict(
    fault_kinds=("crash", "silence", "delay", "drop", "duplicate"),
    max_actions=5, horizon_ms=6_000.0,
    pools=(("", IRMC_SENDERS, 1), (":rx", IRMC_RECEIVERS, 1)),  # fs = fr = 1
    partition_regions=("virginia",),  # WAN disruption between the groups
)
_SPIDER = dict(
    stack="spider", invariants=_SPIDER_OWES, settle_ms=75_000.0,
    clients=3, requests_per_client=8, think_ms=1_600.0, min_start_ms=1_000.0,
)
_TIGHT_CHECKPOINTS = (("ka", 8), ("ke", 4), ("commit_capacity", 4))
_SHARDED = dict(
    stack="sharded", settle_ms=75_000.0,
    sessions_per_shard=2, requests_per_session=6, think_ms=1_800.0,
)

CASES: Dict[str, ChaosCase] = {
    case.name: case
    for case in (
        ChaosCase(
            name="spider", **_SPIDER,
            fault_kinds=("crash", "silence", "delay", "drop", "mute_half"),
            max_actions=4, horizon_ms=12_000.0,
            pools=((":ag", _AGREEMENT, 1), (":ex", _G0, 1)),
            partition_regions=("tokyo",),
        ),
        ChaosCase(
            name="spider-cp-crash", **_SPIDER, spider_config=_TIGHT_CHECKPOINTS,
            schedule=_double_crash_across_checkpoints,
        ),
        ChaosCase(
            name="spider-disk", **_SPIDER, spider_config=_TIGHT_CHECKPOINTS,
            schedule=_wipe_races_bit_rot,
        ),
        # Two shards, faults confined to one: the other must not stall.
        # The palette only ever hits shard ``sa``'s nodes.  Obligations:
        # completion-after-heal **per shard** — both shards (including
        # the faulted one) eventually apply every write and answer every
        # session — and **non-interference**: every ``sb``-keyed
        # operation finishes within ``latency_budget_ms`` of issue,
        # orders of magnitude below the settle horizon, *during* shard
        # ``sa``'s fault windows.  Shards share nothing but the network,
        # so a wedged ``sa`` leaking into ``sb``'s latency would be a
        # routing/isolation bug.
        ChaosCase(
            name="spider-shard", **_SHARDED, invariants=_SPIDER_OWES,
            shard_regions=("virginia", "virginia"), latency_budget_ms=5_000.0,
            fault_kinds=("crash", "silence", "delay", "drop", "mute_half"),
            max_actions=4, min_start_ms=1_000.0, horizon_ms=12_000.0,
            pools=(
                (":ag", tuple(f"sa-ag{i}" for i in range(4)), 1),
                (":ex", tuple(f"a0-e{i}" for i in range(3)), 1),
            ),
        ),
        ChaosCase(
            name="spider-reshard", **_SHARDED,
            invariants=_SPIDER_OWES + ("reshard-handover",),
            shard_regions=("virginia", "oregon"),
            moves=((2, 3, "sa", "sb", 1),), move_at_ms=4_000.0, movers=2,
            schedule=_attack_the_handover,
        ),
        # Four PBFT replicas in one region; f = 1.
        ChaosCase(
            name="pbft", **_PBFT, settle_ms=22_000.0,
            fault_kinds=("crash", "silence", "delay", "drop", "duplicate", "mute_half"),
            max_actions=5, pools=(("", _PBFT_NODES, 1),), fault_links=3,
        ),
        ChaosCase(
            name="pbft-vc-crash", **_PBFT,
            settle_ms=25_000.0,  # state transfer adds a round trip or two
            schedule=_crash_mid_view_change,
        ),
        # Durable-state loss and authenticated equivocation against PBFT:
        # ``wipe`` (the crash also destroys the disk: log, view, votes —
        # everything) and ``equivocate`` (the victim misuses its *own*
        # keys to send payload variants behind valid per-receiver MAC
        # vector entries) against one seeded victim — the ``f = 1``
        # budget, exercised with the two adversary families the benign
        # palette cannot reach.  A wiped replica reboots at view 0 /
        # seq 0 and must rebuild the complete history through
        # digest-first state transfer plus payload-on-miss fetches; an
        # equivocating leader splits the honest prepare votes so no
        # forged payload can reach a commit quorum without 2f+1 backing,
        # and the view change re-orders the starved payloads.
        # Completion still covers *everything* and ever-crashed replicas
        # owe the exact frontier.
        ChaosCase(
            name="pbft-wipe", **_PBFT,
            settle_ms=25_000.0,  # full-history state transfer adds round trips
            fault_kinds=("wipe", "equivocate"),
            max_actions=5, pools=(("", _PBFT_NODES, 1),),
        ),
        # Three Raft replicas; crash/recover plus lossy links (CFT
        # budget: a minority of 3).
        ChaosCase(
            name="raft", **_RAFT, settle_ms=25_000.0,
            fault_kinds=("crash", "silence", "delay", "drop", "duplicate"),
            max_actions=5, pools=(("", _RAFT_NODES, 1),), fault_links=2,
        ),
        # Durable-state loss and clock skew against Raft.  A wiped
        # replica forgets its vote and its log; the post-wipe quarantine
        # must keep it from voting (it may already have voted in the term
        # it forgot) or standing for election until a live leader adopts
        # it, after which AppendEntries walks ``next_index`` back to 1
        # and replays the whole suffix.  Skew multiplies the victim's
        # local timer rate by up to 2x in either direction: a fast clock
        # turns the victim into a serial election agitator (term
        # inflation the leader must absorb), a slow one makes it the last
        # to notice a dead leader.  Either way, safety and the exact
        # recovered frontier are owed once the window heals.
        ChaosCase(
            name="raft-skew", **_RAFT,
            settle_ms=30_000.0,  # skew-driven elections burn extra rounds
            fault_kinds=("wipe", "skew"),
            max_actions=5, pools=(("", _RAFT_NODES, 1),),
        ),
        ChaosCase(name="irmc-rc", channel="rc", **_IRMC, **_IRMC_PALETTE),
        ChaosCase(name="irmc-sc", channel="sc", **_IRMC, **_IRMC_PALETTE),
        ChaosCase(
            name="irmc-equivocate", channel="rc", **_IRMC,
            schedule=_equivocating_sender,
        ),
        ChaosCase(
            name="irmc-sc-wipe", channel="sc", **_IRMC, schedule=_wipe_both_sides,
        ),
    )
}


def _frozen(value: Any) -> Any:
    """Callers may pass lists (nested, for ``moves``); records hold tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def chaos_case(name: str, **overrides: Any) -> ChaosCase:
    """Look a chaos configuration up, optionally with knob overrides.

    The one way to name a case: ``chaos_case("pbft").run(seed)`` is the
    cell ``SUITES["chaos"]["pbft"]`` runs.  An override must name a knob
    the case declares (:meth:`ChaosCase.knobs`) and carry a value its rig
    can run; anything else raises :class:`~repro.errors.ConfigurationError`
    here, before any node exists.
    """
    try:
        case = CASES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos config {name!r}; known: {sorted(CASES)}"
        ) from None
    for key in sorted(overrides):
        if key not in case.knobs():
            raise ConfigurationError(
                f"chaos config {name!r} has no tunable knob {key!r}; "
                f"tunable: {case.knobs()}"
            )
        value = overrides[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value < 0:
            raise ConfigurationError(
                f"chaos config {name!r}: {key} must be >= 0, got {value!r}"
            )
    case = replace(case, **{key: _frozen(value) for key, value in overrides.items()})
    for kind in case.fault_kinds or ():
        if kind not in NODE_KINDS:
            raise ConfigurationError(
                f"chaos config {name!r}: unknown fault kind {kind!r}; "
                f"known: {sorted(NODE_KINDS)}"
            )
    if case.horizon_ms is not None and case.horizon_ms < case.min_start_ms:
        raise ConfigurationError(
            f"chaos config {name!r}: horizon_ms {case.horizon_ms} before "
            f"min_start_ms {case.min_start_ms}"
        )
    if case.clients is not None:
        _check_count(case, "clients", 1, len(SPIDER_CLIENT_HOMES), "one home group each")
    if case.fault_links is not None:
        replicas = len(case.pools[0][1])
        _check_count(
            case, "fault_links", 0, replicas * (replicas - 1), "directed replica pairs"
        )
    if case.moves is not None:
        if not case.moves:
            raise ConfigurationError(
                f"chaos config {name!r} needs a non-empty 'moves' handover plan"
            )
        validate_moves(SHARD_IDS, case.moves)
    return case


def _check_count(case: ChaosCase, knob: str, low: int, high: int, why: str) -> None:
    value = getattr(case, knob)
    if not (isinstance(value, int) and low <= value <= high):
        raise ConfigurationError(
            f"chaos config {case.name!r}: {knob} must be an integer in "
            f"{low}..{high} ({why}), got {value!r}"
        )


# ======================================================================
# The suites: pinned sweeps over the table
# ======================================================================
#: The seeds every suite cell runs at unless a caller narrows them.
SEEDS = tuple(range(1, 13))

#: suite -> scenario -> (case name, overrides).  Every ``(suite,
#: scenario, seed)`` cell is pinned, field for field, by
#: ``tests/chaos_golden.json``.
SUITES: Dict[str, Dict[str, Tuple[str, Dict[str, Any]]]] = {
    # The acceptance sweep: every row of the table as it stands.
    "chaos": {name: (name, {}) for name in CASES},
    # Live range handover under fire (the ``spider-reshard`` row).
    "reshard": {
        "spider-reshard": ("spider-reshard", {}),
        # Two sequential handovers: the second move starts only after the
        # first committed, so the routing table bumps through epochs 1 and
        # 2 while the same fault windows stay aimed at the first transfer.
        "spider-reshard-double": (
            "spider-reshard",
            {"moves": ((2, 3, "sa", "sb", 1), (6, 7, "sa", "sb", 2))},
        ),
    },
}


def suite_scenarios(suite: str, names: Optional[Sequence[str]] = None) -> List[str]:
    """The sorted scenario names of ``suite`` (all, or the ``names`` subset).

    An unknown suite or scenario raises
    :class:`~repro.errors.ConfigurationError` listing the known ones.
    """
    if suite not in SUITES:
        raise ConfigurationError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    known = sorted(SUITES[suite])
    if names is None:
        return known
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ConfigurationError(
            f"suite {suite!r} has no scenario {', '.join(map(repr, unknown))}; "
            f"known: {known}"
        )
    return sorted(set(names))


def run_cells(
    suite: str,
    scenarios: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = SEEDS,
) -> List[Dict[str, Any]]:
    """Run the ``(scenario, seed)`` cells of ``suite``, one record each.

    A cell is ``chaos_case(name, **overrides).run(seed)``.  Cells run in
    sorted ``(scenario, seed)`` order whatever order the arguments give.
    A record names the scenario, seed, case and overrides, and holds what
    the golden record and the suite report read; a cell that raises is
    recorded with its ``error`` (and ``ok`` false) and the others still run.
    """
    cells = []
    for scenario in suite_scenarios(suite, scenarios):
        config, overrides = SUITES[suite][scenario]
        for seed in sorted(set(seeds)):
            cell: Dict[str, Any] = dict(
                scenario=scenario, seed=seed, config=config, overrides=dict(overrides)
            )
            try:
                case = chaos_case(config, **overrides)
                result = case.run(seed)
                cell.update(
                    invariants=list(case.invariants),
                    ok=result.ok,
                    violations=list(result.violations),
                    schedule=[dict(vars(action)) for action in result.actions],
                    n_actions=len(result.actions),
                    campaign_fingerprint=result.fingerprint(),
                    events=result.stats.get("events"),
                )
            except Exception as error:  # noqa: BLE001 - cell isolation is the point
                cell.update(
                    ok=False,
                    error=f"scenario {scenario!r} seed {seed}: "
                    f"{type(error).__name__}: {error}",
                )
            cells.append(cell)
    return cells
