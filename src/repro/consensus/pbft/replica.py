"""The PBFT replica component.

Implements the normal-case three-phase protocol, leader-relay of incoming
messages, weighted quorums, view changes, and one catch-up loop for
delivery gaps and crash recovery, behind the pull-based
:class:`~repro.consensus.interface.Agreement` interface.

Catching up
-----------
A replica that is behind — messages lost, or a crash/recovery that
missed arbitrary protocol history, view changes included — pulls what
it misses through one loop with two requests.  ``StateTransfer`` goes
to every peer; peers answer with their stored signed ``NewView`` when
the requester has not seen it (moving it into the current view) and
**digest-first** per-slot evidence — their own Prepare/Commit votes,
which carry only payload digests.  For slots with f+1 matching commit
digests and no payload (or a stale one) the replica pulls the original
PrePrepare from a *single* rotating peer via ``FetchPayload``
(payload-on-miss), so full payloads cross the network once instead of
once per peer; ``transfer_summary_bytes`` / ``transfer_payload_bytes``
account for the split.  Everything is verified through the ordinary handlers — no
trusted-summary shortcut exists, so a Byzantine responder can only
withhold, never mislead.

Two things start the loop.  A gap in the log (decided slots above the
delivery frontier) starts it one period later, and it asks every period
until the gap closes.  A node recovery asks at once, then every period
that brings progress, and the view timer stays quiet while the log still
shows slots to replay: a replica catching up does not suspect its
leader.  Once nothing is left the recovery ends; once a period goes
quiet the replica suspects again and asks after 1, 2, 4, 8 and 16 quiet
periods, then stops.  A gap alone never quiets the view timer.

A ``crash(wipe=True)`` additionally destroys the durable log: the wipe
hook reboots the replica protocol-empty (view 0, empty log) and the same
loop then rebuilds it from scratch — checkpointing stacks cover the
garbage-collected prefix via checkpoint install first.

Fidelity notes
--------------
* Request batching is self-clocked: a leader with none of its own
  proposals in flight (``next_propose_seq - 1 == delivered_seq``)
  proposes a message inside the CPU task that received it; while one is
  in flight it accumulates and cuts one
  :class:`~repro.consensus.interface.Batch` the moment that instance
  delivers locally (or ``gc`` skips it), so one pre-prepare/prepare/commit
  round amortises over whatever queued up meanwhile, capped at
  ``batch_size``.  ``batch_size=1`` is the paper prototype's
  one-instance-per-message ordering through the same path.
* Normal-case messages carry MAC vectors, view-change messages signatures,
  matching the prototype's HMAC-SHA-256 / RSA-1024 split.
* A view timeout does not leave the view at once: the replica broadcasts
  a state-free ``Suspect`` and keeps voting, joins a suspicion f+1
  replicas share, and sends its ``ViewChange`` once 2f+1 suspect (the
  STOP phase of BFT-SMaRt's leader change).  Castro-Liskov replicas
  leave on their own timeout, so one cut off from its leader strands
  itself in a view change the rest of the group never joins.  A
  suspicion (or ``ViewChange``) of a view counts toward every view
  before it, and a replica already past a suspected view answers with
  its own ``ViewChange`` or ``NewView``, so one whose messages were lost
  while it moved ahead still pulls the others along.
* The new-view message re-proposes prepared instances and fills gaps with
  no-ops; proof compaction is simplified: a ``PreparedProof`` names the
  prepared ``(view, seq, payload)`` and is sized as if it carried the
  2f+1 prepare authenticators, and a ``NewView`` carries the re-proposed
  pre-prepares without the view-change messages that justify them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.consensus.interface import Agreement, Batch, BatchAccumulator, DeliveryQueue
from repro.consensus.pbft.config import PbftConfig
from repro.consensus.pbft.log import PbftLog, Slot
from repro.consensus.pbft.messages import (
    NOOP,
    Commit,
    FetchPayload,
    Forward,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    StateTransfer,
    Suspect,
    ViewChange,
)
from repro.crypto.primitives import (
    attach_auth,
    digest,
    make_mac_vector,
    sign,
    verify,
    verify_mac_vector,
)
from repro.sim.futures import SimFuture
from repro.sim.node import Timer
from repro.sim.routing import Component, RoutedNode


#: Period of the catch-up loop (ms): a replica asks its peers every period
#: while its log shows a gap or its recovery makes progress, and after a
#: recovery goes quiet after 1, 2, 4, ... quiet periods.
CATCH_UP_PERIOD_MS = 500.0

#: A recovery's last ask goes out after this many quiet periods in a row.
CATCH_UP_QUIET_LIMIT = 16


def _payload_keys(payload: Any) -> List[str]:
    """Dedup keys a proposal occupies: the batch itself plus every item."""
    if isinstance(payload, Batch):
        return [repr(payload)] + [repr(item) for item in payload.items]
    return [repr(payload)]


class PbftReplica(Component, Agreement):
    """One PBFT replica, hosted on a :class:`RoutedNode`.

    Parameters
    ----------
    node:
        The hosting node.
    tag:
        Routing tag, identical at all group members (e.g. ``"pbft-ag"``).
    peers:
        All member nodes in canonical order (defines leader rotation).
    config:
        :class:`PbftConfig`.
    """

    def __init__(
        self,
        node: RoutedNode,
        tag: str,
        peers: Sequence[RoutedNode],
        config: Optional[PbftConfig] = None,
    ):
        super().__init__(node, tag)
        self.peers = list(peers)
        self.peer_names = [peer.name for peer in self.peers]
        self.config = config or PbftConfig()
        self.config.validate(self.peer_names)
        self.quorum = self.config.quorum(self.peer_names)
        self.f = self.config.f

        self._boot()
        self._view_timer = Timer(node, self._on_view_timeout)
        #: the one catch-up loop, for delivery gaps and crash recovery alike
        self._catch_up_timer = Timer(node, self._on_catch_up_tick, CATCH_UP_PERIOD_MS)
        #: a recovery's (:meth:`_transfer_progress` at its last ask, quiet
        #: periods since); ``(None, 0)`` while no recovery is under way
        self._recovery_progress: Tuple[Optional[tuple], int] = (None, 0)
        self.state_transfers_requested = 0
        #: digest-first transfer accounting: bytes of digest-only slot
        #: evidence served vs bytes of full payloads served on miss, plus
        #: the request counters on both sides.
        self.transfer_summary_bytes = 0
        self.transfer_payload_bytes = 0
        self.payloads_served = 0
        self.payload_fetches_sent = 0
        self._payload_fetch_round = 0
        node.add_recovery_hook(self._on_node_recover)
        node.add_wipe_hook(self._on_node_wipe)

        #: leader-side batch under construction
        self._accumulator = BatchAccumulator(
            self.config.batch_size, self._proposal_in_flight, self._cut_batch
        )
        self.batches_cut = 0
        self.largest_batch = 0

        self.delivered_count = 0
        self.view_changes_completed = 0

    def _boot(self) -> None:
        """The durable state of a replica that remembers nothing: view 0,
        empty log, nothing delivered.  Run by ``__init__`` and the wipe
        hook, so the two cannot drift apart."""
        self.view = 0
        self.low_water = 1  # smallest live sequence number
        self.next_propose_seq = 1
        self.delivered_seq = 0
        self.log = PbftLog()
        self.queue = DeliveryQueue()
        self.backlog: Deque[Any] = deque()
        self._backlog_keys: set = set()  # mirrors backlog for O(1) dedup
        self.pending: Dict[str, Any] = {}  # awaiting delivery (liveness watch)
        self.live_keys: set = set()  # payload keys occupying live slots
        #: mirrors the accumulator buffer for O(1) dedup; cleared whenever
        #: the buffer empties (cut or flush)
        self._batch_keys: set = set()
        self.in_view_change = False
        #: new view -> replicas that asked for it (:class:`Suspect`)
        self.suspects: Dict[int, set] = {}
        self.vc_store: Dict[int, Dict[str, ViewChange]] = {}
        #: the latest accepted NewView, kept as transferable (signed)
        #: evidence for replicas rejoining after a crash: replaying it
        #: moves them into the current view through the normal handler.
        self.last_new_view: Optional[NewView] = None
        self._timeout_factor = 1.0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.node.name

    def leader_name(self, view: Optional[int] = None) -> str:
        view = self.view if view is None else view
        return self.peer_names[view % len(self.peers)]

    def is_leader(self, view: Optional[int] = None) -> bool:
        return self.leader_name(view) == self.name

    def _leader_node(self, view: Optional[int] = None) -> RoutedNode:
        view = self.view if view is None else view
        return self.peers[view % len(self.peers)]

    def _weight_of(self, sender: str) -> float:
        return self.config.weight_of(sender)

    def _sent_by_member(self, src, message) -> bool:
        """The group member ``message`` names sent it.  ``Forward`` and the
        catch-up requests carry no authenticator, so the network sender
        is the only evidence."""
        return src.name == message.sender and message.sender in self.peer_names

    def _mac_attach(self, body):
        """Attach a MAC vector over ``body``'s signed content (auth excluded)."""
        return attach_auth(body, auth=make_mac_vector(self.name, self.peer_names, body))

    def _vote(self, kind, slot: Slot):
        """This replica's authenticated ``kind`` (Prepare / Commit) vote
        for what ``slot`` holds."""
        return self._mac_attach(
            kind(
                tag=self.tag,
                view=slot.view,
                seq=slot.seq,
                payload_digest=slot.payload_digest,
                sender=self.name,
            )
        )

    # ------------------------------------------------------------------
    # Agreement interface
    # ------------------------------------------------------------------
    def order(self, message: Any) -> None:
        key = repr(message)
        if key in self.live_keys or key in self.pending:
            return
        self.pending[key] = message
        self._arm_view_timer()
        if self.is_leader() and not self.in_view_change:
            self._enqueue(message)
        else:
            self.send(
                self._leader_node(), Forward(tag=self.tag, payload=message, sender=self.name)
            )

    def next_delivery(self) -> SimFuture:
        return self.queue.pull()

    def reset_delivery(self) -> None:
        self.queue.cancel_pull()

    def gc(self, before_seq: int, settled: Optional[Callable[[Any], bool]] = None) -> None:
        if before_seq <= self.low_water:
            return
        self.low_water = before_seq
        if settled is not None:
            # Skipped slots we never saw delivered what the host's
            # checkpoint covers: stop watching it, or its view timer
            # would suspect a leader that did its job.
            self.pending = {
                key: payload for key, payload in self.pending.items() if not settled(payload)
            }
        self.log.drop_below(before_seq)
        self.queue.drop_below(before_seq)
        self.delivered_seq = max(self.delivered_seq, before_seq - 1)
        self.next_propose_seq = max(self.next_propose_seq, before_seq)
        self.live_keys = {
            key
            for slot in self.log.slots.values()
            if slot.pre_prepare is not None
            for key in _payload_keys(slot.pre_prepare.payload)
        }
        self._drain_backlog()
        self._try_deliver()

    # ------------------------------------------------------------------
    # Proposing (leader) and batch accumulation
    # ------------------------------------------------------------------
    def _enqueue(self, payload: Any) -> None:
        """Leader intake: propose now, or accumulate behind the proposal
        in flight (:class:`BatchAccumulator` owns the cut rule)."""
        key = repr(payload)
        if key in self.live_keys or key in self._batch_keys:
            return
        if key in self._backlog_keys:
            # Already parked behind the proposal window: proposing again
            # (e.g. via the new-view re-introduction loop) would assign the
            # payload a second sequence number once the window reopens.
            return
        self._batch_keys.add(key)
        self._accumulator.intake(payload)

    def _proposal_in_flight(self) -> bool:
        """One of our own proposals is parked or still undelivered here."""
        return bool(self.backlog) or self.next_propose_seq - 1 > self.delivered_seq

    def _cut_batch(self, payload: Any, items: List[Any]) -> None:
        self._batch_keys = set()
        if self.in_view_change or not self.is_leader():
            # Leadership moved while the batch accumulated; the messages
            # stay in ``pending`` and are re-introduced after the new view.
            return
        self.batches_cut += 1
        self.largest_batch = max(self.largest_batch, len(items))
        self._propose(payload)

    def _flush_batch_buffer(self) -> None:
        """Abandon an in-progress batch (messages remain in ``pending``)."""
        self._accumulator.flush()
        self._batch_keys = set()

    def _propose(self, payload: Any) -> None:
        if self.next_propose_seq >= self.low_water + self.config.window:
            self.backlog.append(payload)
            self._backlog_keys.update(_payload_keys(payload))
            return
        seq = self.next_propose_seq
        self.next_propose_seq += 1
        pre_prepare = self._mac_attach(
            PrePrepare(tag=self.tag, view=self.view, seq=seq, payload=payload, sender=self.name)
        )
        slot = self.log.slot(seq)
        slot.accept_pre_prepare(pre_prepare, digest(payload))
        slot.add_prepare(self.name, slot.payload_digest)
        slot.sent_prepare = True
        self.live_keys.update(_payload_keys(payload))
        self.broadcast(self.peers, pre_prepare)
        self._check_prepared(slot)

    def _drain_backlog(self) -> None:
        while (
            self.backlog
            and self.is_leader()
            and not self.in_view_change
            and self.next_propose_seq < self.low_water + self.config.window
        ):
            payload = self.backlog.popleft()
            self._backlog_keys.difference_update(_payload_keys(payload))
            self._propose(payload)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, src, message: Any) -> None:
        if isinstance(message, PrePrepare):
            self._on_pre_prepare(message)
        elif isinstance(message, Prepare):
            self._on_prepare(message)
        elif isinstance(message, Commit):
            self._on_commit(message)
        elif isinstance(message, Forward):
            self._on_forward(src, message)
        elif isinstance(message, Suspect):
            self._on_suspect(src, message)
        elif isinstance(message, ViewChange):
            self._on_view_change(message)
        elif isinstance(message, NewView):
            self._on_new_view(message)
        elif isinstance(message, FetchPayload):
            self._on_fetch_payload(src, message)
        elif isinstance(message, StateTransfer):
            self._on_state_transfer(src, message)

    def _on_forward(self, src, message: Forward) -> None:
        if not self._sent_by_member(src, message):
            return
        key = repr(message.payload)
        if key in self.live_keys:
            return
        if self.is_leader() and not self.in_view_change:
            self.pending.setdefault(key, message.payload)
            self._arm_view_timer()
            self._enqueue(message.payload)

    def _on_pre_prepare(self, message: PrePrepare) -> None:
        if message.sender != self.leader_name(message.view):
            return
        if not verify_mac_vector(message.auth, message, message.sender, self.name):
            return
        if message.seq < self.low_water:
            return
        if message.seq >= self.low_water + self.config.window:
            return
        if message.view < self.view:
            self._adopt_stale_view_proposal(message)
            return
        if message.view > self.view:
            # We lag behind in views; adopt nothing yet (new-view will come).
            return
        slot = self.log.slot(message.seq)
        payload_digest = digest(message.payload)
        if not slot.accept_pre_prepare(message, payload_digest):
            return  # equivocation or duplicate conflicting proposal
        self.live_keys.update(_payload_keys(message.payload))
        slot.add_prepare(message.sender, payload_digest)
        if not slot.sent_prepare and message.sender != self.name:
            slot.sent_prepare = True
            slot.add_prepare(self.name, payload_digest)
            self.broadcast(self.peers, self._vote(Prepare, slot))
        self._check_prepared(slot)

    def _adopt_stale_view_proposal(self, message: PrePrepare) -> None:
        """Adopt an old-view proposal as *data only* — no prepare vote.

        Our view moved ahead (e.g. we left for a view change the rest of
        the group has not completed yet) but the system is still deciding
        in an older view; storing the payload lets a commit certificate
        (2f+1 matching commits, valid in any view by quorum intersection)
        deliver the slot and rejoin us.

        If an equivocating old-view leader got a *different* payload to us
        first, the stored data-only payload may conflict with the digest
        the certificate actually vouches for.  We never prepare-voted for
        it, so it is safe to replace it with the certificate's payload —
        without this, the poisoned slot would wedge the replica forever.
        """
        payload_digest = digest(message.payload)
        slot = self.log.slot(message.seq)
        if slot.pre_prepare is None:
            if slot.accept_pre_prepare(message, payload_digest):
                # Deliberately NOT merged into live_keys: no certificate
                # backs this payload yet, and registering it would let a
                # Byzantine ex-leader censor the payload forever (order()
                # and _on_forward() drop live keys without arming a view
                # timer).  Exactly-once is still safe — the current
                # leader's own live_keys dedups proposals.
                self._check_committed(slot)
            return
        if (
            slot.committed
            or slot.sent_prepare
            or slot.payload_digest == payload_digest
        ):
            return
        if self._quorate_commit_digest(slot) != payload_digest:
            return
        slot.pre_prepare = message
        slot.view = message.view
        slot.payload_digest = payload_digest
        self._check_committed(slot)

    def _quorate_commit_digest(self, slot: Slot) -> Optional[int]:
        """The payload digest backed by a quorum of commit votes, if any."""
        weights: Dict[int, float] = {}
        for sender, voted in slot.commit_votes.items():
            total = weights.get(voted, 0.0) + self._weight_of(sender)
            if total >= self.quorum:
                return voted
            weights[voted] = total
        return None

    def _on_prepare(self, message: Prepare) -> None:
        if message.sender not in self.peer_names or message.seq < self.low_water:
            return
        if not verify_mac_vector(message.auth, message, message.sender, self.name):
            return
        slot = self.log.slot(message.seq)
        slot.add_prepare(message.sender, message.payload_digest)
        self._check_prepared(slot)

    def _check_prepared(self, slot: Slot) -> None:
        if slot.prepared or slot.pre_prepare is None:
            return
        if slot.view != self.view or self.in_view_change:
            return
        if slot.prepare_weight(self._weight_of) >= self.quorum:
            slot.prepared = True
            if not slot.sent_commit:
                slot.sent_commit = True
                slot.add_commit(self.name, slot.payload_digest)
                self.broadcast(self.peers, self._vote(Commit, slot))
            self._check_committed(slot)

    def _on_commit(self, message: Commit) -> None:
        if message.sender not in self.peer_names or message.seq < self.low_water:
            return
        if not verify_mac_vector(message.auth, message, message.sender, self.name):
            return
        slot = self.log.slot(message.seq)
        slot.add_commit(message.sender, message.payload_digest)
        self._check_committed(slot)
        if slot.payload_digest != message.payload_digest:
            # Digest-first state transfer: commit evidence can accumulate
            # for a payload we never stored (e.g. after a wiped restart)
            # or hold a stale rival of.  Such a slot can never commit
            # locally, so delivery never watches it — do it here, where
            # the payload gap becomes observable.
            self._watch_gap()

    def _check_committed(self, slot: Slot) -> None:
        """Commit on quorum commit weight.

        Local ``prepared`` is *not* required: 2f+1 matching commits are a
        commit certificate — at least f+1 correct replicas prepared the
        payload in some view, and quorum intersection rules out any
        conflicting certificate — so a replica that missed the prepare
        round (or whose view raced ahead) may adopt it directly.  The
        payload itself must be on hand (pre-prepare stored) to deliver.
        """
        if slot.committed or slot.pre_prepare is None:
            return
        if slot.commit_weight(self._weight_of) >= self.quorum:
            slot.committed = True
            # Idempotent for the normal path; for data-only adopted slots
            # this is the point where the payload is certificate-backed
            # and may start dedup'ing client retries.
            self.live_keys.update(_payload_keys(slot.pre_prepare.payload))
            self._try_deliver()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _try_deliver(self) -> None:
        progressed = False
        while True:
            slot = self.log.get(self.delivered_seq + 1)
            if slot is None or not slot.committed or slot.delivered:
                break
            slot.delivered = True
            self.delivered_seq += 1
            payload = slot.pre_prepare.payload
            for key in _payload_keys(payload):
                self.pending.pop(key, None)
            self.delivered_count += 1
            self.queue.push(slot.seq, payload)
            progressed = True
        if progressed:
            self._timeout_factor = 1.0
            self._reset_view_timer()
        # Our proposal in flight delivered (or gc skipped it): propose
        # what queued up behind it.
        self._accumulator.release()
        self._watch_gap()

    # ------------------------------------------------------------------
    # Catching up: one loop for delivery gaps and crash recovery
    # ------------------------------------------------------------------
    def _watch_gap(self) -> None:
        """A visible gap gets the catch-up loop asking within one period."""
        timer = self._catch_up_timer
        if timer.armed and timer.deadline <= self.sim.now + CATCH_UP_PERIOD_MS:
            return
        if self._gap_exists():
            timer.start()

    def _gap_exists(self) -> bool:
        """The log holds decided slots above the delivery frontier."""
        frontier = self.delivered_seq
        return any(
            (slot.committed and slot.seq > frontier + 1)
            or (slot.seq > frontier and self._misses_payload(slot))
            for slot in self.log.slots.values()
        )

    def _misses_payload(self, slot: Slot) -> bool:
        """f+1 matching commit votes vouch for a payload the slot does not
        hold: none, or a stale one the group decided against (a recovered
        leader's own unsent proposal).  At least one honest replica
        committed it, so honest replicas hold it — safe to fetch."""
        counts: Dict[int, int] = {}
        for voted in slot.commit_votes.values():
            count = counts.get(voted, 0) + 1
            if count >= self.f + 1:
                return voted != slot.payload_digest
            counts[voted] = count
        return False

    def _payload_gap_seqs(self) -> List[int]:
        """Undelivered slots with digest evidence for a payload we lack."""
        return sorted(
            seq
            for seq, slot in self.log.slots.items()
            if seq > self.delivered_seq and self._misses_payload(slot)
        )

    def _on_node_wipe(self) -> None:
        """Durable-state loss: the crash also destroyed the log on disk.

        Reboot protocol-empty — view 0, empty log, nothing delivered.  The
        ordinary recovery hook then runs against this blank state: its
        ``StateTransfer`` asks from ``low_water = 1``, peers replay the
        stored NewView (moving us back into the current view) plus
        digest-first evidence for the whole retained log suffix, and the
        payload fetch fills the slots in.  Stacks that checkpoint (Spider's
        cp-ag) cover the garbage-collected prefix via checkpoint install,
        which advances ``low_water`` past it through :meth:`gc`.
        """
        self._boot()

    def _on_node_recover(self) -> None:
        """Re-enter the protocol after the hosting node recovered.

        Timer callbacks that fired while the node was crashed were dropped
        with the CPU queue; cancel the view timer, abandon any half-built
        batch (its messages stay in ``pending``), ask every peer for the
        view and the log suffix we slept through, and start the catch-up
        loop.  While its periods bring progress and the log shows slots to
        replay, the view timer stays unarmed (:meth:`_catching_up`): a
        replica never suspects a leader whose decisions it simply has not
        replayed yet, though it still joins a view change f+1 peers
        demand.  A quiet period ends the silence: caught up or cut off,
        the replica cannot tell which, so it suspects again and keeps
        asking after 1, 2, 4, 8 and 16 quiet periods — a transfer whose
        replies were lost to a window that has healed since still
        completes.
        """
        self._view_timer.cancel()
        self._flush_batch_buffer()
        self._recovery_progress = (self._transfer_progress(), 0)
        self._send_state_transfer()
        self._catch_up_timer.start()

    def _transfer_progress(self) -> tuple:
        """What a catch-up period can change: the view, the delivery
        frontier, and whether the log shows slots above it (the first
        replies bring that before any payload arrives)."""
        return (self.view, self.delivered_seq, self._gap_exists())

    def _catching_up(self) -> bool:
        """A recovery is under way, its last period brought progress, and
        there is more to replay: the log shows undelivered slots, or
        nothing has arrived since the last ask yet."""
        last, quiet = self._recovery_progress
        if last is None or quiet:
            return False
        progress = self._transfer_progress()
        return progress[2] or progress == last

    def _on_catch_up_tick(self) -> None:
        progress = self._transfer_progress()
        gap = progress[2]
        last, quiet = self._recovery_progress
        if last is None or progress != last:
            if not gap:
                # The gap closed, or the recovery caught up: stop asking.
                self._catch_up_timer.cancel()
                if last is not None:
                    self._recovery_progress = (None, 0)
                    self._arm_view_timer()
                return
            if last is not None:
                self._recovery_progress = (progress, 0)
            self._ask_peers()
            return  # next period at the base cadence
        # A recovery quiet for ``quiet`` periods now: converged or blocked.
        # Ask and suspect again; with no gap showing, wait twice as long.
        quiet = min(quiet * 2 or 1, CATCH_UP_QUIET_LIMIT)
        self._recovery_progress = (progress, quiet)
        self._ask_peers()
        if not gap and quiet < CATCH_UP_QUIET_LIMIT:
            self._catch_up_timer.start(CATCH_UP_PERIOD_MS * quiet)
        elif not gap:
            self._catch_up_timer.cancel()
            self._recovery_progress = (None, 0)
        self._arm_view_timer()

    def _ask_peers(self) -> None:
        """One round of catch-up: the log suffix from every peer, and the
        payloads of digest-vouched slots from one."""
        self._send_state_transfer()
        gaps = self._payload_gap_seqs()
        if gaps:
            self._request_payloads(gaps)

    def _send_state_transfer(self) -> None:
        # Outside a view change we hold our view's NewView (view 0 has
        # none), so a peer need only send a later one.
        self.state_transfers_requested += 1
        request = StateTransfer(
            tag=self.tag,
            view=self.view if self.in_view_change else self.view + 1,
            low_water=self.delivered_seq + 1,
            sender=self.name,
        )
        self.broadcast(self.peers, request)

    def _request_payloads(self, seqs: Sequence[int]) -> None:
        """Payload-on-miss: pull full PrePrepares from a single peer.

        The peer rotates per request, so a crashed or withholding
        responder only costs one catch-up period — and the payload
        travels the network once instead of once per group member.
        """
        others = [peer for peer in self.peers if peer is not self.node]
        if not others:
            return
        peer = others[self._payload_fetch_round % len(others)]
        self._payload_fetch_round += 1
        self.payload_fetches_sent += 1
        self.send(peer, FetchPayload(tag=self.tag, seqs=tuple(seqs), sender=self.name))

    def _on_fetch_payload(self, src, message: FetchPayload) -> None:
        if src is self.node or not self._sent_by_member(src, message):
            return
        for seq in message.seqs:
            slot = self.log.get(seq)
            if slot is not None and slot.pre_prepare is not None:
                self.payloads_served += 1
                self.transfer_payload_bytes += slot.pre_prepare.size_bytes()
                self.send(src, slot.pre_prepare)

    def _on_state_transfer(self, src, message: StateTransfer) -> None:
        if src is self.node or not self._sent_by_member(src, message):
            return
        # Bring the requester into the current view first: the NewView is
        # signed by its leader, hence transferable evidence (the requester
        # verifies and applies it through the normal handler).  ``>=``, not
        # ``>``: a replica that crashed *mid*-view-change already bumped
        # its view to the one the group then completed, but never saw the
        # NewView — without the equal-view replay it would stay wedged in
        # ``in_view_change`` forever, contributing no commit votes.  One
        # outside a view change asks with the view after its own.
        if self.last_new_view is not None and self.last_new_view.new_view >= message.view:
            self.send(src, self.last_new_view)
        for seq in sorted(self.log.slots):
            if seq >= message.low_water:
                self._send_slot_summary(src, self.log.slots[seq])

    def _send_slot_summary(self, src, slot: Slot) -> None:
        """Digest-first transfer evidence: own votes, no payload.

        Prepare/Commit carry only the payload digest, so a whole-log
        transfer answered by every peer stays cheap; the requester pulls
        the payloads it actually misses from a *single* peer afterwards
        (:class:`FetchPayload`).  A slot this replica committed via a
        commit certificate without ever voting is vouched for with a
        fresh Commit — safe, because the stored 2f+1 certificate rules
        out any conflicting payload by quorum intersection.
        """
        if slot.payload_digest is None:
            return
        if slot.sent_prepare:
            message = self._vote(Prepare, slot)
            self.transfer_summary_bytes += message.size_bytes()
            self.send(src, message)
        if slot.sent_commit or slot.committed:
            message = self._vote(Commit, slot)
            self.transfer_summary_bytes += message.size_bytes()
            self.send(src, message)

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def _arm_view_timer(self) -> None:
        if not self._view_timer.armed and self.pending and not self._catching_up():
            self._view_timer.start(self.config.view_timeout_ms * self._timeout_factor)

    def _reset_view_timer(self) -> None:
        self._view_timer.cancel()
        self._arm_view_timer()

    def _on_view_timeout(self) -> None:
        if self.pending:
            self._suspect(self.view + 1)

    def _suspect(self, new_view: int) -> None:
        """Ask for ``new_view`` without leaving the current view.

        A suspicion nobody shares is repeated at doubling intervals but
        never acted on alone, so a replica cut off from its leader for a
        while keeps voting in the group's view instead of stranding
        itself in a view change nobody else joins."""
        if self.name in self.suspects.get(new_view, ()):
            self._timeout_factor *= 2
        self._reset_view_timer()
        self.broadcast(
            self.peers,
            self._mac_attach(Suspect(tag=self.tag, new_view=new_view, sender=self.name)),
        )
        self._record_suspect(new_view, self.name)

    def _on_suspect(self, src, message: Suspect) -> None:
        if message.sender not in self.peer_names:
            return
        if not verify_mac_vector(message.auth, message, message.sender, self.name):
            return
        if message.new_view <= self.view:
            self._answer_stale_suspect(src, message.new_view)
            return
        self._record_suspect(message.new_view, message.sender)

    def _answer_stale_suspect(self, src, new_view: int) -> None:
        """A peer asks for a view we already reached: show it where we are.

        Our own ``ViewChange`` (or the ``NewView`` that completed our
        view) may have been lost on its way, and we never repeat it
        otherwise — so a replica left behind would keep suspecting a view
        we no longer count."""
        if self.in_view_change:
            mine = self.vc_store.get(self.view, {}).get(self.name)
            if mine is not None:
                self.send(src, mine)
        elif self.last_new_view is not None and self.last_new_view.new_view >= new_view:
            self.send(src, self.last_new_view)

    def _record_suspect(self, new_view: int, sender: str) -> None:
        if new_view <= self.view:
            return
        self.suspects.setdefault(new_view, set()).add(sender)
        # Asking for a view gives up on every view before it, so a
        # suspicion counts toward each view up to the one it names.
        # Act on the highest view enough replicas have given up before.
        senders: set = set()
        join = None
        for view in sorted(self.suspects, reverse=True):
            if view <= self.view:
                break
            senders |= self.suspects[view]
            if len(senders) >= 2 * self.f + 1:
                # At least f+1 correct replicas suspect, so every correct
                # one will see f+1 and join: leaving cannot strand us.
                self._start_view_change(view)
                return
            if join is None and len(senders) >= self.f + 1 and self.name not in senders:
                join = view  # f+1 include a correct replica's
        if join is not None:
            self._suspect(join)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view and self.in_view_change:
            return
        self.in_view_change = True
        self._flush_batch_buffer()
        # The catch-up loop keeps running: a replica whose view change
        # never completes here (its NewView lost) catches up only through
        # it.
        # Drop window-parked proposals too: they live on in ``pending`` and
        # are re-introduced after the new view, whereas a stale backlog
        # would re-propose them a second time if leadership ever rotated
        # back here (double delivery at the Agreement layer).
        self.backlog.clear()
        self._backlog_keys = set()
        self.view = max(self.view, new_view)
        self._timeout_factor *= 2
        self._reset_view_timer()
        proofs = tuple(
            PreparedProof(view=view, seq=seq, payload=payload)
            for view, seq, payload in self.log.prepared_proof_payloads(self.low_water)
        )
        message = ViewChange(
            tag=self.tag,
            new_view=new_view,
            low_water=self.low_water,
            prepared=proofs,
            sender=self.name,
            signature=None,
        )
        message = attach_auth(message, signature=sign(self.name, message))
        self._record_view_change(message)
        self.broadcast(self.peers, message)

    def _on_view_change(self, message: ViewChange) -> None:
        if message.sender not in self.peer_names or message.new_view <= self.view - 1:
            return
        if not verify(message.signature, message, signer=message.sender):
            return
        self._record_view_change(message)
        self._record_suspect(message.new_view, message.sender)  # it gave up too

    def _record_view_change(self, message: ViewChange) -> None:
        store = self.vc_store.setdefault(message.new_view, {})
        store[message.sender] = message
        # Join a view change once f+1 replicas ahead of us demand one.
        if message.new_view > self.view and len(store) >= self.f + 1:
            self._start_view_change(message.new_view)
        if (
            len(store) >= 2 * self.f + 1
            and self.leader_name(message.new_view) == self.name
            and message.new_view >= self.view
        ):
            self._send_new_view(message.new_view, store)

    def _send_new_view(self, new_view: int, store: Dict[str, ViewChange]) -> None:
        if not self.in_view_change and new_view == self.view:
            return  # already completed
        base = max([vc.low_water for vc in store.values()] + [self.low_water])
        best: Dict[int, PreparedProof] = {}
        for vc in store.values():
            for proof in vc.prepared:
                if proof.seq < base:
                    continue
                current = best.get(proof.seq)
                if current is None or proof.view > current.view:
                    best[proof.seq] = proof
        max_seq = max(best.keys(), default=base - 1)
        pre_prepares: List[PrePrepare] = []
        for seq in range(base, max_seq + 1):
            payload = best[seq].payload if seq in best else NOOP
            pre_prepares.append(
                self._mac_attach(
                    PrePrepare(
                        tag=self.tag, view=new_view, seq=seq, payload=payload, sender=self.name
                    )
                )
            )
        body = NewView(
            tag=self.tag,
            new_view=new_view,
            pre_prepares=tuple(pre_prepares),
            sender=self.name,
            signature=None,
        )
        body = attach_auth(body, signature=sign(self.name, body))
        self.broadcast(self.peers, body, include_self=True)

    def _on_new_view(self, message: NewView) -> None:
        if message.sender != self.leader_name(message.new_view):
            return
        if message.new_view < self.view:
            return
        if not verify(message.signature, message, signer=message.sender):
            return
        if (
            message.new_view == self.view
            and not self.in_view_change
            and self.last_new_view is not None
            and self.last_new_view.new_view == message.new_view
        ):
            # A replay of the view change we already completed (a catch-up
            # or stale-suspect answer that raced the leader's own NewView):
            # reprocessing would be idempotent but would skew the
            # completion counter.
            return
        self.last_new_view = message
        self.view = message.new_view
        self.in_view_change = False
        self.suspects = {view: senders for view, senders in self.suspects.items() if view > self.view}
        self.view_changes_completed += 1
        max_seq = self.low_water - 1
        for pre_prepare in message.pre_prepares:
            max_seq = max(max_seq, pre_prepare.seq)
            self._on_pre_prepare(pre_prepare)
        self.next_propose_seq = max(self.next_propose_seq, max_seq + 1)
        # A slot superseded by this new view may have left the keys of a
        # never-prepared payload (or whole batch) in ``live_keys``, which
        # would make the loop below skip — and thereby stall — those
        # messages.  Rebuild from slots that are actually live now: ones
        # re-proposed in this view, plus committed ones from earlier views
        # (their keys must stay to dedup client retries until gc).
        self.live_keys = {
            key
            for slot in self.log.slots.values()
            if slot.pre_prepare is not None
            and (slot.view == self.view or slot.committed)
            for key in _payload_keys(slot.pre_prepare.payload)
        }
        # Re-introduce our pending messages to the new leader.  Messages
        # contained in a re-proposed Batch are already in ``live_keys``
        # (pre-prepare processing registers every item), so in-flight
        # batches survive the view change without duplication.
        for payload in list(self.pending.values()):
            if repr(payload) in self.live_keys:
                continue
            if self.is_leader():
                self._enqueue(payload)
            else:
                self.send(
                    self._leader_node(),
                    Forward(tag=self.tag, payload=payload, sender=self.name),
                )
        self._reset_view_timer()
        self._drain_backlog()
