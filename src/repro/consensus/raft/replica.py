"""The Raft replica component implementing the Agreement interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.consensus.interface import (
    Agreement,
    BatchAccumulator,
    DeliveryQueue,
    batch_items,
)
from repro.consensus.raft.messages import (
    AppendEntries,
    AppendReply,
    ForwardToLeader,
    LogEntry,
    RequestVote,
    VoteGranted,
)

from repro.crypto.primitives import attach_auth, make_mac, verify_mac
from repro.errors import ConfigurationError
from repro.sim.futures import SimFuture
from repro.sim.node import Timer
from repro.sim.routing import Component, RoutedNode

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


#: Election timeouts are drawn uniformly from this range (ms), heartbeats
#: leave every ``HEARTBEAT_MS``: the usual 4-8x spacing between the two.
ELECTION_TIMEOUT_MIN_MS = 400.0
ELECTION_TIMEOUT_MAX_MS = 800.0
HEARTBEAT_MS = 100.0
#: Maximum entries shipped per AppendEntries.
APPEND_LIMIT = 64


@dataclass
class RaftConfig:
    """Raft's one tunable."""

    #: request batching, mirroring PbftConfig so ablations stay comparable:
    #: while an entry of its own is uncommitted the leader accumulates, and
    #: packs what queued up (at most ``batch_size`` payloads) into one
    #: Batch log entry the moment that entry commits.
    batch_size: int = 64

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


class RaftReplica(Component, Agreement):
    """One Raft peer; a majority of ``len(peers)`` must stay alive.

    The log is 1-indexed to line up with the Agreement contract (first
    delivered sequence number is 1).  ``gc`` truncates the prefix, standing
    in for snapshot-based compaction.
    """

    def __init__(
        self,
        node: RoutedNode,
        tag: str,
        peers: Sequence[RoutedNode],
        config: Optional[RaftConfig] = None,
    ):
        super().__init__(node, tag)
        self.peers = list(peers)
        self.peer_names = [peer.name for peer in self.peers]
        self.config = config or RaftConfig()
        self.majority = len(self.peers) // 2 + 1

        self._boot()
        self._accumulator = BatchAccumulator(  # leader-side batch accumulation
            self.config.batch_size, self._proposal_in_flight, self._cut_batch
        )
        self.batches_cut = 0
        self.largest_batch = 0
        self._election_timer = Timer(node, self._on_election_timeout)
        self._heartbeat_timer = Timer(node, self._send_heartbeats)
        self.elections_won = 0
        #: True between a durable-state wipe and the first valid
        #: AppendEntries adoption: the replica must neither vote nor stand
        #: for election until it has relearned a term from a live leader,
        #: or its forgotten ``voted_for`` could grant a second vote in a
        #: term it already voted in (two leaders, safety violation).
        self._wiped_rejoin = False
        self.wipes = 0
        self._reset_election_timer()
        node.add_recovery_hook(self._on_node_recover)
        node.add_wipe_hook(self._on_node_wipe)

    def _boot(self) -> None:
        """Everything durable at its boot value: no log, no term, no vote.
        Run by ``__init__`` and the wipe hook, so the two cannot drift
        apart."""
        self.role = FOLLOWER
        self.term = 0
        self.voted_for: Optional[str] = None
        self.leader: Optional[str] = None
        #: log[i] is the entry at index offset + i + 1
        self.log: List[LogEntry] = []
        self.offset = 0  # entries 1..offset have been compacted away
        self.commit_index = 0
        self.delivered_index = 0
        self.low_water = 1
        self.queue = DeliveryQueue()
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self._votes: set = set()
        self._pending: List[Any] = []  # ordered payloads awaiting a leader
        self._seen: set = set()
        #: ordered-but-undelivered payloads, keyed by repr.  A payload that
        #: reached a leader which then crashed (or whose Forward was lost)
        #: would otherwise be tombstoned forever by ``_seen``; pending
        #: payloads are re-introduced whenever a new leader is observed,
        #: mirroring PBFT's pending/new-view re-introduction.
        self.pending: Dict[str, Any] = {}
        #: multiset of payload keys currently in the (uncompacted) log,
        #: maintained incrementally on append/truncate/compaction so that
        #: re-offer dedup on the forward hot path stays O(1) per item.
        self._log_key_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Log helpers
    # ------------------------------------------------------------------
    @property
    def last_index(self) -> int:
        return self.offset + len(self.log)

    def _term_at(self, index: int) -> int:
        if index <= self.offset:
            return 0  # compacted prefix; only comparable as "old"
        entry = self.log[index - self.offset - 1]
        return entry.term

    def _entries_from(self, index: int) -> List[LogEntry]:
        start = max(0, index - self.offset - 1)
        return self.log[start : start + APPEND_LIMIT]

    # ------------------------------------------------------------------
    # Agreement interface
    # ------------------------------------------------------------------
    def order(self, message: Any) -> None:
        key = repr(message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.pending[key] = message
        if self.role == LEADER:
            self._enqueue(message)
        elif self.leader is not None:
            self._forward(message)
        else:
            self._pending.append(message)

    def _forward(self, message: Any) -> None:
        leader_node = next((p for p in self.peers if p.name == self.leader), None)
        if leader_node is not None:
            self.send(
                leader_node,
                ForwardToLeader(tag=self.tag, payload=message, sender=self.node.name),
            )

    def _note_log_appended(self, payload: Any) -> None:
        counts = self._log_key_counts
        for item in batch_items(payload):
            key = repr(item)
            counts[key] = counts.get(key, 0) + 1

    def _note_log_removed(self, payload: Any) -> None:
        counts = self._log_key_counts
        for item in batch_items(payload):
            key = repr(item)
            remaining = counts.get(key, 0) - 1
            if remaining > 0:
                counts[key] = remaining
            else:
                counts.pop(key, None)

    def _log_keys(self) -> set:
        """Keys of payloads in the (uncompacted) log + the batch buffer.

        Re-offer dedup covers the *whole* log: a payload this replica
        learned only through replication (never via ``order``/Forward, so
        absent from ``_seen``) must still not be appended again when a
        peer re-offers it after a leadership change.
        """
        keys = set(self._log_key_counts)
        for item in self._accumulator.buffer:
            keys.add(repr(item))
        return keys

    def _in_log_or_buffer(self, key: str) -> bool:
        if key in self._log_key_counts:
            return True
        return any(repr(item) == key for item in self._accumulator.buffer)

    def _reintroduce_pending(self) -> None:
        """Re-submit undelivered payloads after a leadership change.

        A crashed leader may have taken the only log copy of a payload
        with it; every replica that still holds the payload in ``pending``
        offers it to the new leader (or appends it itself), and the
        leader-side whole-log dedup keeps re-offers exactly-once.
        """
        if not self.pending:
            return
        if self.role == LEADER:
            known = self._log_keys()
            for key, payload in list(self.pending.items()):
                if key not in known:
                    self._enqueue(payload)
        elif self.leader is not None:
            for payload in list(self.pending.values()):
                self._forward(payload)

    def next_delivery(self) -> SimFuture:
        return self.queue.pull()

    def reset_delivery(self) -> None:
        self.queue.cancel_pull()

    def _on_node_recover(self) -> None:
        """Restore liveness after a crash/recover of the hosting node.

        Timer callbacks that fired while the node was crashed were dropped
        with the CPU queue, breaking the heartbeat/election chains; re-arm
        them so the recovered replica owes full liveness again.  Log and
        term state survived the crash (fail-stop, not disk loss), so the
        ordinary AppendEntries flow resynchronises the history.
        """
        self._heartbeat_timer.cancel()
        if self.role == LEADER:
            # Peers may have elected someone newer meanwhile; their higher
            # term steps us down on the first reply.
            self._send_heartbeats()
        else:
            self._reset_election_timer()

    def _on_node_wipe(self) -> None:
        """Reboot with an empty disk: log, term and vote are gone.

        Runs synchronously inside ``node.recover()`` before the recovery
        hooks.  Everything durable resets to boot values; the replica then
        rejoins as a non-voting follower (``_wiped_rejoin``) until a valid
        leader adopts it, after which ordinary AppendEntries replication
        re-installs the compacted prefix boundary and replays the suffix.
        """
        self.wipes += 1
        self._boot()
        self._accumulator.flush()  # buffered payloads died with the disk
        self._wiped_rejoin = True

    def gc(self, before_seq: int, settled: Optional[Callable[[Any], bool]] = None) -> None:
        if before_seq <= self.low_water:
            return
        self.low_water = before_seq
        self.queue.drop_below(before_seq)
        self.delivered_index = max(self.delivered_index, before_seq - 1)
        self.commit_index = max(self.commit_index, before_seq - 1)
        # Compact everything below the new low-water mark.  The dropped
        # entries are settled (checkpoint-covered): clear their payloads
        # from ``pending`` so no leadership change re-introduces them.
        keep_from = before_seq - 1  # last_index of the compacted prefix
        if keep_from > self.offset:
            drop = min(keep_from - self.offset, len(self.log))
            for entry in self.log[:drop]:
                self._note_log_removed(entry.payload)
                for item in batch_items(entry.payload):
                    self.pending.pop(repr(item), None)
            self.log = self.log[drop:]
            self.offset += drop
        if settled is not None:
            self.pending = {
                key: payload for key, payload in self.pending.items() if not settled(payload)
            }
        self._accumulator.release()  # the skip may have settled our entry

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------
    def _reset_election_timer(self) -> None:
        spread = ELECTION_TIMEOUT_MAX_MS - ELECTION_TIMEOUT_MIN_MS
        self._election_timer.start(ELECTION_TIMEOUT_MIN_MS + self.sim.rng.random() * spread)

    def _on_election_timeout(self) -> None:
        if self.role == LEADER:
            return
        if self._wiped_rejoin:
            # A wiped replica cannot stand: its empty log would lose the
            # up-to-date check anyway, and bumping ``term`` from 0 could
            # disrupt a healthy leader.  Keep waiting for AppendEntries.
            self._reset_election_timer()
            return
        self.role = CANDIDATE
        self.term += 1
        self.voted_for = self.node.name
        self.leader = None
        self._votes = {self.node.name}
        self._reset_election_timer()
        for peer in self.peers:
            if peer is self.node:
                continue
            body = RequestVote(
                tag=self.tag,
                term=self.term,
                candidate=self.node.name,
                last_log_index=self.last_index,
                last_log_term=self._term_at(self.last_index),
            )
            self.send(
                peer, attach_auth(body, auth=make_mac(self.node.name, peer.name, body))
            )

    def _on_request_vote(self, message: RequestVote) -> None:
        if not verify_mac(message.auth, message, message.candidate, self.node.name):
            return
        if message.term > self.term:
            self._step_down(message.term)
        up_to_date = message.last_log_term > self._term_at(self.last_index) or (
            message.last_log_term == self._term_at(self.last_index)
            and message.last_log_index >= self.last_index
        )
        granted = (
            message.term == self.term
            and self.voted_for in (None, message.candidate)
            and up_to_date
            # A wiped replica forgot whom it voted for; granting now could
            # be its *second* vote in this term.  Abstain until rejoined.
            and not self._wiped_rejoin
        )
        if granted:
            self.voted_for = message.candidate
            self._reset_election_timer()
        candidate_node = next(
            (p for p in self.peers if p.name == message.candidate), None
        )
        if candidate_node is None:
            return
        body = VoteGranted(
            tag=self.tag, term=self.term, voter=self.node.name, granted=granted
        )
        self.send(
            candidate_node,
            attach_auth(body, auth=make_mac(self.node.name, candidate_node.name, body)),
        )

    def _on_vote(self, message: VoteGranted) -> None:
        if not verify_mac(message.auth, message, message.voter, self.node.name):
            return
        if message.term > self.term:
            self._step_down(message.term)
            return
        if self.role != CANDIDATE or message.term != self.term or not message.granted:
            return
        self._votes.add(message.voter)
        if len(self._votes) >= self.majority:
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = LEADER
        self.leader = self.node.name
        self.elections_won += 1
        self.next_index = {name: self.last_index + 1 for name in self.peer_names}
        self.match_index = {name: 0 for name in self.peer_names}
        self.match_index[self.node.name] = self.last_index
        pending, self._pending = self._pending, []
        for payload in pending:
            self._enqueue(payload)
        # Recover payloads a previous leader may have lost with its log.
        self._reintroduce_pending()
        self._send_heartbeats()

    def _step_down(self, term: int) -> None:
        self.term = term
        self.role = FOLLOWER
        self.voted_for = None
        if self.leader == self.node.name:
            self.leader = None  # don't self-forward re-ordered batch items
        self._accumulator.cut()  # returns buffered payloads to the order() path
        self._heartbeat_timer.cancel()
        self._reset_election_timer()

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def _enqueue(self, payload: Any) -> None:
        """Leader intake: append now, or accumulate behind the entry in
        flight (same self-clocked cut rule as the PBFT implementation)."""
        self._accumulator.intake(payload)

    def _proposal_in_flight(self) -> bool:
        """The log ends in an uncommitted entry of our own term.  An older
        term's tail is not ours to wait for: only an entry of the current
        term can commit it (``_advance_commit``), so we append at once."""
        last = self.last_index
        return last > self.commit_index and self._term_at(last) == self.term

    def _cut_batch(self, payload: Any, items: List[Any]) -> None:
        if self.role != LEADER:
            # Leadership was lost while the batch accumulated; hand the
            # items back so they reach the new leader.
            for item in items:
                self._seen.discard(repr(item))
                self.order(item)
            return
        self.batches_cut += 1
        self.largest_batch = max(self.largest_batch, len(items))
        self._append_local(payload)

    def _append_local(self, payload: Any) -> None:
        self.log.append(LogEntry(term=self.term, payload=payload))
        self._note_log_appended(payload)
        self.match_index[self.node.name] = self.last_index
        self._replicate()

    def _send_heartbeats(self) -> None:
        if self.role != LEADER:
            return
        self._replicate()
        self._heartbeat_timer.start(HEARTBEAT_MS)

    def _replicate(self) -> None:
        for peer in self.peers:
            if peer is self.node:
                continue
            next_idx = self.next_index.get(peer.name, self.last_index + 1)
            prev_index = next_idx - 1
            body = AppendEntries(
                tag=self.tag,
                term=self.term,
                leader=self.node.name,
                prev_index=prev_index,
                prev_term=self._term_at(prev_index),
                entries=tuple(self._entries_from(next_idx)),
                commit_index=self.commit_index,
            )
            self.send(
                peer, attach_auth(body, auth=make_mac(self.node.name, peer.name, body))
            )

    def _on_append_entries(self, message: AppendEntries) -> None:
        if not verify_mac(message.auth, message, message.leader, self.node.name):
            return
        if message.term < self.term:
            self._reply_append(message.leader, False)
            return
        if message.term > self.term or self.role != FOLLOWER:
            self._step_down(message.term)
        self.term = message.term
        leader_changed = self.leader != message.leader
        self.leader = message.leader
        # Adopting a live leader ends the post-wipe quarantine: from here
        # the replica only ever votes in terms above the adopted one,
        # which supersedes anything it may have voted in before the wipe.
        self._wiped_rejoin = False
        self._reset_election_timer()
        # Flush buffered client payloads to the (now known) leader.
        if self._pending:
            pending, self._pending = self._pending, []
            for payload in pending:
                self._seen.discard(repr(payload))
                self.order(payload)
        if leader_changed:
            # A new leader may lack payloads the previous one hoarded.
            self._reintroduce_pending()
        # Consistency check on the previous entry.
        if message.prev_index > self.offset and message.prev_index > self.last_index:
            self._reply_append(message.leader, False)
            return
        if (
            message.prev_index > self.offset
            and self._term_at(message.prev_index) != message.prev_term
        ):
            self._reply_append(message.leader, False)
            return
        # Append / overwrite entries.
        for position, entry in enumerate(message.entries):
            index = message.prev_index + 1 + position
            if index <= self.offset:
                continue
            slot = index - self.offset - 1
            if slot < len(self.log):
                if self.log[slot].term != entry.term:
                    for removed in self.log[slot:]:
                        self._note_log_removed(removed.payload)
                    del self.log[slot:]
                    self.log.append(entry)
                    self._note_log_appended(entry.payload)
            else:
                self.log.append(entry)
                self._note_log_appended(entry.payload)
        if message.commit_index > self.commit_index:
            self.commit_index = min(message.commit_index, self.last_index)
            self._deliver_committed()
        self._reply_append(message.leader, True)

    def _reply_append(self, leader: str, success: bool) -> None:
        leader_node = next((p for p in self.peers if p.name == leader), None)
        if leader_node is None:
            return
        body = AppendReply(
            tag=self.tag,
            term=self.term,
            follower=self.node.name,
            success=success,
            match_index=self.last_index,
        )
        self.send(
            leader_node,
            attach_auth(body, auth=make_mac(self.node.name, leader_node.name, body)),
        )

    def _on_append_reply(self, message: AppendReply) -> None:
        if not verify_mac(message.auth, message, message.follower, self.node.name):
            return
        if message.term > self.term:
            self._step_down(message.term)
            return
        if self.role != LEADER:
            return
        if message.success:
            self.match_index[message.follower] = max(
                self.match_index.get(message.follower, 0), message.match_index
            )
            self.next_index[message.follower] = message.match_index + 1
            self._advance_commit()
        else:
            self.next_index[message.follower] = max(
                self.offset + 1, self.next_index.get(message.follower, 1) - 1
            )

    def _advance_commit(self) -> None:
        for index in range(self.last_index, self.commit_index, -1):
            if self._term_at(index) != self.term:
                continue  # only commit entries from the current term
            replicated = sum(
                1 for match in self.match_index.values() if match >= index
            )
            if replicated >= self.majority:
                self.commit_index = index
                self._deliver_committed()
                self._accumulator.release()
                break

    def _deliver_committed(self) -> None:
        while self.delivered_index < self.commit_index:
            self.delivered_index += 1
            if self.delivered_index <= self.offset:
                continue
            entry = self.log[self.delivered_index - self.offset - 1]
            # Entries skipped below the low-water mark are still *settled*
            # (a checkpoint covers them): their payloads must leave
            # ``pending`` too, or a later leadership change would
            # re-introduce and double-deliver them.
            for item in batch_items(entry.payload):
                self.pending.pop(repr(item), None)
            if self.delivered_index < self.low_water:
                continue
            self.queue.push(self.delivered_index, entry.payload)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, src, message: Any) -> None:
        if isinstance(message, AppendEntries):
            self._on_append_entries(message)
        elif isinstance(message, AppendReply):
            self._on_append_reply(message)
        elif isinstance(message, RequestVote):
            self._on_request_vote(message)
        elif isinstance(message, VoteGranted):
            self._on_vote(message)
        elif isinstance(message, ForwardToLeader):
            if message.sender in self.peer_names and self.role == LEADER:
                key = repr(message.payload)
                if key in self._seen and key not in self.pending:
                    return  # delivered here already
                if self._in_log_or_buffer(key):
                    # Already appended (possibly learned purely through
                    # replication from a previous leader, so absent from
                    # ``_seen``): a re-offer must not double-append.
                    self._seen.add(key)
                    self.pending.setdefault(key, message.payload)
                    return
                self._seen.add(key)
                self.pending.setdefault(key, message.payload)
                self._enqueue(message.payload)
