"""Spider agreement replicas (paper Figs. 5 and 17).

An agreement replica pulls validated requests out of the request channels
(one per-client subchannel loop per execution group), feeds them to the
agreement black-box (PBFT by default), and pushes the resulting ``Execute``
stream into every execution group's commit channel — waiting for only
``n_e - z`` channels per sequence number (global flow control, Section 3.5).
It also hosts the execution-replica registry and applies reconfiguration
commands (Section 3.6).

Request batching (``SpiderConfig.batch_size``, the per-instance cap): the
per-client loops still submit each validated request to the black-box
individually; the consensus leader proposes a request at once while
nothing of its own is in flight and otherwise drains what queued up into
one :class:`~repro.consensus.interface.Batch` the moment that instance
delivers — no request waits on a clock.  A delivered batch occupies one
sequence number; the replica classifies its items in order (duplicate
filtering, strong-read placeholders, reconfiguration commands) and ships
a single batched ``Execute`` through each commit channel, so one IRMC
message and one agreement checkpoint interval amortise over the batch.
How many requests share an instance therefore depends on concurrency: a
lone client gets one instance per request, exactly as with
``batch_size=1``.

For the paper's Spider-0E variant (Fig. 9a) the replica can additionally
host the application itself (``execute_locally=True``): clients then talk
to the agreement group directly and no IRMCs exist.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional, Tuple

from repro.app.statemachine import StateMachine
from repro.checkpoints import CheckpointComponent
from repro.consensus.interface import Agreement, Batch, batch_items
from repro.core.answering import ClientFacing
from repro.core.config import REQUEST_CAPACITY, SpiderConfig
from repro.core.messages import (
    NOOP_SLOT,
    STRONG_READ,
    AddGroup,
    ClientRequest,
    CloseSession,
    Execute,
    RegistryInfo,
    RegistryQuery,
    RemoveGroup,
    RequestWrapper,
    RetireClient,
    WeakRead,
)
from repro.crypto.primitives import attach_auth, sign, verify, verify_mac_vector
from repro.elastic.messages import MoveRange
from repro.irmc import ENDPOINTS, IrmcConfig, TooOld
from repro.sim.futures import SimFuture, gather
from repro.sim.process import Process
from repro.sim.routing import RoutedNode


class _GroupChannels:
    """The IRMC pair an agreement replica maintains towards one group."""

    def __init__(self, group_id, members, request_rx, commit_tx):
        self.group_id = group_id
        self.members = tuple(members)
        self.request_rx = request_rx
        self.commit_tx = commit_tx
        self.client_loops: Dict[str, Process] = {}

    def close(self) -> None:
        for process in self.client_loops.values():
            process.stop()
        self.client_loops.clear()
        self.request_rx.close()
        self.commit_tx.close()


class AgreementReplica(ClientFacing, RoutedNode):
    """One member of the agreement group."""

    reply_group = "ag"  # Spider-0E: what its wrappers and replies name

    def __init__(
        self,
        sim,
        name,
        site,
        config: SpiderConfig,
        execute_locally: bool = False,
        app: Optional[StateMachine] = None,
    ):
        super().__init__(sim, name, site)
        self.config = config
        self.execute_locally = execute_locally
        self.app = app

        self._boot()
        self.groups: Dict[str, _GroupChannels] = {}
        self.agreement_nodes = []
        self.ag: Optional[Agreement] = None
        self.cp: Optional[CheckpointComponent] = None
        self._delivery: Optional[Process] = None
        self.delivered_count = 0
        self.requests_delivered = 0  # individual requests across batches
        #: callbacks the system object installs to materialise topology
        #: changes (node lookup lives outside the protocol).
        self.resolve_nodes: Optional[Callable] = None
        self.on_membership_change: Optional[Callable] = None
        #: fired when an agreed RetireClient released a client's books;
        #: the deploy layer uses it to recycle the session name.
        self.on_client_retired: Optional[Callable] = None

        self.set_default_handler(self._on_direct_message)

    def _boot(self) -> None:
        """The replicated books, empty.  Run by ``__init__`` and the wipe
        hook, so the two cannot drift apart."""
        self.sn = 0
        self.win_upper = self.config.ag_window
        self.t: Dict[str, int] = {}  # latest agreed counter per client
        self.t_plus: Dict[str, int] = {}  # next expected request per client
        self.hist = deque(maxlen=self.config.commit_channel_capacity)
        self.u: Dict[str, Tuple[int, Any]] = {}  # Spider-0E reply cache
        # (on a wipe: the old future's waiters died with the delivery loop)
        self._win_future = SimFuture(name=f"{self.name}.win")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def setup(self, agreement_nodes, agreement_factory) -> None:
        """Install the consensus black-box and start the delivery loop.

        ``agreement_factory(node, peers)`` returns an
        :class:`~repro.consensus.interface.Agreement`; by default the system
        passes a PBFT factory, but any implementation works (modularity).
        """
        self.agreement_nodes = list(agreement_nodes)
        self.ag = agreement_factory(self, self.agreement_nodes)
        self.cp = CheckpointComponent(
            self,
            "cp-ag",
            self.agreement_nodes,
            self.config.fa,
            self._on_stable_checkpoint,
        )
        self._delivery = Process(
            self.sim, self._delivery_loop(), node=self, name=f"{self.name}.deliver"
        )
        self.add_recovery_hook(self._boot_after_recovery)
        self.add_wipe_hook(self._on_node_wipe)

    def _on_node_wipe(self) -> None:
        """Durable-state loss: every replicated book reboots empty.

        Runs synchronously inside ``node.recover()`` before the recovery
        hooks.  The co-hosted components (consensus black-box, checkpoint
        store, IRMC endpoints) wipe themselves through their own hooks;
        this one resets the agreement bookkeeping.  The recovery boot then
        fetches the group's newest stable checkpoint — ``_on_stable_checkpoint``
        sees ``seq > sn == 0`` and performs a *full* install (books, hist,
        commit-channel replay), after which the black-box's state transfer
        replays the post-checkpoint suffix.
        """
        self._boot()

    def _boot_after_recovery(self) -> None:
        """Respawn the driver processes after a crash/recover of this node.

        The delivery loop and the per-client request loops lose their
        in-flight resumptions with the crash; stop the old processes
        (they may still hold live continuations when the crash window fell
        between resumptions) and start fresh ones on the preserved state.
        The consensus black-box drops its orphaned delivery pull so the
        new loop can pull again, and the boot fetch adopts the group's
        newest stable checkpoint in case agreement moved past our window
        while we were down.  (The black-box itself — e.g. PBFT state
        transfer — rejoins through its own recovery hook.)
        """
        if self._delivery is not None:
            self._delivery.stop()
        if self.ag is not None:
            self.ag.reset_delivery()
        self._delivery = Process(
            self.sim, self._delivery_loop(), node=self, name=f"{self.name}.deliver"
        )
        for channels in self.groups.values():
            for client, process in list(channels.client_loops.items()):
                process.stop()
                channels.client_loops[client] = Process(
                    self.sim,
                    self._client_loop(channels, client),
                    node=self,
                    name=f"{self.name}.client.{client}",
                )
        if self.cp is not None:
            self.cp.fetch_latest()

    def connect_group(self, group_id: str, member_nodes) -> None:
        """Create the IRMC pair towards an execution group (Fig. 2)."""
        if group_id in self.groups:
            return
        config = self.config
        request_cfg = IrmcConfig(fs=config.fe, fr=config.fa, capacity=REQUEST_CAPACITY)
        commit_cfg = IrmcConfig(fs=config.fa, fr=config.fe, capacity=config.commit_channel_capacity)
        sender_cls, receiver_cls = ENDPOINTS[config.irmc_kind]
        request_rx = receiver_cls(
            self, f"req-{group_id}", self.agreement_nodes, member_nodes, request_cfg
        )
        commit_tx = sender_cls(
            self, f"com-{group_id}", self.agreement_nodes, member_nodes, commit_cfg
        )
        channels = _GroupChannels(group_id, [n.name for n in member_nodes], request_rx, commit_tx)
        self.groups[group_id] = channels
        request_rx.on_new_subchannel = lambda client: self._start_client_loop(
            channels, client
        )
        request_rx.on_subchannel_retired = lambda client: self._retire_client_loop(
            channels, client
        )

    def disconnect_group(self, group_id: str) -> None:
        channels = self.groups.pop(group_id, None)
        if channels is not None:
            channels.close()

    def registry_snapshot(self) -> Tuple:
        return tuple(
            sorted((gid, ch.members) for gid, ch in self.groups.items())
        )

    # ------------------------------------------------------------------
    # Per-client request loops (Fig. 17 L. 13-22)
    # ------------------------------------------------------------------
    def _start_client_loop(self, channels: _GroupChannels, client: str) -> None:
        if client in channels.client_loops:
            return
        channels.client_loops[client] = Process(
            self.sim,
            self._client_loop(channels, client),
            node=self,
            name=f"{self.name}.client.{client}",
        )

    def _retire_client_loop(self, channels: _GroupChannels, client: str) -> None:
        """The client's session closed (fs+1-vouched subchannel retirement):
        stop its request loop and drop the local next-expected cursor.  The
        agreed counter book ``t`` stays — it is replicated state (part of
        checkpoint snapshots), and keeping it preserves duplicate filtering
        should a Byzantine group replay the retired client's old requests."""
        process = channels.client_loops.pop(client, None)
        if process is not None:
            process.stop()
        self.t_plus.pop(client, None)

    def _client_loop(self, channels: _GroupChannels, client: str):
        while channels.group_id in self.groups:
            position = self.t_plus.get(client, 1)
            result = yield channels.request_rx.receive(client, position)
            if isinstance(result, TooOld):
                # The client already moved on to a newer request.
                self.t_plus[client] = max(self.t_plus.get(client, 1), result.new_start)
            elif isinstance(result, RequestWrapper):
                self.ag.order(result)
                # Not ``t_plus + 1``: the agreed stream may have delivered
                # this very request (and bumped ``t_plus``) while our copy
                # was still in the channel; incrementing again would skip
                # the client's next request here for good.
                self.t_plus[client] = max(self.t_plus.get(client, 1), position + 1)

    # ------------------------------------------------------------------
    # Delivery loop (Fig. 17 L. 25-40)
    # ------------------------------------------------------------------
    def _delivery_loop(self):
        while True:
            seq, payload = yield self.ag.next_delivery()
            # "sleep until s <= max(win)" - periodic checkpoints gate how far
            # agreement may run ahead (Fig. 17 L. 27).
            while seq > self.win_upper:
                yield self._win_future
            if seq <= self.sn:
                continue  # skipped via checkpoint while we waited
            self.sn = seq
            executes = self._classify(seq, payload)
            self.delivered_count += 1
            self.requests_delivered += len(batch_items(payload))
            futures = []
            for group_id, channels in list(self.groups.items()):
                futures.append(channels.commit_tx.send(0, seq, executes[group_id]))
            if futures:
                # Global flow control: proceed once n_e - z channels accepted
                # the Execute (Section 3.5); stragglers continue in the
                # background and are skipped via window moves.
                needed = max(0, len(futures) - self.config.z)
                yield gather(futures, needed)
            if self.execute_locally:
                for item in batch_items(payload):
                    if isinstance(item, RequestWrapper):
                        self._execute_once(item)
            if seq % self.config.ka == 0:
                self.cp.gen_cp(seq, self._snapshot())

    def _classify(self, seq: int, payload: Any) -> Dict[str, Execute]:
        """Build the per-group Execute messages for one agreed payload.

        Every agreed item becomes one slot (:meth:`_slot`); a ``Batch``
        ships its slots as one batched ``Execute`` — the commit channel
        carries exactly one message per sequence number — and a lone value
        in the single-item form.  ``hist`` keeps the full Execute; what a
        group sees of it is :meth:`_variant_for_group`, live and on replay
        alike.
        """
        batched = isinstance(payload, Batch)
        full = Execute.of(
            seq, [self._slot(item, batched) for item in batch_items(payload)], batched
        )
        self.hist.append(full)
        executes: Dict[str, Execute] = {}
        for group_id in self.groups:
            variant = self._variant_for_group(full, group_id)
            # Groups that see equal slots share one object, hence one
            # memoised repr / digest / size.
            for seen in executes.values():
                if seen is variant or seen == variant:
                    variant = seen
                    break
            executes[group_id] = variant
        return executes

    def _slot(self, item: Any, batched: bool) -> Any:
        """Apply one agreed item to the books; the slot ``hist`` keeps for it.

        Reconfiguration commands, ``RetireClient`` and ``MoveRange`` are
        ``BATCHABLE = False``, but a faulty leader may batch one anyway,
        so every kind classifies the same way in either form.
        """
        if isinstance(item, RequestWrapper):
            body = item.body
            if body.counter <= self.t.get(body.client, 0):
                return NOOP_SLOT  # old or duplicate request (Fig. 17 L. 30)
            self.t[body.client] = body.counter
            self.t_plus[body.client] = max(body.counter + 1, self.t_plus.get(body.client, 1))
            return item
        if isinstance(item, RetireClient):
            # Every group's execution replicas must drop the client's
            # reply-cache entry at this same sequence number, so the
            # marker goes to all of them.
            return ("retire", item.client) if self._apply_client_retirement(item) else NOOP_SLOT
        if isinstance(item, MoveRange):
            # A handover phase is deliberately *not* filtered for
            # duplicates: a retried command (fresh nonce) must reach the
            # execution replicas again so they resend the phase ack —
            # re-application there is idempotent via the elastic book.
            # The marker strips the nonce, so hist replay reproduces
            # identical bytes.
            return item.marker() if self._accept_move_range(item) else NOOP_SLOT
        if isinstance(item, (AddGroup, RemoveGroup)) and self._apply_reconfiguration(item):
            # A batch keeps the *effective* command itself, so replay can
            # re-derive which slots a group it added saw; an ineffective
            # duplicate stays a plain no-op so replay backfills nothing
            # live delivery did not.  Alone on its sequence number there
            # is nothing to backfill.
            return item if batched else NOOP_SLOT
        return NOOP_SLOT

    def _variant_for_group(self, execute: Execute, group_id: str) -> Execute:
        """The form of a ``hist`` entry that ``group_id`` sees.

        Strong reads are shipped in full only to the client's home group
        (Section 3.3), everyone else gets a placeholder with the counter;
        a reconfiguration command is a no-op slot to every group; and a
        group added by the batch itself — correct leaders never batch
        those, a faulty one may — sees no-ops up to and including its
        ``AddGroup``.  Replaying any other bytes would make recovered
        senders vouch differently from normal-path senders for the same
        channel position.
        """
        full = execute.slots()
        slots = []
        for slot in full:
            if isinstance(slot, RequestWrapper):
                if slot.body.kind == STRONG_READ and slot.group != group_id:
                    slot = ("read", slot.body.client, slot.body.counter)
            elif isinstance(slot, (AddGroup, RemoveGroup)):
                if isinstance(slot, AddGroup) and slot.group == group_id:
                    slots = [NOOP_SLOT] * len(slots)
                slot = NOOP_SLOT
            slots.append(slot)
        slots = tuple(slots)
        if slots == full:
            return execute
        return Execute.of(execute.seq, slots, execute.batch is not None)

    # ------------------------------------------------------------------
    # Client retirement (agreed-book release)
    # ------------------------------------------------------------------
    def _apply_client_retirement(self, command: RetireClient) -> bool:
        """Apply an agreed client retirement; True iff it took effect.

        Authority is the client's own close signature, verified against
        the reconstructed :class:`CloseSession` content — whoever
        submitted the command is irrelevant.  A command whose pinned
        counter sits below the client's agreed frontier is stale (signed
        before requests that were later ordered) and classifies to a
        no-op, exactly like a duplicate request.

        An effective retirement drops the per-client agreement books that
        otherwise grow forever under session churn — the agreed-counter
        book ``t`` (and its checkpoint footprint), the next-expected
        cursor ``t+``, the 0E reply cache ``u`` — and retires the
        client's request-channel receiver books in every group (stopping
        the per-client loop and leaving the bounded tombstone that
        answers straggling senders with RetireEchoes).  All of this runs
        at the command's sequence number on every replica, so checkpoint
        snapshots stay in agreement.
        """
        close = CloseSession(client=command.client, counter=command.counter)
        if not verify(command.close_signature, close, signer=command.client):
            return False
        if command.counter < self.t.get(command.client, 0):
            return False
        self.t.pop(command.client, None)
        self.t_plus.pop(command.client, None)
        self.u.pop(command.client, None)
        for channels in self.groups.values():
            if not channels.request_rx.is_retired(command.client):
                channels.request_rx._retire_subchannel(command.client)
        if self.on_client_retired is not None:
            self.on_client_retired(command.client)
        return True

    def _accept_move_range(self, command: MoveRange) -> bool:
        """Deterministic validity check for an agreed handover phase.

        Authority is the coordinating admin's signature over the full
        command, verified identically at every replica when the command
        classifies (the submission-time check in ``_on_direct_message``
        is only a cheap pre-filter).  Range arithmetic is *not* checked
        here — the deploy-layer coordinator derives phases from a
        validated ``RangeMap.move`` and the execution-side book applies
        them idempotently, so agreement stays a pure ordering service
        for these commands, exactly as it is for AddGroup/RetireClient.
        """
        return command.admin in self.config.admins and verify(
            command.signature, command, signer=command.admin
        )

    # ------------------------------------------------------------------
    # Reconfiguration (Section 3.6)
    # ------------------------------------------------------------------
    def _apply_reconfiguration(self, command) -> bool:
        """Apply an agreed group-set change; True iff it changed anything."""
        changed = False
        if isinstance(command, AddGroup):
            if command.group in self.groups or self.resolve_nodes is None:
                return False
            members = self.resolve_nodes(command.members)
            if members is None:
                return False
            changed = True
            self.connect_group(command.group, members)
            channels = self.groups[command.group]
            # Tell the new group how far the system has progressed: anchor
            # its commit window at the oldest Execute hist can still replay
            # (everything older must come from an execution checkpoint of
            # another group), then replay hist into the fresh channel.
            start = self.hist[0].seq if self.hist else max(1, self.sn)
            channels.commit_tx.move_window(0, start)
            for execute in self.hist:
                channels.commit_tx.send(
                    0, execute.seq, self._variant_for_group(execute, command.group)
                )
        elif isinstance(command, RemoveGroup):
            changed = command.group in self.groups
            self.disconnect_group(command.group)
        if self.on_membership_change is not None:
            self.on_membership_change()
        return changed

    # ------------------------------------------------------------------
    # Direct messages: admin commands, registry queries, 0E clients
    # ------------------------------------------------------------------
    def _on_direct_message(self, src, message: Any) -> None:
        if isinstance(message, (AddGroup, RemoveGroup, MoveRange)):
            if message.admin not in self.config.admins or message.admin != src.name:
                return
            if not verify(message.signature, message, signer=message.admin):
                return
            self.ag.order(message)
        elif isinstance(message, RetireClient):
            # Escalated by execution replicas on CloseSession.  Accept
            # from anyone: the authority is the client signature inside,
            # checked now (cheap pre-filter) and again deterministically
            # when the agreed command classifies.
            close = CloseSession(client=message.client, counter=message.counter)
            if not verify(message.close_signature, close, signer=message.client):
                return
            if message.counter < self.t.get(message.client, 0):
                return
            self.ag.order(message)
        elif isinstance(message, RegistryQuery):
            self._answer_registry(src, message)
        elif isinstance(message, ClientRequest) and self.execute_locally:
            # Spider-0E: ``t`` is not touched here, the agreed stream owns it.
            wrapper = self._admit(src, message)
            if wrapper is not None:
                self.ag.order(wrapper)
        elif isinstance(message, WeakRead) and self.execute_locally:
            self._on_weak_read(src, message)
        elif isinstance(message, CloseSession) and self.execute_locally:
            # Spider-0E: no execution replicas exist to escalate, so the
            # client's close lands here directly; wrap it into the same
            # agreed RetireClient path (releases ``t``/``u``).
            if message.client != src.name:
                return
            if not verify_mac_vector(message.auth, message, message.client, self.name):
                return
            if message.counter < self.t.get(message.client, 0):
                return
            if not verify(message.signature, message, signer=message.client):
                return
            self.ag.order(
                RetireClient(
                    client=message.client,
                    counter=message.counter,
                    close_signature=message.signature,
                )
            )

    def _answer_registry(self, src, message: RegistryQuery) -> None:
        info = RegistryInfo(
            groups=self.registry_snapshot(), nonce=message.nonce, sender=self.name
        )
        info = attach_auth(info, signature=sign(self.name, info))
        self.send(src, info)

    # ------------------------------------------------------------------
    # Checkpoints (Fig. 17 L. 39-57)
    # ------------------------------------------------------------------
    def _snapshot(self) -> Tuple:
        state = (tuple(sorted(self.t.items())), tuple(self.hist))
        if self.execute_locally:
            state = state + (
                tuple(sorted(self.u.items())),
                self.app.snapshot() if self.app else None,
            )
        return state

    def _on_stable_checkpoint(self, seq: int, state: Tuple) -> None:
        t_items, hist_items = state[0], state[1]
        window_start = max(1, seq - len(hist_items) + 1)
        for channels in self.groups.values():
            channels.commit_tx.move_window(0, window_start)
        # A request the checkpoint's counters cover was delivered, even if
        # this replica skips its sequence number: stop waiting for it.
        counters = dict(t_items)
        self.ag.gc(
            seq + 1,
            settled=lambda item: isinstance(item, RequestWrapper)
            and item.body.counter <= counters.get(item.body.client, 0),
        )
        if seq > self.sn:
            old_sn = self.sn
            self.sn = seq
            self.t = dict(t_items)
            for client, counter in t_items:
                self.t_plus[client] = max(self.t_plus.get(client, 1), counter + 1)
            self.hist = deque(hist_items, maxlen=self.config.commit_channel_capacity)
            if self.execute_locally and len(state) >= 4:
                self.u = dict(state[2])
                if self.app is not None and state[3] is not None:
                    self.app.restore(state[3])
            # Replay the Executes we skipped into the commit channels
            # (Fig. 17 L. 52-56), in the per-group form normal delivery
            # would have sent (strong reads stay home-group-only).
            for group_id, channels in self.groups.items():
                for execute in hist_items:
                    if old_sn < execute.seq <= seq:
                        channels.commit_tx.send(
                            0, execute.seq, self._variant_for_group(execute, group_id)
                        )
        # Advance the agreement window past the new stable checkpoint.
        self.win_upper = seq + self.config.ag_window
        previous, self._win_future = self._win_future, SimFuture(name=f"{self.name}.win")
        previous.resolve(None)
