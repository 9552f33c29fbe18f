"""Spider execution replicas (paper Figs. 5 and 16).

An execution replica validates client requests, forwards them to the
agreement group through the request channel, processes the totally ordered
``Execute`` stream from the commit channel, answers weakly consistent reads
locally, and checkpoints its state every ``k_e`` agreed requests.

When the consensus leader batched concurrent requests (any
``SpiderConfig.batch_size > 1``, the default) one ``Execute`` per sequence
number carries a whole batch; the replica applies its items strictly in
order — emitting one per-client ``Reply`` per contained request — and
advances the checkpoint counter by the batch length, so checkpoint
frequency tracks executed requests rather than sequence numbers.  With
``batch_size=1`` this degenerates to the paper's
every-``k_e``-sequence-numbers rule.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.app.statemachine import StateMachine
from repro.checkpoints import CheckpointComponent
from repro.core.answering import ClientFacing
from repro.core.config import REQUEST_CAPACITY, SpiderConfig
from repro.core.messages import (
    ClientRequest,
    CloseSession,
    Execute,
    RequestWrapper,
    RetireClient,
    WeakRead,
)
from repro.crypto.primitives import attach_auth, make_mac, verify, verify_mac_vector
from repro.elastic.book import ElasticBook
from repro.elastic.messages import ElasticAck
from repro.elastic.rangemap import slot_of
from repro.irmc import ENDPOINTS, IrmcConfig, TooOld
from repro.sim.process import Process, sleep
from repro.sim.routing import RoutedNode


#: How long the main loop waits for a fetched checkpoint before it asks
#: the commit channel again (ms).
FETCH_RETRY_MS = 50.0


class ExecutionReplica(ClientFacing, RoutedNode):
    """One member of an execution group.

    Lifecycle: construct, then :meth:`setup` once the group membership and
    the agreement group are known; the main loop starts immediately.

    Of the shared client-facing surface it uses the weak-read and reply
    pair.  Request intake (:meth:`_on_request`) and ordered execution
    (:meth:`_apply_request`) stay its own: a retired subchannel, the
    placeholder entries other groups' strong reads leave in ``u``, the
    re-offer of a lost forward and elastic shedding exist nowhere else.
    """

    def __init__(self, sim, name, site, group_id: str, app: StateMachine, config: SpiderConfig):
        super().__init__(sim, name, site)
        self.group_id = self.reply_group = group_id
        self.app = app
        self.config = config

        self._boot()
        self.group_nodes = []
        self.agreement_nodes = []
        self.request_tx = None  # request-channel sender endpoint
        self.commit_rx = None  # commit-channel receiver endpoint
        self.cp: Optional[CheckpointComponent] = None
        self._main: Optional[Process] = None
        self.checkpoints_applied = 0

        self.set_default_handler(self._on_client_message)

    PLACEHOLDER = "__placeholder__"

    def _boot(self) -> None:
        """The execution bookkeeping before the first Execute.  Run by
        ``__init__`` and the wipe hook, so the two cannot drift apart."""
        self.sn = 0  # sequence number of last processed Execute
        self.t: Dict[str, int] = {}  # latest forwarded counter per client
        #: reply cache: client -> (counter, result | PLACEHOLDER); bounded
        #: under churn by agreed :class:`RetireClient` commands — the
        #: ordered stream pops a retired client's entry at the same
        #: sequence number on every replica, keeping it checkpoint-safe.
        self.u: Dict[str, Tuple[int, Any]] = {}
        #: agreed requests processed since the last own checkpoint; batched
        #: Executes advance this by their batch length (docstring above).
        self._ops_since_cp = 0
        #: range-handover bookkeeping (sealed/dropped ranges, phase acks);
        #: allocated lazily by the first MoveRange marker so single-epoch
        #: deployments keep their historical checkpoint format bit-for-bit.
        self.elastic: Optional[ElasticBook] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def setup(self, group_nodes, agreement_nodes) -> None:
        """Create IRMC endpoints and the checkpoint component, start loops."""
        self.group_nodes = list(group_nodes)
        self.agreement_nodes = list(agreement_nodes)
        config = self.config
        request_cfg = IrmcConfig(fs=config.fe, fr=config.fa, capacity=REQUEST_CAPACITY)
        commit_cfg = IrmcConfig(fs=config.fa, fr=config.fe, capacity=config.commit_channel_capacity)
        sender_cls, receiver_cls = ENDPOINTS[config.irmc_kind]
        self.request_tx = sender_cls(
            self, f"req-{self.group_id}", group_nodes, agreement_nodes, request_cfg
        )
        # Whatever retires the request subchannel — CloseSession, an agreed
        # RetireClient from the commit stream, or fr+1 receiver RetireEchoes
        # after this replica slept through the close — the forwarded-counter
        # book must go with it, or ``t`` leaks one entry per churned client.
        self.request_tx.on_subchannel_retired = lambda client: self.t.pop(client, None)
        self.commit_rx = receiver_cls(
            self, f"com-{self.group_id}", group_nodes, agreement_nodes, commit_cfg
        )
        # All execution groups share one checkpoint routing tag so that a
        # trailing group can fetch stable checkpoints from *other* groups
        # (Section 3.5); certificates remain group-scoped via signatures.
        self.cp = CheckpointComponent(
            self,
            "cp-exec",
            group_nodes,
            config.fe,
            self._on_stable_checkpoint,
            state_size_fn=self._checkpoint_size,
        )
        self._main = Process(self.sim, self._main_loop(), node=self, name=f"{self.name}.main")
        self.add_recovery_hook(self._boot_after_recovery)
        #: the application's genesis state, for rebooting after disk loss
        self._pristine_app = self.app.snapshot()
        self.add_wipe_hook(self._on_node_wipe)

    def _on_node_wipe(self) -> None:
        """Durable-state loss: reboot with genesis application state.

        Runs synchronously inside ``node.recover()`` before the recovery
        hooks.  The checkpoint store and IRMC endpoints wipe themselves;
        this hook resets the execution bookkeeping and rolls the
        application back to its pristine snapshot.  The recovery boot's
        ``fetch_latest`` then performs a full checkpoint install
        (``seq >= sn == 0``) and the main loop replays the remaining
        commit-channel suffix on top.
        """
        self._boot()
        self.app.restore(self._pristine_app)

    def _boot_after_recovery(self) -> None:
        """Respawn the driver process and catch up from a stable checkpoint.

        A crash takes the main loop's in-flight resumption with it; the
        old :class:`Process` is stopped (it may still hold a live
        continuation if the crash window fell between resumptions) and a
        fresh one started at the preserved ``sn``.  The boot fetch pulls
        the group's newest stable checkpoint in case the commit-channel
        window moved past us while we were down — the main loop's
        ``TooOld`` handling then lands on the transferred state instead of
        spinning.
        """
        if self._main is not None:
            self._main.stop()
        self._main = Process(self.sim, self._main_loop(), node=self, name=f"{self.name}.main")
        if self.cp is not None:
            self.cp.fetch_latest()

    def set_checkpoint_providers(self, providers) -> None:
        """Nodes (possibly in other groups) to query for missed checkpoints."""
        if self.cp is not None:
            self.cp.providers = list(providers)

    # ------------------------------------------------------------------
    # Client-facing handlers (Fig. 16 L. 8-22)
    # ------------------------------------------------------------------
    def _on_client_message(self, src, message: Any) -> None:
        if isinstance(message, ClientRequest):
            self._on_request(src, message)
        elif isinstance(message, WeakRead):
            self._on_weak_read(src, message)
        elif isinstance(message, CloseSession):
            self._on_close_session(src, message)

    def _on_request(self, src, message: ClientRequest) -> None:
        body = message.body
        if body.client != src.name:
            return
        if self.request_tx.is_retired(body.client):
            # The session retired; even a valid straggler must not touch
            # the request channel again (it would re-grow retired books)
            # nor re-seed ``t``/``u`` for a name everyone else released.
            return
        if not verify_mac_vector(message.auth, body, body.client, self.name):
            return
        cached = self.u.get(body.client)
        if body.counter <= self.t.get(body.client, 0):
            if cached is not None and cached[0] == body.counter and cached[1] is not self.PLACEHOLDER:
                self._send_reply(body.client, cached[0], cached[1])
            elif body.counter == self.t.get(body.client, 0):
                # Retry for the latest request with no result yet: re-offer
                # it to the request channel (idempotent there) in case the
                # original forward was lost on the wide-area link.
                if verify(message.signature, body, signer=body.client):
                    wrapper = RequestWrapper(
                        body=body, signature=message.signature, group=self.group_id
                    )
                    self.request_tx.send(body.client, body.counter, wrapper)
            return
        if not verify(message.signature, body, signer=body.client):
            return
        self.t[body.client] = body.counter
        wrapper = RequestWrapper(
            body=body, signature=message.signature, group=self.group_id
        )
        # The window move to ``counter`` rides on the Send itself.
        self.request_tx.send(body.client, body.counter, wrapper, window=body.counter)

    def _on_close_session(self, src, message: CloseSession) -> None:
        """Retire a closing client's request subchannel.

        The forwarded-counter book ``t`` is dropped too (it is replica
        local — unlike the reply cache ``u``, which is part of the
        checkpointed state and only shrinks deterministically, via the
        ordered stream).  A stale CloseSession (counter below the
        client's forwarded frontier) is ignored: it was signed before
        requests that are still live.  The close is then *escalated*: the
        replica submits a :class:`RetireClient` command (carrying the
        client's close signature as its authority) to the agreement
        group, so the agreement-side per-client books — ``t``/``t+``,
        reply caches, receiver channel books — retire too once it is
        ordered.  Every replica in the group escalates the same command;
        the ordering layer deduplicates the identical payloads.
        """
        if message.client != src.name:
            return
        if not verify_mac_vector(message.auth, message, message.client, self.name):
            return
        if message.counter < self.t.get(message.client, 0):
            return
        if not verify(message.signature, message, signer=message.client):
            return
        self.request_tx.retire_subchannel(message.client)
        self.t.pop(message.client, None)
        command = RetireClient(
            client=message.client,
            counter=message.counter,
            close_signature=message.signature,
        )
        for agreement_node in self.agreement_nodes:
            self.send(agreement_node, command)

    # ------------------------------------------------------------------
    # Main loop (Fig. 16 L. 24-40)
    # ------------------------------------------------------------------
    def _main_loop(self):
        while True:
            result = yield self.commit_rx.receive(0, self.sn + 1)
            if isinstance(result, TooOld):
                # We missed Executes: find a stable checkpoint, possibly in
                # another group (Section 3.5), then retry.
                self.cp.fetch_cp(self.sn + 1)
                yield sleep(FETCH_RETRY_MS)
                continue
            self._process_execute(result)

    def _process_execute(self, execute: Execute) -> None:
        self.sn += 1
        slots = execute.slots()
        for slot in slots:
            if isinstance(slot, RequestWrapper):
                self._apply_request(slot)
            else:
                self._apply_placeholder(slot)
        self._ops_since_cp += max(1, len(slots))  # an empty batch still counts
        if self._ops_since_cp >= self.config.ke:
            # Carry the overflow so a batch straddling the boundary doesn't
            # stretch the cadence; a batch longer than 2*ke collapses its
            # crossings into this one checkpoint (only one is possible per
            # sequence number anyway) rather than storming on the next ones.
            self._ops_since_cp %= self.config.ke
            self.cp.gen_cp(self.sn, self._snapshot())

    def _apply_placeholder(self, placeholder: Tuple) -> None:
        if placeholder and placeholder[0] == "read":
            # Strong read handled by another group: remember the counter so
            # duplicate filtering stays consistent (paper Section 3.3).
            _, client, counter = placeholder
            cached = self.u.get(client)
            if cached is None or cached[0] < counter:
                self.u[client] = (counter, self.PLACEHOLDER)
        elif placeholder and placeholder[0] == "retire":
            # Agreed client retirement: drop the reply-cache and counter
            # books at the same sequence number as every other replica
            # (the pop is part of the checkpointed-state evolution), and
            # retire the request subchannel — a no-op where CloseSession
            # already did it, the healing path for a replica that was down
            # across the whole close and is catching up via this stream.
            _, client = placeholder
            self.u.pop(client, None)
            self.t.pop(client, None)
            self.request_tx.retire_subchannel(client)
        elif placeholder and placeholder[0] == "move-range":
            self._apply_move_range(placeholder)

    def _apply_move_range(self, marker: Tuple) -> None:
        """Apply one agreed handover phase (elastic keyspace).

        The marker is identical on every replica of every group of the
        shard (it rides the ordered stream like client retirement), so
        the book mutations and the ack payload are replicated
        deterministic state.  Re-application — a retried command ordered
        a second time, or replay after recovery — hits the ``done`` book
        and degenerates to an ack resend, which is exactly the liveness
        a coordinator that missed the first round of acks needs.
        """
        (_tag, phase, lo, hi, _src, dst, new_epoch, slots, admin, items, map_wire) = marker
        if self.elastic is None:
            self.elastic = ElasticBook(slots)
        book = self.elastic
        done_key = (phase, lo, hi, new_epoch)
        payload = book.done.get(done_key)
        if payload is None:
            if phase == "seal":
                # Freeze the range at this point of the agreed stream:
                # later ordered writes to it shed ``Migrating`` results,
                # so the exported cut is the sealed frontier exactly.
                book.sealed[(lo, hi)] = (new_epoch, dst)
                payload = ("sealed", self.app.export_keys(self._keys_in_range(lo, hi, slots)))
            elif phase == "install":
                # A shard can re-acquire a range it handed away earlier:
                # clear any stale sealed/dropped cover first, or every
                # ordered op on the returned range would shed forever.
                book.uncover(lo, hi)
                self.app.import_keys(items)
                payload = ("installed", len(items))
            elif phase == "commit":
                keys = self._keys_in_range(lo, hi, slots)
                self.app.drop_keys(keys)
                book.sealed.pop((lo, hi), None)
                book.dropped[(lo, hi)] = (new_epoch, map_wire)
                payload = ("dropped", len(keys))
            else:
                payload = ("unknown-phase", phase)
            book.done[done_key] = payload
        ack = ElasticAck(
            phase=phase,
            range_start=lo,
            range_end=hi,
            new_epoch=new_epoch,
            payload=payload,
            sender=self.name,
        )
        target = self.network.nodes.get(admin) if self.network else None
        if target is not None:
            ack = attach_auth(ack, mac=make_mac(self.name, admin, ack))
            self.send(target, ack)

    def _keys_in_range(self, lo: int, hi: int, slots: int) -> Tuple:
        """The application keys hashing into slot range ``[lo, hi)``.

        Recomputed from live state at the marker's stream position — no
        new in-range key can appear between seal and commit because
        sealed writes shed instead of executing, so this is stable even
        for a replica that adopted a checkpoint between the two phases.
        """
        return tuple(
            key for key in self.app.owned_keys() if lo <= slot_of(key, slots) < hi
        )

    def _apply_request(self, wrapper: RequestWrapper) -> None:
        body = wrapper.body
        client, counter = body.client, body.counter
        cached = self.u.get(client)
        if cached is not None and cached[0] >= counter:
            result = None if cached[0] > counter else cached[1]
        else:
            # Ordered op against a sealed/dropped range sheds a redirect
            # result instead of executing — same reply/cache path, so
            # exactly-once dedup still covers it, but application state
            # is untouched (the op re-executes at the new owner).
            shed = self.elastic.shed(body.operation) if self.elastic is not None else None
            if shed is not None:
                result = shed
            else:
                result = self.app.execute(body.operation)
                self.executed_count += 1
            self.u[client] = (counter, result)
            self.t[client] = max(self.t.get(client, 0), counter)
        if wrapper.group == self.group_id and result is not None and result is not self.PLACEHOLDER:
            self._send_reply(client, counter, result)

    # ------------------------------------------------------------------
    # Checkpoints (Fig. 16 L. 39-48)
    # ------------------------------------------------------------------
    def _snapshot(self) -> Tuple:
        state = (tuple(sorted(self.u.items())), self.app.snapshot())
        if self._ops_since_cp:
            # The residual request count past the last ke boundary is part
            # of the replicated state: replicas adopting this checkpoint
            # must continue the cadence at the same point or the group
            # drifts onto different gen_cp sequence numbers (stability
            # needs fe+1 matching votes at the *same* seq).  Appended only
            # when nonzero — it is identical at every replica generating
            # the same seq, and always zero at batch_size=1, keeping those
            # snapshots byte-identical to the pre-batching format.
            state = state + (self._ops_since_cp,)
        if self.elastic is not None:
            # Same only-when-present rule as above: deployments that never
            # saw a MoveRange keep the historical snapshot shape.  The
            # tagged tuple is type-distinguishable from the int extra, so
            # restore parses extras by shape, not position.
            state = state + (self.elastic.to_wire(),)
        return state

    def _checkpoint_size(self, state) -> int:
        reply_cache = state[0]
        return 64 * max(1, len(reply_cache)) + self.app.state_size_bytes()

    def _on_stable_checkpoint(self, seq: int, state: Tuple) -> None:
        self.commit_rx.move_window(0, seq + 1)
        if seq >= self.sn:
            reply_cache, app_state = state[0], state[1]
            self.sn = seq
            self.u = dict(reply_cache)
            self.app.restore(app_state)
            self.checkpoints_applied += 1
            # Extras are parsed by shape: the residual-ops counter is an
            # int, the elastic book a tagged tuple; either may be absent.
            # Both are *replaced*, not merged — they are checkpointed
            # state, and a full install must not keep stale local books.
            self._ops_since_cp = 0
            elastic = None
            for extra in state[2:]:
                if isinstance(extra, int):
                    self._ops_since_cp = extra
                elif ElasticBook.is_wire(extra):
                    elastic = ElasticBook.from_wire(extra)
            self.elastic = elastic
