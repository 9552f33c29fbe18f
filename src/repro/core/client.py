"""Spider clients (paper Fig. 15) and the privileged admin client."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import (
    STRONG_READ,
    WRITE,
    AddGroup,
    ClientRequest,
    CloseSession,
    RegistryInfo,
    RegistryQuery,
    RemoveGroup,
    Reply,
    RequestBody,
    WeakRead,
    WeakReadReply,
)
from repro.crypto.primitives import attach_auth, make_mac_vector, sign, verify, verify_mac
from repro.elastic.messages import ElasticAck, MoveRange
from repro.sim.futures import SimFuture
from repro.sim.node import Node


def _tally(replies: Dict[str, Any], sender: str, vote: Any) -> int:
    """Record ``sender``'s authenticated vote; how many senders so far
    voted the same.  Only a sender's first vote counts (a later one
    scores 0), so f faulty replicas never contribute more than f."""
    if sender in replies:
        return 0
    replies[sender] = vote
    return list(replies.values()).count(vote)


class SpiderClient(Node):
    """A client bound to (typically) its nearest execution group.

    The public entry points — :meth:`write`, :meth:`strong_read`,
    :meth:`weak_read` — return a :class:`SimFuture` resolving with the
    accepted result once ``f_e + 1`` matching replies arrived from distinct
    replicas of the target execution group.  Requests are retried until
    answered (Fig. 15 L. 11-13).
    """

    def __init__(self, sim, name, site, group_id, group_nodes, fe=1, retry_ms=4000.0):
        super().__init__(sim, name, site)
        self.group_id = group_id
        self.group_nodes = list(group_nodes)
        self.fe = fe
        self.retry_ms = retry_ms

        self.counter = 0  # t_c: strictly increasing request counter
        self.nonce = 0  # weak-read nonce (independent of t_c)
        self.closed = False
        #: optional callback fired once the close fully completes (all
        #: CloseSession announcements sent, no weak reads outstanding) —
        #: sessions use it to release the client object (network
        #: registration, builder dictionaries).
        self.on_closed = None
        self._open_announcements = 0
        self._close_finished = False
        #: groups this client previously targeted via switch_group — the
        #: session close must retire its subchannel on those too.
        self._former_groups: Dict[str, list] = {}
        self._pending: Optional[dict] = None
        self._weak_pending: Dict[int, dict] = {}
        self.completed: List[Tuple[str, float, float]] = []  # (kind, start, latency)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def write(self, operation: Tuple) -> SimFuture:
        """Submit a state-modifying operation with linearizable semantics."""
        return self._submit(operation, WRITE)

    def strong_read(self, operation: Tuple) -> SimFuture:
        """Submit a read that is totally ordered with all writes."""
        return self._submit(operation, STRONG_READ)

    def weak_read(self, operation: Tuple, fallback_after: int = 0) -> SimFuture:
        """Read directly from the local execution group (may be stale).

        Concurrent writes can leave the client with fewer than ``f_e + 1``
        matching replies; per Section 3.3 clients then retry, or — when
        ``fallback_after`` retries have failed — upgrade to a strongly
        consistent read, which is guaranteed to produce a stable result.
        ``fallback_after=0`` disables the upgrade (retry forever).
        """
        return self._direct_read(
            operation, self.fe + 1, "weak-read", fallback_after=fallback_after
        )

    def quorum_read(self, operation: Tuple, threshold: int) -> SimFuture:
        """Read-only fast path with a caller-chosen reply quorum.

        With ``threshold = 2f + 1`` this is the classic PBFT optimized
        (linearizable in the absence of concurrent writes) read used by the
        BFT baseline's strongly consistent reads.
        """
        return self._direct_read(operation, threshold, "quorum-read")

    def _direct_read(
        self, operation: Tuple, threshold: int, label: str, fallback_after: int = 0
    ) -> SimFuture:
        if self.closed:
            raise RuntimeError(f"client {self.name} is closed")
        self.nonce += 1
        future = SimFuture(name=f"{self.name}.{label}#{self.nonce}")
        state = {
            "future": future,
            "replies": {},
            "start": self.sim.now,
            "operation": operation,
            "nonce": self.nonce,
            "threshold": threshold,
            "label": label,
            "fallback_after": fallback_after,
            "attempts": 0,
        }
        self._weak_pending[self.nonce] = state
        self.run_task(self._send_weak, state)
        return future

    #: CloseSession transmissions per close (the message is re-announced
    #: ``retry_ms`` apart so replicas that were crashed or cut off during
    #: one transmission still learn of the retirement; processing is
    #: idempotent on every hop).
    CLOSE_ANNOUNCEMENTS = 3

    def close_session(self) -> None:
        """Retire this client's request subchannel (session close).

        Sent once the caller has no request in flight: the execution
        replicas drop the client's request-channel books and propagate
        the retirement to the agreement group (which stops the
        per-client loop), so churning clients leave no per-client window
        state behind.  The announcement repeats a bounded number of
        times so a replica that was down or partitioned for one
        transmission still retires (and still contributes its fs+1
        retirement voucher) when a later one lands.  The client name
        must not be reused afterwards — duplicate filtering remembers
        the old counters.
        """
        if self._pending is not None and not self._pending["future"].done:
            raise RuntimeError(
                f"client {self.name} cannot close with request "
                f"#{self.counter} in flight"
            )
        if self.closed:
            return
        self.closed = True
        body = CloseSession(client=self.name, counter=self.counter)
        signature = sign(self.name, body)  # group-independent: sign once
        # Every group this client ever targeted holds per-client channel
        # books — the current one and any it switched away from.
        targets = dict(self._former_groups)
        targets[self.group_id] = self.group_nodes
        self._open_announcements = len(targets)
        for nodes in targets.values():
            group_names = [node.name for node in nodes]
            message = attach_auth(
                body,
                signature=signature,
                auth=make_mac_vector(self.name, group_names, body),
            )
            self._announce_close(message, list(nodes), self.CLOSE_ANNOUNCEMENTS)

    def _announce_close(self, message, nodes, remaining: int) -> None:
        for replica in nodes:
            self.send(replica, message)
        if remaining > 1:
            self.after(
                self.retry_ms, self._announce_close, message, nodes, remaining - 1
            )
        else:
            self._open_announcements -= 1
            self._maybe_finish_close()

    def _maybe_finish_close(self) -> None:
        """Fire ``on_closed`` once the close fully completed: the last
        announcement went out on every group chain and no weak read is
        still retrying (replies to those must keep reaching us)."""
        if (
            self.closed
            and not self._close_finished
            and self._open_announcements == 0
            and not self._weak_pending
        ):
            self._close_finished = True
            if self.on_closed is not None:
                self.on_closed(self)

    def switch_group(self, group_id, group_nodes) -> None:
        """Direct requests at a different execution group (used when a
        group fails or is removed, or a closer one appears, Section 3.1).

        A request currently in flight is re-submitted to the new group
        under its existing counter; whichever group completes it first
        produces the accepted reply (duplicate filtering makes this safe).
        """
        if group_id != self.group_id:
            self._former_groups[self.group_id] = self.group_nodes
            self._former_groups.pop(group_id, None)
        self.group_id = group_id
        self.group_nodes = list(group_nodes)
        if self._pending is not None and not self._pending["future"].done:
            self._pending["replies"].clear()
            if self._pending.get("retry") is not None:
                self._pending["retry"].cancel()
            self.run_task(self._send_request)

    # ------------------------------------------------------------------
    # Write / strong-read path
    # ------------------------------------------------------------------
    def _submit(self, operation: Tuple, kind: str) -> SimFuture:
        if self.closed:
            # A write after close would silently re-open the retired
            # subchannel (the replicas' duplicate filters were cleared)
            # with nothing left to ever retire it again.
            raise RuntimeError(f"client {self.name} is closed")
        if self._pending is not None:
            raise RuntimeError(
                f"client {self.name} already has request #{self.counter} in flight"
            )
        self.counter += 1
        future = SimFuture(name=f"{self.name}.req#{self.counter}")
        self._pending = {
            "future": future,
            "counter": self.counter,
            "replies": {},
            "start": self.sim.now,
            "kind": kind,
            "operation": operation,
            "retry": None,
        }
        self.run_task(self._send_request)
        return future

    def _send_request(self) -> None:
        pending = self._pending
        if pending is None or pending["future"].done:
            return
        body = RequestBody(
            operation=pending["operation"],
            client=self.name,
            counter=pending["counter"],
            kind=pending["kind"],
        )
        group_names = [node.name for node in self.group_nodes]
        request = ClientRequest(
            body=body,
            signature=sign(self.name, body),
            auth=make_mac_vector(self.name, group_names, body),
            group=self.group_id,
        )
        for replica in self.group_nodes:
            self.send(replica, request)
        pending["retry"] = self.after(self.retry_ms, self._send_request)

    def _send_weak(self, state) -> None:
        if state["future"].done:
            return
        state["attempts"] += 1
        fallback_after = state.get("fallback_after", 0)
        if fallback_after and state["attempts"] > fallback_after:
            self._upgrade_to_strong_read(state)
            return
        # Fresh attempt: stale replies from older rounds must not be mixed
        # with newer ones (replicas may have applied writes in between).
        state["replies"].clear()
        group_names = [node.name for node in self.group_nodes]
        message = WeakRead(
            operation=state["operation"], client=self.name, nonce=state["nonce"]
        )
        message = attach_auth(
            message, auth=make_mac_vector(self.name, group_names, message)
        )
        for replica in self.group_nodes:
            self.send(replica, message)
        state["retry"] = self.after(self.retry_ms, self._send_weak, state)

    def _upgrade_to_strong_read(self, state) -> None:
        """The weak read kept stalling: order it instead (Section 3.3)."""
        if self._pending is not None or self.closed:
            # A write is already in flight (one-outstanding-request
            # discipline), or the session closed while the read was still
            # retrying — its retired subchannel cannot order anything, but
            # replicas still answer weak reads, so keep retrying weakly
            # (the state stays registered so weak replies can resolve it).
            state["retry"] = self.after(self.retry_ms, self._send_weak, state)
            state["attempts"] = 0
            return
        self._weak_pending.pop(state["nonce"], None)
        strong = self.strong_read(state["operation"])
        strong.add_callback(lambda result: state["future"].try_resolve(result))

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def on_message(self, src: Node, message: Any) -> None:
        if isinstance(message, Reply):
            self._on_reply(src, message)
        elif isinstance(message, WeakReadReply):
            self._on_weak_reply(src, message)

    def _on_reply(self, src: Node, message: Reply) -> None:
        pending = self._pending
        if pending is None or message.counter != pending["counter"]:
            return
        if not verify_mac(message.mac, message, src.name, self.name):
            return
        if _tally(pending["replies"], src.name, repr(message.result)) >= self.fe + 1:
            self._complete(pending, message.result)

    def _complete(self, pending, result) -> None:
        if pending["retry"] is not None:
            pending["retry"].cancel()
        latency = self.sim.now - pending["start"]
        self.completed.append((pending["kind"], pending["start"], latency))
        self._pending = None
        pending["future"].resolve(result)

    def _on_weak_reply(self, src: Node, message: WeakReadReply) -> None:
        state = self._weak_pending.get(message.nonce)
        if state is None or state["future"].done:
            return
        if not verify_mac(message.mac, message, src.name, self.name):
            return
        matching = _tally(state["replies"], src.name, repr(message.result))
        if matching >= state.get("threshold", self.fe + 1):
            if state.get("retry") is not None:
                state["retry"].cancel()
            latency = self.sim.now - state["start"]
            self.completed.append((state.get("label", "weak-read"), state["start"], latency))
            del self._weak_pending[message.nonce]
            state["future"].resolve(message.result)
            if self.closed:
                self._maybe_finish_close()


class AdminClient(Node):
    """The privileged client that reconfigures the system (Section 3.6).

    Reconfiguration commands are signed and submitted directly to the
    agreement group, which orders them through consensus before acting.
    """

    def __init__(self, sim, name, site, agreement_nodes, fa=1):
        super().__init__(sim, name, site)
        self.agreement_nodes = list(agreement_nodes)
        self.fa = fa
        self.nonce = 0
        self._registry_waiters: Dict[int, dict] = {}
        #: in-flight MoveRange phases awaiting execution-replica acks,
        #: keyed by (phase, range_start, range_end, new_epoch).
        self._elastic_waiters: Dict[Tuple, dict] = {}

    def add_group(self, group_id: str, member_names) -> None:
        """Submit ``<AddGroup, e, E>``."""
        self.nonce += 1
        body = AddGroup(
            group=group_id,
            members=tuple(member_names),
            admin=self.name,
            nonce=self.nonce,
        )
        message = attach_auth(body, signature=sign(self.name, body))
        self.run_task(self._broadcast, message)

    def remove_group(self, group_id: str) -> None:
        """Submit ``<RemoveGroup, e>``."""
        self.nonce += 1
        body = RemoveGroup(group=group_id, admin=self.name, nonce=self.nonce)
        message = attach_auth(body, signature=sign(self.name, body))
        self.run_task(self._broadcast, message)

    def move_range(
        self,
        *,
        range_start: int,
        range_end: int,
        src_shard: str,
        dst_shard: str,
        new_epoch: int,
        slots: int,
        phase: str,
        threshold: int,
        items: Tuple = (),
        range_map: Tuple = (),
        retry_ms: float = 4000.0,
    ) -> SimFuture:
        """Submit one ``MoveRange`` phase and await ``threshold`` acks.

        The returned future resolves with the replicated ack payload
        once ``threshold`` (fe+1) distinct execution replicas reported
        the same result of applying the phase.  Unlike the fire-and-
        forget group commands this *retries*: each attempt signs a fresh
        nonce, so the retry is a new command to the ordering layer
        (identical bytes would be swallowed by its payload cache) while
        the execution-side book makes re-application a pure ack resend —
        that pairing is what rides out crashed replicas and partitions
        in the middle of a handover.
        """
        key = (phase, range_start, range_end, new_epoch)
        future = SimFuture(name=f"{self.name}.move#{phase}:{range_start}-{range_end}")
        self._elastic_waiters[key] = {
            "future": future,
            "replies": {},
            "threshold": threshold,
        }

        def attempt() -> None:
            if future.done:
                self._elastic_waiters.pop(key, None)
                return
            self.nonce += 1
            body = MoveRange(
                range_start=range_start,
                range_end=range_end,
                src_shard=src_shard,
                dst_shard=dst_shard,
                new_epoch=new_epoch,
                slots=slots,
                phase=phase,
                items=items,
                range_map=range_map,
                admin=self.name,
                nonce=self.nonce,
            )
            message = attach_auth(body, signature=sign(self.name, body))
            self._broadcast(message)
            self.after(retry_ms, attempt)

        self.run_task(attempt)
        return future

    def _on_elastic_ack(self, src: Node, message: ElasticAck) -> None:
        key = (message.phase, message.range_start, message.range_end, message.new_epoch)
        state = self._elastic_waiters.get(key)
        if state is None or state["future"].done:
            return
        if message.sender != src.name:
            return
        if not verify_mac(message.mac, message, src.name, self.name):
            return
        if _tally(state["replies"], src.name, repr(message.payload)) >= state["threshold"]:
            del self._elastic_waiters[key]
            state["future"].resolve(message.payload)

    def query_registry(self) -> SimFuture:
        """Fetch the execution-replica registry (f_a+1 matching answers)."""
        self.nonce += 1
        future = SimFuture(name=f"{self.name}.registry#{self.nonce}")
        self._registry_waiters[self.nonce] = {"future": future, "replies": {}}
        self.run_task(self._broadcast, RegistryQuery(client=self.name, nonce=self.nonce))
        return future

    def _broadcast(self, message) -> None:
        for node in self.agreement_nodes:
            self.send(node, message)

    def on_message(self, src: Node, message: Any) -> None:
        if isinstance(message, ElasticAck):
            self._on_elastic_ack(src, message)
            return
        if not isinstance(message, RegistryInfo):
            return
        state = self._registry_waiters.get(message.nonce)
        if state is None or state["future"].done:
            return
        if not verify(message.signature, message, signer=src.name):
            return
        if _tally(state["replies"], src.name, message.groups) >= self.fa + 1:
            del self._registry_waiters[message.nonce]
            state["future"].resolve(dict(message.groups))
