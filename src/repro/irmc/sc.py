"""IRMC with sender-side collection (paper Section 4, Figs. 19-20).

Senders exchange signature shares inside their (LAN-local) group; one
sender per receiver — its *collector* — assembles ``f_s + 1`` matching
shares into a certificate and forwards a single WAN message per receiver.
Receivers detect failed collectors through periodic Progress messages and
switch collectors with Select messages.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.primitives import attach_auth, digest, sign, verify
from repro.irmc.base import (
    BY_KEY,
    BY_POSITION,
    BY_SUBCHANNEL,
    Book,
    ReceiverEndpointBase,
    SenderEndpointBase,
)
from repro.irmc.messages import (
    CertificateMsg,
    MoveMsg,
    MovesMsg,
    ProgressMsg,
    RetireEcho,
    RetireMsg,
    SelectMsg,
    SigShare,
)
from repro.sim.node import Timer


class ScSenderEndpoint(SenderEndpointBase):
    """Sender endpoint of an IRMC-SC (collector pattern)."""

    BOOKS = SenderEndpointBase.BOOKS + (
        Book("_pending", BY_KEY),
        Book("_shares", BY_KEY),
        Book("_bundles", BY_POSITION),
        Book("_collector", BY_SUBCHANNEL),
    )

    def __init__(self, node, tag, local_group, remote_group, config):
        super().__init__(node, tag, local_group, remote_group, config)
        #: (subchannel, position) -> (payload, payload digest) awaiting shares
        self._pending: Dict[Tuple[Any, int], Tuple[Any, int]] = {}
        #: (subchannel, position) -> sender -> SigShare
        self._shares: Dict[Tuple[Any, int], Dict[str, SigShare]] = {}
        #: subchannel -> position -> CertificateMsg (assembled bundles)
        self._bundles: Dict[Any, Dict[int, CertificateMsg]] = {}
        #: subchannel -> receiver name -> chosen collector name
        self._collector: Dict[Any, Dict[str, str]] = {}
        self._last_progress: Tuple = ()
        self._every(config.progress_interval_ms, self._send_progress)

    # ------------------------------------------------------------------
    # Collector bookkeeping
    # ------------------------------------------------------------------
    def collector_for(self, subchannel: Any, receiver: str) -> str:
        return self._collector.get(subchannel, {}).get(receiver, self.local_names[0])

    def _set_collector(self, subchannel: Any, receiver: str, collector: str) -> None:
        previous = self.collector_for(subchannel, receiver)
        self._collector.setdefault(subchannel, {})[receiver] = collector
        if collector == self.node.name and previous != self.node.name:
            # Newly responsible: push all queued bundles for this receiver.
            receiver_node = self._node_by_name(receiver)
            if receiver_node is not None:
                for bundle in self._bundles.get(subchannel, {}).values():
                    self.send_msg(receiver_node, bundle)

    def _node_by_name(self, name: str):
        for node in self.remote_group:
            if node.name == name:
                return node
        return None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _transmit(self, subchannel: Any, position: int, payload: Any) -> None:
        payload_digest = digest(payload)
        self._pending[(subchannel, position)] = (payload, payload_digest)
        self.node.seal_later(self._emit, (subchannel, position, payload_digest))

    def _emit(self, entries: List[Tuple[Any, int, int]]) -> List[Tuple[SigShare, Any]]:
        # One share per position (shares must match across senders), all
        # of them — and whatever else this node emits — under one RSA
        # operation.
        if self.closed:
            return []
        return [
            (
                SigShare(
                    tag=self.tag,
                    subchannel=subchannel,
                    position=position,
                    payload_digest=payload_digest,
                    sender=self.node.name,
                    window=self._own_moves.get(subchannel, 0),
                ),
                self._publish,
            )
            for subchannel, position, payload_digest in entries
            if position >= self.start_of(subchannel) and not self.is_retired(subchannel)
        ]

    def _publish(self, share: SigShare) -> None:
        # The share is also processed locally (Fig. 19 L. 12-13).
        self.broadcast(self.local_group, share, include_self=True)
        self._buffer.setdefault(share.subchannel, {})[share.position] = share

    def _on_share(self, message: SigShare) -> None:
        if message.sender not in self.local_names:
            return
        if not verify(message.signature, message, signer=message.sender):
            return
        if not self.storable(message.subchannel, message.position):
            return  # RC's ``_on_send`` rule: retired, passed, or past the flood cap
        key = (message.subchannel, message.position)
        shares = self._shares.setdefault(key, {})
        if message.sender in shares:
            return  # only the first share per sender counts (Fig. 19 L. 17)
        shares[message.sender] = message
        self._try_assemble(key)

    def _try_assemble(self, key: Tuple[Any, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        subchannel, position = key
        if position in self._bundles.get(subchannel, {}):
            return
        payload, payload_digest = pending
        matching = [
            share
            for share in self._shares.get(key, {}).values()
            if share.payload_digest == payload_digest
        ]
        if len(matching) < self.config.fs + 1:
            return
        shares = tuple(matching[: self.config.fs + 1])
        body = CertificateMsg(
            tag=self.tag,
            subchannel=subchannel,
            position=position,
            payload=payload,
            shares=shares,
            sender=self.node.name,
        )
        bundle = attach_auth(body, signature=sign(self.node.name, body))
        self._bundles.setdefault(subchannel, {})[position] = bundle
        for receiver in self.remote_group:
            if self.collector_for(subchannel, receiver.name) == self.node.name:
                self.send_msg(receiver, bundle)

    def _retransmit(self, subchannel: Any, position: int, share: SigShare) -> None:
        bundle = self._bundles.get(subchannel, {}).get(position)
        if bundle is not None:
            # Certificate already assembled: just re-offer it to the
            # receivers that chose us as their collector.
            for receiver in self.remote_group:
                if self.collector_for(subchannel, receiver.name) == self.node.name:
                    self.send_msg(receiver, bundle)
        else:
            # Still short of fs+1 shares: re-offer ours to the peers.
            self.broadcast(self.local_group, share)

    # ------------------------------------------------------------------
    # Progress heartbeat (Fig. 19 L. 26-30)
    # ------------------------------------------------------------------
    def _send_progress(self) -> None:
        positions: List[Tuple[Any, int]] = []
        for subchannel, bundles in self._bundles.items():
            start = self.start_of(subchannel)
            highest = start - 1
            while (highest + 1) in bundles:
                highest += 1
            if highest >= start:
                positions.append((subchannel, highest))
        frozen = tuple(sorted(positions, key=repr))
        # Suppress heartbeats that carry no news; receivers only need
        # Progress to detect collectors withholding *existing* certificates.
        if frozen and frozen != self._last_progress:
            self._last_progress = frozen
            message = self._authenticated(
                ProgressMsg(tag=self.tag, positions=frozen, sender=self.node.name)
            )
            for receiver in self.remote_group:
                self.send_msg(receiver, message)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, src, message: Any) -> None:
        if self.closed:
            return
        if isinstance(message, SigShare):
            self._on_share(message)
        elif isinstance(message, (MoveMsg, MovesMsg)):
            self._on_receiver_move(message)
        elif isinstance(message, SelectMsg):
            self._on_select(message)
        elif isinstance(message, RetireEcho):
            self._on_retire_echo(message)

    def _note_collector(self, subchannel: Any, receiver: str, collector: Optional[str]) -> None:
        if collector is not None:
            self._set_collector(subchannel, receiver, collector)

    def _on_select(self, message: SelectMsg) -> None:
        if not self._from_remote_group(message):
            return
        # Only for a subchannel we know (a receiver's choice also rides on
        # its every Move: a sender with no state yet learns it there).
        if message.collector in self.local_names and self.holds(message.subchannel):
            self._set_collector(message.subchannel, message.sender, message.collector)

    def _on_node_wipe(self) -> None:
        super()._on_node_wipe()
        self._last_progress = ()


class ScReceiverEndpoint(ReceiverEndpointBase):
    """Receiver endpoint of an IRMC-SC."""

    BOOKS = ReceiverEndpointBase.BOOKS + (
        Book("_peer_progress", BY_SUBCHANNEL, evidence=True),
        Book("_merged_progress", BY_SUBCHANNEL, evidence=True),
        Book("_collector_index", BY_SUBCHANNEL, evidence=True),
        Book("_timers", BY_SUBCHANNEL, evidence=True),
    )

    def __init__(self, node, tag, local_group, remote_group, config):
        super().__init__(node, tag, local_group, remote_group, config)
        #: subchannel -> sender -> claimed certified position
        self._peer_progress: Dict[Any, Dict[str, int]] = {}
        #: subchannel -> merged (fs+1-highest) progress
        self._merged_progress: Dict[Any, int] = {}
        #: subchannel -> index of current collector in the sender group
        self._collector_index: Dict[Any, int] = {}
        #: subchannel -> its collector watchdog
        self._timers: Dict[Any, Timer] = {}
        self.collector_switches = 0

    # ------------------------------------------------------------------
    def _collector_for(self, subchannel: Any) -> Optional[str]:
        index = self._collector_index.get(subchannel, 0)
        return self.remote_names[index % len(self.remote_names)]

    def handle(self, src, message: Any) -> None:
        if self.closed:
            return
        if isinstance(message, CertificateMsg):
            self._on_certificate(message)
        elif isinstance(message, ProgressMsg):
            self._on_progress(message)
        elif isinstance(message, MovesMsg):
            self._on_sender_move(message)
        elif isinstance(message, RetireMsg):
            self._on_retire(message)

    def _on_certificate(self, message: CertificateMsg) -> None:
        if message.sender not in self.remote_names:
            return
        subchannel, position = message.subchannel, message.position
        # As in RC: a certificate that can no longer matter is dropped
        # before any signature is checked.
        start = self.start_of(subchannel)
        if position < start or position in self._delivered.get(subchannel, {}):
            return
        if not verify(message.signature, message, signer=message.sender):
            return
        payload_digest = digest(message.payload)
        signers = set()
        for share in message.shares:
            # A share vouches for one (channel, subchannel, position) only:
            # replayed under another certificate it must neither deliver
            # the payload there nor move that subchannel's window.
            if (share.tag, share.subchannel, share.position) != (self.tag, subchannel, position):
                return
            if share.payload_digest != payload_digest:
                return
            if share.sender not in self.remote_names or share.sender in signers:
                return
            if not verify(share.signature, share, signer=share.sender):
                return
            signers.add(share.sender)
        if len(signers) < self.config.fs + 1:
            return
        for share in message.shares:
            if share.window > start:
                self._note_sender_move(subchannel, share.sender, share.window)
        if self.storable(subchannel, position):
            self._deliver(subchannel, position, message.payload)

    # ------------------------------------------------------------------
    # Collector failover (Fig. 20 L. 20-35)
    # ------------------------------------------------------------------
    def _on_progress(self, message: ProgressMsg) -> None:
        if not self._from_remote_group(message):
            return
        for subchannel, position in message.positions:
            if self.is_retired(subchannel):
                continue  # a straggler's claim must regrow no book
            claimed = self._peer_progress.setdefault(subchannel, {})
            claimed[message.sender] = max(claimed.get(message.sender, 0), position)
            claims = sorted((claimed.get(name, 0) for name in self.remote_names), reverse=True)
            merged = claims[self.config.fs] if len(claims) > self.config.fs else 0
            self._merged_progress[subchannel] = merged
            if self._has_missing(subchannel) and subchannel not in self._timers:
                self._watch(subchannel)

    def _has_missing(self, subchannel: Any) -> bool:
        merged = self._merged_progress.get(subchannel, 0)
        start = self.start_of(subchannel)
        delivered = self._delivered.get(subchannel, {})
        return any(p not in delivered for p in range(start, merged + 1))

    def _watch(self, subchannel: Any) -> None:
        self._timers[subchannel] = self.node.after(
            self.config.collector_timeout_ms, self._on_collector_timeout, subchannel
        )

    def _on_collector_timeout(self, subchannel: Any) -> None:
        self._timers.pop(subchannel, None)
        if self.closed or not self._has_missing(subchannel):
            return
        self._collector_index[subchannel] = self._collector_index.get(subchannel, 0) + 1
        self.collector_switches += 1
        collector = self._collector_for(subchannel)
        select = self._authenticated(
            SelectMsg(
                tag=self.tag,
                subchannel=subchannel,
                collector=collector,
                sender=self.node.name,
            )
        )
        for sender in self.remote_group:
            self.node.send(sender, select)
        self._watch(subchannel)  # keep watching until the gap closes

    def _drop_subchannel(self, subchannel: Any) -> Dict[str, Any]:
        dropped = super()._drop_subchannel(subchannel)
        if "_timers" in dropped:
            dropped["_timers"].cancel()
        return dropped

    def _stop_watching(self) -> None:
        # Cancelled before any walk that forgets the handles.
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    def close(self) -> None:
        self._stop_watching()
        super().close()

    def _on_node_wipe(self) -> None:
        self._stop_watching()
        super()._on_node_wipe()

    def _on_node_recover(self) -> None:
        """Rebuild the collector watchdogs lost with the crash.

        A watchdog whose callback was dropped with the CPU queue stays in
        ``_timers`` and would otherwise suppress re-arming for that
        subchannel forever, leaving collector failover dead.
        """
        if self.closed:
            return
        super()._on_node_recover()
        self._stop_watching()
        for subchannel in list(self._merged_progress):
            if self._has_missing(subchannel):
                self._watch(subchannel)

