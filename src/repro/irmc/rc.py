"""IRMC with receiver-side collection (paper Section 4, Fig. 18).

Every sender endpoint signs and transmits its own copy of each message to
every receiver endpoint; a receiver delivers once it collected ``f_s + 1``
matching copies from distinct senders.  Simple and CPU-cheap on the sender
side (at most one signature per CPU task: the Sends a node's seal finds
registered leave as one signed :class:`SendsMsg`), but transfers
``senders x receivers`` copies over the WAN.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.crypto.primitives import digest, verify
from repro.irmc.base import BY_POSITION, Book, ReceiverEndpointBase, SenderEndpointBase
from repro.irmc.messages import MoveMsg, MovesMsg, RetireEcho, RetireMsg, SendMsg, SendsMsg


class RcSenderEndpoint(SenderEndpointBase):
    """Sender endpoint of an IRMC-RC."""

    def _transmit(self, subchannel: Any, position: int, payload: Any) -> None:
        self.node.seal_later(self._emit, (subchannel, position, payload))

    def _emit(self, entries: List[Tuple[Any, int, Any]]) -> Tuple:
        live = [
            (subchannel, position, payload, self._own_moves.get(subchannel, 0))
            for subchannel, position, payload in entries
            if position >= self.start_of(subchannel) and not self.is_retired(subchannel)
        ]
        if self.closed or not live:
            return ()
        if len(live) == 1:
            ((subchannel, position, payload, window),) = live
            body: Any = SendMsg(self.tag, subchannel, position, payload, self.node.name, window)
        else:
            body = SendsMsg(self.tag, tuple(live), self.node.name)
            self.bundles_sent += 1
            self.largest_bundle = max(self.largest_bundle, len(live))

        def publish(message: Any) -> None:
            for receiver in self.remote_group:
                self.send_msg(receiver, message)
            for subchannel, position, _payload, _window in live:
                self._buffer.setdefault(subchannel, {})[position] = message

        return ((body, publish),)

    def _retransmit(self, subchannel: Any, position: int, message: Any) -> None:
        # A bundle is buffered under every position it carried: re-offer
        # it from the first of them the window has not passed, only.
        if isinstance(message, SendsMsg):
            for first, at, _payload, _window in message.entries:
                if self._buffer.get(first, {}).get(at) is message:
                    if (first, at) != (subchannel, position):
                        return
                    break
        super()._retransmit(subchannel, position, message)

    def handle(self, src, message: Any) -> None:
        if self.closed:
            return
        if isinstance(message, (MoveMsg, MovesMsg)):
            self._on_receiver_move(message)
        elif isinstance(message, RetireEcho):
            self._on_retire_echo(message)


class RcReceiverEndpoint(ReceiverEndpointBase):
    """Receiver endpoint of an IRMC-RC."""

    # Evidence: a receiver whose *only* trace of a subchannel is partially
    # collected votes (below fs+1 after a loss window) must still accept
    # retirement vouchers, or they leak forever.
    BOOKS = ReceiverEndpointBase.BOOKS + (
        Book("_votes", BY_POSITION, evidence=True),
        Book("_payloads", BY_POSITION, evidence=True),
    )

    def __init__(self, node, tag, local_group, remote_group, config):
        super().__init__(node, tag, local_group, remote_group, config)
        #: subchannel -> position -> sender -> payload digest (votes)
        self._votes: Dict[Any, Dict[int, Dict[str, int]]] = {}
        #: first full payload seen per digest, for delivery
        self._payloads: Dict[Any, Dict[int, Dict[int, Any]]] = {}

    def handle(self, src, message: Any) -> None:
        if self.closed:
            return
        if isinstance(message, (SendMsg, SendsMsg)):
            self._on_send(message)
        elif isinstance(message, MovesMsg):
            self._on_sender_move(message)
        elif isinstance(message, RetireMsg):
            self._on_retire(message)

    def _on_send(self, message: Any) -> None:
        """A sender's Sends under one signature: a :class:`SendMsg`, or
        the :class:`SendsMsg` bundle of one seal — one vote path."""
        sender = message.sender
        if sender not in self.remote_names:
            return
        if isinstance(message, SendMsg):
            entries: Tuple = (
                (message.subchannel, message.position, message.payload, message.window),
            )
        else:
            entries = message.entries
        verified = False
        for subchannel, position, payload, window in entries:
            # A copy that can no longer matter — its position is delivered
            # already, or below the window — needs no authentication: the
            # surplus copies past the fs+1 quorum (a whole bundle of them,
            # too) cost no CPU.
            start = self.start_of(subchannel)
            delivered = self._delivered.get(subchannel)
            if position < start or (delivered is not None and position in delivered):
                continue
            # ``signer`` is pinned and already known to be a group member, so
            # the redundant ``group=`` membership re-check is omitted.
            if not verified:
                if not verify(message.signature, message, signer=sender):
                    return
                verified = True
            if window > start:
                self._note_sender_move(subchannel, sender, window)
            if not self.storable(subchannel, position):
                continue
            payload_digest = digest(payload)
            votes = self._votes.setdefault(subchannel, {}).setdefault(position, {})
            if sender in votes:
                continue  # only the first copy per sender counts
            votes[sender] = payload_digest
            payloads = self._payloads.setdefault(subchannel, {}).setdefault(position, {})
            payloads.setdefault(payload_digest, payload)
            matching = 0
            for vote_digest in votes.values():
                if vote_digest == payload_digest:
                    matching += 1
            if matching >= self.config.fs + 1:
                delivery = payloads[payload_digest]
                self._cleanup_position(subchannel, position)
                self._deliver(subchannel, position, delivery)

    def _cleanup_position(self, subchannel: Any, position: int) -> None:
        # The position is decided; an emptied per-subchannel dict goes
        # with it, as when the window passes it (``_drop_below``).
        for book in (self._votes, self._payloads):
            per_channel = book.get(subchannel)
            if per_channel is not None:
                per_channel.pop(position, None)
                if not per_channel:
                    del book[subchannel]
