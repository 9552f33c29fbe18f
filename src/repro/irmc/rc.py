"""IRMC with receiver-side collection (paper Section 4, Fig. 18).

Every sender endpoint signs and transmits its own copy of each message to
every receiver endpoint; a receiver delivers once it collected ``f_s + 1``
matching copies from distinct senders.  Simple and CPU-cheap on the sender
side (one signature per message), but transfers ``senders x receivers``
copies over the WAN.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.crypto.primitives import attach_auth, digest, sign, verify
from repro.irmc.base import IrmcConfig, ReceiverEndpointBase, SenderEndpointBase
from repro.irmc.messages import MoveMsg, MovesMsg, RetireEcho, RetireMsg, SendMsg


class RcSenderEndpoint(SenderEndpointBase):
    """Sender endpoint of an IRMC-RC."""

    def _transmit(self, subchannel: Any, position: int, payload: Any) -> SendMsg:
        body = SendMsg(
            tag=self.tag,
            subchannel=subchannel,
            position=position,
            payload=payload,
            sender=self.node.name,
            window=self._own_moves.get(subchannel, 0),
        )
        message = attach_auth(body, signature=sign(self.node.name, body))
        for receiver in self.remote_group:
            self.send_msg(receiver, message)
        return message

    def handle(self, src, message: Any) -> None:
        if self.closed:
            return
        if isinstance(message, MoveMsg):
            self._on_receiver_move(message)
        elif isinstance(message, RetireEcho):
            self._on_retire_echo(message)


class RcReceiverEndpoint(ReceiverEndpointBase):
    """Receiver endpoint of an IRMC-RC."""

    def __init__(self, node, tag, local_group, remote_group, config):
        super().__init__(node, tag, local_group, remote_group, config)
        #: subchannel -> position -> sender -> payload digest (votes)
        self._votes: Dict[Any, Dict[int, Dict[str, int]]] = {}
        #: first full payload seen per digest, for delivery
        self._payloads: Dict[Any, Dict[int, Dict[int, Any]]] = {}

    def _on_node_wipe(self) -> None:
        super()._on_node_wipe()
        self._votes.clear()
        self._payloads.clear()

    def handle(self, src, message: Any) -> None:
        if self.closed:
            return
        if isinstance(message, SendMsg):
            self._on_send(message)
        elif isinstance(message, MovesMsg):
            self._on_sender_move(message)
        elif isinstance(message, RetireMsg):
            self._on_retire(message)

    def _on_send(self, message: SendMsg) -> None:
        sender = message.sender
        if sender not in self.remote_names:
            return
        subchannel, position = message.subchannel, message.position
        # A copy that can no longer matter — its position is delivered
        # already, or below the window — needs no authentication: the
        # surplus copies past the fs+1 quorum cost no CPU.
        start = self.start_of(subchannel)
        delivered = self._delivered.get(subchannel)
        if position < start or (delivered is not None and position in delivered):
            return
        # ``signer`` is pinned and already known to be a group member, so the
        # redundant ``group=`` membership re-check is omitted.
        if not verify(message.signature, message, signer=sender):
            return
        if message.window > start:
            self._note_sender_move(subchannel, sender, message.window)
        if not self.storable(subchannel, position):
            return
        payload_digest = digest(message.payload)
        votes = self._votes.setdefault(subchannel, {}).setdefault(position, {})
        if sender in votes:
            return  # only the first copy per sender counts
        votes[sender] = payload_digest
        payloads = self._payloads.setdefault(subchannel, {}).setdefault(position, {})
        payloads.setdefault(payload_digest, message.payload)
        matching = 0
        for vote_digest in votes.values():
            if vote_digest == payload_digest:
                matching += 1
        if matching >= self.config.fs + 1:
            payload = payloads[payload_digest]
            self._cleanup_position(subchannel, position)
            self._deliver(subchannel, position, payload)

    def _cleanup_position(self, subchannel: Any, position: int) -> None:
        # Empty per-subchannel books are dropped outright: subchannels are
        # client identities, so over a long run retired ones would
        # otherwise accumulate empty dicts without bound.
        for book in (self._votes, self._payloads):
            per_channel = book.get(subchannel)
            if per_channel is not None:
                per_channel.pop(position, None)
                if not per_channel:
                    del book[subchannel]

    def _purge_below(self, subchannel: Any, position: int) -> None:
        for book in (self._votes, self._payloads):
            per_channel = book.get(subchannel)
            if per_channel is not None:
                for old in [p for p in per_channel if p < position]:
                    del per_channel[old]
                if not per_channel:
                    del book[subchannel]

    def _retire_local(self, subchannel: Any) -> None:
        self._votes.pop(subchannel, None)
        self._payloads.pop(subchannel, None)

    def _has_retire_state(self, subchannel: Any) -> bool:
        return subchannel in self._votes or subchannel in self._payloads


def make_rc_channel(tag, sender_nodes, receiver_nodes, config: IrmcConfig):
    """Instantiate RC endpoints on every sender and receiver node.

    Returns ``(senders, receivers)`` — dicts keyed by node name.
    """
    senders = {
        node.name: RcSenderEndpoint(node, tag, sender_nodes, receiver_nodes, config)
        for node in sender_nodes
    }
    receivers = {
        node.name: RcReceiverEndpoint(node, tag, receiver_nodes, sender_nodes, config)
        for node in receiver_nodes
    }
    return senders, receivers
