"""Simulated protocol messages.

Messages carry an explicit wire-size estimate so the network can model
bandwidth effects and so experiments can account WAN/LAN transfer volume
(paper Fig. 9d).  Subclasses of :class:`Message` override
:meth:`~Message.payload_size`.  The base class lives in
:mod:`repro.crypto.primitives`, because a message's ``repr`` is what the
crypto layer authenticates and every message is sealed once built.
"""

from __future__ import annotations

from repro.crypto.primitives import Message

__all__ = ["Message", "Payload"]


class Payload(Message):
    """An opaque payload of ``size`` bytes, useful for load generators."""

    def __init__(self, size: int, label: str = "payload"):
        self.size = int(size)
        self.label = label

    def payload_size(self) -> int:
        return self.size

    def __repr__(self) -> str:
        # The wire form: IRMC senders sign it on every Send.
        return f"<Payload {self.label} {self.size}B>"
