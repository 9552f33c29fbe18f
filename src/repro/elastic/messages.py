"""Wire types for the live-resharding protocol.

Two kinds of artefact live here:

* **Ordered/authenticated messages** (:class:`MoveRange`,
  :class:`ElasticAck`) following the :mod:`repro.core.messages` idiom:
  frozen dataclasses whose ``signed_content`` pins every
  protocol-relevant field.  ``MoveRange`` travels the same path as the
  other reconfiguration commands (``AddGroup`` / ``RetireClient``):
  signed by the shard's admin, submitted to the agreement replicas,
  ordered into the commit stream, and applied by every execution replica
  as a deterministic marker.

* **Result values** (:class:`Migrating`, :class:`WrongShard`) — these
  are *not* messages.  They ride inside an ordinary ``Reply.result``
  exactly like ``Rejected`` does, so they flow through reply matching
  (``repr`` equality at fe+1 replicas), the reply cache, and checkpoint
  snapshots without any new machinery.  ``Migrating`` tells the client
  the key's range is sealed mid-handover (park and retry after the epoch
  bump); ``WrongShard`` carries the authoritative routing table so a
  stale client refreshes itself in one round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.primitives import Mac, Signature
from repro.net.message import Message

__all__ = ["MoveRange", "ElasticAck", "Migrating", "WrongShard"]


@dataclass(frozen=True)
class MoveRange(Message):
    """One phase of a range handover, ordered on a shard's agreed stream.

    The coordinator (the cluster's deploy layer, via the shard admins)
    submits three of these per handover — ``seal`` then ``install`` then
    ``commit`` — waiting for fe+1 matching :class:`ElasticAck`\\ s between
    phases.  ``seal``/``commit`` order on the *source* shard,
    ``install`` on the *destination*; each is idempotent at execution,
    so a retried command (fresh ``nonce``) merely re-emits the ack.

    ``items`` (install only) carries the range-filtered snapshot cut at
    the sealed frontier; ``range_map`` (commit only) carries the
    post-bump table the source hands to stale clients via
    :class:`WrongShard`.  Like the other reconfiguration commands this
    must be a batch of its own.
    """

    BATCHABLE = False

    range_start: int
    range_end: int
    src_shard: str
    dst_shard: str
    new_epoch: int
    slots: int
    phase: str  # "seal" | "install" | "commit"
    items: Tuple = ()
    range_map: Tuple = ()
    admin: str = ""
    nonce: int = 0
    signature: Optional[Signature] = field(default=None, compare=False)

    def signed_content(self):
        return (
            "move-range",
            self.range_start,
            self.range_end,
            self.src_shard,
            self.dst_shard,
            self.new_epoch,
            self.slots,
            self.phase,
            self.items,
            self.range_map,
            self.admin,
            self.nonce,
        )

    def marker(self) -> Tuple:
        """The deterministic commit-stream marker for this command.

        Deliberately excludes the ``nonce``: a retried command produces
        the *same* marker, which is what makes re-execution a pure ack
        resend at the replicas.
        """
        return (
            "move-range",
            self.phase,
            self.range_start,
            self.range_end,
            self.src_shard,
            self.dst_shard,
            self.new_epoch,
            self.slots,
            self.admin,
            self.items,
            self.range_map,
        )

    def payload_size(self) -> int:
        return 64 + 16 * len(self.items) + 8 * len(self.range_map)


@dataclass(frozen=True)
class ElasticAck(Message):
    """An execution replica's receipt for one applied handover phase.

    MAC'd point-to-point to the coordinating admin, who accepts a phase
    once fe+1 distinct replicas ack with a matching ``payload`` (the
    deterministic product of applying the marker — e.g. the sealed-range
    snapshot for ``seal``).  ``repr`` comparison mirrors how replies are
    matched at clients.
    """

    phase: str
    range_start: int
    range_end: int
    new_epoch: int
    payload: Tuple
    sender: str
    mac: Optional[Mac] = field(default=None, compare=False)

    def signed_content(self):
        return (
            "elastic-ack",
            self.phase,
            self.range_start,
            self.range_end,
            self.new_epoch,
            repr(self.payload),
            self.sender,
        )

    def payload_size(self) -> int:
        return 40 + 8 * len(self.payload)


@dataclass(frozen=True)
class Migrating:
    """Result value: the key's range is sealed, mid-handover.

    The op was ordered but deliberately not executed; the session parks
    it until its cached epoch reaches ``new_epoch`` and resubmits to the
    destination shard.
    """

    dst_shard: str
    new_epoch: int


@dataclass(frozen=True)
class WrongShard:
    """Result value: this shard no longer owns the key's range.

    Carries the authoritative post-handover table (a
    ``RangeMap.to_wire()`` tuple) so one redirect both refreshes the
    client's cached epoch and names the new owner.
    """

    epoch: int
    range_map: Tuple
