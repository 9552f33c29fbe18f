"""Execution-side handover bookkeeping (the *elastic book*).

Each execution replica lazily allocates one :class:`ElasticBook` the
first time a ``MoveRange`` marker reaches its commit stream — replicas
in single-epoch deployments never allocate one, which keeps their
checkpoints (and therefore every historical fingerprint) byte-identical.

The book is **replicated deterministic state**: it is rebuilt by commit-
stream replay, carried inside checkpoint snapshots (a tagged tuple extra
— see ``ExecutionReplica._snapshot``), wiped with the rest of durable
state on a ``wipe`` fault, and recovered from the next stable
checkpoint.  It records, per slot range: *sealed* (mid-handover — shed
ordered writes with ``Migrating``), *dropped* (handover committed — shed
with ``WrongShard`` + the new table), and the per-phase ``done`` results
that make marker re-application a pure ack resend.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.elastic.messages import Migrating, WrongShard
from repro.elastic.rangemap import slot_of

__all__ = ["ElasticBook"]


class ElasticBook:
    """Sealed/dropped ranges plus phase-idempotence for one replica."""

    __slots__ = ("slots", "sealed", "dropped", "done")

    def __init__(self, slots: int):
        #: hash modulus the ranges are expressed in (fixed per deployment)
        self.slots = slots
        #: (lo, hi) -> (new_epoch, dst_shard): seal applied, commit not yet
        self.sealed: Dict[Tuple[int, int], Tuple[int, str]] = {}
        #: (lo, hi) -> (new_epoch, range_map_wire): commit applied
        self.dropped: Dict[Tuple[int, int], Tuple[int, Tuple]] = {}
        #: (phase, lo, hi, new_epoch) -> ack payload: replay => resend
        self.done: Dict[Tuple[str, int, int, int], Tuple] = {}

    def shed(self, operation):
        """The deterministic result for an ordered op hitting a sealed or
        dropped range, or ``None`` when the op should execute normally.

        Keyed ops are ``(opcode, key, ...)``; ops without a key (e.g.
        ``("size",)``) never shed — they are not range-addressable.
        """
        if not (isinstance(operation, tuple) and len(operation) > 1):
            return None
        slot = slot_of(operation[1], self.slots)
        for (lo, hi), (epoch, map_wire) in sorted(self.dropped.items()):
            if lo <= slot < hi:
                return WrongShard(epoch=epoch, range_map=map_wire)
        for (lo, hi), (epoch, dst) in sorted(self.sealed.items()):
            if lo <= slot < hi:
                return Migrating(dst_shard=dst, new_epoch=epoch)
        return None

    def uncover(self, lo: int, hi: int) -> None:
        """Stop shedding for ``[lo, hi)``: the range is being installed
        on this replica, so any sealed/dropped record overlapping it is
        stale here — narrow each to the part outside the installed
        interval (drop it entirely when nothing remains).  Without this,
        a range moved *back* to a shard that once dropped it would shed
        a ``WrongShard`` carrying the old table forever, and the session
        would chase the current owner — this very shard — in a loop.
        """
        for book in (self.sealed, self.dropped):
            overlapping = [r for r in book if r[0] < hi and lo < r[1]]
            for (rlo, rhi) in overlapping:
                value = book.pop((rlo, rhi))
                if rlo < lo:
                    book[(rlo, lo)] = value
                if hi < rhi:
                    book[(hi, rhi)] = value

    # ------------------------------------------------------------------
    # Checkpoint embedding
    # ------------------------------------------------------------------
    def to_wire(self) -> Tuple:
        """Canonical tagged tuple for checkpoint snapshots (sorted — the
        digest must not depend on insertion order)."""
        return (
            "elastic",
            self.slots,
            tuple(sorted(self.sealed.items())),
            tuple(sorted(self.dropped.items())),
            tuple(sorted(self.done.items())),
        )

    @classmethod
    def from_wire(cls, wire) -> "ElasticBook":
        _tag, slots, sealed, dropped, done = wire
        book = cls(slots)
        book.sealed = dict(sealed)
        book.dropped = dict(dropped)
        book.done = dict(done)
        return book

    @classmethod
    def is_wire(cls, value) -> bool:
        """Recognize a :meth:`to_wire` tuple among snapshot extras."""
        return (
            isinstance(value, tuple)
            and len(value) == 5
            and value[0] == "elastic"
        )

    def __repr__(self) -> str:
        return (
            f"ElasticBook(slots={self.slots}, sealed={self.sealed!r}, "
            f"dropped={self.dropped!r}, done={sorted(self.done)!r})"
        )
