"""Epoch-versioned routing tables over the hashed keyspace.

A :class:`RangeMap` is the elastic replacement for the frozen
``crc32 mod N`` placement (a built cluster holds its current one as
``Cluster.range_map``): keys hash into a fixed *slot space* and a
sorted table of ``(range_start, shard_id)`` entries assigns every slot —
and therefore every key — to exactly one shard.  The table is
epoch-stamped; :meth:`RangeMap.move` derives the successor table of a
range handover, bumping the epoch by one.  Clients route by their cached
epoch and refresh when a shard answers with a newer table (the
``WrongShard`` redirect in :mod:`repro.elastic.messages`).

Slot space, not raw hash space
------------------------------
``crc32 mod N`` is *not* contiguous in crc32 space, so a table over raw
hash ranges could never reproduce the historical modulo placement.  The
map therefore hashes keys into ``slots = SLOTS_PER_SHARD * N`` slots and
the epoch-0 :meth:`modulo` table *stripes* them: slot ``s`` belongs to
``shard_ids[s % N]``.  Because ``N`` divides ``slots``,
``(crc32 % slots) % N == crc32 % N`` — the striped table is the modulo
partitioner, entry for entry, so single-epoch deployments stay
byte-identical to the pre-elastic system.  A ``MoveRange`` names a slot
interval ``[lo, hi)``; under striping a contiguous interval owned by one
shard is one slot wide, which keeps handover units small by construction.

Everything here is pure data + arithmetic: no simulator events, no wall
clock, no RNG — a map is a deterministic function of its construction
history, with a canonical fingerprint for parity checks.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, List, Tuple

from repro.errors import ConfigurationError

__all__ = ["SLOTS_PER_SHARD", "RangeMap", "slot_of"]

#: slot-space granularity: a fresh map has this many slots per shard.
#: The slot count is fixed for the life of a deployment (it is the hash
#: modulus clients and replicas agree on); 8 gives a 2-shard cluster 16
#: movable units — enough to rebalance in steps while keeping tables tiny.
SLOTS_PER_SHARD = 8


def slot_of(key: Any, slots: int) -> int:
    """The slot ``key`` hashes into (crc32, platform-stable)."""
    return zlib.crc32(str(key).encode("utf-8", errors="replace")) % slots


class RangeMap:
    """An immutable epoch-stamped slot-range -> shard routing table.

    ``entries`` is the canonical form: sorted by ``range_start``, first
    entry at slot 0, adjacent entries always owned by different shards
    (same-owner runs are merged on construction).  Equality of canonical
    forms is equality of routing functions, which makes
    :meth:`fingerprint` a sound identity for parity assertions.
    """

    __slots__ = ("slots", "epoch", "entries", "_starts", "_owners")

    def __init__(self, slots: int, entries, epoch: int = 0):
        if not isinstance(slots, int) or slots <= 0:
            raise ConfigurationError(f"slot count must be a positive int, got {slots!r}")
        if not isinstance(epoch, int) or epoch < 0:
            raise ConfigurationError(f"epoch must be a non-negative int, got {epoch!r}")
        parsed: List[Tuple[int, str]] = []
        for entry in entries:
            start, owner = entry
            if not isinstance(start, int) or not (0 <= start < slots):
                raise ConfigurationError(
                    f"range start {start!r} outside slot space [0, {slots})"
                )
            if not isinstance(owner, str) or not owner:
                raise ConfigurationError(f"shard id must be a non-empty str, got {owner!r}")
            parsed.append((start, owner))
        if not parsed:
            raise ConfigurationError("a range map needs at least one entry")
        parsed.sort(key=lambda pair: pair[0])
        if parsed[0][0] != 0:
            raise ConfigurationError(
                f"the first range must start at slot 0, got {parsed[0][0]}"
            )
        canonical: List[Tuple[int, str]] = []
        previous_start = -1  # checked pre-merge: a duplicate hidden
        for start, owner in parsed:  # behind a merged run must still die
            if start == previous_start:
                raise ConfigurationError(f"duplicate range start {start}")
            previous_start = start
            if canonical and canonical[-1][1] == owner:
                continue  # merge adjacent same-owner runs
            canonical.append((start, owner))
        self.slots = slots
        self.epoch = epoch
        self.entries: Tuple[Tuple[int, str], ...] = tuple(canonical)
        self._starts = [start for start, _ in self.entries]
        self._owners = [owner for _, owner in self.entries]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def modulo(cls, shard_ids, slots_per_shard: int = SLOTS_PER_SHARD) -> "RangeMap":
        """The epoch-0 striped table == the historical modulo partitioner.

        Slot ``s`` belongs to ``shard_ids[s % N]`` over ``N *
        slots_per_shard`` slots; since ``N`` divides the slot count this
        routes every key exactly where ``crc32 mod N`` always did (see
        module docs) — the byte-parity anchor for single-epoch runs.
        """
        ids = tuple(shard_ids)
        if not ids:
            raise ConfigurationError("partitioner needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate shard ids in {list(ids)}")
        slots = slots_per_shard * len(ids)
        entries = tuple((slot, ids[slot % len(ids)]) for slot in range(slots))
        return cls(slots, entries, epoch=0)

    @classmethod
    def from_wire(cls, wire) -> "RangeMap":
        """Rebuild a map from its :meth:`to_wire` tuple."""
        if not (isinstance(wire, tuple) and len(wire) == 4 and wire[0] == "range-map"):
            raise ConfigurationError(f"not a range-map wire form: {wire!r}")
        _tag, slots, epoch, entries = wire
        return cls(slots, tuple(tuple(entry) for entry in entries), epoch=epoch)

    def to_wire(self) -> Tuple:
        """A plain-tuple form safe to embed in messages and snapshots."""
        return ("range-map", self.slots, self.epoch, self.entries)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def owner_of_slot(self, slot: int) -> str:
        if not (0 <= slot < self.slots):
            raise ConfigurationError(f"slot {slot!r} outside [0, {self.slots})")
        return self._owners[bisect.bisect_right(self._starts, slot) - 1]

    def slot_of(self, key: Any) -> int:
        return slot_of(key, self.slots)

    def owner(self, key: Any) -> str:
        """The shard id owning ``key`` in this epoch."""
        return self.owner_of_slot(self.slot_of(key))

    def owners(self) -> Tuple[str, ...]:
        """All shard ids owning at least one slot, sorted."""
        return tuple(sorted(set(self._owners)))

    def keys_for(self, shard_id: str, count: int, prefix: str = "key-") -> List[str]:
        """``count`` generated keys owned by ``shard_id`` (workload helper)."""
        if shard_id not in self._owners:
            # Unknown, or a newcomer before its first MoveRange: owner()
            # never returns it, so the search below would spin forever.
            raise ConfigurationError(
                f"shard {shard_id!r} owns no slots in epoch {self.epoch}; "
                f"owners: {list(self.owners())}"
            )
        found: List[str] = []
        index = 0
        while len(found) < count:
            key = f"{prefix}{index}"
            if self.owner(key) == shard_id:
                found.append(key)
            index += 1
        return found

    def slots_of(self, shard_id: str) -> Tuple[int, ...]:
        """Every slot ``shard_id`` owns, ascending."""
        return tuple(
            slot for slot in range(self.slots) if self.owner_of_slot(slot) == shard_id
        )

    def ranges_of(self, shard_id: str) -> Tuple[Tuple[int, int], ...]:
        """``shard_id``'s owned slot intervals as ``(lo, hi)`` pairs."""
        ranges: List[Tuple[int, int]] = []
        for index, (start, owner) in enumerate(self.entries):
            if owner != shard_id:
                continue
            end = (
                self.entries[index + 1][0]
                if index + 1 < len(self.entries)
                else self.slots
            )
            ranges.append((start, end))
        return tuple(ranges)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def move(self, range_start: int, range_end: int, src_shard: str, dst_shard: str) -> "RangeMap":
        """The successor table after handing ``[range_start, range_end)``
        from ``src_shard`` to ``dst_shard`` (epoch + 1).

        Validates the declaration against *this* table: the interval must
        be non-empty, inside the slot space, and entirely owned by
        ``src_shard`` — a stale or overlapping declaration fails here,
        before any protocol message exists.
        """
        if not isinstance(range_start, int) or not isinstance(range_end, int):
            raise ConfigurationError(
                f"range bounds must be ints, got ({range_start!r}, {range_end!r})"
            )
        if not (0 <= range_start < range_end <= self.slots):
            raise ConfigurationError(
                f"range [{range_start}, {range_end}) outside slot space "
                f"[0, {self.slots})"
            )
        if not isinstance(dst_shard, str) or not dst_shard:
            raise ConfigurationError(f"dst shard must be a non-empty str, got {dst_shard!r}")
        if dst_shard == src_shard:
            raise ConfigurationError(f"move from {src_shard!r} to itself")
        for slot in range(range_start, range_end):
            owner = self.owner_of_slot(slot)
            if owner != src_shard:
                raise ConfigurationError(
                    f"slot {slot} belongs to {owner!r}, not {src_shard!r} "
                    f"(epoch {self.epoch})"
                )
        assignment = [self.owner_of_slot(slot) for slot in range(self.slots)]
        for slot in range(range_start, range_end):
            assignment[slot] = dst_shard
        entries = tuple((slot, owner) for slot, owner in enumerate(assignment))
        return RangeMap(self.slots, entries, epoch=self.epoch + 1)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> int:
        """Stable checksum of the canonical table (platform-independent)."""
        return zlib.crc32(
            repr(("range-map", self.slots, self.epoch, self.entries)).encode(
                "utf-8", errors="replace"
            )
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RangeMap)
            and self.slots == other.slots
            and self.epoch == other.epoch
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.slots, self.epoch, self.entries))

    def __repr__(self) -> str:
        return (
            f"RangeMap(slots={self.slots}, epoch={self.epoch}, "
            f"entries={self.entries!r})"
        )
