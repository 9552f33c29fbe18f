"""Rebalancing plans: composing ``MoveRange``\\ s into bigger gestures.

:func:`split_moves` is the planner behind ``Cluster.split_shard``: given
the current routing table and a newcomer shard id, it names the slot
ranges whose handover brings the newcomer from zero to an equal share of
the keyspace.  :func:`validate_moves` is the declarative face of the
same arithmetic — :func:`repro.chaos.chaos_case` replays a case's
``moves`` knob through it so malformed plans (overlapping ranges,
unknown shards, epoch regressions) die at lookup time, before any node
exists.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.elastic.rangemap import RangeMap
from repro.errors import ConfigurationError

__all__ = ["split_moves", "validate_moves"]


def split_moves(range_map: RangeMap, new_shard: str) -> List[Tuple[int, int, str]]:
    """The ``(lo, hi, src)`` handovers giving ``new_shard`` an equal slice.

    The plan takes the *prefix* of the slot space: after the moves,
    ``new_shard`` owns slots ``[0, slots // n_after)`` where ``n_after``
    counts owners including the newcomer.  Ranges are maximal contiguous
    same-owner runs, so each entry is exactly one ``MoveRange`` handover;
    slots the newcomer already owns are skipped.  Deterministic in the
    table alone.
    """
    if not isinstance(new_shard, str) or not new_shard:
        raise ConfigurationError(f"new shard must be a non-empty str, got {new_shard!r}")
    owners = range_map.owners()
    n_after = len(owners) + (0 if new_shard in owners else 1)
    target = range_map.slots // n_after
    moves: List[Tuple[int, int, str]] = []
    run_start: int = 0
    run_owner = None
    for slot in range(target):
        owner = range_map.owner_of_slot(slot)
        if owner == new_shard:
            owner = None  # already the newcomer's; close any open run
        if owner != run_owner:
            if run_owner is not None:
                moves.append((run_start, slot, run_owner))
            run_start, run_owner = slot, owner
    if run_owner is not None:
        moves.append((run_start, target, run_owner))
    return moves


def validate_moves(shard_ids, moves, slots_per_shard=None) -> RangeMap:
    """Replay a declarative move list against the epoch-0 table.

    ``moves`` is a sequence of ``(lo, hi, src, dst, epoch)`` tuples, the
    ``moves`` knob of a chaos case.  Each is checked against the table the
    previous moves produced: the range must be wholly owned by ``src``
    (catching overlap and not-owned declarations in one stroke), ``src``
    and ``dst`` must be known shards, and ``epoch`` must be exactly the
    successor of the previous table's epoch — regressions and skips are
    rejected.  Returns the final table; raises
    :class:`~repro.errors.ConfigurationError` on the first bad move.
    """
    if slots_per_shard is None:
        replay = RangeMap.modulo(shard_ids)
    else:
        replay = RangeMap.modulo(shard_ids, slots_per_shard=slots_per_shard)
    known = set(replay.owners())
    for index, entry in enumerate(moves):
        entry = tuple(entry)
        if len(entry) != 5:
            raise ConfigurationError(
                f"move #{index}: expected (lo, hi, src, dst, epoch), got {entry!r}"
            )
        lo, hi, src, dst, epoch = entry
        if src not in known:
            raise ConfigurationError(f"move #{index}: unknown src shard {src!r}")
        if dst not in known:
            raise ConfigurationError(f"move #{index}: unknown dst shard {dst!r}")
        if epoch != replay.epoch + 1:
            raise ConfigurationError(
                f"move #{index}: epoch {epoch!r} is not the successor of "
                f"epoch {replay.epoch} (regressions/skips are rejected)"
            )
        replay = replay.move(lo, hi, src, dst)
    return replay
