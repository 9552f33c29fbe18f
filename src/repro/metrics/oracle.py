"""The equivalence oracle for changes that elide simulator events.

Bit-parity (same event count, same heap order) forbids removing any
event, so it cannot gate a change whose whole point is to do fewer of
them.  The contract such a change owes instead is that nothing a user of
the *simulated* system can observe moves: every client gets the same
replies at the same simulated instants, every latency sample is
identical, and every replica applied the same operations in the same
order.  Event counts, message counts and host time are free to move.

An *observation* is a plain mapping; :func:`sim_equivalent` compares the
three keys in :data:`ORACLE_KEYS` and ignores every other key, so callers
can keep ``events`` / ``wall_s`` next to the pinned data.
:func:`sim_fingerprint` is the one-number form the committed
``BENCH_*.json`` files carry.
"""

from __future__ import annotations

import zlib
from typing import Any, List, Mapping

#: ``replies``: per-client completion traces; ``latencies``: simulated
#: latency samples; ``journals``: per-replica applied-operation logs.
ORACLE_KEYS = ("replies", "latencies", "journals")


def sim_fingerprint(obj: Any) -> int:
    """Stable checksum of simulated results, for cross-commit parity."""
    return zlib.crc32(repr(obj).encode("utf-8", errors="replace"))


def _first_difference(left: Any, right: Any) -> str:
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        for index, (mine, theirs) in enumerate(zip(left, right)):
            if mine != theirs:
                return f"entry {index}: {mine!r} != {theirs!r}"
        return f"length {len(left)} != {len(right)}"
    return f"{left!r} != {right!r}"


def sim_equivalent(a: Mapping[str, Any], b: Mapping[str, Any]) -> List[str]:
    """Where two runs' observations differ under the oracle.

    Returns one line per differing trace (empty list: equivalent), naming
    the first entry that moved so a same-timestamp tie can be traced to
    its cause.
    """
    differences: List[str] = []
    for key in ORACLE_KEYS:
        left, right = a.get(key), b.get(key)
        if left == right:
            continue
        if isinstance(left, Mapping) and isinstance(right, Mapping):
            for name in sorted({*left, *right}, key=repr):
                if left.get(name) != right.get(name):
                    differences.append(
                        f"{key}[{name!r}]: {_first_difference(left.get(name), right.get(name))}"
                    )
        else:
            differences.append(f"{key}: {_first_difference(left, right)}")
    return differences
