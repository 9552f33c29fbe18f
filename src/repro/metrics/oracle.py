"""The equivalence oracle for changes that elide simulator events.

Bit-parity (same event count, same heap order) cannot gate a change whose
point is to do fewer events.  What such a change owes instead is that
nothing a user of the *simulated* system can observe moves: the same
replies at the same simulated instants, identical latency samples, the
same operations applied in the same order by every replica.  Event
counts, message counts and host time are free to move.
"""

from __future__ import annotations

import zlib
from typing import Any, List, Mapping

#: observation keys the oracle pins — per-client completion traces,
#: simulated latency samples, per-replica applied-operation logs; any
#: other key of an observation (``events``, ``wall_s``) is ignored.
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
    """Where two runs' observations differ under the oracle: one line per
    moved trace, naming its first moved entry (empty list: equivalent)."""
    differences: List[str] = []
    for key in ORACLE_KEYS:
        left, right = a.get(key), b.get(key)
        if isinstance(left, Mapping) and isinstance(right, Mapping):
            differences += [
                f"{key}[{name!r}]: {_first_difference(left.get(name), right.get(name))}"
                for name in sorted({*left, *right}, key=repr)
                if left.get(name) != right.get(name)
            ]
        elif left != right:
            differences.append(f"{key}: {_first_difference(left, right)}")
    return differences
