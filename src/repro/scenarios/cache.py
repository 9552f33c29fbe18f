"""Fingerprint-keyed cache for expensive scenario constructions.

A suite run is a matrix of ``scenarios x seeds``; most cells share most
of their ingredients (the harness object, a precomputed workload plan, a
fault schedule).  The runner builds each ingredient once per distinct
*fragment fingerprint* and reuses it for every cell whose owning
fragment fingerprints identically — the same instance-sharing contract
the middleware lifecycle gives identical ``name:options`` entries,
lifted to whole spec fragments.

Entries are stored only on successful construction: a builder that
raises leaves no entry behind, so one failing cell cannot poison the
cache for later cells (they re-run the builder and may well succeed).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

__all__ = ["BuildCache"]


class BuildCache:
    """Keyed memoisation with hit/miss accounting.

    Keys are ``(kind, key)`` pairs where ``kind`` names the ingredient
    family (``"case"``, ``"plan"``, ``"schedule"``) and ``key``
    is a structural fingerprint (plus a seed, for seeded ingredients).
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, Any], Any] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, kind: str, key: Any, builder: Callable[[], Any]) -> Any:
        full_key = (kind, key)
        if full_key in self._entries:
            self.hits += 1
            return self._entries[full_key]
        self.misses += 1
        value = builder()  # a raising builder stores nothing
        self._entries[full_key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, full_key: Tuple[str, Any]) -> bool:
        return full_key in self._entries

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
