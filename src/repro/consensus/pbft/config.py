"""PBFT configuration and weighted-quorum arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError


def quorum_weight(total_weight: float, f: int, max_weight: float) -> float:
    """Minimum vote weight forming a safe quorum.

    Two quorums of this weight overlap in at least ``f * max_weight + 1``
    weight, i.e. in at least one correct replica even if all ``f`` faulty
    replicas carry the maximum weight.  With unit weights and ``n = 3f + 1``
    this is the classic ``2f + 1``.
    """
    return (total_weight + f * max_weight) // 2 + 1


@dataclass
class PbftConfig:
    """Tunables for one PBFT group.

    Parameters
    ----------
    f:
        Number of Byzantine replicas tolerated; the group needs at least
        ``3f + 1`` members (more when weighted voting adds spares).
    view_timeout_ms:
        How long a replica waits for pending work to be delivered before
        suspecting the leader and starting a view change.
    window:
        Maximum number of consensus instances the leader may open beyond
        the garbage-collection low-water mark (back-pressure).
    weights:
        Optional per-replica vote weights keyed by node name (WHEAT-style
        weighted voting); defaults to 1 for every replica.
    batch_size:
        Cap on the number of ordered messages the leader packs into one
        consensus instance.  Batching is self-clocked — the leader
        proposes at once when none of its proposals is in flight and
        otherwise cuts whatever queued up when that instance delivers —
        so the cap only bounds message size; ``1`` is the unbatched
        one-instance-per-message protocol.
    """

    f: int = 1
    view_timeout_ms: float = 2000.0
    window: int = 1024
    weights: Optional[Dict[str, float]] = None
    batch_size: int = 64

    def validate(self, replica_names: Sequence[str]) -> None:
        n = len(replica_names)
        if n < 3 * self.f + 1:
            raise ConfigurationError(
                f"PBFT with f={self.f} needs >= {3 * self.f + 1} replicas, got {n}"
            )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.weights is not None:
            unknown = set(self.weights) - set(replica_names)
            if unknown:
                raise ConfigurationError(f"weights for unknown replicas: {unknown}")
            if any(weight <= 0 for weight in self.weights.values()):
                raise ConfigurationError("vote weights must be positive")

    def weight_of(self, name: str) -> float:
        if self.weights is None:
            return 1.0
        return self.weights.get(name, 1.0)

    def quorum(self, replica_names: Sequence[str]) -> float:
        total = sum(self.weight_of(name) for name in replica_names)
        max_weight = max(self.weight_of(name) for name in replica_names)
        return quorum_weight(total, self.f, max_weight)
