"""Consensus protocols (the paper's agreement black-boxes).

* :class:`~repro.consensus.interface.Agreement` — the black-box interface of
  the paper's Figure 12 (``order`` / delivery / ``gc``).
* :mod:`repro.consensus.pbft` — PBFT with batching, checkpoint-based garbage
  collection, view changes and (optionally) weighted voting; used by
  Spider's agreement group and by the BFT / BFT-WV baselines.
* :class:`~repro.consensus.interface.SingleSequencer` — a trivial,
  non-fault-tolerant sequencer used in tests to demonstrate that Spider is
  agnostic to the agreement implementation (modularity claim, Section 3).
"""

from repro.consensus.interface import (
    Agreement,
    Batch,
    SingleSequencer,
    batch_items,
    is_batch,
)
from repro.consensus.pbft.config import PbftConfig
from repro.consensus.pbft.replica import PbftReplica

__all__ = [
    "Agreement",
    "Batch",
    "batch_items",
    "is_batch",
    "SingleSequencer",
    "PbftConfig",
    "PbftReplica",
]
