"""PBFT (Castro & Liskov, OSDI '99) as a reusable component.

Sequence numbers are assigned contiguously from 1.  The leader proposes
a client message at once when none of its proposals is in flight and
otherwise cuts whatever queued up into one
:class:`~repro.consensus.interface.Batch` when that instance delivers
(at most ``batch_size`` messages; ``batch_size=1`` orders one message per
instance), amortising one three-phase round over many messages.
Supports weighted voting (WHEAT-style) through per-replica vote weights,
which is how the BFT-WV baseline of the paper's Fig. 10 is realised.
"""

from repro.consensus.pbft.config import PbftConfig, quorum_weight
from repro.consensus.pbft.messages import NOOP, is_noop
from repro.consensus.pbft.replica import PbftReplica

__all__ = ["PbftConfig", "PbftReplica", "quorum_weight", "NOOP", "is_noop"]
