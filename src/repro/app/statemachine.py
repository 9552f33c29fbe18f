"""Replicated-state-machine interface.

Operations are plain tuples ``(opcode, *args)`` so they have deterministic
reprs (required by the structural crypto) and trivial size estimates.
Opcode conventions: read-only operations start with ``"get"`` or are listed
in :data:`READ_ONLY_OPCODES`.

A *compound* ``("multi", key, ops)`` is a session lane's queued run of
same-key operations sent as one request (:mod:`repro.deploy.session`).
Every application executes it the same way: each member runs through
:meth:`StateMachine.apply` in order, charged one by one, and the results
come back as a tuple in member order.  ``operation[1]`` is still the
key, so range handover sheds a compound whole.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Tuple

from repro.crypto.costs import active_cost_model
from repro.sim.node import charge

Operation = Tuple  # (opcode, *args)

READ_ONLY_OPCODES = frozenset({"get", "read", "scan", "size", "noop-read"})

#: opcode of a compound ``("multi", key, ops)`` (see module docs)
MULTI = "multi"


def _members(operation: Operation) -> Optional[Tuple]:
    """A compound's member operations, or ``None`` when it is malformed
    (it then executes as an unknown opcode).  Callers check the opcode
    first, so every other operation skips this call."""
    if len(operation) == 3 and isinstance(operation[2], tuple):
        return operation[2]
    return None


def is_read_only(operation: Operation) -> bool:
    """Whether ``operation`` can never modify application state; a
    compound only if every member is read-only."""
    if operation and operation[0] == MULTI:
        members = _members(operation)
        return members is not None and all(is_read_only(member) for member in members)
    return bool(operation) and operation[0] in READ_ONLY_OPCODES


class StateMachine(ABC):
    """A deterministic application hosted by execution replicas.

    Implementations must be deterministic: the same sequence of
    :meth:`execute` calls from the same initial state yields the same
    results and final state on every replica (paper Definition A.14).
    """

    def execute(self, operation: Operation) -> Any:
        """Apply ``operation`` and return its result (charges CPU cost).

        A compound charges and applies its members one by one and returns
        their results as a tuple."""
        cost = active_cost_model().execute_request
        members = _members(operation) if operation and operation[0] == MULTI else None
        if members is not None:
            results = []
            for member in members:
                charge(cost)
                results.append(self.apply(member))
            return tuple(results)
        charge(cost)
        return self.apply(operation)

    @abstractmethod
    def apply(self, operation: Operation) -> Any:
        """Implementation hook for :meth:`execute` (no cost accounting)."""

    @abstractmethod
    def snapshot(self) -> Any:
        """A deep, immutable-enough copy of the full application state."""

    @abstractmethod
    def restore(self, state: Any) -> None:
        """Replace the application state with a snapshot."""

    @abstractmethod
    def state_size_bytes(self) -> int:
        """Approximate serialized state size (for checkpoint transfer cost)."""

    # ------------------------------------------------------------------
    # Range handover hooks (elastic keyspace)
    # ------------------------------------------------------------------
    # Live resharding (``repro.elastic``) moves slices of the keyspace
    # between shards by exporting state on the source and installing it
    # on the destination *outside* the ordinary operation stream: these
    # transfers must not look like client operations (no journal entries,
    # no results).  Applications that want to live behind an elastic
    # cluster implement all four; the defaults fail fast so a MoveRange
    # against a non-elastic application is a loud error, not silent loss.

    def owned_keys(self) -> Tuple:
        """All keys currently held, sorted (deterministic enumeration)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support range handover"
        )

    def export_keys(self, keys) -> Tuple:
        """Deep-copied ``(key, state)`` pairs for a range-filtered cut."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support range handover"
        )

    def import_keys(self, items) -> None:
        """Install exported pairs verbatim (no execute, no journal)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support range handover"
        )

    def drop_keys(self, keys) -> None:
        """Forget a handed-over range's state on the source shard."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support range handover"
        )
