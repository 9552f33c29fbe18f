"""The agreement black-box interface (paper Figure 12).

The paper specifies a blocking ``deliver`` callback; in the simulator the
equivalent is *pull-based*: the host repeatedly awaits
:meth:`Agreement.next_delivery`, and simply not pulling exerts the same
back-pressure the blocking callback would (the agreement replica's
``sleep until s <= max(win)``, Fig. 17 L. 27, becomes "don't pull yet").

Properties expected from implementations (paper Definitions A.6–A.9):

* **A-Safety** — two correct replicas never deliver different messages for
  the same sequence number.
* **A-Liveness** — a message received by 2f+1 correct replicas is
  eventually delivered by f+1 correct replicas.
* **A-Validity** — only correctly authenticated messages are delivered.
* **A-Order** — sequence numbers are delivered gaplessly in order, except
  across :meth:`gc` skips.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional, Tuple

from repro.net.message import Message
from repro.sim.futures import SimFuture


@dataclass(frozen=True)
class Batch(Message):
    """Several to-be-ordered messages agreed as one consensus value.

    Leaders of batching-capable implementations (PBFT) cut whatever
    queued up while their last instance was in flight into one ``Batch``
    (:class:`BatchAccumulator`), amortising one agreement round over all
    contained items.  Hosts must treat a delivered ``Batch`` as its items
    applied in order.
    """

    items: Tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def payload_size(self) -> int:
        return 8 + sum(
            item.payload_size() if hasattr(item, "payload_size") else len(repr(item))
            for item in self.items
        )


def is_batch(payload: Any) -> bool:
    """Whether a delivered value carries multiple batched messages."""
    return isinstance(payload, Batch)


def batch_items(payload: Any) -> Tuple[Any, ...]:
    """The individual messages of a delivered value (batched or not)."""
    if isinstance(payload, Batch):
        return payload.items
    return (payload,)


def is_batchable(payload: Any) -> bool:
    """Whether a batching leader may pack ``payload`` with other messages.

    Messages that mutate how the host interprets the *rest* of a batch
    (e.g. Spider's reconfiguration commands, which change the group set)
    opt out by setting a class attribute ``BATCHABLE = False``; leaders
    then cut any open batch and propose them alone.
    """
    return getattr(payload, "BATCHABLE", True)


class BatchAccumulator:
    """The shared self-clocked batch-cut machinery of batching leaders.

    No clock is involved.  A payload arriving while none of the leader's
    own proposals is in flight (``in_flight()`` is false) is cut at once,
    inside the CPU task that received it, so a lone client never waits.
    While a proposal is in flight payloads buffer, and the caller cuts
    them as one value by calling :meth:`release` the moment that
    instance settles (delivers locally or is skipped by ``gc``); ``size``
    caps one value, splitting a longer backlog.  ``size = 1`` is the
    unbatched protocol through the same path.  ``on_cut(payload, items)``
    receives the proposal-ready value (a bare payload for a single item,
    a :class:`Batch` otherwise) plus the individual items.  What
    proposing means (broadcast a pre-prepare, append to a log, hand items
    back on leadership loss) stays with the caller, and so does the rule
    that nothing strands: whoever stops being able to propose must
    :meth:`flush` (or :meth:`cut`) the buffer back into its retry path.
    """

    def __init__(self, size: int, in_flight, on_cut):
        self.size = size
        self.in_flight = in_flight
        self.on_cut = on_cut
        self.buffer: list = []

    def __len__(self) -> int:
        return len(self.buffer)

    def intake(self, payload: Any) -> None:
        """Admit a payload; cut unless a proposal in flight lets it wait.

        An unbatchable payload cuts the open buffer first and goes alone,
        so FIFO intake order is preserved.
        """
        alone = not is_batchable(payload)
        if alone:
            self.cut()
        self.buffer.append(payload)
        if alone or len(self.buffer) >= self.size or not self.in_flight():
            self.cut()

    def release(self) -> None:
        """An instance settled: propose what queued up behind it."""
        if self.buffer and not self.in_flight():
            self.cut()

    def cut(self) -> None:
        """Flush the buffer through ``on_cut`` (no-op when empty)."""
        buffered = self.flush()
        if buffered:
            payload = buffered[0] if len(buffered) == 1 else Batch(items=tuple(buffered))
            self.on_cut(payload, buffered)

    def flush(self) -> list:
        """Hand back the buffer without cutting."""
        buffered, self.buffer = self.buffer, []
        return buffered


class Agreement(ABC):
    """Orders messages into a gapless, totally ordered sequence (from 1)."""

    @abstractmethod
    def order(self, message: Any) -> None:
        """Request that ``message`` be assigned a sequence number."""

    @abstractmethod
    def next_delivery(self) -> SimFuture:
        """A future resolving with the next ``(seq, message)`` in order.

        At most one outstanding pull at a time; the host's delivery loop
        awaits the result before pulling again.
        """

    @abstractmethod
    def gc(self, before_seq: int, settled: Optional[Callable[[Any], bool]] = None) -> None:
        """Forget everything with sequence number < ``before_seq``.

        After this call no sequence number below ``before_seq`` may be
        delivered.  ``settled`` tells which ordered messages the state
        below ``before_seq`` already covers (a checkpoint's client
        counters): the replica stops waiting for those, including ones
        whose sequence numbers it skipped without ever seeing them.
        """

    def reset_delivery(self) -> None:
        """Forget an outstanding :meth:`next_delivery` pull, if any.

        A host whose delivery driver died with a node crash respawns the
        driver on recovery; the fresh loop must be able to pull even
        though the dead loop's pull was never resolved.  Default: no-op.
        """


class DeliveryQueue:
    """Shared helper implementing the pull-based delivery contract."""

    def __init__(self):
        self._ready: Deque[Tuple[int, Any]] = deque()
        self._waiter: Optional[SimFuture] = None

    def push(self, seq: int, message: Any) -> None:
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.resolve((seq, message))
        else:
            self._ready.append((seq, message))

    def pull(self) -> SimFuture:
        future = SimFuture(name="delivery")
        if self._ready:
            future.resolve(self._ready.popleft())
        elif self._waiter is not None:
            raise RuntimeError("next_delivery() called while one is outstanding")
        else:
            self._waiter = future
        return future

    def drop_below(self, seq: int) -> None:
        self._ready = deque(item for item in self._ready if item[0] >= seq)

    def cancel_pull(self) -> None:
        """Discard the outstanding pull (its consumer died); not resolved."""
        self._waiter = None

    def pending_seqs(self) -> Tuple[int, ...]:
        """Sequence numbers pushed but not yet pulled (crash reconciliation)."""
        return tuple(seq for seq, _ in self._ready)

    def __len__(self) -> int:
        return len(self._ready)


class SingleSequencer(Agreement):
    """A trivial single-node sequencer (not fault tolerant).

    Exists to demonstrate Spider's modularity: execution groups and IRMCs
    operate unchanged when the agreement group swaps PBFT for this.  Also
    convenient in unit tests that exercise ordering-dependent logic.
    """

    def __init__(self):
        self._next_seq = 1
        self._low_water = 1
        self._queue = DeliveryQueue()
        self._seen = set()

    def order(self, message: Any) -> None:
        key = repr(message)
        if key in self._seen:
            return
        self._seen.add(key)
        seq = self._next_seq
        self._next_seq += 1
        if seq >= self._low_water:
            self._queue.push(seq, message)

    def next_delivery(self) -> SimFuture:
        return self._queue.pull()

    def gc(self, before_seq: int, settled: Optional[Callable[[Any], bool]] = None) -> None:
        self._low_water = max(self._low_water, before_seq)
        self._queue.drop_below(self._low_water)

    def reset_delivery(self) -> None:
        self._queue.cancel_pull()
