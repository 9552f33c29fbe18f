"""Structured message tracing for debugging and teaching.

A :class:`MessageTrace` is a tap on a :class:`~repro.net.network.Network`
(an entry of ``Network.taps``) and records every transmission as a
structured event.  Filters keep traces focused (by message type, node, or
time window); :meth:`render` produces a human-readable timeline, which the
protocol documentation uses to show e.g. a write request's full path
through Spider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded transmission."""

    time_ms: float
    src: str
    dst: str
    message_type: str
    size_bytes: int
    wan: bool

    def __str__(self) -> str:
        scope = "WAN" if self.wan else "lan"
        return (
            f"{self.time_ms:10.3f} ms  {self.src:>14s} -> {self.dst:<14s} "
            f"{scope}  {self.message_type}  ({self.size_bytes} B)"
        )


class MessageTrace:
    """Records network sends; install with :meth:`attach`.

    Parameters
    ----------
    include:
        Optional predicate over :class:`TraceEvent`; events failing it are
        not recorded.
    limit:
        Hard cap on stored events (oldest kept), protecting long runs.
    """

    def __init__(
        self,
        include: Optional[Callable[[TraceEvent], bool]] = None,
        limit: int = 100_000,
    ):
        self.include = include
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._network = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, network) -> "MessageTrace":
        if self._network is not None:
            raise RuntimeError("trace already attached")
        self._network = network
        network.taps.append(self._record)
        return self

    def detach(self) -> None:
        if self._network is not None:
            self._network.taps.remove(self._record)
            self._network = None

    def _record(self, src, dst, message) -> None:
        network = self._network
        size = message.size_bytes() if hasattr(message, "size_bytes") else 0
        wan = (
            src.site is not None
            and dst.site is not None
            and network.topology.is_wan(src.site, dst.site)
        )
        event = TraceEvent(
            time_ms=network.sim.now,
            src=src.name,
            dst=dst.name,
            message_type=type(message).__name__,
            size_bytes=size,
            wan=wan,
        )
        if self.include is not None and not self.include(event):
            return
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        message_type: Optional[str] = None,
        node: Optional[str] = None,
        after_ms: float = 0.0,
        before_ms: Optional[float] = None,
        wan_only: bool = False,
    ) -> List[TraceEvent]:
        """Select recorded events by type, participant and time window."""
        selected = []
        for event in self.events:
            if message_type is not None and event.message_type != message_type:
                continue
            if node is not None and node not in (event.src, event.dst):
                continue
            if event.time_ms < after_ms:
                continue
            if before_ms is not None and event.time_ms >= before_ms:
                continue
            if wan_only and not event.wan:
                continue
            selected.append(event)
        return selected

    def count_by_type(self) -> dict:
        counts: dict = {}
        for event in self.events:
            counts[event.message_type] = counts.get(event.message_type, 0) + 1
        return counts

    def render(self, events: Optional[List[TraceEvent]] = None, limit: int = 50) -> str:
        """A printable timeline of (at most ``limit``) events."""
        events = self.events if events is None else events
        lines = [str(event) for event in events[:limit]]
        if len(events) > limit:
            lines.append(f"... {len(events) - limit} more events")
        return "\n".join(lines)
