"""Message delivery with latency, jitter, fault injection and accounting."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from heapq import heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.crypto.primitives import Digestible, cached_size_bytes, structural_digest
from repro.errors import SimulationError
from repro.net.topology import LinkProfile, Topology
from repro.sim.core import Simulator
from repro.sim.node import Node

#: Mutation-after-send sanitizer (debug mode).  When armed, every message
#: is digested structurally at :meth:`Network.send` and re-verified when
#: the delivery event fires: a sender that keeps a reference to a sent
#: message and mutates it in flight — the aliasing bug class the static
#: pass (``repro.lint`` P202) cannot prove absent — raises immediately,
#: naming the offending message.  The check uses
#: :func:`repro.crypto.primitives.structural_digest`, which charges no
#: simulated CPU, and the wrapped delivery keeps the same ``(time, seq)``
#: heap key, so simulated results are byte-identical with the sanitizer
#: on or off — only wall-clock time changes.
_send_sanitizer = bool(os.environ.get("REPRO_SEND_SANITIZER"))


def set_send_sanitizer(enabled: bool) -> bool:
    """Arm/disarm the mutation-after-send sanitizer; returns previous state.

    Also armed at import time by the ``REPRO_SEND_SANITIZER`` environment
    variable, which is how CI runs a full sanitized tier-1 pass.
    """
    global _send_sanitizer
    previous = _send_sanitizer
    _send_sanitizer = bool(enabled)
    return previous


def send_sanitizer_enabled() -> bool:
    return _send_sanitizer


def _deliver_checked(dst: Node, src: Node, message: Any, expected: int) -> None:
    """Delivery wrapper used while the sanitizer is armed."""
    actual = structural_digest(message)
    if actual != expected:
        raise SimulationError(
            f"message mutated after send: {message!r} "
            f"(from {src.name} to {dst.name}; structural digest was "
            f"{expected} at send time, is {actual} at delivery) — senders "
            "must not mutate a message object they already handed to "
            "Network.send; build a fresh copy instead"
        )
    dst.deliver(src, message)


@dataclass
class LinkStats:
    """Cumulative transfer counters for one link category."""

    messages: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


@dataclass
class TransferSnapshot:
    """Point-in-time copy of the network counters, for interval measurement."""

    time_ms: float
    wan_messages: int
    wan_bytes: int
    lan_messages: int
    lan_bytes: int


@dataclass
class LinkMod:
    """Per-link injection: fixed extra delay, i.i.d. duplication and loss.

    Randomised decisions draw from the mod's **own** RNG (never the shared
    simulator RNG), so installing or removing a link mod does not perturb
    the RNG stream of unrelated components.
    """

    delay_ms: float = 0.0
    dup_rate: float = 0.0
    drop_rate: float = 0.0
    rng: Optional[random.Random] = None


@dataclass
class _FaultState:
    """Mutable fault-injection configuration."""

    partitions: Set[frozenset] = field(default_factory=set)
    crashed_links: Set[Tuple[str, str]] = field(default_factory=set)
    #: (src name, dst name) -> LinkMod; empty (the overwhelmingly common
    #: case) costs one falsy dict check on the send fast path.
    link_mods: Dict[Tuple[str, str], LinkMod] = field(default_factory=dict)


class Network:
    """Delivers messages between registered nodes.

    Delivery latency for a message of size ``s`` from site ``a`` to ``b``::

        one_way(a, b) * (1 + jitter * U)  +  serialization(a, b, s)

    with ``U`` uniform in [0, 1) from the simulator's seeded RNG.

    Fault-injection hooks (all usable mid-simulation):

    * :meth:`partition` / :meth:`heal` — cut traffic between region groups.
    * :meth:`block_link` / :meth:`unblock_link` — cut one node pair.
    * :meth:`set_link_mod` — delay, duplication and loss on one link.

    ``taps`` holds ``(src, dst, message)`` observers: :meth:`send` calls
    each on every message first, before any check can drop it.
    """

    def __init__(self, sim: Simulator, topology: Topology, jitter: float = 0.05):
        self.sim = sim
        self.topology = topology
        self.jitter = jitter
        self.nodes: Dict[str, Node] = {}
        self.wan = LinkStats()
        self.lan = LinkStats()
        self.fault = _FaultState()
        self.taps: List[Callable[[Node, Node, Any], None]] = []
        self.dropped = 0
        self.duplicated = 0
        #: message type -> sizing mode (0: no ``size_bytes``, fall back to
        #: 256 bytes; 1: call it; 2: frozen message, size memoised per
        #: object).  Hoists the dispatch out of the per-send path.
        self._sized_types: Dict[type, int] = {}
        #: (src node, dst node) -> LinkProfile.  Keyed by node objects
        #: (identity hash) because hashing ``Site`` dataclasses per send is
        #: measurable; node sites are fixed for a node's lifetime.  Dropped
        #: wholesale when ``topology.invalidate_cache()`` bumps its version.
        self._node_links: Dict[Tuple[Node, Node], LinkProfile] = {}
        self._links_version = topology.cache_version

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node: Node) -> Node:
        """Attach ``node`` to this network (idempotent for the same object)."""
        existing = self.nodes.get(node.name)
        if existing is not None and existing is not node:
            raise SimulationError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.network = self
        return node

    def unregister(self, node: Node) -> None:
        """Detach ``node`` from delivery: messages addressed to it are
        dropped from now on.  ``node.network`` stays set so sends the
        node already queued (e.g. a batched outbox from the CPU task
        that decided to leave) still flush instead of crashing."""
        self.nodes.pop(node.name, None)
        if self._node_links:
            self._node_links = {
                pair: profile
                for pair, profile in self._node_links.items()
                if node not in pair
            }

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: Node, dst: Node, message: Any) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` (maybe dropped)."""
        for tap in self.taps:
            tap(src, dst, message)
        if dst.name not in self.nodes:
            return  # destination left the system (e.g. removed group)
        site_a, site_b = src.site, dst.site
        if site_a is None or site_b is None:
            raise SimulationError("network sends require nodes with sites")
        # Fast path: skip all per-send fault checks while no partition or
        # crashed link is armed (the overwhelmingly common case);
        # ``_is_blocked`` keeps the detailed semantics.
        fault = self.fault
        if (fault.partitions or fault.crashed_links) and self._is_blocked(src, dst):
            self.dropped += 1
            return
        mod = None
        if fault.link_mods:
            mod = fault.link_mods.get((src.name, dst.name))
            if (
                mod is not None
                and mod.drop_rate
                and mod.rng.random() < mod.drop_rate
            ):
                self.dropped += 1
                return
        cls = message.__class__
        mode = self._sized_types.get(cls)
        if mode is None:
            if not hasattr(cls, "size_bytes"):
                mode = 0
            elif issubclass(cls, Digestible):
                mode = 2
            else:
                mode = 1
            self._sized_types[cls] = mode
        if mode == 2:
            size = cached_size_bytes(message)
        elif mode:
            size = message.size_bytes()
        else:
            size = 256
        topology = self.topology
        if self._links_version != topology.cache_version:
            self._node_links.clear()
            self._links_version = topology.cache_version
        pair = (src, dst)
        profile = self._node_links.get(pair)
        if profile is None:
            profile = self._node_links[pair] = topology.link_profile(site_a, site_b)
        one_way, ser_divisor, is_wan = profile
        stats = self.wan if is_wan else self.lan
        stats.messages += 1
        stats.bytes += size
        # Sum in the same association order as the pre-memoisation code so
        # delivery times stay bit-identical (float addition isn't associative).
        sim = self.sim
        now = sim.now
        nic = src.nic_delay(size)
        if self.jitter:
            one_way = one_way * (1.0 + self.jitter * sim.rng.random())
        link = one_way + (size * 8.0) / ser_divisor
        if _send_sanitizer:
            snapshot = structural_digest(message)
            deliver: Callable[..., Any] = _deliver_checked
            deliver_args: tuple = (dst, src, message, snapshot)
        else:
            deliver = dst.deliver
            deliver_args = (src, message)
        if mod is not None:
            link += mod.delay_ms
            if mod.dup_rate and mod.rng.random() < mod.dup_rate:
                self.duplicated += 1
                sim._seq += 1
                heappush(
                    sim._queue,
                    (now + (nic + link), sim._seq, deliver, deliver_args),
                )
        # Inlined ``sim.post``: one delivery per send makes the call overhead
        # measurable, and the delay is non-negative by construction.  The
        # delay is summed as ``nic + link`` *before* adding ``now`` — the
        # same association order as ``post(nic + link, ...)``.
        sim._seq += 1
        heappush(sim._queue, (now + (nic + link), sim._seq, deliver, deliver_args))

    def _is_blocked(self, src: Node, dst: Node) -> bool:
        fault = self.fault
        if (src.name, dst.name) in fault.crashed_links:
            return True
        if fault.partitions:
            for partition in fault.partitions:
                src_in = src.site.region in partition
                dst_in = dst.site.region in partition
                if src_in != dst_in:
                    return True
        return False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def partition(self, regions) -> None:
        """Isolate ``regions`` (iterable of region names) from everyone else."""
        self.fault.partitions.add(frozenset(regions))

    def heal(self) -> None:
        """Remove all partitions."""
        self.fault.partitions.clear()

    def heal_partition(self, regions) -> None:
        """Remove exactly the partition created by ``partition(regions)``.

        Lets independently scheduled partition windows (the chaos engine)
        undo themselves without clobbering overlapping partitions.
        """
        self.fault.partitions.discard(frozenset(regions))

    def block_link(self, src: Node, dst: Node) -> None:
        self.fault.crashed_links.add((src.name, dst.name))

    def unblock_link(self, src: Node, dst: Node) -> None:
        self.fault.crashed_links.discard((src.name, dst.name))

    def set_link_mod(
        self,
        src: Node,
        dst: Node,
        delay_ms: float = 0.0,
        dup_rate: float = 0.0,
        drop_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> LinkMod:
        """Inject extra delay / duplication / loss on one directed link."""
        if rng is None:
            rng = random.Random(f"linkmod:{self.sim.seed}:{src.name}:{dst.name}")
        mod = LinkMod(delay_ms=delay_ms, dup_rate=dup_rate, drop_rate=drop_rate, rng=rng)
        self.fault.link_mods[(src.name, dst.name)] = mod
        return mod

    def clear_link_mod(self, src: Node, dst: Node) -> None:
        self.fault.link_mods.pop((src.name, dst.name), None)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def snapshot(self) -> TransferSnapshot:
        """Copy the counters; subtract two snapshots to measure an interval."""
        return TransferSnapshot(
            time_ms=self.sim.now,
            wan_messages=self.wan.messages,
            wan_bytes=self.wan.bytes,
            lan_messages=self.lan.messages,
            lan_bytes=self.lan.bytes,
        )

    @staticmethod
    def interval_mbps(before: TransferSnapshot, after: TransferSnapshot, wan: bool = True) -> float:
        """Average megabytes/second transferred between two snapshots."""
        elapsed_ms = after.time_ms - before.time_ms
        if elapsed_ms <= 0:
            return 0.0
        transferred = (
            after.wan_bytes - before.wan_bytes
            if wan
            else after.lan_bytes - before.lan_bytes
        )
        return (transferred / 1e6) / (elapsed_ms / 1e3)
