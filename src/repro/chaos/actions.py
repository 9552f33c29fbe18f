"""Composable, reversible fault actions and the engine that runs them.

A :class:`FaultAction` is a *declarative* fault window: a kind, a target,
a start time and a duration.  The :class:`ChaosEngine` turns a list of
actions into simulator events: at ``start_ms`` the action is applied (a
behaviour installed, a node crashed, a partition armed, ...) and at
``start_ms + duration_ms`` it is undone.  Undo leans on the reversible
:class:`~repro.faults.behaviours.Behaviour` handles and the network's
compositional fault API (``heal_partition``, ``clear_link_mod``), so
overlapping windows compose without clobbering each other.

Actions are plain frozen dataclasses with scalar fields, so a failing
schedule prints as a literal that can be pasted straight into a
regression test (see :mod:`repro.chaos.shrink`).

With an **empty** action list the engine schedules nothing at all: a
chaos-wrapped run with no faults is byte-identical to the same workload
without the chaos layer loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.checkpoints.component import CheckpointComponent
from repro.errors import ConfigurationError
from repro.faults.behaviours import (
    DelayBehaviour,
    DropBehaviour,
    DuplicateBehaviour,
    EquivocateBehaviour,
    SilenceBehaviour,
)

__all__ = [
    "FaultAction",
    "ChaosEngine",
    "NODE_KINDS",
    "NET_KINDS",
    "overlapping_windows",
    "slot_kind",
]

#: Kinds that target a single node (FaultAction.target is a node name).
NODE_KINDS = (
    "crash",
    "silence",
    "delay",
    "drop",
    "duplicate",
    "mute_half",
    "wipe",
    "skew",
    "corrupt_cp",
    "equivocate",
)
#: Kinds that target the network (target is a region or "src->dst" link).
NET_KINDS = ("partition", "block_link", "link_delay", "link_flaky")


@dataclass(frozen=True)
class FaultAction:
    """One fault window.

    ``param`` is kind-specific: delay in ms for ``delay``/``link_delay``,
    a probability for ``drop``/``duplicate``/``link_flaky``, a clock rate
    for ``skew`` (1.0 = healthy), an equivocation probability for
    ``equivocate``, unused otherwise.
    """

    kind: str
    target: str
    start_ms: float
    duration_ms: float
    param: float = 0.0

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


def slot_kind(kind: str) -> str:
    """The occupancy slot a fault kind holds on its target.

    One fault window per occupancy slot at a time: overlapping identical
    windows would make undo ambiguous (e.g. recover() while another crash
    window still runs).  Link-level kinds share one slot per link — the
    network holds a single mod/block per link, so a second overlapping
    window would clobber the first and its undo would cut the survivor
    short.  ``wipe`` shares the crash slot (both fail-stop the node and
    undo via recover()), and ``skew`` has its own slot (a node has one
    clock).
    """
    if kind in ("block_link", "link_delay", "link_flaky"):
        return "link"
    if kind == "wipe":
        return "crash"
    return kind


def overlapping_windows(actions: Sequence[FaultAction]) -> List[str]:
    """Describe every per-(slot, target) window overlap in ``actions``.

    The check :meth:`ChaosEngine.install` applies to every schedule, and
    the rule :func:`~repro.chaos.schedule.generate_schedule` draws by.
    Returns human-readable descriptions (empty = no overlaps).
    """
    problems: List[str] = []
    occupied: Dict[Tuple[str, str], List[Tuple[float, float, FaultAction]]] = {}
    for action in actions:
        start, end = action.start_ms, action.end_ms
        slots = occupied.setdefault((slot_kind(action.kind), action.target), [])
        for other_start, other_end, other in slots:
            if not (end <= other_start or start >= other_end):
                problems.append(
                    f"overlapping {slot_kind(action.kind)!r} windows on "
                    f"{action.target!r}: {other.kind} "
                    f"[{other_start}, {other_end}) ms and {action.kind} "
                    f"[{start}, {end}) ms"
                )
        slots.append((start, end, action))
    return problems


def _noop_undo() -> None:
    """Undo for instantaneous-damage kinds (the window has no end effect)."""


def _rot_state(state: Any, rng: random.Random) -> Any:
    """One rotten copy of a stored snapshot: truncation or bit-rot.

    Either damage changes the snapshot's structural digest, which is what
    load-time verification compares against the digest recorded at write
    time.  Truncation drops the tail of a sequence snapshot; bit-rot wraps
    the value (a changed byte anywhere has the same detection signature).
    """
    if isinstance(state, tuple) and state and rng.random() < 0.5:
        return state[:-1]
    return ("__bitrot__", state)


class ChaosEngine:
    """Schedules apply/undo of fault actions on a running simulation.

    Parameters
    ----------
    sim:
        The simulator to schedule fault events on.
    network:
        The deployment's :class:`~repro.net.network.Network`.
    nodes:
        Mapping of node name -> node for node-targeted actions.
    seed_tag:
        Seed string used for behaviour-private RNGs, so two engines with
        the same tag inject identical randomised faults.
    """

    def __init__(self, sim, network, nodes: Dict[str, Any], seed_tag: str = "chaos"):
        self.sim = sim
        self.network = network
        self.nodes = dict(nodes)
        self.seed_tag = seed_tag
        self.applied: List[FaultAction] = []
        self.undone: List[FaultAction] = []
        self._undo_by_id: Dict[int, Callable[[], None]] = {}

    # ------------------------------------------------------------------
    def install(self, actions: Sequence[FaultAction]) -> None:
        """Schedule every action's apply and undo events.

        No actions -> no events: the simulation trace is untouched.  An
        unknown kind, a negative window or two windows in one (slot,
        target) raise :class:`~repro.errors.ConfigurationError` before
        anything is scheduled.
        """
        for action in actions:
            if action.kind not in NODE_KINDS + NET_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {action.kind!r} on {action.target!r}; "
                    f"known: {sorted(NODE_KINDS + NET_KINDS)}"
                )
            if action.start_ms < 0 or action.duration_ms < 0:
                raise ConfigurationError(
                    f"negative window on {action.target!r} ({action.kind} at "
                    f"{action.start_ms} for {action.duration_ms} ms)"
                )
        for problem in overlapping_windows(actions):
            raise ConfigurationError(
                f"{problem} — one window per (kind, target) slot at a time, "
                "or undo becomes ambiguous"
            )
        for index, action in enumerate(actions):
            self.sim.schedule_at(action.start_ms, self._apply, index, action)
            self.sim.schedule_at(action.end_ms, self._undo, index, action)

    def undo_all(self) -> None:
        """Force-undo anything still active (end-of-run safety net)."""
        for index in list(self._undo_by_id):
            undo = self._undo_by_id.pop(index)
            undo()

    # ------------------------------------------------------------------
    def _rng(self, action: FaultAction) -> random.Random:
        return random.Random(f"{self.seed_tag}:{action.kind}:{action.target}:{action.start_ms}")

    def _node(self, name: str):
        node = self.nodes.get(name)
        if node is None:
            raise KeyError(f"chaos action targets unknown node {name!r}")
        return node

    def _link(self, target: str):
        src_name, _, dst_name = target.partition("->")
        return self._node(src_name), self._node(dst_name)

    def _apply(self, index: int, action: FaultAction) -> None:
        kind = action.kind
        if kind == "crash":
            node = self._node(action.target)
            node.crash()
            undo = node.recover
        elif kind == "wipe":
            # Durable-state loss: the crash also destroys the disk.  The
            # recovery at window end runs the node's wipe hooks first, so
            # the replica reboots empty and must rebuild through the
            # protocol (full checkpoint install + log-suffix replay).
            node = self._node(action.target)
            node.crash(wipe=True)
            undo = node.recover
        elif kind == "skew":
            node = self._node(action.target)
            previous = node.clock_rate
            node.clock_rate = action.param if action.param > 0.0 else 1.0

            def undo(node=node, previous=previous) -> None:
                node.clock_rate = previous

        elif kind == "corrupt_cp":
            # Storage fault: stored snapshots rot in place (truncation or
            # bit-rot), while the digest metadata recorded at write time
            # stays intact — exactly what load-time verification catches.
            # The damage is instantaneous and permanent; undo is a no-op.
            self._corrupt_checkpoints(self._node(action.target), self._rng(action))
            undo = _noop_undo
        elif kind == "equivocate":
            handle = EquivocateBehaviour(
                fraction=action.param if action.param > 0.0 else 1.0,
                rng=self._rng(action),
            ).install(self._node(action.target))
            undo = handle.uninstall
        elif kind == "silence":
            handle = SilenceBehaviour().install(self._node(action.target))
            undo = handle.uninstall
        elif kind == "delay":
            handle = DelayBehaviour(action.param).install(self._node(action.target))
            undo = handle.uninstall
        elif kind == "drop":
            handle = DropBehaviour(action.param, rng=self._rng(action)).install(
                self._node(action.target)
            )
            undo = handle.uninstall
        elif kind == "duplicate":
            handle = DuplicateBehaviour(action.param, rng=self._rng(action)).install(
                self._node(action.target)
            )
            undo = handle.uninstall
        elif kind == "mute_half":
            # Byzantine-leader-style partial silence: mute the first half of
            # the deployment (sorted by name) while answering the rest —
            # peers cannot tell the node from a slow one, and if it leads a
            # consensus instance only a minority sees its proposals.
            muted = set(sorted(self.nodes)[: max(1, len(self.nodes) // 2)])
            handle = SilenceBehaviour(to=lambda dst: dst.name in muted).install(
                self._node(action.target)
            )
            undo = handle.uninstall
        elif kind == "partition":
            regions = action.target.split("+")
            self.network.partition(regions)
            undo = lambda: self.network.heal_partition(regions)  # noqa: E731
        elif kind == "block_link":
            src, dst = self._link(action.target)
            self.network.block_link(src, dst)
            undo = lambda: self.network.unblock_link(src, dst)  # noqa: E731
        elif kind == "link_delay":
            src, dst = self._link(action.target)
            mod = self.network.set_link_mod(src, dst, delay_ms=action.param, rng=self._rng(action))
            undo = self._link_mod_undo(src, dst, mod)
        elif kind == "link_flaky":
            src, dst = self._link(action.target)
            mod = self.network.set_link_mod(
                src,
                dst,
                dup_rate=action.param,
                drop_rate=action.param,
                rng=self._rng(action),
            )
            undo = self._link_mod_undo(src, dst, mod)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        self._undo_by_id[index] = undo
        self.applied.append(action)

    def _corrupt_checkpoints(self, node, rng: random.Random) -> None:
        """Rot every stored snapshot on ``node``'s checkpoint components.

        Only the snapshot *bytes* are damaged; the digests recorded when
        they were written (vote metadata, stability certificates) stay
        intact — so the corruption is invisible until digest verification
        at load/serve time catches the mismatch and falls back to a peer
        fetch.  Nodes without checkpoint components are untouched.
        """
        for handler in list(getattr(node, "_routes", {}).values()):
            component = getattr(handler, "__self__", None)
            if not isinstance(component, CheckpointComponent):
                continue
            for seq in list(component._local):
                state, stored_digest = component._local[seq]
                component._local[seq] = (_rot_state(state, rng), stored_digest)
            if component.latest_stable is not None:
                seq, state, certificate = component.latest_stable
                component.latest_stable = (seq, _rot_state(state, rng), certificate)

    def _link_mod_undo(self, src, dst, mod) -> Callable[[], None]:
        """Clear a link mod only if it is still the one this window set.

        The schedule generator keeps link windows per link disjoint, but a
        hand-written (or shrunk) schedule may overlap them; the later
        window's mod must survive the earlier window's undo.
        """

        def undo() -> None:
            if self.network.fault.link_mods.get((src.name, dst.name)) is mod:
                self.network.clear_link_mod(src, dst)

        return undo

    def _undo(self, index: int, action: FaultAction) -> None:
        undo = self._undo_by_id.pop(index, None)
        if undo is not None:
            undo()
            self.undone.append(action)
