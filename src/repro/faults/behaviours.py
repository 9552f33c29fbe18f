"""Concrete Byzantine behaviours applied to live nodes.

All behaviours work by interposing on a node's ``send`` path (the
``node.faults`` stack) or by corrupting its application, never by
forging other principals' authenticators — mirroring what a compromised
but key-isolated machine could actually do.

Behaviours are **reversible**: ``XBehaviour(...).install(node)`` returns
the :class:`Behaviour` handle, whose :meth:`~Behaviour.uninstall` restores
the node, even when several behaviours are stacked on one node in any
install/uninstall order.  The chaos campaign (:mod:`repro.chaos`) relies
on this to compose fault windows with clean undo.

Randomised behaviours (the dropper, the duplicator) draw from a private
``random.Random(f"fault:{seed}:{node.name}")`` rather than the shared
simulator RNG, so arming a fault never perturbs the RNG stream of
unrelated simulation components (network jitter):
the honest part of a run stays bit-identical with the fault on or off.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import replace as dataclass_replace
from typing import Any, Callable, Dict, Optional

from repro.app.statemachine import Operation, StateMachine
from repro.crypto.primitives import attach_auth, make_equivocating_mac_vector, sign_many
from repro.sim.node import Node


def _fault_rng(node: Node) -> random.Random:
    """Private, platform-stable RNG for one behaviour instance.

    String seeds hash via SHA-512 in CPython, stable across platforms —
    the same convention as the per-driver workload RNGs.
    """
    return random.Random(f"fault:{getattr(node.sim, 'seed', 0)}:{node.name}")


class Behaviour:
    """A reversible interposer on a node's ``send`` path.

    Subclasses override :meth:`_apply` (the faulty send) and pass a
    message on with :meth:`_forward`.  Installed behaviours stack on
    ``node.faults``, latest last: ``Node.send`` enters the latest, each
    forwards to the one installed before it, and the earliest to
    ``Node.transmit``.  :meth:`uninstall` removes a behaviour wherever it
    sits in the stack.
    """

    kind = "behaviour"

    def __init__(self) -> None:
        self.node: Optional[Node] = None
        self.active = False

    # -- lifecycle ------------------------------------------------------
    def install(self, node: Node) -> "Behaviour":
        if self.active:
            raise RuntimeError(f"{self.kind} behaviour already installed")
        self.node = node
        node.faults.append(self)
        self.active = True
        self._on_install()
        return self

    def uninstall(self) -> None:
        """Remove the behaviour; idempotent."""
        if not self.active:
            return
        self.active = False
        self._on_uninstall()
        self.node.faults.remove(self)

    # -- hooks ----------------------------------------------------------
    def _on_install(self) -> None:
        """Subclass hook run after the behaviour joined the stack."""

    def _on_uninstall(self) -> None:
        """Subclass hook run before the behaviour leaves the stack."""

    def _apply(self, dst, message) -> None:
        self._forward(dst, message)

    def _forward(self, dst, message) -> None:
        """Pass ``message`` to the behaviour installed before this one, or
        to ``Node.transmit`` when there is none."""
        faults = self.node.faults
        below = faults.index(self)
        if below:
            faults[below - 1]._apply(dst, message)
        else:
            self.node.transmit(dst, message)


class SilenceBehaviour(Behaviour):
    """The node stops sending (selected) messages but keeps receiving.

    More insidious than a crash: peers cannot distinguish it from a slow
    node, so timeout-based fault handling must kick in.
    """

    kind = "silence"

    def __init__(self, to: Optional[Callable[[Node], bool]] = None):
        super().__init__()
        self.to = to

    def _apply(self, dst, message) -> None:
        if self.to is None or self.to(dst):
            return  # swallow
        self._forward(dst, message)


class DelayBehaviour(Behaviour):
    """The node delays every outgoing message by ``delay_ms``.

    Delayed transmissions are parked on the simulator; they are discarded
    (not emitted) if the behaviour was uninstalled or the node crashed in
    the meantime — a crashed or cured delayer must stop emitting.
    """

    kind = "delay"

    def __init__(self, delay_ms: float):
        super().__init__()
        self.delay_ms = delay_ms
        self._pending: Dict[int, Any] = {}
        self._next_token = 0

    def _apply(self, dst, message) -> None:
        token = self._next_token
        self._next_token += 1
        node = self.node
        self._pending[token] = node.sim.schedule(
            self.delay_ms, self._emit, token, node.crash_count, dst, message
        )

    def _emit(self, token: int, crash_count: int, dst, message) -> None:
        self._pending.pop(token, None)
        # A node that crashed (and maybe recovered) since loses the message.
        if self.active and self.node.crash_count == crash_count:
            self._forward(dst, message)

    def _on_uninstall(self) -> None:
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()


class DropBehaviour(Behaviour):
    """The node randomly drops a fraction of its outgoing messages."""

    kind = "drop"

    def __init__(self, drop_fraction: float, rng: Optional[random.Random] = None):
        super().__init__()
        self.drop_fraction = drop_fraction
        self.rng = rng
        self.dropped = 0

    def _on_install(self) -> None:
        if self.rng is None:
            self.rng = _fault_rng(self.node)

    def _apply(self, dst, message) -> None:
        if self.rng.random() < self.drop_fraction:
            self.dropped += 1
            return
        self._forward(dst, message)


class DuplicateBehaviour(Behaviour):
    """The node re-sends a fraction of its messages (at-least-once links)."""

    kind = "duplicate"

    def __init__(self, dup_fraction: float, rng: Optional[random.Random] = None):
        super().__init__()
        self.dup_fraction = dup_fraction
        self.rng = rng
        self.duplicated = 0

    def _on_install(self) -> None:
        if self.rng is None:
            self.rng = _fault_rng(self.node)

    def _apply(self, dst, message) -> None:
        self._forward(dst, message)
        if self.rng.random() < self.dup_fraction:
            self.duplicated += 1
            self._forward(dst, message)


class EquivocateBehaviour(Behaviour):
    """Authenticated equivocation on the node's *own* proposals.

    The node sends a different payload variant to half its receivers,
    each variant carrying a **valid** authenticator for its receiver —
    a MAC-vector entry computed with the sender's own keys (PBFT
    ``PrePrepare``) or a fresh signature over the forged body (IRMC
    ``SendMsg``, or a ``SendsMsg`` bundle with every chosen entry
    forged), batch-signed if the genuine one was.  Every receiver's crypto check passes, yet no two
    halves of the group saw the same bytes; only the quorum logic
    (PBFT's 2f+1 matching prepares / commit-certificate intersection,
    IRMC's fs+1 matching first-copies) can catch the lie.

    The key-isolation rule still holds: messages whose ``sender`` is not
    this node (relayed evidence, forwarded requests) pass through
    untouched — the node holds no keys to re-authenticate them.

    Each proposal (identified by its protocol coordinates, not object
    identity, so retransmissions equivocate consistently) is chosen for
    equivocation once with probability ``fraction`` from the private RNG;
    the lied-to half of the group is the deterministic CRC-odd half of
    the receiver names.
    """

    kind = "equivocate"

    #: bound on the per-proposal decision memo (FIFO eviction)
    _DECISION_LIMIT = 4096

    def __init__(self, fraction: float = 1.0, rng: Optional[random.Random] = None):
        super().__init__()
        self.fraction = fraction
        self.rng = rng
        self.equivocated = 0
        self._decisions: Dict[Any, bool] = {}
        self._pre_prepare_cls: Optional[type] = None
        self._send_msg_cls: Optional[type] = None
        self._sends_msg_cls: Optional[type] = None

    def _on_install(self) -> None:
        if self.rng is None:
            self.rng = _fault_rng(self.node)
        # Lazy protocol imports keep this low-level module free of
        # load-time dependencies on the consensus/channel layers.
        from repro.consensus.pbft.messages import PrePrepare
        from repro.irmc.messages import SendMsg, SendsMsg

        self._pre_prepare_cls = PrePrepare
        self._send_msg_cls = SendMsg
        self._sends_msg_cls = SendsMsg

    def _decide(self, key: Any) -> bool:
        decision = self._decisions.get(key)
        if decision is None:
            decision = self.rng.random() < self.fraction
            self._decisions[key] = decision
            if len(self._decisions) > self._DECISION_LIMIT:
                self._decisions.pop(next(iter(self._decisions)))
        return decision

    @staticmethod
    def _lied_to(dst) -> bool:
        return zlib.crc32(dst.name.encode("utf-8")) & 1 == 1

    def _apply(self, dst, message) -> None:
        variant = self._variant_for(dst, message)
        if variant is None:
            self._forward(dst, message)
        else:
            self.equivocated += 1
            self._forward(dst, variant)

    def _variant_for(self, dst, message) -> Optional[Any]:
        node = self.node
        if getattr(message, "sender", None) != node.name:
            return None
        if isinstance(message, self._pre_prepare_cls):
            key = ("pp", message.tag, message.view, message.seq)
            if not self._decide(key) or not self._lied_to(dst):
                return None
            forged = ("__equivocation__", node.name, message.seq)
            body = dataclass_replace(message, payload=forged, auth=None)
            return attach_auth(
                body, auth=make_equivocating_mac_vector(node.name, {dst.name: body})
            )
        if isinstance(message, self._send_msg_cls):
            key = ("send", message.tag, message.subchannel, message.position)
            if not self._decide(key) or not self._lied_to(dst):
                return None
            forged = ("__equivocation__", node.name, message.position)
            return self._resigned(message, payload=forged)
        if isinstance(message, self._sends_msg_cls):
            # The same per-position decision a lone SendMsg would get.
            entries = tuple(
                (subchannel, position, ("__equivocation__", node.name, position), window)
                if self._decide(("send", message.tag, subchannel, position))
                else (subchannel, position, payload, window)
                for subchannel, position, payload, window in message.entries
            )
            if entries == message.entries or not self._lied_to(dst):
                return None
            return self._resigned(message, entries=entries)
        return None

    def _resigned(self, message, **forged) -> Any:
        """The forged copy under a fresh signature of the genuine one's
        form: alone, or one of a batch of as many (the liar holds the key,
        so it can sign any batch it likes; wire sizes cannot tell)."""
        body = dataclass_replace(message, signature=None, **forged)
        siblings = getattr(message.signature, "siblings", ())
        return attach_auth(body, signature=sign_many(self.node.name, [body, *siblings])[0])


class _EquivocatingKVStore(StateMachine):
    """A corrupted application returning wrong results to some requests.

    Models a compromised execution replica lying about results: the
    underlying state still evolves (so later honest answers stay
    plausible), but replies are altered.  Clients defeat it by requiring
    ``f_e + 1`` matching replies.
    """

    def __init__(self, inner: StateMachine, lie_every: int = 1, salt: str = ""):
        self.inner = inner
        self.lie_every = lie_every
        self.salt = salt
        self._calls = 0

    def apply(self, operation: Operation) -> Any:
        result = self.inner.apply(operation)
        self._calls += 1
        if self._calls % self.lie_every == 0:
            # The salt makes independent liars produce distinct forgeries;
            # colluding liars can pass salt="" to fabricate matching ones.
            return ("forged", self.salt, self._calls)
        return result

    def snapshot(self) -> Any:
        return self.inner.snapshot()

    def restore(self, state: Any) -> None:
        self.inner.restore(state)

    def state_size_bytes(self) -> int:
        return self.inner.state_size_bytes()


class CorruptAppBehaviour(Behaviour):
    """Replace an execution replica's application with a lying wrapper.

    ``colluding=True`` makes all liars fabricate *identical* results —
    enough of them can then outvote honest replicas (the fault budget).
    """

    kind = "corrupt-app"

    def __init__(self, lie_every: int = 1, colluding: bool = False):
        super().__init__()
        self.lie_every = lie_every
        self.colluding = colluding
        self._previous_app: Optional[StateMachine] = None

    def _on_install(self) -> None:
        replica = self.node
        salt = "" if self.colluding else replica.name
        self._previous_app = replica.app
        replica.app = _EquivocatingKVStore(
            replica.app, lie_every=self.lie_every, salt=salt
        )

    def _on_uninstall(self) -> None:
        # The honest state kept evolving inside the wrapper; hand it back.
        self.node.app = self._previous_app
