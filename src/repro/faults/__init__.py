"""Byzantine fault injection.

The simulator's structural crypto prevents forgery, so Byzantine behaviour
is expressed as *protocol-level* misbehaviour of otherwise-authenticated
nodes: staying silent, delaying, equivocating, corrupting state machines,
or flooding.  ``XBehaviour(...).install(node)`` wraps a live node — the
one way to install a fault, used by the chaos engine and the tests of the
paper's f-tolerance claims alike.

Behaviour handles — the sharp edges
-----------------------------------
Every behaviour is a reversible :class:`Behaviour`:
``install(node)`` returns a *handle* whose ``uninstall()`` restores the
node.  The contract worth knowing before composing them:

* **Stacking**: installed behaviours sit on ``node.faults``, latest
  last.  ``node.send`` enters the latest; each passes a message on to
  the one installed before it, the earliest to ``node.transmit``.
  Handles may be uninstalled in *any* order: ``uninstall()`` removes the
  behaviour wherever it sits, and is idempotent.
* **Randomised behaviours** (:class:`DropBehaviour`,
  :class:`DuplicateBehaviour`) draw from a private
  ``random.Random(f"fault:{seed}:{node}")`` — arming them never perturbs
  the shared simulator RNG, so the honest part of a run is bit-identical
  with the fault on or off (and ``drop_fraction=0`` is a true no-op).
* **Crash interaction**: :class:`DelayBehaviour` parks transmissions on
  the simulator; parked sends are discarded if the behaviour was
  uninstalled or the node crashed in the meantime (tracked via
  ``node.crash_count``, so even a crash *and* recovery within the delay
  kills the message — a rebooted machine does not replay an old NIC
  queue).
* **Crashes are not behaviours**: ``node.crash()`` fail-stops the node
  directly and no ``uninstall()`` revives it; recovery is
  ``node.recover()``, which also runs the node's registered recovery
  hooks (driver respawn, state transfer — see
  :mod:`repro.sim.node`).  The chaos layer's ``crash`` windows undo via
  exactly that path.

The chaos campaign (:mod:`repro.chaos`) composes these handles into
seeded fault schedules with per-window undo.
"""

from repro.faults.behaviours import (
    Behaviour,
    CorruptAppBehaviour,
    DelayBehaviour,
    DropBehaviour,
    DuplicateBehaviour,
    EquivocateBehaviour,
    SilenceBehaviour,
)

__all__ = [
    "Behaviour",
    "SilenceBehaviour",
    "DelayBehaviour",
    "DropBehaviour",
    "DuplicateBehaviour",
    "EquivocateBehaviour",
    "CorruptAppBehaviour",
]
