"""Determinism and protocol-safety static analysis for this repository.

Every guarantee the reproduction makes — bit-parity perf fingerprints,
no-fault byte-parity in the chaos sweep, seeded replayability of every
fault schedule — rests on a determinism contract that used to be enforced
only by after-the-fact regression tests.  ``repro.lint`` turns the
contract into tooling: an AST pass (stdlib ``ast`` only) with two rule
families, run as ``python -m repro.lint src tests benchmarks``.

**D-rules (determinism)** catch nondeterminism entering simulated code:

* ``D101`` — module-level ``random.*`` draws (the shared, unseeded module
  RNG) and global ``random.seed()``.
* ``D102`` — wall-clock / environment entropy: ``time.time``,
  ``datetime.now``, ``uuid.uuid4``, ``os.urandom``, ``secrets.*``.
* ``D103`` — ``random.Random(...)`` seeded with anything other than a
  literal constant or the repo's namespaced ``f"tag:{seed}:..."`` idiom.
* ``D104`` — iteration over ``set`` values feeding an order-sensitive
  sink (sends, scheduling, dict/list build-up) without ``sorted()``.
* ``D105`` — ``id()`` in ordering or keys (addresses differ across runs).
* ``D106`` — float ``==``/``!=`` on simulated-time arithmetic.

**P-rules (protocol safety)** catch the structural bug classes the chaos
campaign (PR 3) flushed out dynamically:

* ``P201`` — node timers in ``src/`` not built on
  :class:`repro.sim.Timer` (a ``set_timeout`` call, or a ``schedule`` /
  ``post`` of a ``run_task`` callback): only ``Timer`` voids a callback
  that fired but still queues on the CPU (the stale-timer wedge).
* ``P202`` — ``object.__setattr__`` outside ``crypto/primitives.py``
  (in-place tampering with a sealed message, whose memoised repr and
  digests would go stale).
* ``P203`` — handler methods reaching into the sending node's attributes
  instead of communicating through ``Network.send``.
* ``P204`` — assignment to a ``send`` or ``deliver`` attribute: the
  message path is observed through ``Network.taps`` and faulted through
  an installed ``Behaviour``, never rebound.

Suppression is explicit and audited: a ``# lint: allow[RULE] -- why``
pragma (same line or the line above; ``allow-file`` for a whole module)
must carry a justification, and every unsuppressed finding fails, so the
tree stays at zero unsuppressed findings.  ``--strict`` additionally
fails on justification-free pragmas.

The static pass is paired with a runtime *mutation-after-send sanitizer*
(:func:`repro.net.network.set_send_sanitizer`) that catches the aliasing
bugs no syntactic rule can prove: it snapshots a structural digest of
every message at ``Network.send`` and re-verifies it at delivery.

See ``docs/determinism.md`` for the contract, the rule table and the
triage workflow.
"""

from repro.lint.engine import (  # noqa: F401
    Finding,
    Pragma,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.rules import RULES  # noqa: F401

__all__ = [
    "Finding",
    "Pragma",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
]
