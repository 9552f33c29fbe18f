"""The overload scenario: a declarative flash-crowd A/B cell.

A :class:`ScenarioSpec` names the ``overload`` stack and carries a
cluster topology, a ``flash-plan`` workload and a run scale; :func:`run`
validates it and replays the plan (``benchmarks/test_overload.py``, the
``flash_crowd_armed`` spiderbench workload).  The chaos and reshard
cells are rows of :data:`repro.chaos.SUITES`, and the paper's figures
are tables of deploy specs (:mod:`repro.experiments.figures`).

:func:`structural_fingerprint` is the repo's canonical content digest
of a spec fragment: stable across processes and construction order.
"""

from repro.scenarios.fingerprint import canonical_repr, structural_fingerprint
from repro.scenarios.runner import run
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec

__all__ = [
    "ScenarioSpec",
    "WorkloadSpec",
    "canonical_repr",
    "run",
    "structural_fingerprint",
]
