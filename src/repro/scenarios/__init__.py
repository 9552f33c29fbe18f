"""Declarative scenario suites: pure-data specs, one runner, cached builds.

The scenario layer turns the fault-campaign and traffic experiment
families — chaos, reshard, the overload A/B — into *data* (the paper's
figures are tables of deploy specs, :mod:`repro.experiments.figures`):
a :class:`ScenarioSpec` names a registered stack and carries topology /
workload / faults / scale fragments.  A :class:`SuiteSpec`
(usually loaded from YAML or JSON) layers suite defaults under
per-scenario overrides and validates the whole matrix before any node
exists.

Everything expensive to build is cached by the canonical structural
fingerprint of the fragment that defines it (:func:`structural_
fingerprint`); the same fingerprints land in result artifacts as the
run's determinism identity.
"""

from repro.scenarios.cache import BuildCache
from repro.scenarios.fingerprint import canonical_repr, structural_fingerprint
from repro.scenarios.runner import CellResult, SuiteResult, run, run_matrix, run_suite
from repro.scenarios.spec import (
    FaultSpec,
    ScenarioSpec,
    SuiteSpec,
    WorkloadSpec,
    deep_merge,
    load_suite,
    suite_from_dict,
)
from repro.scenarios.stacks import register_stack, resolve_stack

__all__ = [
    "BuildCache",
    "CellResult",
    "FaultSpec",
    "ScenarioSpec",
    "SuiteResult",
    "SuiteSpec",
    "WorkloadSpec",
    "canonical_repr",
    "deep_merge",
    "load_suite",
    "register_stack",
    "resolve_stack",
    "run",
    "run_matrix",
    "run_suite",
    "structural_fingerprint",
    "suite_from_dict",
]
