"""Experiment harness: the paper's evaluation tables.

Figs. 7-11 live in :mod:`repro.experiments.figures` as tables of cells
(``FIGURES[name](quick=False, seed=1)``); ``quick`` shrinks client counts
and durations for CI/benchmark runs without changing an experiment's
structure.  The CLI mirrors this::

    python -m repro.experiments fig7          # full run
    python -m repro.experiments fig9_irmc --quick

See ``docs/experiments.md`` for the experiment index and the recorded
paper-vs-measured comparison.  The figures are not imported here:
``repro.experiments.common`` must stay importable without the figure
tables and the baselines they build.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
