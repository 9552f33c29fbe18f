"""Experiment harness: the paper's evaluation tables and the chaos campaign.

Figs. 7-11 live in :mod:`repro.experiments.figures` as tables of cells;
the chaos campaign in :mod:`repro.experiments.chaos`.  :func:`run` takes
an experiment by name; ``quick`` shrinks client counts and durations for
CI/benchmark runs without changing the experiment's structure.  The CLI
mirrors this::

    python -m repro.experiments fig7          # full run
    python -m repro.experiments fig9_irmc --quick

See ``docs/experiments.md`` for the experiment index and the recorded
paper-vs-measured comparison.
"""

from repro.experiments.common import ExperimentResult

#: the CLI's names: the chaos campaign and the keys of ``figures.FIGURES``
EXPERIMENTS = (
    "chaos", "fig7", "fig8", "fig9_modularity", "fig9_irmc", "fig10", "fig11",
)


def run(name: str, **kwargs) -> ExperimentResult:
    """Run experiment ``name`` (``quick=``, ``seed=``; chaos: ``configs=``).

    The modules behind the names are imported here, not at package
    import: ``repro.experiments.common`` must stay importable without the
    figure tables and the baselines they build."""
    if name == "chaos":
        from repro.experiments import chaos

        return chaos.run(**kwargs)
    from repro.experiments import figures

    return figures.run(name, **kwargs)


__all__ = ["ExperimentResult", "EXPERIMENTS", "run"]
