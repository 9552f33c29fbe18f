"""CLI for the experiment harness.

Usage::

    python -m repro.experiments <experiment> [--quick] [--seed N]
    python -m repro.experiments chaos --configs spider-cp-crash,pbft
    python -m repro.experiments all [--quick]
    python -m repro.experiments suite chaos
    python -m repro.experiments suite reshard \
        --seeds 1,2 --scenarios spider-reshard --out report.json

Experiments: fig7, fig8, fig9_modularity, fig9_irmc, fig10, fig11, chaos.
``--configs`` narrows the chaos campaign to a comma-separated subset of
its stack configurations (see ``repro.chaos.CASES``).

``suite`` runs the pinned ``chaos`` or ``reshard`` suite
(``repro.chaos.SUITES``; see ``docs/experiments.md``): every ``scenario
x seed`` cell runs through :func:`repro.chaos.run_cells`, and the
per-cell records are printed (or written with ``--out``) as JSON.
Exits non-zero if any cell fails.  An unknown configuration or scenario
name is a usage error (exit 2) that lists the known ones.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.chaos import SEEDS, SUITES, run_cells, suite_scenarios
from repro.errors import ConfigurationError
from repro.experiments import chaos
from repro.experiments.figures import FIGURES

#: experiment name -> ``run(quick=, seed=)``
EXPERIMENTS = {"chaos": chaos.run, **FIGURES}


def _split_csv(text):
    return [item for item in text.split(",") if item]


def _scenarios(parser, suite, text):
    """The named subset of ``suite`` (all when ``text`` is None); an
    unknown name is a usage error listing the known ones."""
    try:
        return suite_scenarios(suite, None if text is None else _split_csv(text))
    except ConfigurationError as error:
        parser.error(str(error))


def run_suite_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments suite",
        description="run the cells of a pinned chaos suite",
    )
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list (default: 1-12)",
    )
    parser.add_argument(
        "--scenarios", default=None,
        help="comma-separated subset of the suite's scenarios to run",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report to this path"
    )
    args = parser.parse_args(argv)
    scenarios = _scenarios(parser, args.suite, args.scenarios)
    seeds = [int(s) for s in _split_csv(args.seeds)] if args.seeds else SEEDS
    cells = run_cells(args.suite, scenarios, seeds)
    failed = [cell for cell in cells if not cell["ok"]]
    report = json.dumps(
        {"suite": args.suite, "ok": not failed, "cells": cells},
        indent=2, sort_keys=True, default=repr,
    )
    if args.out:
        pathlib.Path(args.out).write_text(report + "\n")
    print(report)
    print(f"suite {args.suite!r}: {len(cells)} cells, {len(failed)} failed", file=sys.stderr)
    for cell in failed:
        print(f"FAILED: {cell.get('error') or cell}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["suite"]:
        return run_suite_command(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all", "suite"]
    )
    parser.add_argument("--quick", action="store_true", help="reduced scale")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--configs",
        default=None,
        help="chaos only: comma-separated stack configurations to sweep "
        "(default: all of them)",
    )
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        # lint: allow[D102] -- reports real elapsed wall time of the
        # experiment CLI; nothing simulated depends on it
        started = time.time()
        kwargs = dict(quick=args.quick, seed=args.seed)
        if args.configs is not None:
            if name != "chaos":
                parser.error("--configs only applies to the chaos experiment")
            kwargs["configs"] = _scenarios(parser, "chaos", args.configs)
        result = EXPERIMENTS[name](**kwargs)
        # lint: allow[D102] -- same wall-time progress report as above
        elapsed = time.time() - started
        print(result.format())
        print(f"({name} finished in {elapsed:.1f} s wall time)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
