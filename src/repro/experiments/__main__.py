"""CLI for the experiment harness.

Usage::

    python -m repro.experiments <figure> [--quick] [--seed N]
    python -m repro.experiments all [--quick]
    python -m repro.experiments suite chaos
    python -m repro.experiments suite reshard \
        --seeds 1,2 --scenarios spider-reshard --out report.json

Figures: fig7, fig8, fig9_modularity, fig9_irmc, fig10, fig11.

``suite`` runs the pinned ``chaos`` or ``reshard`` suite
(``repro.chaos.SUITES``; see ``docs/experiments.md``): every ``scenario
x seed`` cell runs through :func:`repro.chaos.run_cells`, and the
per-cell records are printed (or written with ``--out``) as JSON.  A
violating cell also carries the ``minimized`` schedule and the
paste-able regression ``snippet`` of its
:func:`repro.chaos.failure_record`, and its first violation and
minimized schedule go to stderr.  Exits 1 if any cell
fails.  An unknown scenario name is a usage error (exit 2) that lists
the known ones.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.chaos import SEEDS, SUITES, FaultAction, failure_record, run_cells, suite_scenarios
from repro.chaos.schedule import format_schedule
from repro.errors import ConfigurationError
from repro.experiments.figures import FIGURES


def _split_csv(text):
    return [item for item in text.split(",") if item]


def _report_failure(suite, cell) -> None:
    """Name a failing cell's scenario and seed, its first violation (or
    the error it raised) and its minimized schedule, on stderr."""
    what = cell.get("error") or (
        f"scenario {cell['scenario']!r} seed {cell['seed']}: {cell['violations'][0]}"
    )
    print(f"FAILED: suite {suite!r}, {what}", file=sys.stderr)
    if "minimized" in cell:
        minimized = [FaultAction(**action) for action in cell["minimized"]]
        print(f"minimized: {format_schedule(minimized)}", file=sys.stderr)


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
    try:
        scenarios = suite_scenarios(
            args.suite, None if args.scenarios is None else _split_csv(args.scenarios)
        )
    except ConfigurationError as error:
        parser.error(str(error))
    seeds = [int(s) for s in _split_csv(args.seeds)] if args.seeds else SEEDS
    cells = run_cells(args.suite, scenarios, seeds)
    failed = [cell for cell in cells if not cell["ok"]]
    for cell in failed:
        if "error" not in cell:
            record = failure_record(cell)
            cell.update(minimized=record["minimized"], snippet=record["snippet"])
    report = json.dumps(
        {"suite": args.suite, "ok": not failed, "cells": cells},
        indent=2, sort_keys=True, default=repr,
    )
    if args.out:
        pathlib.Path(args.out).write_text(report + "\n")
    print(report)
    print(f"suite {args.suite!r}: {len(cells)} cells, {len(failed)} failed", file=sys.stderr)
    for cell in failed:
        _report_failure(args.suite, cell)
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["suite"]:
        return run_suite_command(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument(
        "experiment", choices=sorted(FIGURES) + ["all", "suite"]
    )
    parser.add_argument("--quick", action="store_true", help="reduced scale")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    names = sorted(FIGURES) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(FIGURES[name](quick=args.quick, seed=args.seed).format())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
