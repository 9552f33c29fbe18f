"""CLI for the experiment harness.

Usage::

    python -m repro.experiments <experiment> [--quick] [--seed N]
    python -m repro.experiments chaos --configs spider-cp-crash,pbft
    python -m repro.experiments all [--quick]
    python -m repro.experiments suite suites/chaos.yaml
    python -m repro.experiments suite examples/suite.yaml \
        --seeds 1,2 --scenarios pbft,raft --out report.json

Experiments: fig7, fig8, fig9_modularity, fig9_irmc, fig10, fig11, chaos.
``--configs`` narrows the chaos campaign to a comma-separated subset of
its stack configurations (see ``repro.chaos.CASES``).

``suite`` runs a declarative scenario suite (``.yaml``/``.json``; see
``docs/experiments.md``): the file is validated before any node exists,
every ``scenario x seed`` cell runs through one fingerprint-cached
runner, and the full report — per-cell stats, fingerprints, cache
reuse counters — is printed (or written with ``--out``) as JSON.
Exits non-zero if any cell fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.experiments import chaos
from repro.experiments.figures import FIGURES

#: experiment name -> ``run(quick=, seed=)``
EXPERIMENTS = {"chaos": chaos.run, **FIGURES}


def _split_csv(text):
    return [item for item in text.split(",") if item]


def run_suite_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments suite",
        description="run a declarative scenario suite",
    )
    parser.add_argument("path", help="suite file (.yaml/.yml/.json)")
    parser.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list overriding the suite's seeds",
    )
    parser.add_argument(
        "--scenarios", default=None,
        help="comma-separated subset of scenario names to run",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report to this path"
    )
    args = parser.parse_args(argv)

    from repro.scenarios import load_suite, run_suite

    suite = load_suite(args.path)
    seeds = [int(s) for s in _split_csv(args.seeds)] if args.seeds else None
    scenarios = _split_csv(args.scenarios) if args.scenarios else None
    result = run_suite(suite, seeds=seeds, scenarios=scenarios)
    report = json.dumps(result.to_dict(), indent=2, sort_keys=True, default=repr)
    if args.out:
        pathlib.Path(args.out).write_text(report + "\n")
    print(report)
    cache = result.cache_stats
    print(
        f"suite {result.suite!r}: {len(result.cells)} cells, "
        f"{len(result.failures())} failed; build cache "
        f"{cache['hits']} hits / {cache['misses']} misses",
        file=sys.stderr,
    )
    for cell in result.failures():
        print(f"FAILED: {cell.error or cell.stats}", file=sys.stderr)
    return 0 if result.ok else 1


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
            kwargs["configs"] = _split_csv(args.configs)
        result = EXPERIMENTS[name](**kwargs)
        # lint: allow[D102] -- same wall-time progress report as above
        elapsed = time.time() - started
        print(result.format())
        print(f"({name} finished in {elapsed:.1f} s wall time)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
