"""Chaos campaign: seeded fault schedules against every stack configuration.

Not a paper figure — this is the repo's systematic answer to the ROADMAP's
"as many scenarios as you can imagine": for each stack configuration
(full Spider, PBFT-only, Raft-only, IRMC-RC, IRMC-SC, plus the targeted
recovery stacks ``pbft-vc-crash`` — crash inside a view change — and
``spider-cp-crash`` — double crash/recover across checkpoint windows) it
sweeps seeds, each seed deriving a deterministic fault schedule
(crash/recover, silence, delay, loss, duplication, partition/heal,
Byzantine-style partial muting) plus a deterministic workload, and checks
safety and liveness invariants once every fault healed.  Crash/recovered
replicas owe full liveness: recovery is a protocol phase (state transfer,
driver respawn, checkpoint-fetch-on-boot), not an exemption.

Any failing ``(config, seed)`` is shrunk to a minimal schedule and
reported as a paste-able regression snippet; failures are also written to
``benchmarks/CHAOS_failures.json`` so CI can attach them as an artifact::

    python -m repro.experiments chaos --quick
    python -m repro.experiments chaos --seed 7   # shifts the seed window
    python -m repro.experiments chaos --configs spider-cp-crash
"""

from __future__ import annotations

import itertools
import json
import pathlib
from typing import List, Optional, Sequence

from repro.chaos import FaultAction, failure_record, run_cells
from repro.chaos.schedule import format_schedule
from repro.experiments.common import ExperimentResult

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
FAILURES_PATH = _REPO_ROOT / "benchmarks" / "CHAOS_failures.json"

#: seeds per configuration (full / --quick)
SEEDS_FULL = 16
SEEDS_QUICK = 4


def run(
    quick: bool = False,
    seed: int = 1,
    configs: Optional[Sequence[str]] = None,
    failures_path: Optional[pathlib.Path] = None,
) -> ExperimentResult:
    """Sweep the chaos suite (``repro.chaos.SUITES["chaos"]``); tabulate
    green/failing seeds.

    This CLI only picks the seed window (``--seed`` shifts it,
    ``--quick`` shrinks it) and the ``--configs`` subset.
    """
    per_config = SEEDS_QUICK if quick else SEEDS_FULL
    result = ExperimentResult(
        title=f"Chaos campaign ({per_config} seeds per configuration)",
        columns=["config", "seeds", "actions", "failures", "failing seeds"],
    )
    cells = run_cells("chaos", configs, seeds=range(seed, seed + per_config))
    all_failures: List[dict] = []
    for config, group in itertools.groupby(cells, key=lambda cell: cell["scenario"]):
        group = list(group)
        failing = [cell for cell in group if not cell["ok"]]
        all_failures.extend(failure_record(cell) for cell in failing)
        result.add_row(
            config=config,
            seeds=per_config,
            actions=sum(cell.get("n_actions", 0) for cell in group),
            failures=len(failing),
            **{"failing seeds": ",".join(str(cell["seed"]) for cell in failing) or "-"},
        )
    path = failures_path if failures_path is not None else FAILURES_PATH
    if all_failures:
        path.write_text(json.dumps(all_failures, indent=2, default=repr))
        result.notes.append(f"failing schedules written to {path}")
        for failure in all_failures:
            # A cell that raised left an error and no violations.
            first = failure["violations"][0] if "violations" in failure else failure.get("error")
            result.notes.append(f"{failure['config']} seed {failure['seed']}: {first}")
            minimized = failure.get("minimized")
            if minimized:
                result.notes.append(
                    "minimized: "
                    + format_schedule(
                        [FaultAction(**m) for m in minimized]
                    ).replace("\n", " ")
                )
    else:
        # A stale artifact from a previous failing run would confuse CI.
        if path.exists():
            path.unlink()
        result.notes.append("all invariants held; no failure artifact")
    return result
