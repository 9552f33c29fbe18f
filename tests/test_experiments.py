"""Smoke tests for the experiment harness (full runs live in benchmarks/)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.common import ExperimentResult, RunScale
from repro.experiments.figures import FIGURES


class TestExperimentResult:
    def test_format_renders_all_columns(self):
        result = ExperimentResult(title="T", columns=["a", "b"])
        result.add_row(a=1.234, b="x")
        result.notes.append("hello")
        text = result.format()
        assert "T" in text and "1.2" in text and "x" in text and "note: hello" in text

    def test_empty_table(self):
        result = ExperimentResult(title="empty", columns=["a"])
        assert "empty" in result.format()

    def test_run_scale_quick_is_smaller(self):
        assert RunScale.quick().duration_ms < RunScale().duration_ms


class TestRegistryOfExperiments:
    def test_all_experiments_importable(self):
        from repro.experiments.__main__ import EXPERIMENTS

        assert set(EXPERIMENTS) == {"chaos", *FIGURES}
        assert all(callable(run) for run in EXPERIMENTS.values())

    def test_shared_scaffolding_imports_neither_figures_nor_baselines(self):
        """The benchmark harness imports ``repro.experiments.common`` and
        ``repro.scenarios`` and times its own start-up; the figure tables
        and the baselines they build must not ride along."""
        script = (
            "import sys, repro.experiments.common, repro.scenarios\n"
            "print([m for m in sys.modules if m.startswith("
            "('repro.baselines', 'repro.experiments.figures'))])"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        assert output.stdout.strip() == "[]"


class TestQuickRuns:
    """Tiny end-to-end runs; full shape checks are in benchmarks/."""

    def test_fig8_quick(self):
        result = FIGURES["fig8"](quick=True)
        systems = {row["system"] for row in result.rows}
        assert systems == {"BFT", "HFT", "SPIDER"}
        spider_weak = next(
            row for row in result.rows
            if row["system"] == "SPIDER" and row["consistency"] == "weak"
        )
        assert 0 < spider_weak["T p50"] < 5.0

    def test_fig9_modularity_quick(self):
        result = FIGURES["fig9_modularity"](quick=True)
        variants = [row["variant"] for row in result.rows]
        assert variants == ["SPIDER-0E", "SPIDER-1E", "SPIDER"]
        for row in result.rows:
            assert row["V p50"] > 0

    def test_fig10_readers_only_read(self):
        """``OperationMix(weak_read=1.0)`` alone leaves ``write`` at its
        default 1.0 — a "reader" that writes half the time."""
        from repro.deploy import build
        from repro.experiments.common import fresh_env
        from repro.experiments.figures import FIG10_ROLES, SPIDER, populate, settle

        sim, network = fresh_env(seed=1)
        system = build(sim, SPIDER, network=network)
        drivers = populate(
            sim, system.make_client, ["virginia"], 1, FIG10_ROLES,
            think_ms=50.0, duration_ms=2_000.0,
        )
        settle(sim, drivers, 5_000.0)
        kinds = {
            driver.client.name: {kind for kind, _start, _latency in driver.client.completed}
            for driver in drivers
        }
        assert kinds == {"w-virginia-0": {"write"}, "r-virginia-0": {"weak-read"}}

    def test_cli_runs_one_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig9_modularity", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "Fig. 9a" in captured.out

    def test_cli_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_chaos_reports_a_cell_that_raised(self, monkeypatch, tmp_path):
        """An error-only failure record has no violations; the sweep must
        still tabulate it and name the error after writing the artifact."""
        import json

        from repro.chaos import ChaosCase
        from repro.experiments import chaos

        def explode(case, seed):
            raise RuntimeError("stack blew up")

        monkeypatch.setattr(ChaosCase, "run", explode)
        path = tmp_path / "CHAOS_failures.json"
        result = chaos.run(quick=True, configs=["raft"], failures_path=path)
        assert [row["failing seeds"] for row in result.rows] == ["1,2,3,4"]
        assert set(json.loads(path.read_text())[0]) == {"config", "seed", "error"}
        assert any(
            note.startswith("raft seed 1: ") and note.endswith("RuntimeError: stack blew up")
            for note in result.notes
        )
        assert "stack blew up" in result.format()


    @pytest.mark.parametrize(
        "argv, known",
        [
            (["chaos", "--configs", "pbft,nope"], "'pbft-vc-crash'"),
            (["suite", "reshard", "--scenarios", "nope"], "'spider-reshard-double'"),
        ],
    )
    def test_unknown_name_is_a_usage_error(self, argv, known, capsys):
        """A misspelt configuration or scenario exits 2 naming what exists,
        before any cell runs."""
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "'nope'" in error and known in error


class TestUnservedCells:
    """A population nobody answered must not become a table row: an empty
    region summarises to 0.0, which every "below the baseline" check passes."""

    def test_no_sample_after_the_warmup_raises(self):
        from repro.experiments.figures import FIG9_MODULARITY, CellError, run_cell

        scale = RunScale(
            clients_per_region=1, duration_ms=400.0, warmup_ms=1000.0,
            think_ms=100.0, drain_ms=3000.0,
        )
        with pytest.raises(CellError, match="region virginia: no sample"):
            run_cell(FIG9_MODULARITY.cells[-1], scale, seed=1)

    def test_partitioned_agreement_group_raises(self):
        """Virginia cut off: every other region's write stays unanswered."""
        from repro.deploy import build
        from repro.experiments.common import REGIONS, fresh_env, spider_spec
        from repro.experiments.figures import CellError, measure_latency

        sim, network = fresh_env(seed=1)
        system = build(sim, spider_spec(), network=network)
        network.partition({"virginia"})
        scale = RunScale(
            clients_per_region=1, duration_ms=1000.0, warmup_ms=0.0,
            think_ms=100.0, drain_ms=3000.0,
        )
        with pytest.raises(CellError, match="cl-oregon-0 in oregon.*unanswered"):
            measure_latency(sim, system.make_client, REGIONS, scale, kinds=["write"])
