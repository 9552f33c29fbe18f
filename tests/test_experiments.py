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
        assert set(FIGURES) == {
            "fig7", "fig8", "fig9_modularity", "fig9_irmc", "fig10", "fig11",
        }
        assert all(callable(run) for run in FIGURES.values())

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

    def test_cli_rejects_unknown(self, capsys):
        """A usage error exits 2; ``chaos`` is one too, since chaos cells
        run only through ``suite``."""
        from repro.experiments.__main__ import main

        for name in ("nonsense", "chaos"):
            with pytest.raises(SystemExit) as exit_info:
                main([name, "--quick"])
            assert exit_info.value.code == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err

    def test_suite_report_carries_the_failure_record(self, monkeypatch, tmp_path, capsys):
        """A violating cell's report record carries the shrunk schedule and
        the snippet of its failure record, and its CRC once, as
        ``campaign_fingerprint``.  Stderr names the cell, its first
        violation and the shrunk schedule."""
        import json

        from repro.chaos import ChaosCase, FaultAction
        from repro.experiments.__main__ import main

        wedge = [FaultAction("block_link", f"r{i}->r3", 500.0, 1e9) for i in range(3)]
        innocent = FaultAction("delay", "r1", 600.0, 200.0, 30.0)
        monkeypatch.setattr(ChaosCase, "derive_schedule", lambda case, seed: wedge + [innocent])
        out = tmp_path / "report.json"
        argv = ["suite", "chaos", "--scenarios", "pbft", "--seeds", "2", "--out", str(out)]
        assert main(argv) == 1
        report = json.loads(out.read_text())
        [cell] = report["cells"]
        assert not report["ok"] and not cell["ok"] and "error" not in cell
        assert "campaign_fingerprint" in cell and "fingerprint" not in cell
        assert cell["minimized"] and dict(vars(innocent)) not in cell["minimized"]
        assert "FAILS at generation time" in cell["snippet"]
        error = capsys.readouterr().err
        assert f"FAILED: suite 'chaos', scenario 'pbft' seed 2: {cell['violations'][0]}" in error
        assert "minimized: [\n    FaultAction(kind='block_link'" in error

    def test_chaos_reports_a_cell_that_raised(self, monkeypatch, tmp_path, capsys):
        """A cell that raised has no violations and nothing to shrink: its
        report record carries its error and no failure fields, stderr names
        the error, and the suite exits 1."""
        import json

        from repro.chaos import ChaosCase
        from repro.experiments.__main__ import main

        def explode(case, seed):
            raise RuntimeError("stack blew up")

        monkeypatch.setattr(ChaosCase, "run", explode)
        out = tmp_path / "report.json"
        argv = ["suite", "chaos", "--scenarios", "pbft-skew", "--seeds", "1,2", "--out", str(out)]
        assert main(argv) == 1
        cells = json.loads(out.read_text())["cells"]
        assert [cell["seed"] for cell in cells if not cell["ok"]] == [1, 2]
        assert set(cells[0]) == {"scenario", "seed", "config", "overrides", "ok", "error"}
        error = capsys.readouterr().err
        assert (
            "FAILED: suite 'chaos', scenario 'pbft-skew' seed 1: RuntimeError: stack blew up"
            in error
        )
        assert "minimized" not in error

    @pytest.mark.parametrize(
        "argv, known",
        [
            (["suite", "chaos", "--scenarios", "pbft,nope"], "'pbft-vc-crash'"),
            (["suite", "reshard", "--scenarios", "nope"], "'spider-reshard-double'"),
        ],
    )
    def test_unknown_name_is_a_usage_error(self, argv, known, capsys):
        """A misspelt scenario exits 2 naming what exists,
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


class TestPopulate:
    def test_clients_come_out_in_region_index_role_order(self):
        """Events scheduled for one instant fire in creation order, so the
        nesting is part of every closed-loop figure's result."""
        from types import SimpleNamespace

        from repro.experiments.figures import FIG10_ROLES, populate
        from repro.sim import Simulator

        drivers = populate(
            Simulator(seed=1),
            lambda name, region: SimpleNamespace(name=name, region=region),
            ["virginia", "tokyo"],
            2,
            FIG10_ROLES,
        )
        assert [driver.client.name for driver in drivers] == [
            "w-virginia-0", "r-virginia-0", "w-virginia-1", "r-virginia-1",
            "w-tokyo-0", "r-tokyo-0", "w-tokyo-1", "r-tokyo-1",
        ]
        assert [driver.mix for driver in drivers] == [mix for _prefix, mix in FIG10_ROLES] * 4
