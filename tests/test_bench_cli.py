"""Tests for the benchmark CLI (python -m repro.bench)."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.harness import cell_cache_stats, run_cell
from repro.core.pipeline import PipelineStages
from repro.runtime.device import SD8GEN2, V100


class TestBenchCli:
    def test_single_experiment(self, capsys):
        assert bench_main(["micro_rw"]) == 0
        out = capsys.readouterr().out
        assert "Micro (Sec 3.2.2)" in out
        assert "conv2d" in out

    def test_unknown_experiment(self, capsys):
        assert bench_main(["table99"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert bench_main(["micro_rw", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data) == 1
        assert data[0]["name"] == "Micro (Sec 3.2.2)"
        assert data[0]["data"]["conv2d"] > 1.0

    def test_json_missing_path(self, capsys):
        assert bench_main(["micro_rw", "--json"]) == 2

    def test_multi_experiment_fig11_list(self, tmp_path):
        """fig11 returns a list of experiments (one per device); the CLI
        flattens it."""
        path = tmp_path / "out.json"
        assert bench_main(["table9", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data[0]["name"] == "Table 9"

    def test_all_flag_excludes_explicit_targets(self, capsys):
        assert bench_main(["--all", "micro_rw"]) == 2
        assert "cannot be combined" in capsys.readouterr().out

    def test_unknown_flag_rejected(self, capsys):
        assert bench_main(["micro_rw", "--frobnicate"]) == 2
        assert "unknown flags" in capsys.readouterr().out


class TestTimings:
    def test_timings_writes_pipeline_json(self, tmp_path, capsys):
        path = tmp_path / "BENCH_pipeline.json"
        assert bench_main(["table1", "micro_rw", "--timings",
                           "--timings-out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["suite"] == ["table1", "micro_rw"]
        assert set(data["cell_cache"]) == {
            "hits", "misses", "evictions", "graph_entries"}
        assert len(data["experiments"]) == 2
        for entry in data["experiments"]:
            assert entry["wall_s"] >= 0
            assert entry["cells_computed"] >= 0
            assert entry["cache_hits"] >= 0
            assert isinstance(entry["passes"], dict)
        # per-pass wall-time breakdown accompanies the trajectory
        assert isinstance(data["pass_timings"], dict)
        for entry in data["pass_timings"].values():
            assert entry["runs"] >= 1
            assert entry["wall_s"] >= 0
        # serving walls belong to the full-suite trajectory only
        assert "serve" not in data
        out = capsys.readouterr().out
        assert "Pipeline timings" in out

    def test_pass_timings_attributed_to_experiment(self, tmp_path):
        """An experiment that compiles SmartMem modules shows per-pass
        runs/wall-time in its trajectory entry."""
        from repro.bench.harness import clear_cell_cache

        clear_cell_cache()  # force real compiles so passes actually run
        path = tmp_path / "traj.json"
        assert bench_main(["ablations", "--timings-out", str(path)]) == 0
        entry = json.loads(path.read_text())["experiments"][0]
        assert entry["passes"]["lte"]["runs"] > 0
        assert entry["passes"]["fusion"]["runs"] > 0
        assert entry["passes"]["lte"]["wall_s"] >= 0

    def test_timings_out_missing_path(self):
        assert bench_main(["micro_rw", "--timings-out"]) == 2

    def test_timings_out_implies_timings(self, tmp_path, capsys):
        path = tmp_path / "traj.json"
        assert bench_main(["micro_rw", "--timings-out", str(path)]) == 0
        assert json.loads(path.read_text())["suite"] == ["micro_rw"]


class TestCellCache:
    def test_repeated_cell_is_cached(self):
        first = run_cell("ViT", "MNN", SD8GEN2)
        before = cell_cache_stats()
        second = run_cell("ViT", "MNN", SD8GEN2)
        after = cell_cache_stats()
        assert second is first
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_distinct_kwargs_get_distinct_cells(self):
        plain = run_cell("ViT", "Ours", SD8GEN2)
        ablated = run_cell("ViT", "Ours", SD8GEN2,
                           stages=PipelineStages(lte=False))
        assert ablated is not plain
        assert ablated.operator_count >= plain.operator_count

    def test_distinct_devices_get_distinct_cells(self):
        a = run_cell("ViT", "DNNF", SD8GEN2)
        b = run_cell("ViT", "DNNF", V100)
        assert a is not b

    def test_report_computed_once(self):
        cell = run_cell("ViT", "DNNF", SD8GEN2)
        assert cell.report is cell.report
        assert cell.latency_ms == pytest.approx(cell.report.latency_ms)
