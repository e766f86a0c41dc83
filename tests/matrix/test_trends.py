"""Tests for the BENCH trend gate — including the acceptance criterion
that a synthetically regressed BENCH entry demonstrably fails it."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.matrix.trends import (
    DEFAULT_TOLERANCE,
    compare_files,
    compare_payloads,
    main,
    metric_direction,
)

REPO = Path(__file__).parent.parent.parent

KERNEL = {
    "C@2048": {
        "events": 16898,
        "events_per_sec": 193296.5,
        "messages": 14850,
        "messages_per_sec": 169869.4,
        "run_seconds": 0.0874,
        "seed_events_per_sec": 51000.0,
        "speedup_vs_seed": 3.79,
    }
}


class TestMetricDirection:
    def test_throughputs_are_higher_better(self):
        assert metric_direction("events_per_sec") == "up"
        assert metric_direction("states_per_sec") == "up"
        assert metric_direction("speedup_vs_seed") == "up"
        assert metric_direction("store_reduction_vs_pr1") == "up"

    def test_overheads_are_lower_better(self):
        key = "message overhead at drop=0.25 vs drop=0, worst ratio"
        assert metric_direction(key) == "down"

    def test_raw_counts_and_wall_times_are_untracked(self):
        for key in ("events", "states", "run_seconds",
                    "transitions", "messages"):
            assert metric_direction(key) is None

    def test_vector_engine_ratios_are_higher_better(self):
        assert metric_direction("vector_speedup_vs_record") == "up"

    def test_peak_rss_is_lower_better(self):
        assert metric_direction("peak_rss_mb") == "down"


class TestComparison:
    def test_identical_payloads_pass(self):
        report = compare_payloads(KERNEL, copy.deepcopy(KERNEL))
        assert report.ok
        assert report.findings  # tracked metrics were actually compared

    def test_synthetic_regression_fails_the_gate(self):
        """The acceptance criterion: a regressed BENCH entry must fail."""
        regressed = copy.deepcopy(KERNEL)
        regressed["C@2048"]["events_per_sec"] *= 0.5  # -50%, band is 30%
        report = compare_payloads(KERNEL, regressed)
        assert not report.ok
        (finding,) = report.regressions
        assert finding.path == "C@2048.events_per_sec"

    def test_movement_inside_the_band_passes(self):
        wobbled = copy.deepcopy(KERNEL)
        wobbled["C@2048"]["events_per_sec"] *= 0.8  # -20% < 30% band
        assert compare_payloads(KERNEL, wobbled).ok

    def test_improvement_always_passes(self):
        faster = copy.deepcopy(KERNEL)
        faster["C@2048"]["events_per_sec"] *= 3.0
        assert compare_payloads(KERNEL, faster).ok

    def test_overhead_rising_beyond_the_band_fails(self):
        baseline = {"findings": {"message overhead, worst ratio": 1.45}}
        worse = {"findings": {"message overhead, worst ratio": 2.5}}
        report = compare_payloads(baseline, worse)
        assert not report.ok

    def test_check_flipping_false_fails_without_any_band(self):
        baseline = {"checks": {"every lossy run elected": True}}
        broken = {"checks": {"every lossy run elected": False}}
        report = compare_payloads(baseline, broken)
        assert not report.ok
        (finding,) = report.regressions
        assert "flip" in finding.detail

    def test_check_staying_true_passes(self):
        baseline = {"checks": {"claim": True, "already-false": False}}
        same = {"checks": {"claim": True, "already-false": False}}
        assert compare_payloads(baseline, same).ok

    def test_missing_tracked_metric_is_a_regression(self):
        pruned = copy.deepcopy(KERNEL)
        del pruned["C@2048"]["events_per_sec"]
        report = compare_payloads(KERNEL, pruned)
        assert not report.ok
        assert "missing" in report.regressions[0].detail

    def test_missing_workload_is_a_regression(self):
        report = compare_payloads(KERNEL, {})
        assert not report.ok
        assert "workload missing" in report.regressions[0].detail

    def test_peak_rss_gets_a_doubled_band(self):
        """Memory high-water marks wobble; only clear bloat fails."""
        baseline = {"C@64-sharded2": {"peak_rss_mb": 100.0}}
        wobbled = {"C@64-sharded2": {"peak_rss_mb": 150.0}}  # +50% < 60%
        assert compare_payloads(baseline, wobbled).ok
        bloated = {"C@64-sharded2": {"peak_rss_mb": 170.0}}  # +70% > 60%
        report = compare_payloads(baseline, bloated)
        assert not report.ok
        (finding,) = report.regressions
        assert finding.path == "C@64-sharded2.peak_rss_mb"

    def test_vector_speedup_dropping_beyond_the_band_fails(self):
        baseline = {"C@131072-sharded16-vector": {
            "vector_speedup_vs_record": 1.5,
        }}
        regressed = {"C@131072-sharded16-vector": {
            "vector_speedup_vs_record": 0.9,  # -40% > 30% band
        }}
        assert not compare_payloads(baseline, regressed).ok

    def test_tolerance_is_configurable(self):
        wobbled = copy.deepcopy(KERNEL)
        wobbled["C@2048"]["events_per_sec"] *= 0.8
        assert not compare_payloads(KERNEL, wobbled, tolerance=0.1).ok
        assert compare_payloads(
            KERNEL, wobbled, tolerance=DEFAULT_TOLERANCE
        ).ok


class TestFilesAndDirectories:
    def test_file_mode(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(KERNEL))
        regressed = copy.deepcopy(KERNEL)
        regressed["C@2048"]["events_per_sec"] *= 0.5
        cur.write_text(json.dumps(regressed))
        assert not compare_files(base, cur).ok

    def test_directory_mode_compares_every_bench_file(self, tmp_path):
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        for name in (
            "BENCH_kernel.json", "BENCH_verify.json", "BENCH_faults.json"
        ):
            (baseline / name).write_text((REPO / name).read_text())
        report = compare_files(baseline, REPO)
        assert report.ok
        files = {f.file for f in report.findings}
        assert files == {
            "BENCH_kernel.json", "BENCH_verify.json", "BENCH_faults.json"
        }

    def test_deleted_bench_file_is_a_regression(self, tmp_path):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        (baseline / "BENCH_kernel.json").write_text(json.dumps(KERNEL))
        report = compare_files(baseline, current)
        assert not report.ok
        assert "BENCH file missing" in report.regressions[0].detail


class TestRepoSnapshots:
    """The committed BENCH files themselves must satisfy the gate."""

    def test_self_comparison_of_committed_snapshots_passes(self):
        report = compare_files(REPO, REPO)
        assert report.ok
        # Sanity: the walk actually finds the headline metrics.
        paths = {f.path for f in report.findings}
        assert "C@2048.events_per_sec" in paths
        assert "A@6.states_per_sec" in paths
        assert any(p.startswith("checks.") for p in paths)


class TestCLI:
    def test_exit_zero_on_clean_comparison(self, capsys):
        assert main(["--baseline", str(REPO), "--current", str(REPO)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(KERNEL))
        regressed = copy.deepcopy(KERNEL)
        regressed["C@2048"]["speedup_vs_seed"] = 1.0
        cur.write_text(json.dumps(regressed))
        code = main(
            ["--baseline", str(base), "--current", str(cur)]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().out
