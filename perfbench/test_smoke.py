"""Smoke tests for the ledger: the same command, workloads and checks at tiny N.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Spans, self_times  # noqa: E402
from workloads import WORKLOADS, FatalError, Sample, Workload, make_inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    done = _invoke(
        "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 if trace == "1" else 1)
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert "tracing overhead" in done.stdout
    if workload == "c-sharded":
        assert '"forked": true' in done.stdout
        assert "sharded_speedup" in done.stdout


def test_benchmark_file_matches_the_command():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        run.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _invoke(
        "--workload", "c-sharded", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _fake(elect) -> Workload:
    return Workload("fake", "test", n=4, elections=1, elect=elect, reference=None)


def _scripted(*outcomes) -> Workload:
    """A workload whose elections return (or raise) ``outcomes`` in order."""
    script = iter(outcomes)

    def elect(inputs, spans):
        outcome = next(script)
        if isinstance(outcome, Exception):
            raise outcome
        return Sample(0.1, 0.2, [{"leader_id": outcome}])

    return _fake(elect)


def test_failures_are_counted_and_named():
    # After the untimed first election, the traced run takes two samples:
    # one raises, one diverges from the reference.
    out = run.measure(
        _scripted(1, RuntimeError("boom"), 2),
        make_inputs(4, 0), 0.0, True, [{"leader_id": 1}],
    )
    assert out["attempted"] == 2 and out["samples"] == []
    assert out["failures"] == [
        "sample 0: RuntimeError: boom",
        "sample 1 election 0: result differs from the reference in leader_id",
    ]
    # The untimed first election is not checked, only timed samples are.
    out = run.measure(_scripted(2, 1), make_inputs(4, 0), 0.0, False, [{"leader_id": 1}])
    assert out["attempted"] == 1 and out["failures"] == []


def test_fatal_errors_abort_the_run():
    def elect(inputs, spans):
        raise FatalError("ran in-process")

    with pytest.raises(FatalError):
        run.measure(_fake(elect), make_inputs(4, 0), 0.0, False, [])


def test_self_time_subtracts_children():
    spans = Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
        with spans.span("inner"):
            pass
    (election, sid, parent, name, start, end) = spans.records[0]
    assert (parent, name) == (None, "outer")
    inner = sum(r[5] - r[4] for r in spans.records[1:])
    assert all(r[2] == sid for r in spans.records[1:])
    own = self_times(spans.records)[election]
    assert own["outer"] == pytest.approx(end - start - inner)
    assert own["inner"] == pytest.approx(inner)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19).startswith("max")
    assert run.tail(list(range(20))).startswith("p50 9")
    assert run.tail([float(i) for i in range(100)]).startswith("p90 89")


def test_host_factor_is_the_mean_calibration_over_the_reference():
    ref = run.CALIBRATION_REF_S
    samples = [{"calibration_s": ref}, {"calibration_s": 2 * ref}]
    assert run.host_factor(samples) == pytest.approx(1.5)
