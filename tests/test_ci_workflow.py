"""Syntax and contract validation for ``.github/workflows/ci.yml``.

``actionlint`` is not available in this container, so this is the
equivalent gate the acceptance criteria ask for: the workflow must parse,
every job must be well-formed (runner, steps, pinned actions), and the
commands CI runs must be the exact commands the repo documents — the
tier-1 invocation, the self-hosted linter, the smoke markers from
``pyproject.toml``, the curated matrix cross-check, and the merge-base
BENCH trend gate.  Skips cleanly when PyYAML is absent.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"
NIGHTLY = Path(__file__).parent.parent / ".github" / "workflows" / "nightly.yml"


@pytest.fixture(scope="module")
def spec():
    return yaml.safe_load(WORKFLOW.read_text())


@pytest.fixture(scope="module")
def jobs(spec):
    return spec["jobs"]


@pytest.fixture(scope="module")
def nightly_spec():
    return yaml.safe_load(NIGHTLY.read_text())


@pytest.fixture(scope="module")
def nightly_jobs(nightly_spec):
    return nightly_spec["jobs"]


def _steps(job):
    for step in job["steps"]:
        assert "uses" in step or "run" in step, f"step does nothing: {step}"
        yield step


def _run_lines(job):
    for step in _steps(job):
        if "run" in step:
            assert isinstance(step["run"], str)
            yield from step["run"].splitlines()


class TestWorkflowShape:
    def test_parses_and_names_the_pipeline(self, spec):
        assert spec["name"] == "CI"

    def test_triggers_on_push_and_pull_request(self, spec):
        # YAML 1.1 reads an unquoted ``on:`` key as boolean True.
        triggers = spec.get("on", spec.get(True))
        assert "pull_request" in triggers
        assert triggers["push"]["branches"] == ["main"]

    def test_expected_jobs_exist(self, jobs):
        assert set(jobs) == {
            "tests", "tests-no-numpy", "lint", "smoke", "matrix",
            "bench-trends",
        }

    def test_every_job_has_a_runner_and_steps(self, jobs):
        for name, job in jobs.items():
            assert job["runs-on"] == "ubuntu-latest", name
            assert list(_steps(job)), name

    def test_every_action_is_version_pinned(self, jobs):
        for job in jobs.values():
            for step in _steps(job):
                if "uses" in step:
                    action, _, version = step["uses"].partition("@")
                    assert action and version.startswith("v"), step["uses"]

    def test_checkout_precedes_python_setup_everywhere(self, jobs):
        for name, job in jobs.items():
            uses = [s["uses"].split("@")[0] for s in _steps(job) if "uses" in s]
            assert uses.index("actions/checkout") < uses.index(
                "actions/setup-python"
            ), name

    def test_pip_caching_is_enabled_everywhere(self, jobs):
        for name, job in jobs.items():
            caches = [
                s["with"].get("cache")
                for s in _steps(job)
                if s.get("uses", "").startswith("actions/setup-python@")
            ]
            assert caches and all(c == "pip" for c in caches), name


class TestCommands:
    def test_tier1_matrix_covers_supported_pythons(self, jobs):
        matrix = jobs["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.11", "3.12", "3.13"]

    def test_tier1_runs_the_documented_command(self, jobs):
        steps = [s for s in _steps(jobs["tests"]) if "run" in s]
        tier1 = [s for s in steps if "python -m pytest -x -q" in s["run"]]
        assert len(tier1) == 1
        assert tier1[0]["env"]["PYTHONPATH"] == "src"

    def test_no_numpy_leg_runs_tier1_with_the_fallback_forced(self, jobs):
        """The numpy-free leg is the proof the shard kernel's pure-Python
        decode carries the whole suite."""
        steps = [s for s in _steps(jobs["tests-no-numpy"]) if "run" in s]
        tier1 = [s for s in steps if "python -m pytest -x -q" in s["run"]]
        assert len(tier1) == 1
        assert tier1[0]["env"]["PYTHONPATH"] == "src"
        assert tier1[0]["env"]["REPRO_NO_NUMPY"] == "1"

    def test_shard_smoke_leg_exercises_the_vector_engine_cli(self, jobs):
        """The sharded CLI (the one shard kernel, which reports engine
        ``"vector"``) runs on the shard_smoke leg, with no engine flag."""
        cli = [
            s for s in _steps(jobs["smoke"])
            if "run" in s and "python -m repro run" in s["run"]
            and "--shards 2" in s["run"]
        ]
        assert len(cli) == 1
        assert cli[0]["if"] == "matrix.marker == 'shard_smoke'"
        assert "--shard-workers 0" in cli[0]["run"]
        assert "--engine" not in cli[0]["run"]

    def test_shard_smoke_leg_runs_forked_shards_and_the_ledger_smoke(self, jobs):
        """The forked shard path (pipe exchange, coordinator routing,
        concurrent finish) and the perfbench ledger each get an
        invocation on the shard_smoke leg."""
        lines = {
            line.strip()
            for s in _steps(jobs["smoke"])
            if "run" in s and s.get("if") == "matrix.marker == 'shard_smoke'"
            for line in s["run"].splitlines()
        }
        assert (
            "python -m repro run --protocol C --n 256 --shards 2 "
            "--shard-workers 2"
        ) in lines
        for workload in ("c-sharded", "lossy-sweep"):
            assert (
                f"python3 perfbench/run.py --workload {workload} --seed 1 "
                "--seconds 1 --smoke"
            ) in lines
        assert "python3 -m pytest perfbench -q" in lines

    def test_lint_job_runs_the_self_hosted_linter(self, jobs):
        lines = list(_run_lines(jobs["lint"]))
        assert any(line.strip() == "python -m repro lint" for line in lines)

    def test_lint_job_runs_the_flow_pass_and_analyze(self, jobs):
        lines = [line.strip() for line in _run_lines(jobs["lint"])]
        assert "python -m repro lint --flow" in lines
        assert "python -m repro analyze" in lines

    def test_lint_job_gates_capability_drift(self, jobs):
        # A code change that alters any derived capability must fail CI
        # until capabilities.json is regenerated.
        lines = [line.strip() for line in _run_lines(jobs["lint"])]
        assert "python -m repro lint --capabilities --check" in lines

    def test_lint_job_uploads_sarif_to_code_scanning(self, jobs):
        job = jobs["lint"]
        assert job["permissions"]["security-events"] == "write"
        uploads = [
            s for s in _steps(job)
            if s.get("uses", "").startswith("github/codeql-action/upload-sarif@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "always()"
        assert uploads[0]["with"]["sarif_file"] == "lint_report.sarif"
        renders = [
            s for s in _steps(job)
            if "run" in s and "--format sarif" in s["run"]
        ]
        assert len(renders) == 1
        assert "lint_report.sarif" in renders[0]["run"]

    def test_ruff_and_mypy_are_availability_gated_and_advisory(self, jobs):
        gated = [
            s for s in _steps(jobs["lint"])
            if "run" in s and "command -v ruff" in s["run"]
        ]
        assert len(gated) == 1
        assert gated[0]["continue-on-error"] is True
        assert "command -v mypy" in gated[0]["run"]

    def test_lint_failure_uploads_the_golden_report(self, jobs):
        uploads = [
            s for s in _steps(jobs["lint"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "failure()"
        assert "tests/fixtures/lint/golden_report.json" in uploads[0]["with"]["path"]

    def test_smoke_matrix_matches_the_registered_markers(self, jobs):
        import tomllib

        pyproject = tomllib.loads(
            (Path(__file__).parent.parent / "pyproject.toml").read_text()
        )
        registered = {
            m.split(":")[0] for m in pyproject["tool"]["pytest"]["ini_options"]["markers"]
        }
        matrix = set(jobs["smoke"]["strategy"]["matrix"]["marker"])
        assert matrix == registered
        lines = list(_run_lines(jobs["smoke"]))
        assert any("-m ${{ matrix.marker }}" in line for line in lines)

    def test_stat_smoke_leg_diffs_deterministic_reruns(self, jobs):
        """The stat_smoke leg's reproducibility contract: the reduced
        Monte-Carlo campaign runs twice with the same deterministic
        trial seeds and the two reports must be byte-identical."""
        stat = [
            s for s in _steps(jobs["smoke"])
            if "run" in s and "verify --stat" in s["run"]
        ]
        assert len(stat) == 1
        assert stat[0]["if"] == "matrix.marker == 'stat_smoke'"
        lines = [line.strip() for line in stat[0]["run"].splitlines()]
        reruns = [line for line in lines if "verify --stat" in line]
        assert len(reruns) == 2
        # Same flags both times — fixed trial seeds, so identical input.
        assert reruns[0].split("|")[0].strip() == reruns[1].split(">")[0].strip()
        assert any(line.startswith("diff ") for line in lines)

    def test_stat_smoke_failure_uploads_the_aggregate_report(self, jobs):
        uploads = [
            s for s in _steps(jobs["smoke"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "failure() && matrix.marker == 'stat_smoke'"
        assert "stat_report.md" in uploads[0]["with"]["path"]

    def test_shard_smoke_leg_is_pinned_in_the_smoke_matrix(self, jobs):
        """The sharded-kernel digest check must stay a named CI leg.

        The marker-equality test above would also catch its removal, but
        only indirectly (by failing on pyproject).  This pin makes the
        intent explicit: dropping ``shard_smoke`` from the smoke matrix
        is dropping the serial-equivalence gate, not a cleanup.
        """
        assert "shard_smoke" in jobs["smoke"]["strategy"]["matrix"]["marker"]

    def test_matrix_job_runs_the_quick_curated_cross_check(self, jobs):
        lines = [line.strip() for line in _run_lines(jobs["matrix"])]
        assert (
            "python -m repro check --all --quick --outdir matrix_out"
            in lines
        )

    def test_matrix_failure_uploads_the_aggregate_report(self, jobs):
        uploads = [
            s for s in _steps(jobs["matrix"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "failure()"
        assert uploads[0]["with"]["path"] == "matrix_out"

    def test_bench_gate_compares_merge_base_snapshots(self, jobs):
        job = jobs["bench-trends"]
        checkouts = [
            s for s in _steps(job)
            if s.get("uses", "").startswith("actions/checkout@")
        ]
        # The merge-base extraction needs history, not a shallow clone.
        assert checkouts[0]["with"]["fetch-depth"] == 0
        lines = [line.strip() for line in _run_lines(job)]
        assert any("git merge-base" in line for line in lines)
        for name in (
            "BENCH_kernel.json", "BENCH_verify.json", "BENCH_faults.json",
            "BENCH_random.json",
        ):
            assert any(name in line for line in lines), name
        assert (
            "python -m repro trends --baseline ci_baseline --current ."
            in lines
        )


class TestNightly:
    """The scheduled deep-verification workflow (nightly.yml)."""

    def test_runs_on_a_schedule_and_by_hand(self, nightly_spec):
        triggers = nightly_spec.get("on", nightly_spec.get(True))
        assert "workflow_dispatch" in triggers
        crons = [entry["cron"] for entry in triggers["schedule"]]
        assert len(crons) == 1
        # Five-field cron, nightly cadence (every day-of-month/month/week).
        minute, hour, dom, month, dow = crons[0].split()
        assert (dom, month, dow) == ("*", "*", "*")
        assert minute.isdigit() and hour.isdigit()

    def test_expected_jobs_exist(self, nightly_jobs):
        assert set(nightly_jobs) == {"stat-deep", "check-deep"}

    def test_every_nightly_action_is_version_pinned(self, nightly_jobs):
        for job in nightly_jobs.values():
            for step in _steps(job):
                if "uses" in step:
                    action, _, version = step["uses"].partition("@")
                    assert action and version.startswith("v"), step["uses"]

    def test_stat_deep_runs_the_acceptance_scale_campaign(self, nightly_jobs):
        # 600 trials certify the 0.99/0.99 pair (zero failures needed
        # from 459 up); the default strata are N in {64, 256}.
        lines = [line.strip() for line in _run_lines(nightly_jobs["stat-deep"])]
        deep = [line for line in lines if "verify --stat" in line]
        assert len(deep) == 2, "the campaign must run twice and be diffed"
        for line in deep:
            assert "--confidence 0.99" in line
            assert "--trials 600" in line
        assert any(line.startswith("diff ") for line in lines)

    def test_stat_deep_always_uploads_the_report(self, nightly_jobs):
        uploads = [
            s for s in _steps(nightly_jobs["stat-deep"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "always()"
        assert "stat_deep.md" in uploads[0]["with"]["path"]

    def test_check_deep_runs_the_full_nonquick_campaign(self, nightly_jobs):
        lines = [line.strip() for line in _run_lines(nightly_jobs["check-deep"])]
        full = [line for line in lines if "repro check --all" in line]
        assert len(full) == 1
        assert "--quick" not in full[0]
        uploads = [
            s for s in _steps(nightly_jobs["check-deep"])
            if s.get("uses", "").startswith("actions/upload-artifact@")
        ]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "always()"
