"""Tolerance-banded BENCH trend comparison — the CI regression gate.

The repo commits measured benchmark snapshots (``BENCH_kernel.json``,
``BENCH_verify.json``, ``BENCH_faults.json``, ``BENCH_random.json``)
alongside the code that produced them.  This module compares a *current* set of those files
against a *baseline* set (in CI: the merge-base versions extracted with
``git show``) and fails when a tracked metric regressed beyond a
tolerance band.  Comparing committed snapshots — numbers measured on the
contributor's machine in both revisions — is deliberately immune to CI
runner speed; the gate catches "this PR made the committed benchmark
worse", not "the CI machine is slow today".

What counts as a regression:

* **higher-is-better** metrics (throughputs — any key ending in
  ``_per_sec`` — probabilistic guarantees ending in ``success_rate``,
  and the named speedup/reduction ratios) dropping more than
  ``tolerance`` (default 30%) below baseline;
* **lower-is-better** metrics (keys containing ``overhead``, and the
  fitted growth exponents ending in ``_exponent`` — a randomized
  protocol drifting toward linear message growth is a regression)
  rising more than ``tolerance`` above baseline;
* any boolean under a ``checks`` mapping flipping true → false (no band
  — a claim that stopped holding is a regression at any magnitude);
* a tracked metric or workload present in the baseline but **missing**
  from the current file (deleting the evidence is not a fix).

Raw counts (events, states, messages) and wall seconds are *not* gated:
they legitimately move when workloads change; the normalised throughputs
and ratios are the regression signal.  ``peak_rss_mb`` *is* gated
(lower-is-better) but with a doubled band: memory high-water marks are
process-wide and wobble with allocator behaviour, so only a clear bloat
trips the gate.

CLI (``python -m repro trends``)::

    python -m repro trends --baseline ci_baseline/ --current .
    python -m repro trends --baseline old/BENCH_kernel.json \
                           --current BENCH_kernel.json --tolerance 0.2

Exit status 1 when any regression is found, 0 otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Relative band within which a tracked metric may move without failing.
DEFAULT_TOLERANCE = 0.30

#: The BENCH files the gate tracks by default.
BENCH_FILES = (
    "BENCH_kernel.json",
    "BENCH_verify.json",
    "BENCH_faults.json",
    "BENCH_random.json",
)

#: Named ratio metrics that are higher-is-better (beyond the ``_per_sec``
#: suffix rule).  ``sharded_speedup_vs_serial`` is the sharded kernel's
#: aggregate-capacity ratio (see docs/performance.md — "Sharded
#: execution"); new sharded workloads on the *current* side never fire the
#: missing-metric check because :func:`_walk` iterates baseline keys only.
_HIGHER_BETTER_NAMES = frozenset(
    {
        "speedup_vs_seed",
        "wall_speedup_vs_pr1",
        "store_reduction_vs_pr1",
        "sharded_speedup_vs_serial",
        "vector_speedup_vs_record",
    }
)

#: Named lower-is-better metrics (beyond the ``overhead`` substring rule).
_LOWER_BETTER_NAMES = frozenset({"peak_rss_mb"})

#: Per-metric widening of the tolerance band.  ``peak_rss_mb`` is a
#: process-wide high-water mark (allocator- and import-order-sensitive),
#: so it gets twice the normal room before tripping the gate.
_TOLERANCE_SCALE = {"peak_rss_mb": 2.0}


def metric_direction(key: str) -> str | None:
    """'up' (higher better), 'down' (lower better), or None (untracked)."""
    if (
        key.endswith("_per_sec")
        or key.endswith("success_rate")
        or key in _HIGHER_BETTER_NAMES
    ):
        return "up"
    if (
        "overhead" in key
        or key.endswith("_exponent")
        or key in _LOWER_BETTER_NAMES
    ):
        return "down"
    return None


@dataclass(frozen=True)
class TrendFinding:
    """One metric's comparison verdict."""

    file: str
    path: str  # dotted location within the file, e.g. "C@2048.events_per_sec"
    baseline: Any
    current: Any
    regression: bool
    detail: str


@dataclass
class TrendReport:
    """Every finding of one baseline/current comparison."""

    findings: list[TrendFinding]

    @property
    def regressions(self) -> list[TrendFinding]:
        return [f for f in self.findings if f.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Plain-text comparison summary (one line per finding)."""
        lines = []
        for finding in self.findings:
            mark = "FAIL" if finding.regression else "ok"
            lines.append(
                f"[{mark}] {finding.file}:{finding.path} "
                f"{finding.baseline} -> {finding.current} ({finding.detail})"
            )
        verdict = (
            "no regressions"
            if self.ok
            else f"{len(self.regressions)} regression(s)"
        )
        lines.append(
            f"{len(self.findings)} tracked metric(s) compared: {verdict}"
        )
        return "\n".join(lines)


def _compare_value(
    file: str,
    path: str,
    direction: str,
    baseline: float,
    current: float | None,
    tolerance: float,
    findings: list[TrendFinding],
) -> None:
    if current is None:
        findings.append(
            TrendFinding(
                file, path, baseline, None, True,
                "tracked metric missing from current file",
            )
        )
        return
    if baseline == 0:
        findings.append(
            TrendFinding(file, path, baseline, current, False,
                         "zero baseline, skipped")
        )
        return
    change = (current - baseline) / abs(baseline)
    if direction == "up":
        regressed = change < -tolerance
        detail = f"{change * 100:+.1f}% (band -{tolerance * 100:.0f}%)"
    else:
        regressed = change > tolerance
        detail = f"{change * 100:+.1f}% (band +{tolerance * 100:.0f}%)"
    findings.append(
        TrendFinding(file, path, baseline, current, regressed, detail)
    )


def _walk(
    file: str,
    path: str,
    baseline: Any,
    current: Any,
    tolerance: float,
    findings: list[TrendFinding],
    *,
    in_checks: bool = False,
) -> None:
    """Recursively compare baseline against current, tracking metrics."""
    if isinstance(baseline, dict):
        for key, base_value in sorted(baseline.items()):
            child_path = f"{path}.{key}" if path else key
            cur_value = (
                current.get(key) if isinstance(current, dict) else None
            )
            if isinstance(base_value, dict):
                if cur_value is None and _tracks_anything(base_value, key):
                    findings.append(
                        TrendFinding(
                            file, child_path, "<present>", None, True,
                            "tracked workload missing from current file",
                        )
                    )
                    continue
                _walk(
                    file, child_path, base_value, cur_value, tolerance,
                    findings, in_checks=in_checks or key == "checks",
                )
            elif isinstance(base_value, bool):
                if in_checks or path.endswith("checks") or key == "checks":
                    still_true = bool(cur_value) if base_value else True
                    findings.append(
                        TrendFinding(
                            file, child_path, base_value, cur_value,
                            base_value and not still_true,
                            "claim check must not flip true -> false",
                        )
                    )
            elif isinstance(base_value, (int, float)):
                direction = metric_direction(key)
                if direction is None:
                    continue
                cur_number = (
                    cur_value
                    if isinstance(cur_value, (int, float))
                    and not isinstance(cur_value, bool)
                    else None
                )
                _compare_value(
                    file, child_path, direction, base_value, cur_number,
                    tolerance * _TOLERANCE_SCALE.get(key, 1.0), findings,
                )


def _tracks_anything(tree: dict, key: str) -> bool:
    """Whether a baseline subtree contains any tracked metric or check."""
    if key == "checks":
        return True
    for child_key, value in tree.items():
        if isinstance(value, dict):
            if _tracks_anything(value, child_key):
                return True
        elif isinstance(value, bool):
            if child_key == "checks":
                return True
        elif isinstance(value, (int, float)):
            if metric_direction(child_key) is not None:
                return True
    return False


def compare_payloads(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    file: str = "<bench>",
    tolerance: float = DEFAULT_TOLERANCE,
) -> TrendReport:
    """Compare two already-parsed BENCH payloads."""
    findings: list[TrendFinding] = []
    _walk(file, "", baseline, current, tolerance, findings)
    return TrendReport(findings)


def compare_files(
    baseline: str | Path,
    current: str | Path,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> TrendReport:
    """Compare BENCH files or directories containing them.

    Directory mode compares every :data:`BENCH_FILES` entry present in
    the baseline directory; a file that exists in the baseline but not on
    the current side is itself a regression.
    """
    baseline = Path(baseline)
    current = Path(current)
    findings: list[TrendFinding] = []
    if baseline.is_dir():
        for name in BENCH_FILES:
            base_file = baseline / name
            if not base_file.exists():
                continue
            cur_file = current / name
            if not cur_file.exists():
                findings.append(
                    TrendFinding(
                        name, "", "<present>", None, True,
                        "BENCH file missing from current tree",
                    )
                )
                continue
            report = compare_files(base_file, cur_file, tolerance=tolerance)
            findings.extend(report.findings)
        return TrendReport(findings)
    base_payload = json.loads(baseline.read_text())
    cur_payload = json.loads(current.read_text())
    return compare_payloads(
        base_payload, cur_payload, file=baseline.name, tolerance=tolerance
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro trends",
        description="Compare committed BENCH snapshots against a baseline.",
    )
    parser.add_argument(
        "--baseline", required=True,
        help="baseline BENCH file, or a directory of BENCH files",
    )
    parser.add_argument(
        "--current", required=True,
        help="current BENCH file, or the repo root",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"relative band (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)
    report = compare_files(
        args.baseline, args.current, tolerance=args.tolerance
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
