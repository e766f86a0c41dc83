"""``python -m repro check --all``: the one-command full cross-check.

Runs the curated matrix slice (:func:`repro.matrix.spec.curated_specs`)
through seven phases and folds every verdict into a single
:class:`CheckReport`:

1. **Matrix sweep** — every legal (protocol × scenario × N × k × seed)
   cell elects a verified leader; monotonicity and FT-envelope checks
   (:mod:`repro.matrix.runner`).
2. **Exhaustive verification** — for every spec row carrying
   ``verify_ns``, the explicit-state checker
   (:func:`repro.verification.explore.explore_protocol`) covers *every*
   interleaving at those sizes, with the row's ``symmetry`` mode.
   Exploration runs with ``workers=1`` inside the phase's own sweep
   tasks: the outer fork pool provides the parallelism, and the report
   then contains no worker-count dependence — a requirement of the
   digest-determinism contract below.
3. **Schedule fuzzing** — rows carrying ``fuzz_ns`` drive the seeded
   adversarial scheduler (:func:`repro.verification.fuzz.fuzz_protocol`),
   including the fault families when the row sets a ``fault_budget``.
4. **Reliable-delivery contract** — every registered protocol elects a
   verified leader at N=16 behind the retransmission overlay under the
   ``lossy`` scenario (10% drop, 5% duplication, jitter), with no port
   abandoned: the PR 5 overlay masks the faults completely.
5. **Sharded-kernel digest contract** — a fixed set of small cells
   (benign and lossy) runs on both the serial kernel and the sharded
   kernel (:mod:`repro.sim.shard`) at several shard counts, and every
   deterministic result field must agree exactly.  This is the
   sharded/serial equivalence promise of docs/performance.md, enforced
   on every ``check --all``.
6. **Flow-conformance probe** — every registered protocol runs one
   instrumented benign election
   (:func:`repro.lint.flow.conformance.probe_protocol_class`) and the
   measured per-activation fan-out must not exceed the static bound the
   flow analyzer derived (``python -m repro analyze``).  A violation
   means the analyzer's capability table (``capabilities.json`` v2) is
   describing a protocol the code does not implement.
7. **Statistical gate** — the randomized family
   (:mod:`repro.protocols.random`) gets the Monte-Carlo pass
   (:func:`repro.verification.stat.verify_stat`): seeded trials folded
   into exact Clopper–Pearson lower confidence bounds on election
   safety and the w.h.p. message bound.  Full mode samples
   :data:`STAT_TRIALS` trials per protocol at N=:data:`STAT_N` against
   the 0.99/0.99 confidence/target pair; ``--quick`` trims to
   :data:`STAT_TRIALS_QUICK` trials at N=:data:`STAT_N_QUICK` with the
   target lowered to what that trial count can certify
   (:data:`STAT_TARGET_QUICK`) — same machinery, smaller extent,
   exactly like the other quick restrictions.

Digest determinism: :meth:`CheckReport.digest` hashes a canonical payload
with **no wall-clock times and no worker counts**, and every phase fans
out through :func:`repro.harness.parallel.run_sweep` (results in task
order).  A serial run and a ``REPRO_PARALLEL`` run of the same specs
therefore produce byte-identical digests — asserted by
``tests/matrix/test_check_all.py`` and the determinism suite.

``--quick`` (:func:`repro.matrix.spec.restrict_for_quick`) trims sizes
and schedule counts but keeps every row, so coverage of the protocol ×
scenario space is identical — only its extent shrinks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.harness.parallel import run_sweep
from repro.harness.runner import Check
from repro.harness.scenarios import run_scenario
from repro.matrix.runner import MatrixReport, run_matrix
from repro.matrix.spec import (
    ScenarioSpec,
    curated_specs,
    restrict_for_quick,
)

#: The reliable-delivery contract phase: every protocol, this size, the
#: lossy scenario (drop 10%, duplicate 5%, jitter) behind the overlay.
CONTRACT_N = 16
CONTRACT_SCENARIO = "lossy"

#: Phase-7 statistical gate.  Full mode certifies the acceptance pair
#: (LCB >= 0.99 at 0.99 confidence; needs zero failures in >= 459
#: trials).  Quick mode keeps the machinery but trims the extent — 120
#: trials can certify at most an 0.9624 LCB, so the quick target is the
#: round number just below it.
STAT_N = 64
STAT_TRIALS = 600
STAT_N_QUICK = 16
STAT_TRIALS_QUICK = 120
STAT_TARGET_QUICK = 0.95
STAT_CONFIDENCE = 0.99
STAT_TARGET = 0.99


@dataclass
class CheckReport:
    """Aggregate verdict of one ``check --all`` campaign."""

    matrix: MatrixReport
    verify: dict[str, dict[str, Any]] = field(default_factory=dict)
    fuzz: dict[str, dict[str, Any]] = field(default_factory=dict)
    contract: dict[str, dict[str, Any]] = field(default_factory=dict)
    shard: dict[str, dict[str, Any]] = field(default_factory=dict)
    conformance: dict[str, dict[str, Any]] = field(default_factory=dict)
    stat: dict[str, dict[str, Any]] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.matrix.passed and all(c.passed for c in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one named cross-check verdict."""
        self.checks.append(Check(name, bool(passed), detail))

    def payload(self) -> dict[str, Any]:
        """Canonical JSON payload (no wall times, no worker counts)."""
        return {
            "matrix": self.matrix.payload(),
            "verify": self.verify,
            "fuzz": self.fuzz,
            "contract": self.contract,
            "shard": self.shard,
            "conformance": self.conformance,
            "stat": self.stat,
            "checks": {
                check.name: {"passed": check.passed, "detail": check.detail}
                for check in self.checks
            },
        }

    def digest(self) -> str:
        """SHA-256 over the canonical payload serialisation."""
        import hashlib

        canonical = json.dumps(self.payload(), sort_keys=True).encode()
        return hashlib.sha256(canonical).hexdigest()

    def render(self) -> str:
        """Plain-text summary (written as ``check_report.md``)."""
        lines = [
            "# check --all report",
            "",
            f"- matrix cells: {len(self.matrix.cells)} run, "
            f"{len(self.matrix.rejected)} filtered",
            f"- exhaustive instances: {len(self.verify)}",
            f"- fuzz campaigns: {len(self.fuzz)}",
            f"- overlay contract runs: {len(self.contract)}",
            f"- sharded digest cells: {len(self.shard)}",
            f"- flow-conformance probes: {len(self.conformance)}",
            f"- statistical strata: {len(self.stat)}",
            f"- digest: `{self.digest()}`",
            "",
            "## Matrix checks",
            "",
        ]
        for check in self.matrix.checks:
            mark = "PASS" if check.passed else "FAIL"
            suffix = f" — {check.detail}" if check.detail else ""
            lines.append(f"- [{mark}] {check.name}{suffix}")
        lines.append("")
        lines.append("## Cross-check verdicts")
        lines.append("")
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            suffix = f" — {check.detail}" if check.detail else ""
            lines.append(f"- [{mark}] {check.name}{suffix}")
        lines.append("")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        """Assert the whole campaign passed; raise with details if not."""
        self.matrix.raise_if_failed()
        failed = [c for c in self.checks if not c.passed]
        if failed:
            details = "; ".join(f"{c.name} ({c.detail})" for c in failed)
            raise AssertionError(f"check --all: failed checks: {details}")


def _verify_task(
    protocol_name: str, n: int, symmetry: str | None
) -> dict[str, Any]:
    """One exhaustive-exploration task (runs inside the fork pool)."""
    from repro.core.protocol import protocol_class
    from repro.topology.complete import (
        complete_with_sense_of_direction,
        complete_without_sense,
    )
    from repro.verification.explore import explore_protocol

    protocol = protocol_class(protocol_name)()
    topology = (
        complete_with_sense_of_direction(n)
        if protocol.needs_sense_of_direction
        else complete_without_sense(n, seed=0)
    )
    report = explore_protocol(
        protocol, topology, symmetry=symmetry, workers=1
    )
    return {
        "states_explored": report.states_explored,
        "terminal_states": report.terminal_states,
        "transitions": report.transitions,
        "leaders_seen": sorted(report.leaders_seen),
        "complete": report.complete,
        "canonical_states": report.canonical_states,
        # Lists, not tuples: the payload must survive a JSON round-trip
        # unchanged so on-disk reports compare equal to in-memory ones.
        "quiescent_outcomes": [
            list(outcome) for outcome in sorted(report.quiescent_outcomes)
        ],
    }


def _fuzz_task(
    protocol_name: str, n: int, schedules: int, budget: int
) -> dict[str, Any]:
    """One fuzz-campaign task (runs inside the fork pool)."""
    from repro.core.protocol import protocol_class
    from repro.topology.complete import (
        complete_with_sense_of_direction,
        complete_without_sense,
    )
    from repro.verification.fuzz import fuzz_protocol

    protocol = protocol_class(protocol_name)()
    topology = (
        complete_with_sense_of_direction(n)
        if protocol.needs_sense_of_direction
        else complete_without_sense(n, seed=0)
    )
    report = fuzz_protocol(
        protocol,
        topology,
        schedules=schedules,
        seed=0,
        fault_budget=budget,
    )
    return {
        "runs": report.runs,
        "steps_total": report.steps_total,
        "truncated_runs": report.truncated_runs,
        "leaders_seen": sorted(report.leaders_seen),
        "runs_per_family": dict(sorted(report.runs_per_family.items())),
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "message": v.message} for v in report.violations
        ],
    }


def _contract_task(protocol_name: str) -> dict[str, Any]:
    """One overlay-contract run (runs inside the fork pool)."""
    from repro.core.protocol import protocol_class

    result = run_scenario(
        protocol_class(protocol_name)(), CONTRACT_SCENARIO, CONTRACT_N, seed=0
    )
    result.verify()
    return {
        "leader_id": result.leader_id,
        "messages_total": result.messages_total,
        "messages_dropped": result.messages_dropped,
        "retransmissions": result.retransmissions,
        "duplicates_suppressed": result.duplicates_suppressed,
        "packets_abandoned": result.packets_abandoned,
    }


#: Phase-5 cells: (protocol, n, shard count, lossy?).  Small on purpose —
#: the exhaustive digest matrix lives in tests/sim/test_shard.py; this is
#: the always-on cross-runtime smoke.
SHARD_CELLS: tuple[tuple[str, int, int, bool], ...] = (
    ("C", 64, 2, False),
    ("C", 64, 3, False),
    ("B", 32, 2, False),
    ("G", 32, 4, False),
    ("E", 32, 2, True),
)


def _result_fields(result: Any) -> tuple:
    """Every deterministic ElectionResult field, in a comparable shape.

    The same field set as ``tests/sim/determinism_cases.fingerprint``
    (kept in sync by tests/sim/test_shard.py); the sharded kernel owes
    exact equality on all of them.
    """
    return (
        result.n,
        result.leader_id,
        result.leader_position,
        result.elected_at,
        result.election_time,
        result.election_depth,
        result.messages_total,
        result.bits_total,
        tuple(sorted(result.messages_by_type.items())),
        result.max_depth,
        result.quiescent_at,
        result.first_wake_time,
        result.last_wake_time,
        result.base_positions,
        result.max_channel_load,
        result.messages_dropped,
        result.messages_duplicated,
        result.messages_jittered,
        result.retransmissions,
        result.duplicates_suppressed,
        result.packets_abandoned,
        result.crashed_positions,
    )


def _shard_task(
    protocol_name: str, n: int, shards: int, lossy: bool
) -> dict[str, Any]:
    """One serial-vs-sharded digest comparison (runs inside the fork pool)."""
    from repro.core.protocol import protocol_class
    from repro.core.reliable import ReliableDelivery
    from repro.sim.faults import FaultPlan
    from repro.sim.network import run_election
    from repro.sim.shard import run_sharded_election
    from repro.topology.complete import (
        complete_with_sense_of_direction,
        complete_without_sense,
    )

    cls = protocol_class(protocol_name)

    def config() -> tuple[Any, Any, dict[str, Any]]:
        protocol = ReliableDelivery(cls()) if lossy else cls()
        topology = (
            complete_with_sense_of_direction(n)
            if protocol.needs_sense_of_direction
            else complete_without_sense(n, seed=0)
        )
        kwargs: dict[str, Any] = {"seed": 0}
        if lossy:
            kwargs["faults"] = FaultPlan(
                seed=0, drop=0.10, duplicate=0.05, jitter=0.25
            )
        return protocol, topology, kwargs

    protocol, topology, kwargs = config()
    serial = run_election(protocol, topology, **kwargs)
    protocol, topology, kwargs = config()
    sharded = run_sharded_election(
        protocol, topology, shards=shards, workers=0, **kwargs
    )
    return {
        "equal": _result_fields(serial) == _result_fields(sharded),
        "leader_id": serial.leader_id,
        "messages_total": serial.messages_total,
    }


def _conformance_task(protocol_name: str) -> dict[str, Any]:
    """One flow-conformance probe (runs inside the fork pool)."""
    from repro.core.protocol import protocol_class
    from repro.lint.flow.conformance import probe_protocol_class

    return probe_protocol_class(protocol_class(protocol_name))


def check_all(
    specs: list[ScenarioSpec] | None = None,
    *,
    quick: bool = False,
    outdir: str | Path | None = None,
    parallel: bool | None = None,
    baseline: dict[str, Any] | None = None,
) -> CheckReport:
    """Run every phase over the given (default: curated) spec rows."""
    if specs is None:
        specs = curated_specs()
    if quick:
        specs = restrict_for_quick(specs)

    matrix_outdir = Path(outdir) / "matrix" if outdir is not None else None
    matrix = run_matrix(
        specs, outdir=matrix_outdir, parallel=parallel, baseline=baseline
    )
    report = CheckReport(matrix=matrix)

    # -- phase 2: exhaustive verification ---------------------------------
    verify_jobs: list[tuple[str, int, str | None]] = []
    seen = set()
    for spec in specs:
        for protocol in spec.protocols:
            for n in spec.verify_ns:
                key = (protocol, n, spec.symmetry)
                if key not in seen:
                    seen.add(key)
                    verify_jobs.append(key)
    verify_results = run_sweep(
        [
            lambda p=p, n=n, s=s: _verify_task(p, n, s)
            for p, n, s in verify_jobs
        ],
        parallel=parallel,
    )
    for (protocol, n, symmetry), outcome in zip(verify_jobs, verify_results):
        label = f"{protocol}@{n}" + (f"+{symmetry}" if symmetry else "")
        report.verify[label] = outcome
    incomplete = [
        label for label, r in report.verify.items() if not r["complete"]
    ]
    if verify_jobs:
        report.check(
            "exhaustive exploration covered every interleaving",
            not incomplete,
            f"{len(verify_jobs)} instance(s), "
            f"{sum(r['states_explored'] for r in report.verify.values())} "
            "states"
            + (f"; truncated: {incomplete}" if incomplete else ""),
        )

    # -- phase 3: schedule fuzzing ----------------------------------------
    fuzz_jobs: list[tuple[str, int, int, int]] = []
    seen = set()
    for spec in specs:
        if not spec.fuzz_schedules:
            continue
        for protocol in spec.protocols:
            for n in spec.fuzz_ns:
                key = (protocol, n, spec.fuzz_schedules, spec.fault_budget)
                if key not in seen:
                    seen.add(key)
                    fuzz_jobs.append(key)
    fuzz_results = run_sweep(
        [
            lambda p=p, n=n, c=c, b=b: _fuzz_task(p, n, c, b)
            for p, n, c, b in fuzz_jobs
        ],
        parallel=parallel,
    )
    for (protocol, n, schedules, budget), outcome in zip(
        fuzz_jobs, fuzz_results
    ):
        label = f"{protocol}@{n}x{schedules}" + (
            f"+faults{budget}" if budget else ""
        )
        report.fuzz[label] = outcome
    violating = [label for label, r in report.fuzz.items() if not r["ok"]]
    if fuzz_jobs:
        report.check(
            "no adversarial schedule violated safety/liveness/validity",
            not violating,
            f"{len(fuzz_jobs)} campaign(s), "
            f"{sum(r['runs'] for r in report.fuzz.values())} schedules"
            + (f"; violations in: {violating}" if violating else ""),
        )

    # -- phase 4: the reliable-delivery election contract ------------------
    from repro.core.protocol import registered_protocols

    protocol_names = sorted(registered_protocols())
    contract_results = run_sweep(
        [lambda p=p: _contract_task(p) for p in protocol_names],
        parallel=parallel,
    )
    for name, outcome in zip(protocol_names, contract_results):
        report.contract[name] = outcome
    abandoned = [
        name
        for name, r in report.contract.items()
        if r["packets_abandoned"] or r["leader_id"] is None
    ]
    report.check(
        "overlay contract: every protocol elects through 10% loss, "
        "no port abandoned",
        not abandoned,
        f"{len(protocol_names)} protocols at N={CONTRACT_N}"
        + (f"; failing: {abandoned}" if abandoned else ""),
    )

    # -- phase 5: the sharded-kernel digest contract -----------------------
    shard_results = run_sweep(
        [
            lambda p=p, n=n, k=k, f=f: _shard_task(p, n, k, f)
            for p, n, k, f in SHARD_CELLS
        ],
        parallel=parallel,
    )
    for (protocol, n, shards, lossy), outcome in zip(
        SHARD_CELLS, shard_results
    ):
        label = f"{protocol}@{n}/shards{shards}" + ("+lossy" if lossy else "")
        report.shard[label] = outcome
    diverged = [
        label for label, r in report.shard.items() if not r["equal"]
    ]
    report.check(
        "sharded kernel matches the serial digest on every cell",
        not diverged,
        f"{len(SHARD_CELLS)} cells"
        + (f"; diverged: {diverged}" if diverged else ""),
    )

    # -- phase 6: the flow-conformance probe -------------------------------
    conformance_results = run_sweep(
        [lambda p=p: _conformance_task(p) for p in protocol_names],
        parallel=parallel,
    )
    for name, outcome in zip(protocol_names, conformance_results):
        report.conformance[name] = outcome
    overruns = [
        name for name, r in report.conformance.items() if not r["ok"]
    ]
    report.check(
        "measured per-activation fan-out stays within the static "
        "flow bound",
        not overruns,
        f"{len(protocol_names)} protocols probed"
        + (f"; violating: {overruns}" if overruns else ""),
    )

    # -- phase 7: the statistical gate for the randomized family -----------
    from repro.verification.stat import randomized_protocol_names, verify_stat

    randomized = randomized_protocol_names()
    if randomized:
        stat_report = verify_stat(
            randomized,
            ns=(STAT_N_QUICK if quick else STAT_N,),
            trials=STAT_TRIALS_QUICK if quick else STAT_TRIALS,
            confidence=STAT_CONFIDENCE,
            target=STAT_TARGET_QUICK if quick else STAT_TARGET,
            parallel=parallel,
        )
        report.stat = {s.key: s.to_dict() for s in stat_report.strata}
        below = [c for c in stat_report.checks if not c.passed]
        report.check(
            "statistical gate: randomized strata clear the "
            "Clopper-Pearson targets",
            not below,
            f"{len(stat_report.strata)} strata x {stat_report.trials} "
            f"trials at confidence {stat_report.confidence}"
            + (
                f"; failing: {[c.detail for c in below]}" if below else ""
            ),
        )

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "check_report.json").write_text(
            json.dumps(report.payload(), indent=1, sort_keys=True) + "\n"
        )
        (outdir / "check_report.md").write_text(report.render())
    return report
