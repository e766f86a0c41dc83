"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro list
    python -m repro run --protocol C --n 64 [--no-sense] [--seed 7]
    python -m repro run --protocol C --n 4096 --shards 8 [--shard-workers 0]
    python -m repro replay --protocol A --n 8 [--messages]
    python -m repro scenario --protocol G --name chain --n 64
    python -m repro report [--quick] [--output EXPERIMENTS.md]
    python -m repro verify --protocol A --n 4 [--max-states M] [--no-por]
    python -m repro verify --protocol A --n 6 --workers 4 [--symmetry census]
    python -m repro verify --protocol A --n 8 --fuzz 200 [--save-trace T.json]
    python -m repro verify --replay T.json [--shrink]
    python -m repro verify --stat [--confidence 0.99] [--trials 600]
    python -m repro lint [--format json|sarif] [--select/--ignore RPL0xx] [paths]
    python -m repro lint --flow [paths]
    python -m repro lint --capabilities [--check]
    python -m repro analyze [--protocol A] [--n 64] [--format json]
    python -m repro matrix --spec specs.toml [--outdir OUT] [--strict]
    python -m repro check --all [--quick] [--outdir OUT] [--spec FILE]
    python -m repro trends --baseline ci_baseline/ --current .

Kept deliberately thin: each subcommand is a few lines over the public API,
so it doubles as living documentation.
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    complete_with_sense_of_direction,
    complete_without_sense,
    protocol_class,
    registered_protocols,
    run_election,
)
from repro.analysis.tables import render_table


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name, cls in sorted(registered_protocols().items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        needs = "yes" if cls.needs_sense_of_direction else "no"
        rows.append((name, needs, doc))
    print(render_table(("protocol", "sense of direction", "summary"), rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cls = protocol_class(args.protocol)
    if cls.needs_sense_of_direction or not args.no_sense:
        topology = complete_with_sense_of_direction(args.n)
    else:
        topology = complete_without_sense(args.n, seed=args.seed)
    if args.shards:
        from repro.sim.shard import run_sharded_election

        result = run_sharded_election(
            cls(), topology, seed=args.seed,
            shards=args.shards, workers=args.shard_workers,
        )
    else:
        result = run_election(cls(), topology, seed=args.seed)
    print(result.summary())
    rows = sorted(result.messages_by_type.items())
    print(render_table(("message type", "count"), rows))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.analysis.replay import render_replay
    from repro.sim.network import Network

    cls = protocol_class(args.protocol)
    if cls.needs_sense_of_direction or not args.no_sense:
        topology = complete_with_sense_of_direction(args.n)
    else:
        topology = complete_without_sense(args.n, seed=args.seed)
    network = Network(cls(), topology, seed=args.seed, trace=True)
    result = network.run()
    print(render_replay(result, include_messages=args.messages))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.harness.scenarios import SCENARIOS, run_scenario

    if args.name not in SCENARIOS:
        print(f"unknown scenario {args.name!r}; available:")
        for scenario in SCENARIOS.values():
            print(f"  {scenario.name:18s} {scenario.description}")
        return 2
    cls = protocol_class(args.protocol)
    result = run_scenario(cls(), args.name, args.n, seed=args.seed)
    print(f"scenario {args.name!r}: {SCENARIOS[args.name].description}")
    print(result.summary())
    return 0


def _verify_topology(args: argparse.Namespace):
    cls = protocol_class(args.protocol)
    if cls.needs_sense_of_direction or not args.no_sense:
        return cls(), complete_with_sense_of_direction(args.n)
    return cls(), complete_without_sense(args.n, seed=args.seed)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.replay import render_schedule
    from repro.core.errors import ConfigurationError, ProtocolViolation
    from repro.verification import (
        explore_protocol,
        fuzz_protocol,
        load_trace,
        replay_trace,
        save_trace,
        shrink_trace,
    )

    if args.stat:
        from repro.verification.stat import verify_stat

        try:
            report = verify_stat(
                args.stat_protocols,
                ns=tuple(args.stat_ns),
                trials=args.trials,
                confidence=args.confidence,
                target=args.target,
            )
        except (ConfigurationError, ValueError) as error:
            print(f"refused: {error}", file=sys.stderr)
            return 2
        print(report.render())
        return 0 if report.passed else 1

    if args.replay is not None:
        trace = load_trace(args.replay)
        if args.shrink:
            trace = shrink_trace(trace)
            print(f"shrunk to {len(trace.choices)} choices")
        outcome = replay_trace(trace, record_log=True)
        print(render_schedule(trace, outcome))
        return 0 if outcome.ok else 1

    protocol, topology = _verify_topology(args)
    if args.fuzz:
        report = fuzz_protocol(
            protocol, topology, schedules=args.fuzz, seed=args.seed,
            fault_budget=args.fault_budget,
        )
        print(report)
        if report.ok:
            return 0
        violation = report.violations[0]
        print(f"{violation.kind} violation: {violation.message}")
        trace = shrink_trace(violation.trace, protocol)
        print(
            f"shrunk from {len(violation.trace.choices)} to "
            f"{len(trace.choices)} choices"
        )
        if args.save_trace:
            print(f"trace saved to {save_trace(trace, args.save_trace)}")
        outcome = replay_trace(trace, protocol, record_log=True)
        print(render_schedule(trace, outcome))
        return 1

    workers = args.workers
    if workers is None:
        from repro.harness.parallel import configured_processes

        workers = configured_processes()  # REPRO_PARALLEL, like run_sweep
    try:
        report = explore_protocol(
            protocol, topology,
            max_states=args.max_states, por=not args.no_por,
            symmetry=args.symmetry, workers=workers,
        )
    except ProtocolViolation as violation:
        print(f"VIOLATION: {violation}")
        return 1
    except ConfigurationError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    print(report)
    if report.canonical_states is not None:
        print(
            f"{report.canonical_states} canonical states modulo the "
            "topology's relabelling group"
        )
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.core.errors import ConfigurationError
    from repro.matrix import load_specs, run_matrix
    from repro.matrix.spec import curated_specs, expand_specs

    try:
        specs = load_specs(args.spec) if args.spec else curated_specs()
        if args.strict:
            expand_specs(specs, filter=False)  # raise on any illegal cell
    except ConfigurationError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    report = run_matrix(specs, outdir=args.outdir)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.core.errors import ConfigurationError
    from repro.matrix import check_all, load_specs

    if not args.all:
        print("nothing to check: pass --all", file=sys.stderr)
        return 2
    try:
        specs = load_specs(args.spec) if args.spec else None
        report = check_all(specs, quick=args.quick, outdir=args.outdir)
    except ConfigurationError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered protocols")

    run_parser = sub.add_parser("run", help="run one election")
    run_parser.add_argument("--protocol", default="C")
    run_parser.add_argument("--n", type=int, default=64)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--no-sense", action="store_true",
        help="run on an unlabeled network (protocols that allow it)",
    )
    run_parser.add_argument(
        "--shards", type=int, default=0, metavar="K",
        help="run on the sharded kernel with K shards (digest-identical "
        "to serial; see docs/performance.md); 0 = the serial kernel",
    )
    run_parser.add_argument(
        "--shard-workers", type=int, default=None, metavar="W",
        help="with --shards: 0 forces in-process shards, any positive "
        "value forces one forked worker per shard (default: auto, "
        "honouring REPRO_PARALLEL)",
    )

    replay_parser = sub.add_parser(
        "replay", help="run a traced election and narrate it"
    )
    replay_parser.add_argument("--protocol", default="A")
    replay_parser.add_argument("--n", type=int, default=8)
    replay_parser.add_argument("--seed", type=int, default=0)
    replay_parser.add_argument("--no-sense", action="store_true")
    replay_parser.add_argument(
        "--messages", action="store_true", help="list every send/deliver"
    )

    scenario_parser = sub.add_parser(
        "scenario", help="run a protocol inside a named adversarial scenario"
    )
    scenario_parser.add_argument("--protocol", default="G")
    scenario_parser.add_argument("--name", default="chain")
    scenario_parser.add_argument("--n", type=int, default=64)
    scenario_parser.add_argument("--seed", type=int, default=0)

    report_parser = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md (see repro.harness.report)"
    )
    report_parser.add_argument("--quick", action="store_true")
    report_parser.add_argument("--output", default="EXPERIMENTS.md")

    verify_parser = sub.add_parser(
        "verify",
        help="model-check a protocol: exhaustive exploration, schedule "
        "fuzzing, or trace replay",
    )
    verify_parser.add_argument("--protocol", default="A")
    verify_parser.add_argument("--n", type=int, default=3)
    verify_parser.add_argument("--seed", type=int, default=0)
    verify_parser.add_argument("--no-sense", action="store_true")
    verify_parser.add_argument(
        "--max-states", type=int, default=200_000,
        help="state budget for exhaustive exploration",
    )
    verify_parser.add_argument(
        "--no-por", action="store_true",
        help="disable partial-order reduction (cross-validation mode)",
    )
    verify_parser.add_argument(
        "--workers", type=int, default=None, metavar="K",
        help="fan exhaustive exploration across K fork workers "
        "(default: REPRO_PARALLEL, as for experiment sweeps; "
        "0 or 1 = serial)",
    )
    verify_parser.add_argument(
        "--symmetry", choices=("census", "prune", "prune-unsound"),
        default=None,
        help="count states modulo the topology's relabelling group "
        "(census), memoise on orbit representatives (prune — refused "
        "unless the linter-derived capability table proves the protocol "
        "equivariant), or memoise without the gate (prune-unsound — a "
        "bug-hunting mode, see docs/verification.md)",
    )
    verify_parser.add_argument(
        "--fuzz", type=int, default=0, metavar="K",
        help="fuzz K adversarial schedules instead of exploring exhaustively",
    )
    verify_parser.add_argument(
        "--fault-budget", type=int, default=0, metavar="K",
        help="with --fuzz: also cycle the message-loss adversary families, "
        "each allowed K drops per schedule (safety/validity still checked; "
        "lossy runs owe no liveness)",
    )
    verify_parser.add_argument(
        "--save-trace", default=None, metavar="PATH",
        help="with --fuzz: write the shrunk violating trace to PATH",
    )
    verify_parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a saved schedule trace file instead of checking",
    )
    verify_parser.add_argument(
        "--stat", action="store_true",
        help="Monte-Carlo statistical model checking for the randomized "
        "family: seeded trials folded into exact Clopper-Pearson lower "
        "confidence bounds on election safety and the whp message bound "
        "(see docs/randomized.md)",
    )
    verify_parser.add_argument(
        "--trials", type=int, default=600, metavar="T",
        help="with --stat: trials per (protocol, N) stratum (>= 459 "
        "needed for a 0.99 LCB at zero failures; default 600)",
    )
    verify_parser.add_argument(
        "--confidence", type=float, default=0.99,
        help="with --stat: one-sided confidence level (default 0.99)",
    )
    verify_parser.add_argument(
        "--target", type=float, default=0.99,
        help="with --stat: required lower confidence bound on the "
        "success probability (default 0.99)",
    )
    verify_parser.add_argument(
        "--stat-ns", type=int, nargs="+", default=[64, 256], metavar="N",
        help="with --stat: stratum sizes (default: 64 256, the sublinear "
        "regime — below 64 the referee sample saturates)",
    )
    verify_parser.add_argument(
        "--stat-protocols", nargs="+", default=None, metavar="P",
        help="with --stat: protocols to sample (default: every "
        "registered protocol the flow analysis marks uses_ctx_rng)",
    )
    verify_parser.add_argument(
        "--shrink", action="store_true",
        help="with --replay: shrink the trace before replaying",
    )

    sub.add_parser(
        "lint",
        help="static protocol-contract checks (purity, message hygiene, "
        "equivariance, flow, accounting); see docs/lint.md",
        add_help=False,
    )

    sub.add_parser(
        "analyze",
        help="derive static per-activation message bounds and check them "
        "against the paper's complexity table; see docs/lint.md",
        add_help=False,
    )

    matrix_parser = sub.add_parser(
        "matrix",
        help="expand and sweep a declarative scenario-spec file "
        "(see docs/matrix.md)",
    )
    matrix_parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="spec file (.toml or .csv; default: the curated slice)",
    )
    matrix_parser.add_argument(
        "--outdir", default=None, metavar="DIR",
        help="write per-cell config_used.json/result.json and the "
        "aggregate report under DIR",
    )
    matrix_parser.add_argument(
        "--strict", action="store_true",
        help="error on any structurally-illegal cell instead of "
        "filtering it",
    )

    check_parser = sub.add_parser(
        "check",
        help="cross-check the curated matrix against the exhaustive "
        "checker, the schedule fuzzer, and the reliable-delivery "
        "contract (see docs/matrix.md)",
    )
    check_parser.add_argument(
        "--all", action="store_true",
        help="run every phase (required; reserved for future slices)",
    )
    check_parser.add_argument(
        "--quick", action="store_true",
        help="trim sizes and schedule counts, keep every row",
    )
    check_parser.add_argument("--spec", default=None, metavar="FILE")
    check_parser.add_argument("--outdir", default=None, metavar="DIR")

    sub.add_parser(
        "trends",
        help="compare committed BENCH snapshots against a baseline "
        "(the CI regression gate; see docs/matrix.md)",
        add_help=False,
    )

    args, extra = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(extra)
    if args.command == "analyze":
        from repro.lint.flow.cli import main as analyze_main

        return analyze_main(extra)
    if args.command == "trends":
        from repro.matrix.trends import main as trends_main

        return trends_main(extra)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "matrix":
        return _cmd_matrix(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "report":
        from repro.harness.report import main as report_main

        forwarded = ["--output", args.output]
        if args.quick:
            forwarded.append("--quick")
        return report_main(forwarded)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
