"""Wall-clock election ledger: one workload, closed loop, verified results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload c-sharded --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload lossy-sweep --seed 1 --seconds 1 --smoke

The next election starts only after the previous one has been verified.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (derived from spans) with
``--trace 1``.  The lines above it name every metric with its unit, the
environment, the paths the run took and any failure.  A full record (and,
when traced, every span) is written to ``.perfbench/`` under the root.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import NO_SPANS, Spans, self_times, to_json

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: a run is abandoned (process group killed, exit 1) after this long.
DEADLINE_S = 170
#: iterations of the calibration loop timed before and after every sample.
CALIBRATION_ITERATIONS = 300_000
#: the calibration loop's time on the reference host (a 2-vCPU VM in its
#: fast state); gated times are scaled to a host this fast.
CALIBRATION_REF_S = 0.036

END_TO_END = (
    ("election_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
SPAN_LAYERS = (
    "topology.build",
    "network.init",
    "network.run",
    "results.verify",
    "shard.init",
    "shard.run",
)
COUNT_LAYERS = (
    "network.events",
    "network.messages",
    "network.bits",
    "network.max_depth",
    "network.work_span",
    "shard.windows",
    "shard.events_per_window",
    "shard.busy_max_s",
    "shard.busy_mean_s",
    "shard.imbalance",
    "shard.workers_cpu_s",
    "faults.dropped",
    "faults.duplicated",
    "reliable.retransmissions",
    "reliable.dup_suppressed",
    "reliable.goodput",
)
RATIOS = ("shard.imbalance", "reliable.goodput")
#: every per-layer metric, in report order, with its unit.
PER_LAYER = (
    *((f"{name}_s", "s") for name in SPAN_LAYERS),
    *(
        (name, "s" if name.endswith("_s") else "ratio" if name in RATIOS else "count")
        for name in COUNT_LAYERS
    ),
    ("network.us_per_event", "us"),
    ("shard.coord_s", "s"),
    ("gc.pause_s", "s"),
    ("gc.gen2", "count"),
)


class ChildFailed(Exception):
    """A forked child raised, or died before sending its result."""


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its pickled result.

    The child leads its own process group, so a run past the deadline is
    stopped together with any shard workers it forked.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.close(read_fd)
        os.setpgid(0, 0)
        status = 0
        try:
            payload = pickle.dumps(("ok", fn(*args)))
        except BaseException:
            payload = pickle.dumps(("error", traceback.format_exc()))
            status = 1
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    os.waitpid(pid, 0)
    if not data:
        raise ChildFailed("child process exited without a result")
    kind, value = pickle.loads(data)
    if kind != "ok":
        raise ChildFailed(value)
    return value


def _loop_s(iterations: int) -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(iterations):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return perf_counter() - t0


def environment() -> dict:
    from workloads import numpy_importable

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_importable(),
        # Best of three; normalises numbers across hosts (informational).
        "calibration_s": min(_loop_s(300_000) for _ in range(3)),
    }


class GcProbe:
    """``gc.callbacks`` hook: pause time and generation-2 collections."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.pause_s += perf_counter() - self._start
            if info["generation"] == 2:
                self.gen2 += 1


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (shard workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _diff(expected: dict, actual: dict) -> list[str]:
    return sorted(k for k in expected if expected[k] != actual.get(k))


def measure(workload, inputs, seconds: float, traced: bool, expected: list[dict]):
    """The closed loop (runs in its own process; see :func:`in_child`).

    Untraced runs time every sample with spans off.  Traced runs alternate:
    even samples untraced, odd samples with spans and the GC probe on, so
    the two medians give the tracing overhead.
    """
    from workloads import FatalError

    # One untimed election first: the heap grows to its working size and
    # lazy set-up finishes, costs a client pays once, not per election.
    workload.elect(inputs, NO_SPANS)
    spans = Spans()
    samples: list[dict] = []
    failures: list[str] = []
    start = perf_counter()
    index = 0
    while True:
        traced_now = traced and index % 2 == 1
        recorder = spans if traced_now else NO_SPANS
        probe = GcProbe() if traced_now else None
        gc.collect()
        spans.election = index
        if probe is not None:
            gc.callbacks.append(probe)
        calibration_s = _loop_s(CALIBRATION_ITERATIONS)
        before = cpu_seconds()
        try:
            with recorder.span("election"):
                sample = workload.elect(inputs, recorder)
        except FatalError:
            raise
        except Exception as exc:
            failures.append(f"sample {index}: {type(exc).__name__}: {exc}")
            sample = None
        finally:
            after = cpu_seconds()
            if probe is not None:
                gc.callbacks.remove(probe)
        calibration_s = (calibration_s + _loop_s(CALIBRATION_ITERATIONS)) / 2
        if sample is not None:
            for i, (want, got) in enumerate(zip(expected, sample.fingerprints)):
                fields = _diff(want, got)
                if fields:
                    failures.append(
                        f"sample {index} election {i}: result differs from the "
                        f"reference in {', '.join(fields)}"
                    )
                    sample = None
                    break
        if sample is not None:
            samples.append(
                {
                    "index": index,
                    "traced": traced_now,
                    "setup_s": sample.setup_s,
                    "election_s": sample.election_s,
                    "cpu_s": (after - before) / workload.elections,
                    "calibration_s": calibration_s,
                    "counts": sample.counts,
                    "paths": sample.paths,
                    "gc.pause_s": probe.pause_s / workload.elections if probe else None,
                    "gc.gen2": probe.gen2 / workload.elections if probe else None,
                }
            )
        index += 1
        # A traced run needs one sample of each kind for the overhead.
        if perf_counter() - start >= seconds and (not traced or index >= 2):
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "attempted": index,
        "samples": samples,
        "failures": failures,
        "spans": spans.records,
        "peak_rss_mb": (own + children) / 1024.0,
    }


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"max {max(values):.6g} (n={n}; a tail percentile needs n>=20)"
    p = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    rank = max(0, math.ceil(p / 100 * n) - 1)
    return f"p{p} {ordered[rank]:.6g} (n={n})"


def per_layer(workload, samples: list[dict], spans: list[tuple]) -> dict[str, float]:
    """Median over traced samples of each per-layer metric (0: layer unused)."""
    selfs = self_times(spans)
    rows = []
    for s in samples:
        if not s["traced"]:
            continue
        own = selfs.get(s["index"], {})
        row = {
            f"{name}_s": own.get(name, 0.0) / workload.elections
            for name in SPAN_LAYERS
        }
        row.update({name: s["counts"].get(name, 0) for name in COUNT_LAYERS})
        run_s, events = row["network.run_s"], row["network.events"]
        row["network.us_per_event"] = 1e6 * run_s / events if run_s else 0.0
        row["shard.coord_s"] = (
            row["shard.run_s"] - row["shard.busy_max_s"] if row["shard.run_s"] else 0.0
        )
        row["gc.pause_s"] = s["gc.pause_s"]
        row["gc.gen2"] = s["gc.gen2"]
        rows.append(row)
    return {name: statistics.median(r[name] for r in rows) for name, _ in PER_LAYER}


def host_factor(samples: list[dict]) -> float:
    """How many times slower than the reference host the run's host was.

    The host's speed drifts during a run; the calibration loop timed
    around every sample tracks it, and its mean covers the whole run.
    """
    return statistics.mean(s["calibration_s"] for s in samples) / CALIBRATION_REF_S


def report(workload, traced: bool, run: dict, reference_s: float):
    """Human-readable lines plus the end-to-end and per-layer medians."""
    samples = run["samples"]
    attempted, failed = run["attempted"], run["attempted"] - len(samples)
    untraced = [s for s in samples if not s["traced"]]
    on = [s for s in samples if s["traced"]]
    lines = []
    end_to_end: dict[str, float] = {}
    raw_election_s = 0.0
    if untraced:
        factor = host_factor(untraced)
        # The time metrics; peak_rss_mb is not scaled.
        for name, unit in END_TO_END[:3]:
            values = [s[name] / factor for s in untraced]
            raw = statistics.median(s[name] for s in untraced)
            end_to_end[name] = statistics.median(values)
            lines.append(
                f"{name} median {end_to_end[name]:.6g} {unit} (host-scaled); "
                f"{tail(values)}; unscaled wall median {raw:.6g} {unit}"
            )
            if name == "election_s":
                raw_election_s = raw
        lines.append(
            f"host factor {factor:.4g} (mean calibration loop of "
            f"{CALIBRATION_ITERATIONS} iterations / its {CALIBRATION_REF_S} s on "
            "the reference host; the times above are divided by it)"
        )
    end_to_end["peak_rss_mb"] = run["peak_rss_mb"]
    lines.append(f"peak_rss_mb {run['peak_rss_mb']:.6g} MB")
    lines.append(
        f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted} "
        "failed verification or the digest check)"
    )
    lines += [f"FAILED {failure}" for failure in run["failures"]]
    paths = {json.dumps(s["paths"], sort_keys=True) for s in samples if s["paths"]}
    lines += [f"paths {p}" for p in sorted(paths)]
    if raw_election_s and "shard.imbalance" in samples[0]["counts"]:
        imbalance = statistics.median(s["counts"]["shard.imbalance"] for s in samples)
        lines.append(
            f"sharded_speedup {reference_s / raw_election_s:.4g} "
            f"(derived, ungated: serial reference {reference_s:.4g} s / c-sharded "
            f"unscaled median election_s) shard.imbalance {imbalance:.4g}"
        )
    layers: dict[str, float] = {}
    if traced and on:
        layers = per_layer(workload, samples, run["spans"])
        for name, unit in PER_LAYER:
            note = " (derived: shard.run_s - shard.busy_max_s)" if name == "shard.coord_s" else ""
            lines.append(f"layer {name} {layers[name]:.6g} {unit}{note}")
        if untraced:
            traced_s = statistics.median(s["election_s"] for s in on)
            off = raw_election_s
            lines.append(
                f"tracing overhead {100 * (traced_s / off - 1):+.2f}% (election_s "
                f"traced {traced_s:.6g} s, n={len(on)}; untraced {off:.6g} s, "
                f"n={len(untraced)})"
            )
    return lines, end_to_end, layers


def main(argv: list[str] | None = None) -> int:
    from workloads import SMOKE_N, WORKLOADS, make_inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="same workload and checks at tiny N"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    env = environment()
    n = SMOKE_N if args.smoke else workload.n
    inputs = make_inputs(n, args.seed)
    reference, reference_s = in_child(workload.reference, inputs)
    run = in_child(measure, workload, inputs, args.seconds, traced, reference)

    attempted = run["attempted"]
    failed = attempted - len(run["samples"])
    lines, end_to_end, layers = report(workload, traced, run, reference_s)
    header = [
        f"perfbench {workload.name} n={n} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} smoke={args.smoke} samples={attempted} "
        f"(elections per sample: {workload.elections})",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "why": workload.why,
                "n": n,
                "seed": args.seed,
                "env": env,
                "attempted": attempted,
                "failures": run["failures"],
                "samples": run["samples"],
                "end_to_end": end_to_end,
                "per_layer": layers,
                "reference_election_s": reference_s,
                "spans": to_json(run["spans"]),
            },
            indent=1,
        )
    )
    print("\n".join([*header, *lines, f"record {record.relative_to(ROOT)}"]))
    declared, values = (PER_LAYER, layers) if traced else (END_TO_END, end_to_end)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in declared
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def _on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        sys.exit(main())
    except (ChildFailed, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
