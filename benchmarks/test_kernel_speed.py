"""Kernel throughput regression tracking.

Measures raw simulator speed — events/sec and messages/sec through
``Network.run()`` — on two fixed workloads, and writes the numbers to
``BENCH_kernel.json`` at the repo root so perf regressions show up in
review diffs.

Methodology: topology construction is *excluded* (it is O(N) for the
sense-of-direction wiring but O(N²) for explicit port maps and would
swamp the kernel signal); only ``net.run()`` is timed with
``time.perf_counter``; throughput is ``scheduler.events_processed / dt``.
Each workload is run three times on fresh ``Network`` instances and the
*fastest* run is recorded — every run processes the identical event
sequence (the kernel is deterministic), so the minimum wall time is the
best estimate of true kernel speed under noisy-neighbour CPU steal.  The
sharded workloads apply the same best-of-three to both sides of the
serial-vs-sharded comparison (fastest serial run, highest aggregate
sharded run) and record the process's ``peak_rss_mb`` alongside the
rates.
The baselines are what the seed kernel (commit e13e13e, pre tuple-heap
rewrite) measured on this container; the tuple-based kernel is asserted
to beat them by at least 2x, with the actual multiple (~3.5x for C@2048
when measured in a fresh process) recorded in the JSON.  The floor is
deliberately loose: CI machines vary, and a flaky perf gate is worse
than none.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

from repro.matrix.check import _result_fields
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.network import Network
from repro.sim.shard import ShardedNetwork
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)

from conftest import write_bench

BENCH_PATH = Path(__file__).parent.parent / "BENCH_kernel.json"

#: events/sec the seed kernel sustained on these workloads (fresh process,
#: this container).  Regenerate by checking out the seed and running
#: benchmarks/test_kernel_speed.py::_measure on the same machine.
SEED_BASELINE = {
    "C@2048": 51_000.0,
    "G@1024-k10": 58_700.0,
}

#: Loose regression floor: the rewrite measures ~3.5x on C@2048; anything
#: under 2x on a quiet machine is a real regression, not noise.
MIN_SPEEDUP = 2.0

_RESULTS: dict[str, dict[str, float]] = {}


#: Fresh runs per workload; the fastest is recorded (see module docstring).
ROUNDS = 3


def _measure(
    label: str, make_protocol, topology, seed: int = 0
) -> dict[str, float]:
    best_dt = float("inf")
    for _ in range(ROUNDS):
        net = Network(make_protocol(), topology, seed=seed)
        start = time.perf_counter()
        result = net.run()
        dt = time.perf_counter() - start
        if dt < best_dt:
            best_dt = dt
            events = net.scheduler.events_processed
            messages = result.messages_total
    stats = {
        "run_seconds": round(best_dt, 4),
        "events": events,
        "events_per_sec": round(events / best_dt, 1),
        "messages": messages,
        "messages_per_sec": round(messages / best_dt, 1),
        "seed_events_per_sec": SEED_BASELINE[label],
        "speedup_vs_seed": round(events / best_dt / SEED_BASELINE[label], 2),
    }
    _RESULTS[label] = stats
    return stats


def _flush():
    write_bench(BENCH_PATH, _RESULTS)


def test_kernel_throughput_protocol_c_2048(benchmark):
    topology = complete_with_sense_of_direction(2048)
    stats = benchmark.pedantic(
        _measure, args=("C@2048", ProtocolC, topology), rounds=1, iterations=1
    )
    benchmark.extra_info.update(stats)
    _flush()
    assert stats["speedup_vs_seed"] >= MIN_SPEEDUP, (
        f"kernel slowed down: {stats['events_per_sec']:.0f} ev/s is "
        f"{stats['speedup_vs_seed']:.2f}x the seed baseline "
        f"{SEED_BASELINE['C@2048']:.0f} (floor {MIN_SPEEDUP}x)"
    )


#: Shard count for the large sharded workload: enough to show the
#: window-synchronised kernel's aggregate capacity without making the
#: coordinator the bottleneck at this N.
SHARDS = 16

#: Aggregate-capacity floor for the sharded workload.  The ratio is
#: structural, not wall-clock: ``aggregate_events_per_sec`` sums the
#: per-shard busy-time rates (the throughput ``SHARDS`` cores would
#: sustain), so on any machine it lands near ``SHARDS`` x the per-shard
#: dispatch efficiency (~1.2x serial per shard at this N) and 10x leaves
#: a wide noise margin.
MIN_SHARDED_SPEEDUP = 10.0

#: The frozen record of the retired per-record shard kernel for
#: C@131072-sharded16 (the committed BENCH_kernel.json value when the
#: compiled send path and columnar decode landed).  The acceptance floor
#: is an absolute multiple of this number, so a slow machine cannot
#: "pass" by dragging a same-run baseline down with it.
INTERP_RECORD_AGGREGATE = 1_845_902.6

#: Absolute floor: at least 1.5x the frozen record.
MIN_VECTOR_VS_RECORD = 1.5


def _peak_rss_mb() -> float:
    """The process's peak resident set, in MB (Linux ru_maxrss is KB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


#: Serial baseline cache: n -> (result fields, best rate, best seconds).
#: The sharded entry compares against a best-of-ROUNDS serial run,
#: measured once per process.
_SERIAL: dict[int, tuple[tuple, float, float]] = {}


def _serial_baseline(n: int) -> tuple[tuple, float, float]:
    cached = _SERIAL.get(n)
    if cached is not None:
        return cached
    best_dt = float("inf")
    for _ in range(ROUNDS):
        serial = Network(ProtocolC(), complete_with_sense_of_direction(n))
        start = time.perf_counter()
        result = serial.run()
        dt = time.perf_counter() - start
        if dt < best_dt:
            best_dt = dt
            fields = _result_fields(result)
            rate = serial.scheduler.events_processed / dt
    _SERIAL[n] = (fields, rate, best_dt)
    return _SERIAL[n]


def _measure_sharded(label: str, n: int, shards: int) -> dict[str, float]:
    serial_fields, serial_rate, serial_dt = _serial_baseline(n)

    best_aggregate = 0.0
    for _ in range(ROUNDS):
        sharded = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(n),
            shards=shards, workers=0,
        )
        start = time.perf_counter()
        result = sharded.run()
        dt = time.perf_counter() - start
        aggregate = sharded.aggregate_events_per_sec
        if aggregate > best_aggregate:
            best_aggregate = aggregate
            best = sharded
            best_dt = dt
            digest_ok = serial_fields == _result_fields(result)

    stats = {
        "engine": best.stats["engine"],
        "shards": shards,
        "events": best.stats["events_total"],
        "windows": best.stats["windows"],
        "run_seconds": round(best_dt, 4),
        "serial_run_seconds": round(serial_dt, 4),
        "serial_events_per_sec": round(serial_rate, 1),
        "aggregate_events_per_sec": round(best_aggregate, 1),
        "sharded_speedup_vs_serial": round(best_aggregate / serial_rate, 2),
        "peak_rss_mb": _peak_rss_mb(),
        "checks": {"digest_matches_serial": digest_ok},
    }
    _RESULTS[label] = stats
    return stats


def _measure_sharded_vector(label: str, n: int, shards: int) -> dict:
    """The sharded entry plus its multiple of the frozen record."""
    stats = _measure_sharded(label, n, shards)
    stats["vector_speedup_vs_record"] = round(
        stats["aggregate_events_per_sec"] / INTERP_RECORD_AGGREGATE, 2
    )
    return stats


def test_kernel_throughput_protocol_g_1024(benchmark):
    topology = complete_without_sense(1024, seed=5)
    stats = benchmark.pedantic(
        _measure,
        args=("G@1024-k10", lambda: ProtocolG(k=10), topology, 5),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(stats)
    _flush()
    # 𝒢 is message-heavier per event and gains less than C; still require
    # a clear win over the seed.
    assert stats["speedup_vs_seed"] >= 1.5, (
        f"kernel slowed down: {stats['events_per_sec']:.0f} ev/s is "
        f"{stats['speedup_vs_seed']:.2f}x the seed baseline "
        f"{SEED_BASELINE['G@1024-k10']:.0f} (floor 1.5x)"
    )


def test_sharded_vector_engine_throughput_c_131072(benchmark):
    """C at N=131072 (2^17, the smallest power-of-two >= 100k that
    Protocol C accepts) on 16 shards, digest-checked against the serial
    run it is compared to, with the absolute multiple of the frozen
    record asserted."""
    stats = benchmark.pedantic(
        _measure_sharded_vector,
        args=("C@131072-sharded16-vector", 131072, SHARDS),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {k: v for k, v in stats.items() if k != "checks"}
    )
    _flush()
    assert stats["checks"]["digest_matches_serial"], (
        "sharded C@131072 diverged from the serial kernel — the speedup "
        "number is meaningless if the digest contract is broken"
    )
    assert stats["vector_speedup_vs_record"] >= MIN_VECTOR_VS_RECORD, (
        f"sharded kernel reached only "
        f"{stats['aggregate_events_per_sec']:.0f} ev/s aggregate = "
        f"{stats['vector_speedup_vs_record']:.2f}x the frozen record "
        f"{INTERP_RECORD_AGGREGATE:.0f} (floor {MIN_VECTOR_VS_RECORD}x)"
    )
    assert stats["sharded_speedup_vs_serial"] >= MIN_SHARDED_SPEEDUP, (
        f"sharded aggregate capacity fell to "
        f"{stats['sharded_speedup_vs_serial']:.1f}x serial "
        f"(floor {MIN_SHARDED_SPEEDUP}x)"
    )
