"""The ledger workloads: one election (or one lossy round) per call.

Each ``elect`` call builds the topology, constructs the network, runs it and
verifies the result through the public API, opening a span around each
call into a layer.  It returns a :class:`Sample` holding the stage times it
measured itself (so untraced runs need no spans), the per-layer counts the
result and ``ShardedNetwork.stats`` expose, and the result fingerprints the
run checks against its reference.

The seed generates only inputs: the identity permutation (``c-sharded``), and
for ``lossy-sweep`` the hidden port maps, the fault plan and the delay
draws of the ``lossy`` scenario.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Any

from repro import (
    ConstantDelay,
    Network,
    ProtocolC,
    ProtocolE,
    ProtocolG,
    ReliableDelivery,
    ShardedNetwork,
    complete_with_sense_of_direction,
    run_scenario,
)
from repro.core.results import ElectionResult
from repro.harness.scenarios import SCENARIOS
from spans import NO_SPANS


#: network size of ``--smoke`` runs (same workloads and checks).
SMOKE_N = 64


class FatalError(Exception):
    """The run measured something other than what its workload names."""


@dataclass(frozen=True)
class Inputs:
    n: int
    seed: int
    ids: tuple[int, ...]


@dataclass
class Sample:
    setup_s: float
    election_s: float
    fingerprints: list[dict[str, Any]]
    counts: dict[str, float] = field(default_factory=dict)
    paths: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    #: elections per sample; times and counts are reported per election.
    elections: int
    elect: Callable[[Inputs, Any], Sample]
    #: ``(fingerprints, seconds per election)`` of a reference run made
    #: outside the timed loop; every sample must equal its fingerprints.
    reference: Callable[[Inputs], tuple[list[dict[str, Any]], float]]


def make_inputs(n: int, seed: int) -> Inputs:
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return Inputs(n=n, seed=seed, ids=tuple(ids))


def fingerprint(result: ElectionResult) -> dict[str, Any]:
    """Every deterministic field of a result (the tracer is left out)."""
    return {
        f.name: getattr(result, f.name) for f in fields(result) if f.name != "trace"
    }


def result_counts(result: ElectionResult, events: int) -> dict[str, float]:
    packets = result.messages_by_type.get("Packet", 0)
    counts: dict[str, float] = {
        "network.events": events,
        "network.messages": result.messages_total,
        "network.bits": result.bits_total,
        "network.max_depth": result.max_depth,
        "network.work_span": result.messages_total / max(result.max_depth, 1),
        "faults.dropped": result.messages_dropped,
        "faults.duplicated": result.messages_duplicated,
        "reliable.retransmissions": result.retransmissions,
        "reliable.dup_suppressed": result.duplicates_suppressed,
    }
    if packets:
        counts["reliable.goodput"] = (
            packets - result.retransmissions
        ) / result.messages_total
    return counts


def _serial_c(inputs: Inputs, spans) -> Sample:
    t0 = perf_counter()
    with spans.span("topology.build"):
        topology = complete_with_sense_of_direction(inputs.n, ids=inputs.ids)
    with spans.span("network.init"):
        network = Network(
            ProtocolC(), topology, delays=ConstantDelay(1.0), seed=inputs.seed
        )
    t1 = perf_counter()
    with spans.span("network.run"):
        result = network.run(require_leader=False)
    with spans.span("results.verify"):
        result.verify()
    t2 = perf_counter()
    return Sample(
        setup_s=t1 - t0,
        election_s=t2 - t0,
        fingerprints=[fingerprint(result)],
        counts=result_counts(result, network.scheduler.events_processed),
    )


def numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _sharded_c(inputs: Inputs, spans) -> Sample:
    t0 = perf_counter()
    with spans.span("topology.build"):
        topology = complete_with_sense_of_direction(inputs.n, ids=inputs.ids)
    with spans.span("shard.init"):
        network = ShardedNetwork(
            ProtocolC(),
            topology,
            shards=2,
            workers=2,
            delays=ConstantDelay(1.0),
            seed=inputs.seed,
        )
    t1 = perf_counter()
    before = os.times()
    with spans.span("shard.run"):
        result = network.run(require_leader=False)
    after = os.times()
    with spans.span("results.verify"):
        result.verify()
    t2 = perf_counter()
    stats = network.stats
    if not stats.get("forked"):
        raise FatalError(
            f"c-sharded ran in-process (transport={stats.get('transport')!r}); "
            "refusing to report it under the forked workload's name"
        )
    busy = stats["busy_per_shard"]
    busy_max, busy_mean = max(busy), sum(busy) / len(busy)
    counts = result_counts(result, stats["events_total"])
    counts.update(
        {
            "shard.windows": stats["windows"],
            "shard.events_per_window": stats["events_total"] / stats["windows"],
            "shard.busy_max_s": busy_max,
            "shard.busy_mean_s": busy_mean,
            "shard.imbalance": busy_max / busy_mean if busy_mean > 0 else 0.0,
            "shard.workers_cpu_s": (after.children_user + after.children_system)
            - (before.children_user + before.children_system),
        }
    )
    return Sample(
        setup_s=t1 - t0,
        election_s=t2 - t0,
        fingerprints=[fingerprint(result)],
        counts=counts,
        paths={
            "transport": stats["transport"],
            "forked": stats["forked"],
            "engine": stats["engine"],
            "numpy": numpy_importable(),
        },
    )


def _serial_c_reference(inputs: Inputs) -> tuple[list[dict[str, Any]], float]:
    sample = _serial_c(inputs, NO_SPANS)
    return sample.fingerprints, sample.election_s


LOSSY_PROTOCOLS: tuple[Callable[[], Any], ...] = (
    ProtocolC,
    ProtocolE,
    lambda: ProtocolG(k=10),
)


def _lossy_round(inputs: Inputs, spans) -> Sample:
    """``run_scenario(p, "lossy", n, seed=...)`` for C, E and G, stage by stage.

    The steps are those of ``run_scenario``; the reference below runs
    ``run_scenario`` itself, so a divergence fails the digest check.
    """
    scenario = SCENARIOS["lossy"]
    setup = 0.0
    fingerprints = []
    counts: dict[str, float] = {}
    t0 = perf_counter()
    for make in LOSSY_PROTOCOLS:
        protocol = make()
        s0 = perf_counter()
        with spans.span("scenario.run"):
            with spans.span("topology.build"):
                topology, kwargs = scenario.build(
                    inputs.n, inputs.seed, protocol.needs_sense_of_direction
                )
            with spans.span("network.init"):
                network = Network(
                    ReliableDelivery(protocol),
                    topology,
                    seed=inputs.seed,
                    **kwargs,
                )
            s1 = perf_counter()
            with spans.span("network.run"):
                result = network.run(require_leader=False)
        with spans.span("results.verify"):
            result.verify()
        setup += s1 - s0
        fingerprints.append(fingerprint(result))
        one = result_counts(result, network.scheduler.events_processed)
        for name, value in one.items():
            counts[name] = counts.get(name, 0) + value
    t2 = perf_counter()
    k = len(LOSSY_PROTOCOLS)
    return Sample(
        setup_s=setup / k,
        election_s=(t2 - t0) / k,
        fingerprints=fingerprints,
        counts={name: value / k for name, value in counts.items()},
    )


def _lossy_reference(inputs: Inputs) -> tuple[list[dict[str, Any]], float]:
    t0 = perf_counter()
    fingerprints = [
        fingerprint(run_scenario(make(), "lossy", inputs.n, seed=inputs.seed))
        for make in LOSSY_PROTOCOLS
    ]
    return fingerprints, (perf_counter() - t0) / len(LOSSY_PROTOCOLS)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "c-sharded",
            "Protocol C at N=32768, sense of direction, on 2 forked shards: "
            "codec, coordinator routing, barrier wait; a serial reference gives "
            "the speedup",
            n=32768,
            elections=1,
            elect=_sharded_c,
            reference=_serial_c_reference,
        ),
        Workload(
            "lossy-sweep",
            "lossy scenario at N=512 for C, E and G(k=10): faulty send path, "
            "ARQ timers and acks, per-election fixed costs",
            n=512,
            elections=len(LOSSY_PROTOCOLS),
            elect=_lossy_round,
            reference=_lossy_reference,
        ),
    )
}
