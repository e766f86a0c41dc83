"""Sharded-kernel tests: the digest contract, budgets, gating, transport.

The sharded kernel's one hard promise (docs/performance.md, "Sharded
execution") is **digest equality**: for any shardable configuration, a
sharded run must agree with the serial kernel on every deterministic
result field — the same fingerprint the determinism suite pins — at any
shard count, in-process or forked, faults included.  These tests enforce
that promise against the committed seed fixtures, plus the global
livelock budget, the configuration gates, and the packed-array codec.

The ``shard_smoke`` marker is the CI smoke leg: small-N, two shards,
digest-checked against the frozen fixture file.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from array import array

import pytest

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.adversary import wakeup as adversary_wakeup
from repro.adversary.delays import congested_links, worst_case_unit
from repro.core.errors import (
    ConfigurationError,
    LivelockError,
    ProtocolViolation,
    SimulationError,
)
from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.core.reliable import ReliableDelivery
from repro.protocols.nosense.protocol_d import ProtocolD
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.nosense.protocol_r import ProtocolR
from repro.protocols.random import RandomizedSampling, RandomizedTradeoff
from repro.protocols.sense.protocol_b import ProtocolB
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.delays import ConstantDelay, HookDelay, UniformDelay
from repro.sim.faults import FaultPlan, isolate
from repro.sim.network import run_election
from repro.sim.scheduler import Scheduler
import repro.sim.shard as shard_mod
from repro.sim.shard import (
    TIMER_MARK,
    MessageCodec,
    ShardedNetwork,
    run_sharded_election,
)
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from tests.sim.determinism_cases import FIXTURE_PATH, fingerprint

# ---------------------------------------------------------------------------
# Shardable mirrors of the determinism cases: same configuration as
# tests/sim/determinism_cases.CASES, parameterised by the runner, so the
# sharded fingerprints can be compared against the frozen seed fixtures.
# E@64-uniform is deliberately absent: UniformDelay consumes the shared
# run RNG and is serial-only (see test_uniform_delay_is_refused).
# ---------------------------------------------------------------------------


def _g32_partition_config():
    topology = complete_without_sense(32, seed=4)
    return {
        "protocol": ReliableDelivery(ProtocolG(k=4)),
        "topology": topology,
        "faults": FaultPlan(
            seed=4, drop=0.05,
            partitions=isolate(max(topology.ids), topology.ids, 1.0, 4.0),
        ),
        "seed": 4,
    }


SHARDABLE_CASES = {
    "C@64": lambda: {
        "protocol": ProtocolC(),
        "topology": complete_with_sense_of_direction(64),
    },
    "B@32-unit": lambda: {
        "protocol": ProtocolB(),
        "topology": complete_with_sense_of_direction(32),
        "delays": worst_case_unit(),
    },
    "C@32-chain": lambda: {
        "protocol": ProtocolC(),
        "topology": complete_with_sense_of_direction(32),
        "delays": worst_case_unit(),
        "wakeup": adversary_wakeup.staggered_chain(),
    },
    "D@32": lambda: {
        "protocol": ProtocolD(),
        "topology": complete_without_sense(32, seed=1),
        "seed": 1,
    },
    "G@64-k8": lambda: {
        "protocol": ProtocolG(k=8),
        "topology": complete_without_sense(64, seed=3),
        "delays": worst_case_unit(),
        "seed": 3,
    },
    "R@64-lone-base": lambda: {
        "protocol": ProtocolR(),
        "topology": complete_without_sense(64, seed=5),
        "wakeup": {0: 0.0},
        "seed": 5,
    },
    "E@32-congested": lambda: {
        "protocol": ProtocolE(),
        "topology": complete_without_sense(32, seed=7),
        "delays": congested_links(),
        "seed": 7,
    },
    "E@32-lossy-rel": lambda: {
        "protocol": ReliableDelivery(ProtocolE()),
        "topology": complete_without_sense(32, seed=9),
        "faults": FaultPlan(seed=9, drop=0.10, duplicate=0.05, jitter=0.25),
        "seed": 9,
    },
    "G@32-partition-rel": _g32_partition_config,
    "E@16-crash": lambda: {
        "protocol": ProtocolE(),
        "topology": complete_without_sense(16, seed=6),
        "faults": FaultPlan(seed=6, crashes={3: 1.0, 11: 2.5}),
        "seed": 6,
        "require_leader": False,
    },
    # Randomized protocols shard cleanly by construction: each node's coin
    # stream is derived from (run seed, node id) alone, so draws are
    # identical regardless of which shard hosts the node.
    "RS@64": lambda: {
        "protocol": RandomizedSampling(),
        "topology": complete_without_sense(64, seed=11),
        "seed": 11,
    },
    "RT@64-unit": lambda: {
        "protocol": RandomizedTradeoff(),
        "topology": complete_without_sense(64, seed=12),
        "delays": worst_case_unit(),
        "seed": 12,
    },
    "RS@32-lossy-rel": lambda: {
        "protocol": ReliableDelivery(RandomizedSampling()),
        "topology": complete_without_sense(32, seed=13),
        "faults": FaultPlan(seed=13, drop=0.10, duplicate=0.05, jitter=0.25),
        "seed": 13,
    },
}

#: The exhaustive digest matrix (fixture equality at two shard counts);
#: the smoke slice runs a subset at shards=2 only.
FULL_MATRIX_CASES = sorted(SHARDABLE_CASES)
SMOKE_CASES = ("C@64", "B@32-unit", "G@64-k8", "E@32-lossy-rel", "RS@64")


def _run_sharded(name: str, shards: int, workers: int | None = 0):
    config = SHARDABLE_CASES[name]()
    protocol = config.pop("protocol")
    topology = config.pop("topology")
    return run_sharded_election(
        protocol, topology, shards=shards, workers=workers, **config
    )


def _fixture(name: str) -> dict:
    return json.loads(FIXTURE_PATH.read_text())[name]


# ---------------------------------------------------------------------------
# The digest contract (satellite: fixtures at two shard counts + lossy).
# ---------------------------------------------------------------------------


@pytest.mark.shard_smoke
@pytest.mark.parametrize("name", SMOKE_CASES)
def test_sharded_digest_matches_seed_fixture_smoke(name):
    """The CI smoke leg: 2 shards, digest-checked against the fixture."""
    assert fingerprint(_run_sharded(name, shards=2)) == _fixture(name)


@pytest.mark.parametrize("name", FULL_MATRIX_CASES)
@pytest.mark.parametrize("shards", (2, 3))
def test_sharded_digest_matches_seed_fixture(name, shards):
    actual = fingerprint(_run_sharded(name, shards=shards))
    assert actual == _fixture(name), (
        f"{name} at {shards} shards diverged from the serial seed "
        "fixture: the sharded kernel broke the digest contract"
    )


# ---------------------------------------------------------------------------
# Decode paths.  Every other test in this file runs the numpy decode when
# numpy is importable; the pure-Python path (numpy absent) needs a pin of
# its own.
# ---------------------------------------------------------------------------


def test_vector_engine_without_numpy_is_byte_identical(monkeypatch):
    """The pure-Python decode and ranking (REPRO_NO_NUMPY / numpy absent)
    must produce the same digest as the numpy path."""
    monkeypatch.setattr(shard_mod, "_np", None)
    actual = fingerprint(_run_sharded("E@32-lossy-rel", shards=2))
    assert actual == _fixture("E@32-lossy-rel")


def test_lossy_overlay_case_is_exact_under_sharding():
    """The full fault stack (drop/dup/jitter + retransmission overlay)
    reproduces every overlay counter, not just the election outcome."""
    sharded = fingerprint(_run_sharded("E@32-lossy-rel", shards=3))
    fixture = _fixture("E@32-lossy-rel")
    for key in (
        "messages_dropped", "messages_duplicated", "messages_jittered",
        "retransmissions", "duplicates_suppressed",
    ):
        assert sharded[key] == fixture[key], key


@pytest.mark.parametrize(
    "make_config",
    [
        lambda: (ProtocolC(), complete_with_sense_of_direction(64), {}),
        lambda: (
            ProtocolG(k=8),
            complete_without_sense(64, seed=3),
            {"delays": worst_case_unit(), "seed": 3},
        ),
        lambda: (
            ReliableDelivery(ProtocolE()),
            complete_without_sense(32, seed=9),
            {
                "faults": FaultPlan(
                    seed=9, drop=0.10, duplicate=0.05, jitter=0.25
                ),
                "seed": 9,
            },
        ),
    ],
    ids=["C@64", "G@64-k8", "E@32-lossy-rel"],
)
def test_resharding_never_changes_leader_or_message_counts(make_config):
    """Re-sharding property: 1, 2 and 4 shards agree on every field."""
    prints = []
    for shards in (1, 2, 4):
        protocol, topology, kwargs = make_config()
        prints.append(
            fingerprint(
                run_sharded_election(
                    protocol, topology, shards=shards, workers=0, **kwargs
                )
            )
        )
    assert prints[0] == prints[1] == prints[2]
    serial_protocol, serial_topology, serial_kwargs = make_config()
    serial = fingerprint(
        run_election(serial_protocol, serial_topology, **serial_kwargs)
    )
    assert prints[0] == serial


@pytest.mark.shard_smoke
def test_forked_workers_match_in_process_shards():
    """The fork transport is a pure transport: same digest either way."""
    in_process = fingerprint(_run_sharded("C@64", shards=2, workers=0))
    forked = fingerprint(_run_sharded("C@64", shards=2, workers=2))
    assert in_process == forked == _fixture("C@64")


def _transport_of(name: str, shards: int, workers: int) -> str:
    config = SHARDABLE_CASES[name]()
    protocol = config.pop("protocol")
    topology = config.pop("topology")
    net = ShardedNetwork(
        protocol, topology, shards=shards, workers=workers, **config
    )
    net.run()
    return net.stats["transport"]


@pytest.mark.shard_smoke
def test_forked_pipes_transport_matches_fixture():
    """The heaviest fault cell (drop/dup/jitter + retransmission overlay)
    over forked workers: both the packed fast lane and the pickled slow
    lane cross the pipes, and the digest equals the serial fixture."""
    forked = fingerprint(_run_sharded("E@32-lossy-rel", shards=2, workers=2))
    assert forked == _fixture("E@32-lossy-rel")


def test_transport_stat_reports_the_exchange_in_use():
    assert _transport_of("C@64", shards=2, workers=0) == "local"
    assert _transport_of("C@64", shards=2, workers=2) == "pipes"


def test_worker_exceptions_are_relayed_with_their_type():
    with pytest.raises(LivelockError):
        run_sharded_election(
            ProtocolC(),
            complete_with_sense_of_direction(64),
            shards=2,
            workers=2,
            max_events=50,
        )


class _SnapshotRefusingNode(Node):
    """Node 0 wakes, declares itself leader, and refuses its snapshot."""

    def on_wake(self, spontaneous):
        if self.ctx.node_id == 0:
            self.become_leader()

    def on_message(self, port, message):
        pass

    def snapshot(self):
        if self.ctx.node_id == 0:
            raise ProtocolViolation("snapshot refused by node 0")
        return super().snapshot()


class _SnapshotRefusingProtocol(ElectionProtocol):
    name = "snapshot-refusing-test"

    def create_node(self, ctx):
        return _SnapshotRefusingNode(ctx)


def test_a_worker_failing_in_finish_keeps_its_type_and_traceback():
    """Finish requests go to every worker before any reply is read; the
    failing shard's own exception still surfaces, carrying the worker-side
    frame, and the other worker is closed rather than left hanging."""
    with pytest.raises(ProtocolViolation, match="snapshot refused") as raised:
        run_sharded_election(
            _SnapshotRefusingProtocol(),
            complete_with_sense_of_direction(8),
            shards=2,
            workers=2,
        )
    notes = "\n".join(raised.value.__notes__)
    assert "shard 0 worker traceback" in notes
    assert "in snapshot" in notes
    assert 'raise ProtocolViolation("snapshot refused by node 0")' in notes
    assert multiprocessing.active_children() == []


class _ExitingNode(Node):
    """The node at ``victim`` kills its own worker process on wake."""

    def __init__(self, ctx, victim, parent_pid):
        super().__init__(ctx)
        self._victim = victim
        self._parent_pid = parent_pid

    def on_wake(self, spontaneous):
        # Only ever inside a forked worker: exiting the test process
        # itself would end the whole test run.
        if self.ctx.node_id == self._victim and os.getpid() != self._parent_pid:
            os._exit(3)

    def on_message(self, port, message):
        pass


class _ExitingProtocol(ElectionProtocol):
    name = "exiting-worker-test"

    def __init__(self, victim):
        self._victim = victim
        self._parent_pid = os.getpid()

    def create_node(self, ctx):
        return _ExitingNode(ctx, self._victim, self._parent_pid)


def test_a_worker_dying_mid_window_names_its_shard_and_exit_code():
    """A worker that exits without replying fails the run at once, with a
    message naming the shard and the exit status; no child outlives it."""
    topology = complete_with_sense_of_direction(8)
    victim = topology.id_at(7)  # position 7 belongs to shard 1 of 2
    with pytest.raises(SimulationError) as raised:
        run_sharded_election(
            _ExitingProtocol(victim), topology, shards=2, workers=2
        )
    message = str(raised.value)
    assert "shard 1" in message
    assert "exit code 3" in message
    assert multiprocessing.active_children() == []


def test_route_stats_name_the_fallbacks_taken():
    """``slow_lane_records`` and ``route_s`` make the coordinator's work
    visible.  The lossy overlay case puts its nested envelopes on the
    slow lane, in-process and forked alike."""
    stats = {}
    for workers in (0, 2):
        config = SHARDABLE_CASES["E@32-lossy-rel"]()
        protocol = config.pop("protocol")
        topology = config.pop("topology")
        net = ShardedNetwork(
            protocol, topology, shards=2, workers=workers, **config
        )
        net.run()
        stats[workers] = net.stats
    assert stats[2]["transport"] == "pipes"
    assert stats[0]["slow_lane_records"] == stats[2]["slow_lane_records"] == 326
    for run in stats.values():
        assert 0.0 < run["route_s"] < run["wall_seconds"]


# ---------------------------------------------------------------------------
# The global livelock budget (satellite: multi-scheduler accounting).
# ---------------------------------------------------------------------------


class TestGlobalBudget:
    def test_budget_is_global_across_shards_not_per_shard(self):
        """A budget the serial kernel exhausts must also trip sharded —
        k shards may not spend k× the serial allowance."""
        with pytest.raises(LivelockError):
            run_election(
                ProtocolC(), complete_with_sense_of_direction(64),
                max_events=100,
            )
        for shards in (2, 4):
            with pytest.raises(LivelockError):
                run_sharded_election(
                    ProtocolC(), complete_with_sense_of_direction(64),
                    shards=shards, workers=0, max_events=100,
                )

    def test_budget_sufficient_for_serial_is_sufficient_sharded(self):
        serial_net_events = 0
        from repro.sim.network import Network

        net = Network(ProtocolC(), complete_with_sense_of_direction(32))
        net.run()
        serial_net_events = net.scheduler.events_processed
        result = run_sharded_election(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=4, workers=0, max_events=serial_net_events,
        )
        assert result.leader_id is not None

    def test_scheduler_set_max_events_rejects_past_budgets(self):
        scheduler = Scheduler(max_events=10)
        scheduler.schedule_at(1.0, lambda event: None)
        scheduler.run()
        assert scheduler.events_processed == 1
        with pytest.raises(Exception, match="below the 1 events"):
            scheduler.set_max_events(0)
        scheduler.set_max_events(1)
        assert scheduler.max_events == 1

    def test_scheduler_consume_budget_raises_like_run(self):
        scheduler = Scheduler(max_events=3)
        scheduler.consume_budget(3)
        assert scheduler.events_processed == 3
        with pytest.raises(LivelockError, match="event budget of 3"):
            scheduler.consume_budget(1)

    def test_scheduler_advance_clock_is_monotone(self):
        from repro.core.errors import SimulationError

        scheduler = Scheduler()
        scheduler.advance_clock(5.0)
        assert scheduler.now == 5.0
        with pytest.raises(SimulationError, match="backwards"):
            scheduler.advance_clock(4.0)


# ---------------------------------------------------------------------------
# Configuration gating: what the sharded kernel refuses, loudly.
# ---------------------------------------------------------------------------


class TestGating:
    def test_uniform_delay_is_refused(self):
        with pytest.raises(ConfigurationError, match="run RNG"):
            ShardedNetwork(
                ProtocolE(), complete_without_sense(16, seed=0),
                shards=2, delays=UniformDelay(0.1, 1.0),
            )

    def test_undeclared_uniform_delay_refusal_message_is_exact(self):
        """The refusal must say *why* and name every way out; callers are
        pointed at the refusal text by docs/matrix.md, so it is pinned
        verbatim."""
        with pytest.raises(ConfigurationError) as exc:
            ShardedNetwork(
                ProtocolE(), complete_without_sense(16, seed=0),
                shards=2, delays=UniformDelay(0.1, 1.0),
            )
        assert str(exc.value) == (
            "UniformDelay consumes the shared run RNG; sharded execution "
            "cannot reproduce a global draw order (use ConstantDelay, a "
            "HookDelay with min_latency, or UniformDelay(min_latency=...) "
            "for per-link streams)"
        )

    def test_uniform_delay_with_declared_bound_is_accepted(self):
        result = run_sharded_election(
            ProtocolE(), complete_without_sense(16, seed=0),
            shards=2, workers=0,
            delays=UniformDelay(0.1, 1.0, min_latency=0.1),
        )
        assert result.leader_id is not None

    @pytest.mark.parametrize("shards", (2, 3))
    def test_uniform_delay_streams_match_serial_exactly(self, shards):
        """Per-link streams draw in per-link FIFO order, which the digest
        contract fixes — so serial and sharded runs agree on every delay."""
        def make():
            return (
                ProtocolE(),
                complete_without_sense(32, seed=5),
                UniformDelay(0.05, 1.0, min_latency=0.05, stream_seed=5),
            )

        protocol, topology, delays = make()
        serial = fingerprint(
            run_election(protocol, topology, delays=delays, seed=5)
        )
        protocol, topology, delays = make()
        sharded = fingerprint(
            run_sharded_election(
                protocol, topology, shards=shards, workers=0,
                delays=delays, seed=5,
            )
        )
        assert serial == sharded

    def test_uniform_delay_min_latency_must_not_exceed_low(self):
        with pytest.raises(ConfigurationError, match="min_latency"):
            UniformDelay(0.1, 1.0, min_latency=0.2)
        with pytest.raises(ConfigurationError, match="min_latency"):
            UniformDelay(0.1, 1.0, min_latency=0.0)

    def test_hook_delay_without_min_latency_is_refused(self):
        with pytest.raises(ConfigurationError, match="min_latency"):
            ShardedNetwork(
                ProtocolE(), complete_without_sense(16, seed=0),
                shards=2, delays=HookDelay(lambda *a: 0.5),
            )

    def test_hook_delay_with_declared_bound_is_accepted(self):
        result = run_sharded_election(
            ProtocolE(), complete_without_sense(16, seed=0),
            shards=2, workers=0,
            delays=HookDelay(lambda *a: 0.5, min_latency=0.5),
        )
        assert result.leader_id is not None

    def test_hook_delay_rejects_non_positive_bound_at_construction(self):
        with pytest.raises(ConfigurationError, match="positive"):
            HookDelay(lambda *a: 0.5, min_latency=0.0)

    def test_shard_count_must_be_in_range(self):
        topology = complete_without_sense(16, seed=0)
        for bad in (0, -1, 17):
            with pytest.raises(ConfigurationError, match="shards"):
                ShardedNetwork(ProtocolE(), topology, shards=bad)

    def test_lookahead_is_the_delay_models_min_latency(self):
        network = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=2, delays=ConstantDelay(0.25),
        )
        assert network.lookahead == 0.25

    def test_a_sharded_network_runs_once(self):
        from repro.core.errors import SimulationError

        network = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=2, workers=0,
        )
        network.run()
        with pytest.raises(SimulationError, match="once"):
            network.run()


# ---------------------------------------------------------------------------
# The packed-array codec.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Nudge(Message):
    """A field-less message: packs as an empty payload (tagword 0)."""


@dataclass(frozen=True, slots=True)
class _Census(Message):
    hops: int
    tally: int


@dataclass(frozen=True, slots=True)
class _Blob(Message):
    """A tuple field keeps the class registered but never packable."""

    hops: tuple


class _MixedLaneNode(Node):
    """Chains through port 0, alternating fast- and slow-lane messages.

    Every third hop the chained :class:`_Census` carries an over-limit
    tally (``2**62``), pushing a *registered, normally-fast* class onto
    the slow lane; every fourth hop adds an unpackable :class:`_Blob`;
    every remaining hop adds a field-less :class:`_Nudge`.  One window
    therefore mixes fast records, empty-payload records, and both kinds
    of slow records on the same links.
    """

    _BIG = 1 << 62

    def on_wake(self, spontaneous):
        if spontaneous:
            self.ctx.send(0, _Census(1, 0))

    def on_message(self, port, message):
        if not isinstance(message, _Census):
            return
        h = message.hops
        if h >= 2 * self.ctx.n:
            self.become_leader()
            return
        if h % 4 == 0:
            self.ctx.send(0, _Blob((h,)))
        elif h % 3 != 0:
            self.ctx.send(0, _Nudge())
        tally = self._BIG if h % 3 == 0 else h
        self.ctx.send(0, _Census(h + 1, tally))


class _MixedLaneProtocol(ElectionProtocol):
    name = "mixed-lane-test"

    def create_node(self, ctx):
        return _MixedLaneNode(ctx)


class TestMessageCodec:
    def test_flat_messages_round_trip(self):
        from repro.protocols.sense.protocol_c import LatticeCapture

        codec = MessageCodec()
        message = LatticeCapture(rank=41, cand=3)
        packed = codec.pack(message)
        assert packed is not None
        type_id, tags, ints = packed
        assert codec.unpack(type_id, tags, tuple(ints)) == message

    def test_bool_and_none_fields_ride_the_tagword(self):
        import dataclasses

        from repro.core.messages import Message

        codec = MessageCodec()
        flat = None
        for cls in codec._classes:
            values = []
            for f in dataclasses.fields(cls):
                values.append(True if f.type == "bool" else 7)
            try:
                candidate = cls(*values)
            except Exception:
                continue
            if codec.pack(candidate) is not None:
                flat = candidate
                break
        assert flat is not None, "no packable message type found"
        type_id, tags, ints = codec.pack(flat)
        assert codec.unpack(type_id, tags, tuple(ints)) == flat

    def test_nested_messages_take_the_slow_lane(self):
        from repro.core.reliable import Packet
        from repro.protocols.sense.protocol_c import LatticeCapture

        codec = MessageCodec()
        packet = Packet(seq=1, payload=LatticeCapture(rank=3, cand=1))
        assert codec.pack(packet) is None

    def test_registry_is_deterministic_across_instances(self):
        first = MessageCodec()
        second = MessageCodec()
        assert [c.__qualname__ for c in first._classes] == [
            c.__qualname__ for c in second._classes
        ]

    def test_unpack_memoises_identical_records(self):
        from repro.protocols.sense.protocol_c import LatticeCapture

        codec = MessageCodec()
        type_id, tags, ints = codec.pack(LatticeCapture(rank=5, cand=2))
        once = codec.unpack(type_id, tags, tuple(ints))
        again = codec.unpack(type_id, tags, tuple(ints))
        assert once is again

    def test_over_limit_ints_take_the_slow_lane(self):
        """The packed lane carries int64s with headroom: |v| >= 2**62
        falls back to object relay, one short of the limit still packs."""
        from repro.protocols.sense.protocol_c import LatticeCapture

        codec = MessageCodec()
        limit = 1 << 62
        assert codec.pack(LatticeCapture(rank=limit, cand=0)) is None
        assert codec.pack(LatticeCapture(rank=-limit, cand=0)) is None
        for edge in (limit - 1, 1 - limit):
            packed = codec.pack(LatticeCapture(rank=edge, cand=0))
            assert packed is not None
            type_id, tags, ints = packed
            rebuilt = codec.unpack(type_id, tags, tuple(ints))
            assert rebuilt == LatticeCapture(rank=edge, cand=0)

    def test_pack_and_unpack_compile_once_per_class_and_tagword(self):
        """``pack`` runs one compiled function per class and ``unpack``
        one compiled constructor per ``(type_id, tagword)``; both are
        built on first use and reused after."""
        from repro.protocols.sense.protocol_c import LatticeCapture

        codec = MessageCodec()
        assert codec.packer(_Blob) is not None  # registered; packs per value
        assert codec.pack(_Blob((1,))) is None
        packer = codec.packer(LatticeCapture)
        type_id, tags, ints = codec.pack(LatticeCapture(rank=9, cand=4))
        assert codec.packer(LatticeCapture) is packer
        build = codec.builder(type_id, tags)
        assert codec.builder(type_id, tags) is build
        assert build((9, 4)) == codec.unpack(type_id, tags, (9, 4))
        assert codec.pack(_Nudge()) == (codec._type_ids[_Nudge], 0, [])

    def test_empty_payload_messages_round_trip(self):
        codec = MessageCodec()
        packed = codec.pack(_Nudge())
        assert packed is not None
        type_id, tags, ints = packed
        assert tags == 0 and ints == []
        assert codec.unpack(type_id, tags, ()) == _Nudge()

    @pytest.mark.parametrize("shards", (2, 3))
    def test_mixed_fast_and_slow_windows_round_trip(self, shards):
        """End-to-end lane mixing: over-limit ints, unpackable classes and
        empty payloads interleave with fast records inside single windows,
        and the sharded digest still equals the serial one."""
        serial = fingerprint(
            run_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                wakeup={0: 0.0},
                seed=4,
                require_leader=False,
            )
        )
        sharded = fingerprint(
            run_sharded_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                shards=shards,
                workers=0,
                wakeup={0: 0.0},
                seed=4,
                require_leader=False,
            )
        )
        assert serial == sharded

    def test_mixed_lane_windows_round_trip_over_forked_pipe_workers(self):
        """Same mixing, but across the fork transport: fast and slow
        records of one window share each pair's pipe."""
        in_process = fingerprint(
            run_sharded_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                shards=2, workers=0, wakeup={0: 0.0}, seed=4,
                require_leader=False,
            )
        )
        forked = fingerprint(
            run_sharded_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                shards=2, workers=2, wakeup={0: 0.0}, seed=4,
                require_leader=False,
            )
        )
        assert in_process == forked


# ---------------------------------------------------------------------------
# Odd shard geometries and runtime stats.
# ---------------------------------------------------------------------------


class TestGeometryAndStats:
    def test_shards_equal_to_n_still_agree_with_serial(self):
        topology = complete_without_sense(8, seed=0)
        sharded = fingerprint(
            run_sharded_election(
                ProtocolE(), topology, shards=8, workers=0, seed=0
            )
        )
        serial = fingerprint(
            run_election(ProtocolE(), complete_without_sense(8, seed=0), seed=0)
        )
        assert sharded == serial

    def test_uneven_shard_sizes_agree_with_serial(self):
        """n=50 over 7 shards: ceil-boundary ranges, none empty."""
        topology = complete_without_sense(50, seed=2)
        sharded = fingerprint(
            run_sharded_election(
                ProtocolE(), topology, shards=7, workers=0, seed=2
            )
        )
        serial = fingerprint(
            run_election(
                ProtocolE(), complete_without_sense(50, seed=2), seed=2
            )
        )
        assert sharded == serial

    def test_run_stats_account_every_event(self):
        from repro.sim.network import Network

        net = Network(ProtocolC(), complete_with_sense_of_direction(64))
        net.run()
        sharded = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(64),
            shards=4, workers=0,
        )
        sharded.run()
        stats = sharded.stats
        assert stats["events_total"] == net.scheduler.events_processed
        assert sum(stats["events_per_shard"]) == stats["events_total"]
        assert stats["shards"] == 4
        assert stats["windows"] > 0
        assert sharded.aggregate_events_per_sec > 0

    def test_snapshots_can_be_skipped_for_scale_runs(self):
        result = run_sharded_election(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=2, workers=0, collect_snapshots=False,
        )
        assert result.leader_id is not None
        assert result.node_snapshots == ()


# ---------------------------------------------------------------------------
# The coordinator's merge-key ranking.
# ---------------------------------------------------------------------------

_ROUTE_SHARDS = 3
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.5])
#: Delivery keys, plus the negative wake and crash planes.
_KEYS = st.one_of(
    st.integers(0, 40),
    st.integers(shard_mod._WAKE_BASE, shard_mod._WAKE_BASE + 5),
    st.integers(shard_mod._CRASH_BASE, shard_mod._CRASH_BASE + 5),
)
_FLAT_RANKS = st.tuples(_TIMES, _KEYS)
_TIMER_RANKS = st.tuples(
    _TIMES,
    st.just(TIMER_MARK),
    st.one_of(
        _FLAT_RANKS,
        st.tuples(_TIMES, st.just(TIMER_MARK), _FLAT_RANKS, st.integers(0, 2)),
    ),
    st.integers(0, 2),
)
#: One window: events with distinct ranks, each run on one source shard
#: and sending to ``(dest, fast lane?)`` targets.  Only delivery-ranked
#: events can use the fast lane; timer-ranked sends are always slow.
_WINDOWS = st.lists(
    st.tuples(
        st.one_of(_FLAT_RANKS, _TIMER_RANKS),
        st.integers(0, _ROUTE_SHARDS - 1),
        st.lists(
            st.tuples(st.integers(0, _ROUTE_SHARDS - 1), st.booleans()),
            max_size=4,
        ),
    ),
    max_size=25,
    unique_by=lambda event: event[0],
)


@pytest.mark.parametrize(
    "numpy_module",
    [
        pytest.param(
            shard_mod._np,
            id="numpy",
            marks=pytest.mark.skipif(
                shard_mod._np is None, reason="numpy unavailable"
            ),
        ),
        pytest.param(None, id="no-numpy"),
    ],
)
@settings(max_examples=150, deadline=None)
@given(window=_WINDOWS, global_seq=st.integers(0, 10**6))
def test_route_assigns_keys_in_full_merge_key_order(
    numpy_module, window, global_seq
):
    """The columnar ranking equals a ``sorted()`` over the full tuple
    merge keys: fast and slow records, flat and timer-nested keys,
    negative wake/crash keys and equal source times all interleave."""
    outs: list[dict[int, tuple]] = [{} for _ in range(_ROUTE_SHARDS)]
    expected: list[tuple] = []
    for rank, src, sends in window:
        for j, (dest, fast) in enumerate(sends):
            batch = outs[src].setdefault(
                dest, (array("d"), array("q"), array("q"), [])
            )
            times, ints, offs, slow = batch
            merge_key = rank + (j,)
            arrival = rank[0] + 1.0 + dest
            if fast and len(rank) == 2:
                expected.append((merge_key, src, dest, 0, len(offs)))
                times.extend((rank[0], arrival))
                offs.append(len(ints))
                ints.extend((rank[1], j, dest, 0, 1, 0, 0, 0, 0))
            else:
                expected.append((merge_key, src, dest, 1, len(slow)))
                slow.append((merge_key, arrival, dest, 0, 1, 0, None))
    net = ShardedNetwork(
        ProtocolC(), complete_with_sense_of_direction(8),
        shards=_ROUTE_SHARDS, workers=0,
    )
    pending_in: list[list] = [[None] * _ROUTE_SHARDS for _ in outs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shard_mod, "_np", numpy_module)
        incoming_min, next_seq = net._route(outs, pending_in, global_seq)
    assert next_seq == global_seq + len(expected)
    expected.sort()
    for position, (_mk, src, dest, lane, r) in enumerate(expected):
        routed = pending_in[dest][src]
        assigned = routed[3][r] if lane == 0 else routed[5][r]
        assert assigned == global_seq + position
    arrivals = [mk[0] + 1.0 + dest for mk, _s, dest, _l, _r in expected]
    assert incoming_min == min(arrivals, default=float("inf"))
    assert net._slow_lane_records == sum(e[3] for e in expected)


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


@pytest.mark.shard_smoke
def test_cli_run_with_shards_matches_serial_summary(capsys):
    from repro.__main__ import main

    assert main(["run", "--protocol", "C", "--n", "64"]) == 0
    serial_out = capsys.readouterr().out
    assert (
        main(
            ["run", "--protocol", "C", "--n", "64", "--shards", "2",
             "--shard-workers", "0"]
        )
        == 0
    )
    sharded_out = capsys.readouterr().out
    assert sharded_out == serial_out
