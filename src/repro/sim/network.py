"""The network runtime: topology + protocol + scheduler + adversaries.

:class:`Network` wires a :class:`~repro.topology.complete.CompleteTopology`
to one :class:`~repro.core.protocol.ElectionProtocol`, drives the event loop
and produces an :class:`~repro.core.results.ElectionResult`.

Model guarantees enforced here (Section 2 of the paper):

* reliable FIFO links with per-message latency in ``(0, 1]`` chosen by the
  :class:`~repro.sim.delays.DelayModel` (the asynchronous adversary);
* passive nodes wake when their first message arrives, and such nodes are
  not base nodes;
* every message is audited against the O(log N)-bit budget;
* at most one leader may ever be declared — a second declaration raises
  :class:`~repro.core.errors.ProtocolViolation` at the exact instant of the
  violation, with both culprits named.

Failure injection (for the fault-tolerant protocol): positions listed in
``failed_positions`` model the paper's *initial site failures* — they never
wake, never send, and silently drop everything addressed to them.
``crash_schedule`` additionally kills nodes *mid-run* (``{position:
time}``): from that instant the node drops incoming messages and any send
it attempts raises.  The paper's protocols make no promises about mid-run
crashes (a purely asynchronous network cannot detect them — the FLP
boundary), so these runs are expected to hang candidates; the facility
exists to *demonstrate* that boundary and to fuzz the protocols' state
machines, not to model a tolerated fault.  A crash at t=0.0 is *not* the
same as an initial failure — the crashed node's links exist and its crash
is reported in ``crashed_positions``, so the two stay distinguishable (and
listing a position in both is rejected as a configuration error).

Link faults: passing a :class:`~repro.sim.faults.FaultPlan` as ``faults``
installs seeded per-link drop/duplication/jitter/partition injection (and
generalised crash-stop via ``FaultPlan.crashes``, which merges into the
crash schedule).  See :mod:`repro.sim.faults` and docs/faults.md; with no
plan installed the send path pays a single attribute test, the same
zero-cost-off discipline as tracing.

Hot-path design (see docs/performance.md): the send path performs no
per-message closure or :class:`Event` allocation — deliveries ride the heap
as plain tuples handled by one preallocated bound method; tracing is a
single attribute test when disabled; and message/bit/depth counters
accumulate in plain attributes that are folded into the
:class:`~repro.sim.metrics.MetricsCollector` at quiescence.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from typing import Any

from repro.core.errors import ProtocolViolation, SimulationError
from repro.core.messages import Message, message_bits
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol
from repro.core.results import ElectionResult
from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.events import Event
from repro.sim.faults import FaultPlan
from repro.sim.link import ChannelTable
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import node_stream
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer
from repro.topology.complete import CompleteTopology

#: A wake-up schedule maps base-node *positions* to spontaneous wake times.
WakeupSchedule = Mapping[int, float]
WakeupFactory = Callable[[CompleteTopology, random.Random], WakeupSchedule]


def resolve_wakeup(
    spec: WakeupSchedule | WakeupFactory | None,
    topology: CompleteTopology,
    failed_positions: frozenset[int],
    rng: random.Random,
) -> dict[int, float]:
    """Materialise a wake-up schedule (default: everyone at t=0).

    Shared by :class:`Network` and the sharded kernel so both resolve the
    same spec to the same schedule — factories draw from ``rng`` *before*
    any other consumer, which is what keeps factory-produced schedules
    identical between serial and sharded runs of the same seed.
    """
    if spec is None:
        schedule = {p: 0.0 for p in range(topology.n)}
    elif callable(spec):
        schedule = dict(spec(topology, rng))
    else:
        schedule = dict(spec)
    schedule = {p: t for p, t in schedule.items() if p not in failed_positions}
    if not schedule:
        raise SimulationError("wake-up schedule contains no live base node")
    for position, time in schedule.items():
        if not 0 <= position < topology.n:
            raise SimulationError(f"wake position {position} out of range")
        if time < 0:
            raise SimulationError(f"negative wake time {time}")
    return schedule


def merge_crash_schedule(
    crash_schedule: Mapping[int, float] | None, faults: FaultPlan | None
) -> dict[int, float]:
    """Fold a fault plan's crashes into an explicit crash schedule."""
    merged = dict(crash_schedule or {})
    if faults is not None:
        for position, time in faults.crashes.items():
            existing = merged.get(position)
            if existing is not None and existing != time:
                raise SimulationError(
                    f"position {position} has conflicting crash times: "
                    f"{existing} (crash_schedule) vs {time} (fault plan)"
                )
            merged[position] = time
    return merged


def validate_failure_config(
    n: int,
    failed_positions: frozenset[int],
    crash_schedule: Mapping[int, float],
) -> None:
    """Reject out-of-range/contradictory failure configurations.

    One validation path for every runtime (serial network, sharded
    kernel), so misconfiguration errors are identical wherever a run is
    executed.
    """
    bad = [p for p in failed_positions if not 0 <= p < n]
    if bad:
        raise SimulationError(f"failed positions out of range: {bad}")
    bad = [p for p in crash_schedule if not 0 <= p < n]
    if bad:
        raise SimulationError(f"crash positions out of range: {bad}")
    bad = [p for p, t in sorted(crash_schedule.items()) if t < 0]
    if bad:
        raise SimulationError(f"negative crash times for positions: {bad}")
    overlap = sorted(failed_positions & crash_schedule.keys())
    if overlap:
        raise SimulationError(
            f"positions {overlap} are both initially failed and scheduled "
            "to crash; an initially-failed node never existed at runtime, "
            "so crashing it is contradictory (a crash at t=0.0 is the "
            "distinguishable alternative)"
        )


class SendPath:
    """The send path shared by every runtime (serial network, shards).

    One implementation of the per-send pipeline — port validation, bit
    audit, per-type tally, FIFO arrival (with the const-latency fast
    path), and the zero-cost-off fault hook — ending in a single
    :meth:`_dispatch_send` call that each runtime binds to its own
    delivery machinery: the serial :class:`Network` schedules a heap
    entry, and the sharded kernel buffers a packed record (or a slow-lane
    tuple) at the window barrier.
    Deduplicating the pipeline here is what keeps the runtimes
    byte-identical: there is exactly one definition of what a send does.

    Host requirements (all plain attributes, so the hot path stays free
    of descriptor lookups): ``scheduler``, ``topology``, ``delays``,
    ``rng``, ``_faults``, ``_channel_of``, ``_const_latency``, ``_ids``,
    ``_num_ports``, ``_n``, and the accounting accumulators.  Hosts
    without tracing leave the class-level ``_tracing = False`` in place
    and never touch ``tracer``.
    """

    _tracing = False

    def _dispatch_send(
        self,
        arrival: float,
        far: int,
        far_port: int,
        message: Message,
        sender_id: int,
    ) -> None:
        raise NotImplementedError

    def _transmit(self, position: int, port: int, message: Message) -> None:
        """Node ``position`` sends ``message`` through ``port``."""
        if self._faults is not None:
            self._transmit_faulty(position, port, message)
            return
        if not 0 <= port < self._num_ports:
            raise SimulationError(
                f"node {self._ids[position]} used invalid port {port}"
            )
        bits = message_bits(message, self._n)
        self._messages_total += 1
        self._bits_total += bits
        type_name = message.type_name
        counts = self._type_counts
        counts[type_name] = counts.get(type_name, 0) + 1
        topology = self.topology
        far = topology.neighbor(position, port)
        far_port = topology.reverse_port(position, port)
        sender_id = self._ids[position]
        scheduler = self.scheduler
        if self._tracing:
            self.tracer.record(
                scheduler.now,
                "send",
                sender_id,
                to=self._ids[far],
                message=type_name,
            )
        # Channels are keyed (and delay models addressed) by identity, so
        # adversarial delay strategies can condition on the ids the paper's
        # constructions talk about.
        channel = self._channel_of(sender_id, self._ids[far])
        latency = self._const_latency
        if latency is not None:
            arrival = scheduler.now + latency
            if arrival < channel.last_arrival:
                arrival = channel.last_arrival
            channel.last_arrival = arrival
            channel.messages_sent += 1
        else:
            arrival = channel.arrival_time(
                message, scheduler.now, self.delays, self.rng
            )
        self._dispatch_send(arrival, far, far_port, message, sender_id)

    def _transmit_faulty(
        self, position: int, port: int, message: Message
    ) -> None:
        """The send path with a :class:`FaultPlan` installed.

        Mirrors :meth:`_transmit`'s accounting (a dropped message still
        *counts* as sent — loss is the gap between sent and delivered), then
        asks the plan's per-link verdict.  The FIFO arrival is computed
        first and jitter added on top without advancing the channel's FIFO
        clock, so reordering stays bounded by the plan's ``jitter``.
        """
        if not 0 <= port < self._num_ports:
            raise SimulationError(
                f"node {self._ids[position]} used invalid port {port}"
            )
        bits = message_bits(message, self._n)
        self._messages_total += 1
        self._bits_total += bits
        type_name = message.type_name
        counts = self._type_counts
        counts[type_name] = counts.get(type_name, 0) + 1
        topology = self.topology
        far = topology.neighbor(position, port)
        far_port = topology.reverse_port(position, port)
        sender_id = self._ids[position]
        receiver_id = self._ids[far]
        scheduler = self.scheduler
        if self._tracing:
            self.tracer.record(
                scheduler.now, "send", sender_id, to=receiver_id,
                message=type_name,
            )
        channel = self._channel_of(sender_id, receiver_id)
        # The generic arrival path computes the same times as the const
        # fast path for ConstantDelay (latency fixed, gap zero, no RNG
        # draw), so a plan with all rates zero is byte-identical to no plan.
        arrival = channel.arrival_time(
            message, scheduler.now, self.delays, self.rng
        )
        copies, jitter, dup_jitter, reason = self._faults.judge(
            sender_id, receiver_id, scheduler.now
        )
        if copies == 0:
            self._dropped += 1
            channel.messages_dropped += 1
            if self._tracing:
                self.tracer.record(
                    scheduler.now, "drop", sender_id, to=receiver_id,
                    message=type_name, reason=reason,
                )
            return
        if jitter > 0.0:
            self._jittered += 1
            if self._tracing:
                self.tracer.record(
                    scheduler.now, "jitter", sender_id, to=receiver_id,
                    message=type_name, delay=jitter,
                )
        self._dispatch_send(arrival + jitter, far, far_port, message, sender_id)
        if copies == 2:
            self._duplicated += 1
            channel.messages_duplicated += 1
            if self._tracing:
                self.tracer.record(
                    scheduler.now, "duplicate", sender_id, to=receiver_id,
                    message=type_name,
                )
            self._dispatch_send(
                arrival + dup_jitter, far, far_port, message, sender_id
            )


class _BoundContext(NodeContext):
    """The capability handle handed to one node."""

    def __init__(self, network: "Network", position: int) -> None:
        topology = network.topology
        self._network = network
        self._position = position
        self.node_id = topology.id_at(position)
        self.n = topology.n
        self.num_ports = topology.num_ports
        self.has_sense_of_direction = topology.sense_of_direction
        self._rng: random.Random | None = None

    def send(self, port: int, message: Message) -> None:  # noqa: D102
        self._network._transmit(self._position, port, message)

    def port_label(self, port: int) -> int | None:  # noqa: D102
        return self._network.topology.label(self._position, port)

    def port_with_label(self, distance: int) -> int:  # noqa: D102
        return self._network.topology.port_with_label(self._position, distance)

    def now(self) -> float:  # noqa: D102
        return self._network.scheduler.now

    def declare_leader(self) -> None:  # noqa: D102
        self._network._on_leader_declared(self._position)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Arm a one-shot timer; see :meth:`NodeContext.set_timer`."""
        self._network._schedule_timer(self._position, delay, callback)

    def count(self, metric: str, delta: int = 1) -> None:  # noqa: D102
        self._network.metrics.bump(metric, delta)

    def rng(self) -> random.Random:
        """This node's ``(run_seed, node_id)``-derived stream (lazy)."""
        stream = self._rng
        if stream is None:
            stream = self._rng = node_stream(self._network.seed, self.node_id)
        return stream

    def trace(self, kind: str, **detail: Any) -> None:  # noqa: D102
        network = self._network
        if network._tracing:
            network.tracer.record(
                network.scheduler.now, kind, self.node_id, **detail
            )


class Network(SendPath):
    """One runnable election instance."""

    def __init__(
        self,
        protocol: ElectionProtocol,
        topology: CompleteTopology,
        *,
        delays: DelayModel | None = None,
        wakeup: WakeupSchedule | WakeupFactory | None = None,
        failed_positions: frozenset[int] | set[int] = frozenset(),
        crash_schedule: Mapping[int, float] | None = None,
        faults: FaultPlan | None = None,
        seed: int = 0,
        trace: bool = False,
        max_events: int = 5_000_000,
    ) -> None:
        protocol.validate(topology)
        self.protocol = protocol
        self.topology = topology
        self.delays = delays if delays is not None else ConstantDelay(1.0)
        self.seed = seed
        self.rng = random.Random(seed)
        self.scheduler = Scheduler(max_events=max_events)
        self.tracer = Tracer(enabled=trace)
        self.metrics = MetricsCollector()
        self.channels = ChannelTable()
        self.failed_positions = frozenset(failed_positions)
        self.crash_schedule = merge_crash_schedule(crash_schedule, faults)
        validate_failure_config(
            topology.n, self.failed_positions, self.crash_schedule
        )
        self._crashed: set[int] = set()
        #: Per-run fault state; ``None`` keeps the send path on the fast
        #: branch (one attribute test, zero overhead).
        self._faults = faults.bind() if faults is not None else None
        self.fault_plan = faults

        self._wakeup_spec = wakeup
        self._leader_position: int | None = None
        self._current_depth = 0
        self._ran = False

        # Hot-path state: ids/num_ports as plain attributes, counters as
        # local accumulators (flushed into ``self.metrics`` at quiescence),
        # and the tracing flag tested once per send/delivery.
        self._tracing = trace
        self._ids = topology.ids
        self._num_ports = topology.num_ports
        self._n = topology.n
        self._messages_total = 0
        self._bits_total = 0
        self._type_counts: dict[str, int] = {}
        self._max_depth = 0
        self._dropped = 0
        self._duplicated = 0
        self._jittered = 0
        self._has_failures = bool(self.failed_positions) or bool(
            self.crash_schedule
        )
        self._channel_of = self.channels.channel
        self._schedule_payload = self.scheduler.schedule_payload
        # Constant latency with the default zero gap needs no per-message
        # delay-model dispatch (and consumes no randomness): the arrival is
        # just the FIFO clamp of ``now + delay``.
        self._const_latency = (
            self.delays.delay
            if type(self.delays) is ConstantDelay
            and type(self.delays).gap is DelayModel.gap
            else None
        )

        self.nodes: list[Node] = [
            protocol.create_node(_BoundContext(self, position))
            for position in range(topology.n)
        ]

    # -- wiring ---------------------------------------------------------------

    def _resolve_wakeup(self) -> dict[int, float]:
        """Materialise the wake-up schedule (default: everyone at t=0)."""
        return resolve_wakeup(
            self._wakeup_spec, self.topology, self.failed_positions, self.rng
        )

    def _dispatch_send(
        self,
        arrival: float,
        far: int,
        far_port: int,
        message: Message,
        sender_id: int,
    ) -> None:
        """Serial delivery: one payload-carrying heap entry per message."""
        self._schedule_payload(
            arrival,
            self._deliver_entry,
            self._current_depth + 1,
            (far, far_port, message, sender_id),
        )

    def _schedule_timer(
        self, position: int, delay: float, callback: Callable[[], None]
    ) -> None:
        """Arm a one-shot timer for ``position`` (``NodeContext.set_timer``).

        Timers ride the same payload fast path as deliveries but with
        tiebreak 1, so a delivery (or ack) landing at the exact timeout
        instant is processed first and a retransmission overlay never
        retransmits something already acknowledged "now".
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        self._schedule_payload(
            self.scheduler.now + delay,
            self._timer_entry,
            self._current_depth,
            (position, callback),
            1,
        )

    def _timer_entry(self, entry: tuple) -> None:
        """Fire a timer callback unless its owner has failed or crashed."""
        position = entry[4]
        if self._has_failures and (
            position in self.failed_positions or position in self._crashed
        ):
            return
        previous_depth = self._current_depth
        self._current_depth = entry[3]
        try:
            entry[5]()
        finally:
            self._current_depth = previous_depth

    def _deliver_entry(self, entry: tuple) -> None:
        """Hand a message to its destination node (or drop it if failed).

        ``entry`` is the raw heap tuple; the payload packed by
        :meth:`_transmit` sits at slots 4+ (see :mod:`repro.sim.events`).
        """
        depth = entry[3]
        position = entry[4]
        if depth > self._max_depth:
            self._max_depth = depth
        if self._has_failures and (
            position in self.failed_positions or position in self._crashed
        ):
            return
        node = self.nodes[position]
        message = entry[6]
        was_asleep = not node.awake
        previous_depth = self._current_depth
        self._current_depth = depth
        try:
            if was_asleep:
                self.metrics.on_wake(self.scheduler.now)
            if self._tracing:
                self.tracer.record(
                    self.scheduler.now,
                    "deliver",
                    self._ids[position],
                    message=message.type_name,
                    sender=entry[7],
                )
            node.receive(entry[5], message)
        finally:
            self._current_depth = previous_depth

    def _on_leader_declared(self, position: int) -> None:
        if self._leader_position is not None and self._leader_position != position:
            first = self.topology.id_at(self._leader_position)
            second = self.topology.id_at(position)
            raise ProtocolViolation(
                f"{self.protocol.name}: node {second} declared leader at "
                f"t={self.scheduler.now} but node {first} already had"
            )
        if self._leader_position is None:
            self._leader_position = position
            self.metrics.on_leader(self.scheduler.now, self._current_depth)

    def _flush_metrics(self) -> None:
        """Fold the hot-path accumulators into the metrics collector."""
        metrics = self.metrics
        metrics.messages_total = self._messages_total
        metrics.bits_total = self._bits_total
        metrics.messages_by_type.clear()
        metrics.messages_by_type.update(self._type_counts)
        if self._max_depth > metrics.max_depth:
            metrics.max_depth = self._max_depth
        metrics.messages_dropped = self._dropped
        metrics.messages_duplicated = self._duplicated
        metrics.messages_jittered = self._jittered

    # -- running ---------------------------------------------------------------

    def run(
        self, *, until: float | None = None, require_leader: bool = True
    ) -> ElectionResult:
        """Execute to quiescence (or ``until``) and return the result.

        With ``require_leader=True`` (default) the result is also verified:
        liveness, safety and validity per :meth:`ElectionResult.verify`.
        """
        if self._ran:
            raise SimulationError("a Network instance can only run once")
        self._ran = True

        schedule = self._resolve_wakeup()
        for position, time in schedule.items():

            def wake(event: Event, position=position):
                node = self.nodes[position]
                if position not in self._crashed and not node.awake:
                    self.metrics.on_wake(self.scheduler.now)
                    node.wake(spontaneous=True)

            self.scheduler.schedule_at(time, wake, tiebreak=-1)

        for position, time in self.crash_schedule.items():

            def crash(event: Event, position=position):
                self._crashed.add(position)
                self.tracer.record(
                    self.scheduler.now, "crash", self.topology.id_at(position)
                )

            # Crashes win ties against deliveries at the same instant: the
            # adversary kills the node before it can act.
            self.scheduler.schedule_at(time, crash, tiebreak=-2)

        try:
            self.scheduler.run(until=until)
        finally:
            self._flush_metrics()
        self.metrics.quiescent_at = self.scheduler.now

        # A node scheduled to wake spontaneously may have been woken earlier
        # by a message, in which case it is *not* a base node; report the
        # nodes that actually started the protocol on their own.
        base_positions = tuple(
            position
            for position in range(self.topology.n)
            if self.nodes[position].is_base
        )
        result = self._build_result(base_positions)
        if require_leader:
            result.verify()
        return result

    def _build_result(self, base_positions: tuple[int, ...]) -> ElectionResult:
        leader_position = self._leader_position
        leader_id = (
            self.topology.id_at(leader_position)
            if leader_position is not None
            else None
        )
        metrics = self.metrics
        return ElectionResult(
            n=self.topology.n,
            protocol=self.protocol.describe(),
            leader_id=leader_id,
            leader_position=leader_position,
            elected_at=metrics.leader_declared_at,
            election_time=metrics.election_time,
            election_depth=metrics.leader_declared_depth,
            messages_total=metrics.messages_total,
            bits_total=metrics.bits_total,
            messages_by_type=dict(metrics.messages_by_type),
            max_depth=metrics.max_depth,
            quiescent_at=metrics.quiescent_at,
            first_wake_time=metrics.first_wake_time,
            last_wake_time=metrics.last_wake_time,
            base_positions=base_positions,
            failed_positions=tuple(sorted(self.failed_positions)),
            node_snapshots=tuple(node.snapshot() for node in self.nodes),
            trace=self.tracer,
            crashed_positions=tuple(sorted(self._crashed)),
            max_channel_load=self.channels.max_load,
            messages_dropped=metrics.messages_dropped,
            messages_duplicated=metrics.messages_duplicated,
            messages_jittered=metrics.messages_jittered,
            retransmissions=metrics.retransmissions,
            duplicates_suppressed=metrics.duplicates_suppressed,
            packets_abandoned=metrics.packets_abandoned,
        )


def run_election(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    *,
    delays: DelayModel | None = None,
    wakeup: WakeupSchedule | WakeupFactory | None = None,
    failed_positions: frozenset[int] | set[int] = frozenset(),
    crash_schedule: Mapping[int, float] | None = None,
    faults: FaultPlan | None = None,
    seed: int = 0,
    trace: bool = False,
    max_events: int = 5_000_000,
    until: float | None = None,
    require_leader: bool = True,
) -> ElectionResult:
    """One-shot convenience wrapper: build a :class:`Network` and run it.

    The keyword signature mirrors :class:`Network` exactly (plus ``until``
    and ``require_leader`` from :meth:`Network.run`), so a mistyped keyword
    raises ``TypeError`` here instead of being silently forwarded.
    """
    network = Network(
        protocol,
        topology,
        delays=delays,
        wakeup=wakeup,
        failed_positions=failed_positions,
        crash_schedule=crash_schedule,
        faults=faults,
        seed=seed,
        trace=trace,
        max_events=max_events,
    )
    return network.run(until=until, require_leader=require_leader)
