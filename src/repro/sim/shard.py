"""Sharded simulation kernel: conservative time-window synchronization.

The serial kernel (:mod:`repro.sim.network`) interprets one global event
heap; beyond ~10⁵ nodes that single loop is the bottleneck.  This module
partitions the node set across *shards* — each with its own
:class:`~repro.sim.scheduler.Scheduler`, channel table and metrics — and
runs them under **conservative time-window synchronization**:

* The *lookahead* ``L`` is the delay model's declared ``min_latency``.
  Every message sent at time ``t`` arrives no earlier than ``t + L``
  (the FIFO clamp and fault jitter only push arrivals later), so events
  inside a window ``[T, T + L)`` can never affect that same window.
* Each shard therefore executes its window events independently, buffering
  every send — intra- and inter-shard alike — instead of scheduling it.
* At the window barrier the coordinator globally orders the buffered
  sends, assigns each a global sequence key, and routes the batches to the
  destination shards as **packed integer/float arrays** (the fast lane;
  nested or tuple-carrying messages ride a pickled slow lane).  Shards
  run in-process or in forked workers; forked workers exchange every
  batch over their pipes.

**Digest contract.**  A sharded run must be indistinguishable from the
serial run in every deterministic result field
(``tests/sim/determinism_cases.fingerprint``).  The serial kernel's total
event order is ``(time, tiebreak, seq)`` where ``seq`` is the global
scheduling order; the coordinator reconstructs exactly that order from
per-send *merge keys*:

* an event dispatched from a globally-keyed entry has rank
  ``(time, key)``;
* a timer fired at ``t`` set by an event of rank ``R`` as its ``i``-th
  timer has rank ``(t, TIMER_MARK, R, i)`` — ``TIMER_MARK`` exceeds every
  delivery key and is negative for none, so ranks of any two *distinct*
  events always compare without reaching ragged positions;
* the ``j``-th send of an event of rank ``R`` carries merge key
  ``R + (j,)``.

Sorting one window's sends by merge key reproduces the serial scheduling
order of those sends; assigning consecutive global keys in that order (the
counter persists across windows) reproduces the serial delivery order at
every destination.  Wake nudges and crashes get their global keys up
front, in the same plane order as the serial kernel (crashes < wakes <
deliveries < timers at equal times).

What is *not* supported sharded: delay models that consume the shared run
RNG (``UniformDelay`` — a global draw order cannot be reproduced
per-shard), models with no declared positive ``min_latency``, tracing, and
``until`` horizons.  Fault plans work unchanged: their per-directed-link
RNG streams are keyed by ``(seed, src, dst)`` and every link is owned by
exactly one (sender-side) shard, so draws are independent of execution
order by construction.

The livelock budget is **global**: before each window every shard is
granted only what remains of the whole run's ``max_events``, and the
coordinator re-checks the aggregate at each barrier — k shards can never
overrun the serial budget k×.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
from array import array
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields as _dataclass_fields
from itertools import repeat
from time import perf_counter
from typing import Any

from repro.core import errors as _errors
from repro.core.errors import (
    ConfigurationError,
    LivelockError,
    ProtocolViolation,
    SimulationError,
)
from repro.core.messages import (
    MAX_INT_FIELDS,
    TYPE_TAG_BITS,
    Message,
    _word_bits,
)
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol
from repro.core.results import ElectionResult
from repro.harness.parallel import configured_processes, fork_context
from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.events import TIEBREAK_SHIFT
from repro.sim.faults import FaultPlan
from repro.sim.link import Channel, ChannelTable
from repro.sim.metrics import MetricsCollector
from repro.sim.network import (
    SendPath,
    WakeupFactory,
    WakeupSchedule,
    merge_crash_schedule,
    resolve_wakeup,
    validate_failure_config,
)
from repro.sim.rng import node_stream
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer
from repro.topology.complete import CompleteTopology

#: Rank marker for timer-sourced events; above every delivery key (< 2**48).
TIMER_MARK = 1 << TIEBREAK_SHIFT
#: Global key planes for the setup entries, mirroring the serial kernel's
#: tiebreaks (wake -1, crash -2).
_WAKE_BASE = -(1 << TIEBREAK_SHIFT)
_CRASH_BASE = -(2 << TIEBREAK_SHIFT)

#: 2-bit field tags in the packed fast lane.
_TAG_INT, _TAG_TRUE, _TAG_FALSE, _TAG_NONE = 0, 1, 2, 3
#: Fast-lane integer-array slots per record before the message fields.
_REC_HEAD = 9
#: Largest magnitude packed verbatim; wider ints take the slow lane.
_INT_LIMIT = 1 << 62

#: Slot-2 marker of a delivery entry: the window loop dispatches
#: deliveries inline and calls every other entry's handler.
_DELIVER = object()

# numpy is an optional accelerator for the columnar window decode and the
# coordinator's merge-key ranking; the pure-Python loops beside them are
# byte-identical and are what runs without numpy.  ``REPRO_NO_NUMPY`` (any
# non-empty value) forces them — the CI no-numpy leg and the
# fallback-equality tests use it; tests may also monkeypatch ``_np``.
try:
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None


# ---------------------------------------------------------------------------
# The packed-array message codec (the inter-shard fast lane).
# ---------------------------------------------------------------------------


class MessageCodec:
    """Packs flat protocol messages into integer lanes.

    A message is *flat* when every dataclass field is an ``int`` (not
    ``bool``), ``True``, ``False`` or ``None`` — which covers every hot
    protocol message in the library.  Flat messages cross shard boundaries
    as ``(type_id, tagword, int fields...)`` inside one ``array('q')``;
    everything else (overlay envelopes with nested messages, tuple fields)
    is relayed object-wise on the slow lane with identical semantics.

    Both directions are exec-compiled on first use: one packer per class
    (straight-line attribute reads with literal tag shifts) and one
    builder per ``(type_id, tagword)`` (a constructor call with the
    tag-constant fields baked in as literals).  SNIPPETS.md Snippet 3
    (migen) is the grounding: compile the hot interpretation away.

    The registry is built once in the coordinator **before** forking, so
    every worker inherits the same ``type_id`` assignment; ids are an
    encoding detail and never influence results.
    """

    def __init__(self) -> None:
        classes: list[type] = []
        seen: set[type] = set()
        stack: list[type] = [Message]
        while stack:
            for sub in stack.pop().__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    classes.append(sub)
                    stack.append(sub)
        classes.sort(key=lambda cls: (cls.__module__, cls.__qualname__))
        self._classes = classes
        self._type_ids = {cls: i for i, cls in enumerate(classes)}
        self._field_names = [
            tuple(f.name for f in _dataclass_fields(cls)) for cls in classes
        ]
        self._packers: dict[type, Any] = {}
        self._builders: dict[tuple[int, int], Any] = {}
        self._cache: dict[tuple, Message] = {}

    def packer(self, cls: type):
        """The compiled pack function for ``cls`` (None: always slow lane)."""
        try:
            return self._packers[cls]
        except KeyError:
            type_id = self._type_ids.get(cls)
            fn = self._packers[cls] = (
                None
                if type_id is None
                else _compile_packer(type_id, self._field_names[type_id])
            )
            return fn

    def pack(self, message: Message) -> tuple[int, int, list[int]] | None:
        """``(type_id, tagword, int fields)``, or None for the slow lane."""
        fn = self.packer(type(message))
        return None if fn is None else fn(message)

    def builder(self, type_id: int, tags: int):
        """The compiled ``int fields -> message`` constructor for a tagword."""
        key = (type_id, tags)
        fn = self._builders.get(key)
        if fn is None:
            values = []
            next_int = 0
            for i in range(len(self._field_names[type_id])):
                tag = (tags >> (2 * i)) & 3
                if tag == _TAG_INT:
                    values.append(f"f[{next_int}]")
                    next_int += 1
                elif tag == _TAG_TRUE:
                    values.append("True")
                elif tag == _TAG_FALSE:
                    values.append("False")
                else:
                    values.append("None")
            source = f"def _build(f, _cls=_cls):\n    return _cls({', '.join(values)})"
            namespace: dict[str, Any] = {"_cls": self._classes[type_id]}
            exec(source, namespace)  # noqa: S102 - trusted codegen
            fn = self._builders[key] = namespace["_build"]
        return fn

    def unpack(self, type_id: int, tags: int, ints: tuple[int, ...]) -> Message:
        """Rebuild (and memoise) the message for a packed record.

        Messages are immutable values, so destinations may share one
        instance across deliveries — the serial kernel already delivers
        the sender's single object to every recipient of a broadcast.
        """
        key = (type_id, tags, ints)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        message = self.builder(type_id, tags)(ints)
        if len(self._cache) < 4096:
            self._cache[key] = message
        return message


def _compile_packer(type_id: int, names: tuple[str, ...]):
    """Exec-compile one class's pack function (None: always slow lane).

    The generated function returns ``(type_id, tagword, int fields)``, or
    None when a field value is neither a narrow ``int`` nor
    ``True``/``False``/``None``.
    """
    if len(names) > 30:  # tagword is 2 bits per field in one int
        return None
    lines = [
        "def _pack(m, _LIM=_LIM):",
        "    tags = 0",
        "    ints = []",
        "    ap = ints.append",
    ]
    for i, name in enumerate(names):
        shift = 2 * i
        lines += [
            f"    v = m.{name}",
            "    if type(v) is int:",
            "        if -_LIM < v < _LIM:",
            "            ap(v)",
            "        else:",
            "            return None",
            "    elif v is None:",
            f"        tags |= {_TAG_NONE << shift}",
            "    elif v is True:",
            f"        tags |= {_TAG_TRUE << shift}",
            "    elif v is False:",
            f"        tags |= {_TAG_FALSE << shift}",
            "    else:",
            "        return None",
        ]
    lines.append(f"    return {type_id}, tags, ints")
    namespace: dict[str, Any] = {"_LIM": _INT_LIMIT}
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
    return namespace["_pack"]


def _compile_send(shard: "_Shard", cls: type):
    """Compile the fully-fused fast-path send for one message class.

    For an all-int flat message the *entire* send pipeline — port check,
    O(log N) bit audit, per-type tally, wiring lookup, FIFO clamp and
    record packing — reduces to straight-line code whose per-run
    constants (``n``, shard count, port count, constant latency, the
    audited bit size, the packed record head) are baked in as literals.
    One compiled frame per send replaces five interpreted ones.

    Field values that fall outside the fast envelope (wide ints, bools,
    ``None``), timer-sourced ranks, fault plans and invalid ports all fall
    through to the shared :meth:`SendPath._transmit`, the one definition
    of what a send does.
    """
    codec = shard.codec
    type_id = codec._type_ids.get(cls)
    if (
        codec.packer(cls) is None
        or len(codec._field_names[type_id]) > MAX_INT_FIELDS
    ):
        # Unpackable or audit-ineligible classes stay on the general path.
        return _Shard._transmit
    names = codec._field_names[type_id]
    # The per-class tally lives in a one-slot list baked into the compiled
    # function (folded into ``_type_counts`` by ``finish``), replacing a
    # dict get+set per send with one indexed increment.
    cell = shard._class_cells.setdefault(cls, [0])
    cfg = shard.cfg
    n = cfg.topology.n
    bits = TYPE_TAG_BITS + _word_bits(n) * len(names)
    reads = [f"    v{i} = m.{name}" for i, name in enumerate(names)]
    guards = [
        f"type(v{i}) is int and -_LIM < v{i} < _LIM"
        for i in range(len(names))
    ]
    cond = "\n            and ".join(
        [
            "self._faults is None",
            "ce is not None",
            f"0 <= port < {cfg.topology.num_ports}",
        ]
        + guards
    )
    if getattr(cfg.topology, "_cyclic", False):
        wiring = [
            f"        far = position + port + 1",
            f"        if far >= {n}:",
            f"            far -= {n}",
            f"        far_port = {n - 2} - port",
        ]
    else:
        wiring = [
            "        topology = self.topology",
            "        far = topology.neighbor(position, port)",
            "        far_port = topology.reverse_port(position, port)",
        ]
    const_latency = (
        cfg.delays.delay
        if type(cfg.delays) is ConstantDelay
        and type(cfg.delays).gap is DelayModel.gap
        else None
    )
    if const_latency is not None:
        arrival = [
            f"        arrival = self.scheduler._now + {const_latency!r}",
            "        last = channel.last_arrival",
            "        if arrival < last:",
            "            arrival = last",
            "        channel.last_arrival = arrival",
            "        channel.messages_sent += 1",
        ]
    else:
        arrival = [
            "        arrival = channel.arrival_time(",
            "            m, self.scheduler._now, self.delays, self.rng",
            "        )",
        ]
    record = ", ".join(
        ["ce[1]", "idx", "far", "far_port", "self._current_depth + 1",
         "sender_id", str(type_id), "0", str(len(names))]
        + [f"v{i}" for i in range(len(names))]
    )
    lines = [
        "def _send(self, position, port, m, _LIM=_LIM, _cnt=_cnt):",
        "    ce = self._current_entry",
        *reads,
        f"    if ({cond}):",
        *wiring,
        f"        self._messages_total += 1",
        f"        self._bits_total += {bits}",
        "        _cnt[0] += 1",
        "        ids = self._ids",
        "        sender_id = ids[position]",
        "        far_id = ids[far]",
        "        link = (sender_id, far_id)",
        "        channel = self._chan_map.get(link)",
        "        if channel is None:",
        "            # Inline the lazy table's creating lookup (complete",
        "            # graphs touch most channels exactly once).",
        "            channel = self._chan_map[link] = _Channel(",
        "                sender_id, far_id",
        "            )",
        *arrival,
        "        idx = self._send_seq",
        "        self._send_seq = idx + 1",
        f"        dest = far * {cfg.shards} // {n}",
        "        out = self._out",
        "        buf = out[dest]",
        "        if buf is None:",
        "            buf = out[dest] = _OutBuffer()",
        "        buf.tap(ce[0])",
        "        buf.tap(arrival)",
        "        buf.oap(len(buf.ints))",
        f"        buf.iex(({record}))",
        "        return",
        "    self._transmit(position, port, m)",
    ]
    namespace: dict[str, Any] = {
        "_LIM": _INT_LIMIT,
        "_cnt": cell,
        "_Channel": Channel,
        "_OutBuffer": _OutBuffer,
    }
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
    return namespace["_send"]


def _merge_ranks(
    time_cols: list[Any], key_cols: list[Any], idx_cols: list[Any]
) -> Any:
    """Each record's position in ``(time, key, idx)`` order.

    The three columns arrive in pieces (one per routed batch, then one
    for the slow lane) and are ranked as if concatenated: ``rank[p]`` is
    record ``p``'s place in the order.  Merge keys are unique, so the
    order is total.  numpy ranks with one ``lexsort``; without it, a
    ``sorted`` over the triples, which Timsort finishes quickly because
    every batch is already a sorted run.
    """
    if _np is not None:
        np = _np
        order = np.lexsort(
            (
                np.concatenate(idx_cols),
                np.concatenate(key_cols),
                np.concatenate(time_cols),
            )
        )
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(len(order), dtype=np.int64)
        return ranks
    triples = list(
        zip(
            [t for col in time_cols for t in col],
            [k for col in key_cols for k in col],
            [i for col in idx_cols for i in col],
        )
    )
    order = sorted(range(len(triples)), key=triples.__getitem__)
    ranks = [0] * len(triples)
    for rank, p in enumerate(order):
        ranks[p] = rank
    return ranks


class _OutBuffer:
    """One window's buffered sends from one shard to one destination shard."""

    __slots__ = ("times", "ints", "offs", "slow", "tap", "iex", "oap")

    def __init__(self) -> None:
        #: Fast lane, two doubles per record: (source time, arrival time).
        self.times = array("d")
        #: Fast lane, variable stride: ``src_key, send_idx, dest_pos,
        #: far_port, depth, sender_id, type_id, tagword, nfields, fields...``
        self.ints = array("q")
        #: Record start offsets into ``ints`` — the side array that lets
        #: the router and the window decode address the variable-stride
        #: records columnarly instead of walking them one by one.
        self.offs = array("q")
        #: Slow lane: ``(merge_key, arrival, dest_pos, far_port, depth,
        #: sender_id, message)`` tuples.
        self.slow: list[tuple] = []
        # Pre-bound mutators for the compiled send: appending through
        # these skips two attribute walks per lane per send.
        self.tap = self.times.append
        self.iex = self.ints.extend
        self.oap = self.offs.append


# ---------------------------------------------------------------------------
# The run configuration (inherited by forked workers, never pickled).
# ---------------------------------------------------------------------------


@dataclass
class _RunConfig:
    protocol: ElectionProtocol
    topology: CompleteTopology
    delays: DelayModel
    failed_positions: frozenset[int]
    crash_schedule: dict[int, float]
    faults: FaultPlan | None
    seed: int
    max_events: int
    shards: int
    collect_snapshots: bool
    codec: MessageCodec
    #: Per-shard initial entries: ``(time, global_key, position)``.
    wakes: list[list[tuple[float, int, int]]]
    crashes: list[list[tuple[float, int, int]]]


def _shard_bounds(n: int, shards: int, index: int) -> tuple[int, int]:
    """Positions owned by shard ``index``: ``shard_of(p) = p * shards // n``."""
    lo = (index * n + shards - 1) // shards
    hi = ((index + 1) * n + shards - 1) // shards
    return lo, hi


class _ShardContext(NodeContext):
    """The capability handle handed to one node of one shard.

    Mirrors the serial ``_BoundContext`` exactly, except that sends are
    buffered at the window barrier instead of scheduled, and tracing is a
    no-op (sharded runs refuse ``trace=True`` up front).
    """

    def __init__(self, shard: "_Shard", position: int) -> None:
        topology = shard.topology
        self._shard = shard
        self._position = position
        self.node_id = topology.id_at(position)
        self.n = topology.n
        self.num_ports = topology.num_ports
        self.has_sense_of_direction = topology.sense_of_direction
        self._rng: random.Random | None = None

    def send(self, port: int, message: Message) -> None:
        """Dispatch straight to the message class's compiled send.

        (A monomorphic inline cache — binding the first class's compiled
        function over this method per instance — was tried and reverted:
        election nodes are heavily polymorphic senders, so the class guard
        failed on ~3/4 of sends and the re-dispatch cost more than the
        saved frame.)
        """
        shard = self._shard
        cls = type(message)
        fn = shard._send_fns.get(cls)
        if fn is None:
            fn = shard._send_fns[cls] = _compile_send(shard, cls)
        fn(shard, self._position, port, message)

    def port_label(self, port: int) -> int | None:  # noqa: D102
        return self._shard.topology.label(self._position, port)

    def port_with_label(self, distance: int) -> int:  # noqa: D102
        return self._shard.topology.port_with_label(self._position, distance)

    def now(self) -> float:  # noqa: D102
        return self._shard.scheduler.now

    def declare_leader(self) -> None:  # noqa: D102
        self._shard._on_leader_declared(self._position)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Arm a one-shot timer; see :meth:`NodeContext.set_timer`."""
        self._shard._schedule_timer(self._position, delay, callback)

    def count(self, metric: str, delta: int = 1) -> None:  # noqa: D102
        self._shard.metrics.bump(metric, delta)

    def rng(self) -> random.Random:
        """This node's ``(run_seed, node_id)``-derived stream (lazy).

        Same derivation as the serial kernel's ``_BoundContext.rng`` —
        a node's draws depend only on the run seed, its id and its own
        draw count, so sharded runs of ctx-RNG protocols stay
        digest-identical to serial runs.
        """
        stream = self._rng
        if stream is None:
            seed = self._shard.cfg.seed
            stream = self._rng = node_stream(seed, self.node_id)
        return stream

    def trace(self, kind: str, **detail: Any) -> None:  # noqa: D102
        pass


class _Shard(SendPath):
    """One shard's runtime: nodes, scheduler (timers), channels, metrics.

    Sends take the per-class compiled path (:func:`_compile_send`) when
    they can; everything else — slow-lane messages, timer-sourced sends,
    fault plans — runs the :class:`SendPath` pipeline shared verbatim
    with the serial kernel, whose :meth:`_dispatch_send` hook this class
    binds to the window buffers.  Incoming batches are decoded
    columnarly (:meth:`_decode_incoming`) and dispatched strictly
    per-event in global merge order (:meth:`_dispatch`): the digest
    contract, and mid-window timer interleaving, forbid applying
    handlers out of order, so batching ends at the entry list.
    """

    def __init__(self, cfg: _RunConfig, index: int) -> None:
        self.cfg = cfg
        self.index = index
        self.topology = cfg.topology
        self.delays = cfg.delays
        self.scheduler = Scheduler(max_events=cfg.max_events)
        self.metrics = MetricsCollector()
        self.channels = ChannelTable()
        self.codec = cfg.codec
        self.failed_positions = cfg.failed_positions
        self._crashed: set[int] = set()
        self._has_failures = bool(cfg.failed_positions) or bool(
            cfg.crash_schedule
        )
        self._faults = cfg.faults.bind() if cfg.faults is not None else None
        # Shardable delay models draw from per-link streams (or none at
        # all), never from this run-RNG stand-in.
        self.rng = random.Random(0)
        self._ids = cfg.topology.ids
        self._num_ports = cfg.topology.num_ports
        self._n = cfg.topology.n
        self._shards = cfg.shards
        self._messages_total = 0
        self._bits_total = 0
        self._type_counts: dict[str, int] = {}
        self._max_depth = 0
        self._dropped = 0
        self._duplicated = 0
        self._jittered = 0
        self._channel_of = self.channels.channel
        # First-level access to the lazily-built channel dict for the
        # compiled sends (misses create the channel inline).
        self._chan_map = self.channels._channels
        self._const_latency = (
            cfg.delays.delay
            if type(cfg.delays) is ConstantDelay
            and type(cfg.delays).gap is DelayModel.gap
            else None
        )
        #: Per-class compiled send functions, built on first send of each
        #: class (a worker only pays compilation for the types its
        #: protocol actually uses).
        self._send_fns: dict[type, Any] = {}
        #: One-slot per-class tally cells baked into compiled send
        #: functions; folded into ``_type_counts`` by :meth:`finish`.
        self._class_cells: dict[type, list[int]] = {}
        #: The entry being dispatched, when (and only when) its ``[0:2]``
        #: is the send rank — i.e. any handler except a timer callback,
        #: which sends under its own ``_current_rank``.
        self._current_entry: tuple | None = None
        self._current_rank: tuple = (0.0, 0)
        self._current_depth = 0
        self._send_seq = 0
        self._timer_seq = 0
        self._leader: tuple[int, float, int] | None = None
        self._last_time = 0.0
        self._busy = 0.0
        #: The window's outgoing buffers, one slot per destination shard.
        self._out: list[_OutBuffer | None] = [None] * self._shards

        self.lo, self.hi = _shard_bounds(self._n, cfg.shards, index)
        protocol = cfg.protocol
        #: Owned nodes as a dense list, index ``position - lo``.
        self._node_list: list[Node] = [
            protocol.create_node(_ShardContext(self, position))
            for position in range(self.lo, self.hi)
        ]
        #: Globally-keyed entries waiting for their window, serial layout:
        #: ``(time, key, action, depth, *payload)``.
        self.future: list[tuple] = [
            (time, key, self._wake_entry, 0, position)
            for time, key, position in cfg.wakes[index]
        ] + [
            (time, key, self._crash_entry, 0, position)
            for time, key, position in cfg.crashes[index]
        ]

    # -- the send path (SendPath pipeline, buffered dispatch) --------------

    def _source_rank(self) -> tuple:
        """The dispatched event's rank (see the module docstring)."""
        ce = self._current_entry
        return (ce[0], ce[1]) if ce is not None else self._current_rank

    def _dispatch_send(
        self,
        arrival: float,
        far: int,
        far_port: int,
        message: Message,
        sender_id: int,
    ) -> None:
        """Buffer one send at the window barrier instead of scheduling it."""
        depth = self._current_depth + 1
        idx = self._send_seq
        self._send_seq = idx + 1
        dest = far * self._shards // self._n
        buf = self._out[dest]
        if buf is None:
            buf = self._out[dest] = _OutBuffer()
        ce = self._current_entry
        packed = self.codec.pack(message) if ce is not None else None
        if packed is not None:
            type_id, tags, field_ints = packed
            buf.tap(ce[0])
            buf.tap(arrival)
            buf.oap(len(buf.ints))
            buf.iex(
                (
                    ce[1],
                    idx,
                    far,
                    far_port,
                    depth,
                    sender_id,
                    type_id,
                    tags,
                    len(field_ints),
                )
            )
            if field_ints:
                buf.iex(field_ints)
        else:
            buf.slow.append(
                (
                    self._source_rank() + (idx,),
                    arrival,
                    far,
                    far_port,
                    depth,
                    sender_id,
                    message,
                )
            )

    def _schedule_timer(
        self, position: int, delay: float, callback: Callable[[], None]
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        fire = self.scheduler.now + delay
        rank = (fire, TIMER_MARK, self._source_rank(), self._timer_seq)
        self._timer_seq += 1
        self.scheduler.schedule_payload(
            fire,
            self._timer_entry,
            self._current_depth,
            (position, callback, rank),
            1,
        )

    # -- dispatch handlers (mirror the serial kernel's) --------------------

    def _wake_entry(self, entry: tuple) -> None:
        position = entry[4]
        node = self._node_list[position - self.lo]
        if position not in self._crashed and not node.awake:
            self.metrics.on_wake(self.scheduler.now)
            node.wake(spontaneous=True)

    def _crash_entry(self, entry: tuple) -> None:
        self._crashed.add(entry[4])

    def _timer_entry(self, entry: tuple) -> None:
        # Timer callbacks send under the timer's own 4-tuple rank; clearing
        # the entry routes their sends to the rank-aware general path.
        self._current_entry = None
        position = entry[4]
        if self._has_failures and (
            position in self.failed_positions or position in self._crashed
        ):
            return
        self._current_depth = entry[3]
        self._current_rank = entry[6]
        entry[5]()

    def _on_leader_declared(self, position: int) -> None:
        if self._leader is not None and self._leader[0] != position:
            first = self.topology.id_at(self._leader[0])
            second = self.topology.id_at(position)
            raise ProtocolViolation(
                f"{self.cfg.protocol.name}: node {second} declared leader at "
                f"t={self.scheduler.now} but node {first} already had"
            )
        if self._leader is None:
            self._leader = (
                position,
                self.scheduler.now,
                self._current_depth,
            )

    # -- the window loop ---------------------------------------------------

    def run_window(
        self,
        start: float,
        end: float,
        budget: int,
        incoming: list[tuple | None],
    ) -> tuple[dict[int, tuple], dict[str, Any]]:
        """Execute every owned event with time in ``[start, end)``.

        ``budget`` is the whole run's remaining event allowance — the
        global livelock budget, not a per-shard one.  Returns the buffered
        outgoing sends (keyed by destination shard) and window stats.
        """
        t0 = perf_counter()
        self._decode_incoming(incoming)
        scheduler = self.scheduler
        scheduler.set_max_events(scheduler.events_processed + budget)
        future = self.future
        if future:
            due = [e for e in future if e[0] < end]
            if len(due) == len(future):
                self.future = []
            elif due:
                self.future = [e for e in future if e[0] >= end]
        else:
            due = []
        # Already-armed timers join the window's sorted batch up front
        # (entry tuples carry the timer tiebreak in their key, so one sort
        # interleaves them exactly as the serial heap would); only timers
        # armed *during* this window still arrive through the heap check
        # inside the loop.
        timers = scheduler.pop_due(end)
        if timers:
            due.extend(timers)
        due.sort()
        processed = self._dispatch(due, end, budget)
        heap = scheduler._queue.heap  # timers only; deliveries stay in lists
        if processed:
            self._last_time = scheduler.now
            scheduler.consume_budget(processed)
        self._busy += perf_counter() - t0
        next_time = None
        if self.future:
            next_time = min(e[0] for e in self.future)
        if heap and (next_time is None or heap[0][0] < next_time):
            next_time = heap[0][0]
        out = {
            dest: (buf.times, buf.ints, buf.offs, buf.slow)
            for dest, buf in enumerate(self._out)
            if buf is not None
        }
        self._out = [None] * self._shards
        stats = {
            "processed": processed,
            "next_time": next_time,
            "last_time": self._last_time,
            "leader": self._leader,
        }
        return out, stats

    def _dispatch(self, due: list[tuple], end: float, budget: int) -> int:
        """Fire the window's sorted ``due`` list, merged with heap timers.

        Timers armed *during* the window sit on the heap; the per-entry
        peek interleaves them into the exact ``(time, key)`` order the
        serial heap would have produced.  Deliveries are handled inline
        (the common case — a message to an awake node — fires without a
        handler or ``Node.receive`` frame); every other entry calls its
        handler.  Returns the number of events fired (the coordinator's
        budget accounting needs it).
        """
        scheduler = self.scheduler
        heap = scheduler._queue.heap
        heappop = heapq.heappop
        nodes = self._node_list
        lo = self.lo
        on_wake = self.metrics.on_wake
        has_failures = self._has_failures
        failed = self.failed_positions
        crashed = self._crashed
        processed = 0
        i = 0
        ndue = len(due)
        while True:
            if i < ndue:
                entry = due[i]
                if heap and heap[0][0] < end and heap[0] < entry:
                    entry = heappop(heap)
                else:
                    i += 1
            elif heap and heap[0][0] < end:
                entry = heappop(heap)
            else:
                break
            t = entry[0]
            scheduler._now = t
            processed += 1
            if processed > budget:
                raise LivelockError(
                    f"event budget of {self.cfg.max_events} exhausted at "
                    f"t={t}; the protocol is livelocked"
                )
            self._send_seq = 0
            self._timer_seq = 0
            self._current_entry = entry
            if entry[2] is _DELIVER:
                depth = entry[3]
                if depth > self._max_depth:
                    self._max_depth = depth
                position = entry[4]
                if has_failures and (
                    position in failed or position in crashed
                ):
                    continue
                self._current_depth = depth
                node = nodes[position - lo]
                if node.awake:
                    node.on_message(entry[5], entry[6])
                else:
                    on_wake(t)
                    node.receive(entry[5], entry[6])
            else:
                self._current_depth = 0
                entry[2](entry)
        self._current_entry = None
        return processed

    def _decode_incoming(self, incoming: list[tuple | None]) -> None:
        """Turn the routed batches into delivery entries on ``future``.

        The window loop sorts ``due`` by ``(time, key)`` before dispatch
        and treats ``future`` as an unordered pool, so entries may be
        appended in any order.  With numpy the decode therefore emits them
        one ``(type_id, tagword)`` group at a time, every per-field gather
        a single fancy-index over the ``offs`` side array, and the group's
        messages built by one compiled constructor; without numpy a
        per-record loop feeds the codec's value memo.
        """
        future = self.future
        builder = self.codec.builder
        unpack = self.codec.unpack
        np = _np
        for batch in incoming:
            if batch is None:
                continue
            times, ints, offs, fast_keys, slow, slow_keys = batch
            nrec = len(offs)
            if nrec and np is not None:
                ivec = np.frombuffer(ints, dtype=np.int64)
                ovec = np.frombuffer(offs, dtype=np.int64)
                arrivals = np.frombuffer(times, dtype=np.float64)[1::2]
                keys = np.frombuffer(fast_keys, dtype=np.int64)
                tids = ivec[ovec + 6]
                tagws = ivec[ovec + 7]
                tid0 = tids[0]
                if (tids == tid0).all() and (tagws == tagws[0]).all():
                    # Homogeneous batch (one message class, one tagword —
                    # common for broadcast-heavy windows): skip the sort.
                    order = None
                    tid_s = tids
                    tag_s = tagws
                    starts = [0, nrec]
                else:
                    order = np.lexsort((tagws, tids))
                    tid_s = tids[order]
                    tag_s = tagws[order]
                    cuts = np.nonzero(
                        (tid_s[1:] != tid_s[:-1]) | (tag_s[1:] != tag_s[:-1])
                    )[0]
                    starts = [0, *(cuts + 1).tolist(), nrec]
                for g in range(len(starts) - 1):
                    a, b = starts[g], starts[g + 1]
                    if order is None:
                        o_g = ovec
                        arr_g = arrivals
                        key_g = keys
                    else:
                        idx = order[a:b]
                        o_g = ovec[idx]
                        arr_g = arrivals[idx]
                        key_g = keys[idx]
                    build = builder(int(tid_s[a]), int(tag_s[a]))
                    nf = int(ivec[o_g[0] + 8])
                    if nf:
                        cols = [
                            ivec[o_g + (_REC_HEAD + j)].tolist()
                            for j in range(nf)
                        ]
                        msgs = map(build, zip(*cols))
                    else:
                        # Field-less records share one immutable instance,
                        # exactly like the codec's value memo would.
                        msgs = repeat(build(()), b - a)
                    future.extend(
                        zip(
                            arr_g.tolist(),
                            key_g.tolist(),
                            repeat(_DELIVER),
                            ivec[o_g + 4].tolist(),
                            ivec[o_g + 2].tolist(),
                            ivec[o_g + 3].tolist(),
                            msgs,
                            ivec[o_g + 5].tolist(),
                        )
                    )
            elif nrec:
                messages = [
                    unpack(
                        ints[o + 6],
                        ints[o + 7],
                        tuple(ints[o + _REC_HEAD : o + _REC_HEAD + ints[o + 8]]),
                    )
                    for o in offs
                ]
                future.extend(
                    zip(
                        times[1::2],
                        fast_keys,
                        repeat(_DELIVER),
                        [ints[o + 4] for o in offs],
                        [ints[o + 2] for o in offs],
                        [ints[o + 3] for o in offs],
                        messages,
                        [ints[o + 5] for o in offs],
                    )
                )
            for record, key in zip(slow, slow_keys):
                future.append(
                    (
                        record[1],
                        key,
                        _DELIVER,
                        record[4],
                        record[2],
                        record[3],
                        record[6],
                        record[5],
                    )
                )

    def finish(self) -> dict[str, Any]:
        """Final fold of this shard's accounting, for the coordinator."""
        counts = self._type_counts
        for cls, cell in self._class_cells.items():
            if cell[0]:
                name = cls.__name__
                counts[name] = counts.get(name, 0) + cell[0]
        metrics = self.metrics
        nodes = self._node_list
        return {
            "messages_total": self._messages_total,
            "bits_total": self._bits_total,
            "type_counts": counts,
            "max_depth": self._max_depth,
            "dropped": self._dropped,
            "duplicated": self._duplicated,
            "jittered": self._jittered,
            "retransmissions": metrics.retransmissions,
            "duplicates_suppressed": metrics.duplicates_suppressed,
            "packets_abandoned": metrics.packets_abandoned,
            "first_wake": metrics.first_wake_time,
            "last_wake": metrics.last_wake_time,
            "leader": self._leader,
            "processed": self.scheduler.events_processed,
            "busy": self._busy,
            "last_time": self._last_time,
            "max_channel_load": self.channels.max_load,
            "base_positions": [
                self.lo + i for i, node in enumerate(nodes) if node.is_base
            ],
            "crashed": sorted(self._crashed),
            "snapshots": (
                [(self.lo + i, node.snapshot()) for i, node in enumerate(nodes)]
                if self.cfg.collect_snapshots
                else None
            ),
        }


# ---------------------------------------------------------------------------
# Worker transport: in-process handles and forked pipe workers.
# ---------------------------------------------------------------------------


class _LocalHandle:
    """Drives one shard in-process (the REPRO_PARALLEL=0 / 1-CPU mode)."""

    def __init__(self, cfg: _RunConfig, index: int) -> None:
        self._shard = _Shard(cfg, index)

    def window(self, start, end, budget, incoming) -> None:
        self._reply = self._shard.run_window(start, end, budget, incoming)

    def collect(self):
        return self._reply

    def finish(self) -> None:
        self._final = self._shard.finish()

    def final(self) -> dict[str, Any]:
        return self._final

    def close(self) -> None:
        pass


def _worker_main(conn, cfg: _RunConfig, index: int) -> None:
    """Forked worker loop: build the shard post-fork, serve window ops."""
    try:
        shard = _Shard(cfg, index)
        # The shard and the heap inherited from the coordinator live for
        # the whole run: move them out of the collector's reach, so every
        # gen-2 pass scans only what the windows allocate (and leaves the
        # inherited copy-on-write pages untouched).
        gc.freeze()
        while True:
            op = conn.recv()
            if op[0] == "window":
                out, stats = shard.run_window(op[1], op[2], op[3], op[4])
                conn.send(("done", out, stats))
            elif op[0] == "finish":
                conn.send(("result", shard.finish()))
                return
            else:
                return
    except BaseException as exc:  # relayed and re-raised by the parent
        import traceback

        try:
            conn.send(
                ("error", type(exc).__name__, str(exc), traceback.format_exc())
            )
        except Exception:
            pass
    finally:
        conn.close()


class _ForkHandle:
    """Drives one shard in a forked worker over a pipe.

    The pipe carries everything: control messages, the packed fast-lane
    arrays (pickled as raw buffers) and the slow-lane records.
    """

    def __init__(self, context, cfg: _RunConfig, index: int) -> None:
        self._index = index
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_worker_main, args=(child, cfg, index), daemon=True
        )
        self._process.start()
        child.close()

    def _recv(self):
        try:
            reply = self._conn.recv()
        except EOFError:
            # The worker died without replying: reap it and name the cause.
            self._process.join(timeout=5)
            code = self._process.exitcode
            cause = (
                f"killed by signal {-code}"
                if code is not None and code < 0
                else f"exit code {code}"
            )
            raise SimulationError(
                f"shard {self._index} worker died mid-run ({cause})"
            ) from None
        if reply[0] == "error":
            _, name, message, tb = reply
            exc_type = getattr(_errors, name, None)
            if exc_type is None or not (
                isinstance(exc_type, type) and issubclass(exc_type, BaseException)
            ):
                raise SimulationError(f"shard worker failed: {message}\n{tb}")
            exc = exc_type(message)
            exc.add_note(f"shard {self._index} worker traceback:\n{tb}")
            raise exc
        return reply

    def window(self, start, end, budget, incoming) -> None:
        self._conn.send(("window", start, end, budget, incoming))

    def collect(self):
        reply = self._recv()
        return reply[1], reply[2]

    def finish(self) -> None:
        self._conn.send(("finish",))

    def final(self) -> dict[str, Any]:
        return self._recv()[1]

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5)


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------


def _refuse_unshardable_protocol(protocol: ElectionProtocol) -> None:
    """Refuse protocols whose flow-derived capability breaks sharding.

    The digest contract ("sharded == serial, bit for bit") holds because
    every event is a pure function of the seeded schedule.  A protocol
    *implementation* that arms wall-clock-shaped timers couples its
    behaviour to the window partition (a timer races the window barrier
    differently at different shard counts), and module-level entropy
    (``random``/``secrets``/``uuid``) escapes the seeded streams
    entirely — so both are refused up front, per the capability table the
    flow analyzer derives (``uses_timers``/``uses_rng``).

    Overlay layers are unwrapped via ``.election`` and judged on their
    *own* implementation modules: the framework's ``ReliableDelivery``
    overlay uses timers internally, but those live in ``repro.core`` and
    are vetted with the kernel itself (its rank machinery orders timer
    events deterministically), so wrapping a shardable election keeps it
    shardable.

    ``uses_ctx_rng`` (the randomized family's seeded per-node streams,
    :mod:`repro.sim.rng`) is deliberately *not* refused: a node's coin
    sequence depends only on ``(run_seed, node_id)`` and its own draw
    count, all of which the window schedule reproduces exactly, so
    ctx-RNG protocols keep the serial digest — asserted by the phase-5
    cells of ``check --all`` and tests/sim/test_shard.py.
    """
    from repro.lint.capabilities import capability_for, implementation_modules

    layer: object | None = protocol
    seen: set[int] = set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        if implementation_modules(type(layer)):
            capability = capability_for(type(layer))
            if capability.uses_timers:
                raise ConfigurationError(
                    f"protocol {capability.protocol!r} arms timers in its "
                    "implementation modules (uses_timers per the flow-"
                    "derived capability table); sharded execution cannot "
                    "guarantee the serial digest for implementation-level "
                    "timers — run it on the serial kernel"
                )
            if capability.uses_rng:
                raise ConfigurationError(
                    f"protocol {capability.protocol!r} imports entropy "
                    "modules (uses_rng per the flow-derived capability "
                    "table); sharded execution requires behaviour to be a "
                    "function of the seeded schedule alone"
                )
        layer = getattr(layer, "election", None)


class ShardedNetwork:
    """One runnable sharded election (digest-identical to :class:`Network`).

    ``workers=None`` auto-selects: forked shard workers when
    ``REPRO_PARALLEL`` permits, ``fork`` is available and the host has
    more than one CPU; in-process shards otherwise.  ``workers=0`` forces
    in-process execution, any positive value forces one forked worker per
    shard.  Both modes run the identical window/merge pipeline, so their
    results are equal by construction.

    After :meth:`run`, :attr:`stats` holds the kernel-level numbers the
    benchmarks publish (per-shard busy seconds and event counts, window
    count, wall time).
    """

    def __init__(
        self,
        protocol: ElectionProtocol,
        topology: CompleteTopology,
        *,
        shards: int,
        workers: int | None = None,
        delays: DelayModel | None = None,
        wakeup: WakeupSchedule | WakeupFactory | None = None,
        failed_positions: frozenset[int] | set[int] = frozenset(),
        crash_schedule: Mapping[int, float] | None = None,
        faults: FaultPlan | None = None,
        seed: int = 0,
        max_events: int = 5_000_000,
        collect_snapshots: bool = True,
    ) -> None:
        protocol.validate(topology)
        if not isinstance(shards, int) or not 1 <= shards <= topology.n:
            raise ConfigurationError(
                f"shards must be an integer in [1, n={topology.n}], "
                f"got {shards!r}"
            )
        delays = delays if delays is not None else ConstantDelay(1.0)
        if delays.uses_run_rng:
            raise ConfigurationError(
                f"{type(delays).__name__} consumes the shared run RNG; "
                "sharded execution cannot reproduce a global draw order "
                "(use ConstantDelay, a HookDelay with min_latency, or "
                "UniformDelay(min_latency=...) for per-link streams)"
            )
        lookahead = delays.min_latency
        if lookahead is None or lookahead <= 0.0:
            raise ConfigurationError(
                f"{type(delays).__name__} declares no positive min_latency; "
                "conservative windows need a strictly positive lookahead"
            )
        _refuse_unshardable_protocol(protocol)
        self.protocol = protocol
        self.topology = topology
        self.lookahead = float(lookahead)
        self.shards = shards
        self.max_events = max_events
        failed = frozenset(failed_positions)
        crashes = merge_crash_schedule(crash_schedule, faults)
        validate_failure_config(topology.n, failed, crashes)

        rng = random.Random(seed)
        schedule = resolve_wakeup(wakeup, topology, failed, rng)
        n = topology.n
        wakes: list[list[tuple[float, int, int]]] = [[] for _ in range(shards)]
        for i, (position, time) in enumerate(schedule.items()):
            wakes[position * shards // n].append((time, _WAKE_BASE + i, position))
        crash_entries: list[list[tuple[float, int, int]]] = [
            [] for _ in range(shards)
        ]
        for j, (position, time) in enumerate(crashes.items()):
            crash_entries[position * shards // n].append(
                (time, _CRASH_BASE + j, position)
            )
        self._initial_min = min(
            min((t for t, _k, _p in entries), default=float("inf"))
            for entries in (
                [w + c for w, c in zip(wakes, crash_entries)]
            )
        )
        self._cfg = _RunConfig(
            protocol=protocol,
            topology=topology,
            delays=delays,
            failed_positions=failed,
            crash_schedule=crashes,
            faults=faults,
            seed=seed,
            max_events=max_events,
            shards=shards,
            collect_snapshots=collect_snapshots,
            codec=MessageCodec(),
            wakes=wakes,
            crashes=crash_entries,
        )
        if workers is None:
            env = configured_processes()
            forked = (
                env != 0
                and (env or os.cpu_count() or 1) > 1
                and fork_context() is not None
            )
        else:
            forked = workers > 0 and fork_context() is not None
        self._forked = forked
        self._ran = False
        #: Coordinator-side counters behind the ``route_s`` and
        #: ``slow_lane_records`` stats.
        self._route_s = 0.0
        self._slow_lane_records = 0
        self.stats: dict[str, Any] = {}

    # -- the barrier loop --------------------------------------------------

    def run(self, *, require_leader: bool = True) -> ElectionResult:
        """Drive every shard window-by-window to global quiescence."""
        if self._ran:
            raise SimulationError(
                "a ShardedNetwork instance can only run once"
            )
        self._ran = True
        wall0 = perf_counter()
        k = self.shards
        cfg = self._cfg
        if self._forked:
            context = fork_context()
            handles: list[Any] = [
                _ForkHandle(context, cfg, i) for i in range(k)
            ]
        else:
            handles = [_LocalHandle(cfg, i) for i in range(k)]
        try:
            finals = self._drive(handles)
        finally:
            for handle in handles:
                handle.close()
        result = self._build_result(finals)
        self.stats["wall_seconds"] = perf_counter() - wall0
        if require_leader:
            if cfg.collect_snapshots:
                result.verify()
            elif result.leader_id is None:
                raise SimulationError(
                    "no leader elected (snapshots were not collected, so "
                    "only the leader check ran)"
                )
        return result

    def _drive(self, handles: list[Any]) -> list[dict[str, Any]]:
        k = self.shards
        lookahead = self.lookahead
        max_events = self.max_events
        global_seq = 0
        total_processed = 0
        windows = 0
        leader: tuple[int, float, int] | None = None
        leader_shard = -1
        #: pending_in[dest][src]: batch routed but not yet delivered.
        pending_in: list[list[tuple | None]] = [
            [None] * k for _ in range(k)
        ]
        next_times: list[float | None] = [
            self._initial_min if self._initial_min != float("inf") else None
        ] * k
        incoming_min = float("inf")

        while True:
            start = incoming_min
            for t in next_times:
                if t is not None and t < start:
                    start = t
            if start == float("inf"):
                break
            end = start + lookahead
            budget = max_events - total_processed
            windows += 1
            for index, handle in enumerate(handles):
                handle.window(start, end, budget, pending_in[index])
            pending_in = [[None] * k for _ in range(k)]
            outs: list[dict[int, tuple]] = []
            for index, handle in enumerate(handles):
                out, stats = handle.collect()
                outs.append(out)
                total_processed += stats["processed"]
                next_times[index] = stats["next_time"]
                reported = stats["leader"]
                if reported is not None:
                    if leader is None:
                        leader, leader_shard = reported, index
                    elif leader_shard != index:
                        self._raise_leader_conflict(leader, reported)
            if total_processed > max_events:
                raise LivelockError(
                    f"event budget of {max_events} exhausted at t={start}; "
                    f"the protocol is livelocked (aggregate across "
                    f"{k} shard schedulers)"
                )
            incoming_min, global_seq = self._route(outs, pending_in, global_seq)

        # Ask every shard for its final fold before collecting any: forked
        # workers then build and pickle their snapshots concurrently.
        for handle in handles:
            handle.finish()
        finals = [handle.final() for handle in handles]
        self.stats.update(
            {
                "shards": k,
                # One shard kernel; the name stays for the records that
                # carry it.
                "engine": "vector",
                "forked": self._forked,
                "transport": "pipes" if self._forked else "local",
                "windows": windows,
                "events_total": total_processed,
                "events_per_shard": [f["processed"] for f in finals],
                "busy_per_shard": [f["busy"] for f in finals],
                "route_s": self._route_s,
                "slow_lane_records": self._slow_lane_records,
            }
        )
        return finals

    def _route(
        self,
        outs: list[dict[int, tuple]],
        pending_in: list[list[tuple | None]],
        global_seq: int,
    ) -> tuple[float, int]:
        """Globally order one window's sends and route them to their shards.

        Returns the earliest routed arrival time and the advanced global
        sequence counter.  Each record's merge key (see the module
        docstring) is read as three columns -- source time, source key,
        and a third column that is the send index for delivery-sourced
        records -- and ranked once over the whole window; record ``p``
        gets global key ``global_seq + rank[p]``, which reproduces the
        serial kernel's scheduling order for these sends.

        Timer-sourced slow records carry nested keys ``(fire, TIMER_MARK,
        R, i, j)``.  They enter with key column ``TIMER_MARK`` and, as
        third column, their rank among the window's timer-sourced records
        (a ``sorted`` over those few full tuples).  ``TIMER_MARK`` exceeds
        every delivery key, so the three columns order exactly as the
        full tuples would.
        """
        t0 = perf_counter()
        np = _np
        runs: list[tuple] = []
        time_cols: list[Any] = []
        key_cols: list[Any] = []
        idx_cols: list[Any] = []
        slow_mks: list[tuple] = []
        incoming_min = float("inf")
        for src, out in enumerate(outs):
            for dest, batch in out.items():
                times, ints, offs, slow = batch
                runs.append((src, dest, times, ints, offs, slow))
                if offs:
                    if np is not None:
                        tv = np.frombuffer(times, dtype=np.float64)
                        iv = np.frombuffer(ints, dtype=np.int64)
                        ov = np.frombuffer(offs, dtype=np.int64)
                        time_cols.append(tv[0::2])
                        key_cols.append(iv[ov])
                        idx_cols.append(iv[ov + 1])
                        arrival = float(tv[1::2].min())
                    else:
                        time_cols.append(times[0::2])
                        key_cols.append([ints[o] for o in offs])
                        idx_cols.append([ints[o + 1] for o in offs])
                        arrival = min(times[1::2])
                    if arrival < incoming_min:
                        incoming_min = arrival
                for record in slow:
                    slow_mks.append(record[0])
                    if record[1] < incoming_min:
                        incoming_min = record[1]
        if slow_mks:
            self._slow_lane_records += len(slow_mks)
            timer_rank = {
                mk: i
                for i, mk in enumerate(
                    sorted(mk for mk in slow_mks if mk[1] == TIMER_MARK)
                )
            }
            time_cols.append([mk[0] for mk in slow_mks])
            key_cols.append([mk[1] for mk in slow_mks])
            idx_cols.append(
                [
                    timer_rank[mk] if mk[1] == TIMER_MARK else mk[2]
                    for mk in slow_mks
                ]
            )
        keys = array("q")
        if time_cols:
            ranks = _merge_ranks(time_cols, key_cols, idx_cols)
            if np is not None:
                keys.frombytes((ranks + global_seq).tobytes())
            else:
                keys.extend([r + global_seq for r in ranks])
        # Fast records were concatenated run by run, slow records after
        # all of them in the same run order.
        fast_at = 0
        slow_at = len(keys) - len(slow_mks)
        for src, dest, times, ints, offs, slow in runs:
            n_fast = len(offs)
            fast_keys = keys[fast_at : fast_at + n_fast]
            fast_at += n_fast
            slow_keys = keys[slow_at : slow_at + len(slow)].tolist()
            slow_at += len(slow)
            pending_in[dest][src] = (
                times, ints, offs, fast_keys, slow, slow_keys,
            )
        global_seq += len(keys)
        self._route_s += perf_counter() - t0
        return incoming_min, global_seq

    def _raise_leader_conflict(
        self, first: tuple[int, float, int], second: tuple[int, float, int]
    ) -> None:
        if first[1] > second[1]:
            first, second = second, first
        first_id = self.topology.id_at(first[0])
        second_id = self.topology.id_at(second[0])
        raise ProtocolViolation(
            f"{self.protocol.name}: node {second_id} declared leader at "
            f"t={second[1]} but node {first_id} already had"
        )

    # -- result assembly ---------------------------------------------------

    def _build_result(self, finals: list[dict[str, Any]]) -> ElectionResult:
        by_type: Counter = Counter()
        for final in finals:
            by_type.update(final["type_counts"])
        first_wakes = [
            f["first_wake"] for f in finals if f["first_wake"] is not None
        ]
        last_wakes = [
            f["last_wake"] for f in finals if f["last_wake"] is not None
        ]
        first_wake = min(first_wakes) if first_wakes else None
        last_wake = max(last_wakes) if last_wakes else None
        leaders = [f["leader"] for f in finals if f["leader"] is not None]
        if len(leaders) > 1:
            self._raise_leader_conflict(leaders[0], leaders[1])
        leader = leaders[0] if leaders else None
        leader_position = leader[0] if leader else None
        elected_at = leader[1] if leader else None
        election_depth = leader[2] if leader else None
        election_time = (
            elected_at - first_wake
            if elected_at is not None and first_wake is not None
            else float("inf")
        )
        base_positions = tuple(
            position for final in finals for position in final["base_positions"]
        )
        snapshots: tuple = ()
        if self._cfg.collect_snapshots:
            snapshots = tuple(
                snapshot
                for final in finals
                for _position, snapshot in final["snapshots"]
            )
        quiescent_at = max(final["last_time"] for final in finals)
        crashed = sorted(
            position for final in finals for position in final["crashed"]
        )
        metrics_sums = {
            name: sum(final[name] for final in finals)
            for name in (
                "messages_total",
                "bits_total",
                "dropped",
                "duplicated",
                "jittered",
                "retransmissions",
                "duplicates_suppressed",
                "packets_abandoned",
            )
        }
        return ElectionResult(
            n=self.topology.n,
            protocol=self.protocol.describe(),
            leader_id=(
                self.topology.id_at(leader_position)
                if leader_position is not None
                else None
            ),
            leader_position=leader_position,
            elected_at=elected_at,
            election_time=election_time,
            election_depth=election_depth,
            messages_total=metrics_sums["messages_total"],
            bits_total=metrics_sums["bits_total"],
            messages_by_type=dict(by_type),
            max_depth=max(final["max_depth"] for final in finals),
            quiescent_at=quiescent_at,
            first_wake_time=first_wake,
            last_wake_time=last_wake,
            base_positions=base_positions,
            failed_positions=tuple(sorted(self._cfg.failed_positions)),
            node_snapshots=snapshots,
            trace=Tracer(enabled=False),
            crashed_positions=tuple(crashed),
            max_channel_load=max(
                final["max_channel_load"] for final in finals
            ),
            messages_dropped=metrics_sums["dropped"],
            messages_duplicated=metrics_sums["duplicated"],
            messages_jittered=metrics_sums["jittered"],
            retransmissions=metrics_sums["retransmissions"],
            duplicates_suppressed=metrics_sums["duplicates_suppressed"],
            packets_abandoned=metrics_sums["packets_abandoned"],
        )

    @property
    def aggregate_events_per_sec(self) -> float:
        """Sum of per-shard busy-time event rates (see docs/performance.md).

        The capacity metric BENCH_kernel.json publishes: each shard's
        events divided by the wall seconds it spent *processing* (window
        barriers and coordinator time excluded), summed over shards.  It
        is a projection that assumes one free core per shard and no
        barrier cost; the measured wall clock is what ``perfbench/``
        reports.
        """
        events = self.stats.get("events_per_shard") or []
        busy = self.stats.get("busy_per_shard") or []
        return sum(
            e / b for e, b in zip(events, busy) if b > 0.0
        )


def run_sharded_election(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    *,
    shards: int,
    workers: int | None = None,
    delays: DelayModel | None = None,
    wakeup: WakeupSchedule | WakeupFactory | None = None,
    failed_positions: frozenset[int] | set[int] = frozenset(),
    crash_schedule: Mapping[int, float] | None = None,
    faults: FaultPlan | None = None,
    seed: int = 0,
    max_events: int = 5_000_000,
    collect_snapshots: bool = True,
    require_leader: bool = True,
) -> ElectionResult:
    """One-shot convenience wrapper: build a :class:`ShardedNetwork`, run it.

    The keyword signature mirrors :func:`repro.sim.network.run_election`
    minus the serial-only options (``trace``, ``until``) and plus the
    sharding controls.
    """
    network = ShardedNetwork(
        protocol,
        topology,
        shards=shards,
        workers=workers,
        delays=delays,
        wakeup=wakeup,
        failed_positions=failed_positions,
        crash_schedule=crash_schedule,
        faults=faults,
        seed=seed,
        max_events=max_events,
        collect_snapshots=collect_snapshots,
    )
    return network.run(require_leader=require_leader)
