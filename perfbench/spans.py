"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(election, span_id, parent_id, name, start, end)``.  Spans of
one election share ``election``; ``parent_id`` is the span that was open
when this one started (``None`` at the top).  Nothing is written until the
run ends, and an untraced run uses :data:`NO_SPANS`, whose ``span`` is a
shared no-op context manager.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class Spans:
    """Span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.election = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span_id = len(self.records)
        self.records.append((self.election, span_id, parent, name, 0.0, 0.0))
        self._open.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.records[span_id] = (
                self.election, span_id, parent, name, start, end
            )


class _NoSpans:
    def span(self, name: str):
        return _NULL


NO_SPANS = _NoSpans()


def self_times(records: list[tuple]) -> dict[int, dict[str, float]]:
    """``{election: {name: self seconds}}``: each span minus its children.

    Spans opened by the same ``with`` nesting are strictly contained in
    their parent, so the covered part of a parent is the sum of its
    children's durations.
    """
    child_total: dict[int, float] = defaultdict(float)
    for _election, _sid, parent, _name, start, end in records:
        if parent is not None:
            child_total[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for election, sid, _parent, name, start, end in records:
        out[election][name] += (end - start) - child_total[sid]
    return out


def to_json(records: list[tuple]) -> list[dict]:
    return [
        {"election": e, "id": s, "parent": p, "name": n, "start": a, "end": b}
        for e, s, p, n, a, b in records
    ]
