"""Span recording for the traced benchmark run.

The benchmark measures the program from outside: in a traced run it
replaces selected public functions of the ``repro`` modules with thin
wrappers that open a span around each call.  Spans stay in memory; the
run folds them into per-layer self times when it ends.

A span records its name, start, end, parent span and the op it belongs
to.  A span's *self time* is its duration minus the part of that
interval its child spans cover (the union of the children's intervals,
clipped to the parent) — children that overlap, as spans grafted from
several processes would, are not double-counted.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Collects spans and per-op counters while ``active`` is true."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counters: dict[int | None, dict[str, float]] = field(default_factory=dict)
    active: bool = False
    op: int | None = None
    _stack: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, self.op, name, self.clock())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        bucket = self.counters.setdefault(self.op, {})
        bucket[name] = bucket.get(name, 0.0) + amount

    def set(self, name: str, value: float) -> None:
        self.counters.setdefault(self.op, {})[name] = value


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(span.start, span.end, children.get(span.span_id, []))
        for span in spans
    }


def self_time_by_op(spans: list[Span]) -> dict[int | None, dict[str, float]]:
    """Per op, the summed self time of each span name."""
    own = self_times(spans)
    folded: dict[int | None, dict[str, float]] = {}
    for span in spans:
        bucket = folded.setdefault(span.op, {})
        bucket[span.name] = bucket.get(span.name, 0.0) + own[span.span_id]
    return folded


# ----------------------------------------------------------------------
# Probes: wrappers installed around the program's public functions
# ----------------------------------------------------------------------
Before = Callable[[Recorder, tuple, dict], Any]
After = Callable[[Recorder, Any, Any], None]


def _wrapper(
    fn: Callable, name: str, recorder: Recorder,
    before: Before | None, after: After | None,
) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        state = before(recorder, args, kwargs) if before is not None else None
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(recorder, state, result)
        return result

    return traced


@dataclass(frozen=True)
class Probe:
    """One function to wrap: ``owner.attr`` becomes a span named ``name``.

    ``owner`` is the module or class through which the program looks the
    function up at call time (a ``from x import f`` copy lives in the
    importing module, so that module is the owner to patch).
    """

    owner: Any
    attr: str
    name: str
    before: Before | None = None
    after: After | None = None


def install(probes: list[Probe], recorder: Recorder) -> Callable[[], None]:
    """Wrap every probe's function; returns the undo callable."""
    originals = []
    for probe in probes:
        original = probe.owner.__dict__[probe.attr]
        originals.append((probe.owner, probe.attr, original))
        setattr(probe.owner, probe.attr, _wrapper(
            original, probe.name, recorder, probe.before, probe.after
        ))

    def undo() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return undo
