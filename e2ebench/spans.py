"""Spans and counters for the traced run.

Spans are recorded by the benchmark around its own calls into each layer
(never inside the program), kept in memory, and written once at the end in
the Chrome-trace ``X``-event format that ``repro.tools.tracing`` emits.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    step: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: tuple[float, float], children) -> float:
    """Length of ``interval`` covered by the union of ``children`` intervals."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if b > lo and a < hi)
    total, cursor = 0.0, lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


class SpanRecorder:
    """In-memory span log with a per-thread parent stack."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._origin = clock()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int | None = None, step: int | None = None) -> int:
        """Record a finished span; the parent defaults to the open one."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(Span(span_id, name, layer, start, end, parent,
                                   step, threading.get_ident()))
        return span_id

    @contextmanager
    def span(self, name: str, layer: str, step: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            record = Span(span_id, name, layer, self.clock(), 0.0, parent,
                          step, threading.get_ident())
            self.spans.append(record)
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self.clock()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        return {span.id: span.duration
                - covered((span.start, span.end), children.get(span.id, ()))
                for span in self.spans}

    def chrome_events(self) -> list[dict]:
        own = self.self_times()
        threads: dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span.thread, len(threads))
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - self._origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {"id": span.id, "layer": span.layer,
                         "parent": span.parent, "step": span.step,
                         "self_us": own[span.id] * 1e6},
            })
        return events

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events()}, fh)


class KernelMeter:
    """Unordered ``kernels.runtime`` subscriber: launches, busy time, bytes.

    Bytes are the runtime's ``bytes_accessed`` (operand plus result array
    sizes), a count computed from tensor sizes rather than measured traffic.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.launches = 0
        self.busy = 0.0
        self.bytes = 0

    def __call__(self, event) -> None:
        with self._lock:
            self.launches += 1
            self.busy += event.duration
            self.bytes += event.bytes_accessed

    def read(self) -> tuple[int, float, int]:
        with self._lock:
            return self.launches, self.busy, self.bytes


class GraphMisses:
    """Instrumented-graph cache misses of the graph driver, across drivers.

    Every ``manager.activate`` (each serving lease swap) attaches a fresh
    graph driver whose counters start at zero, and ``detach`` zeroes them,
    so ``plan_stats()`` deltas undercount.  This keeps the highest count
    seen per driver object instead.  Polled at phase start and end and, for
    serving, at every traced send: a driver that lives and dies between two
    polls is missed, so the total is a lower bound.
    """

    def __init__(self, manager) -> None:
        self._manager = manager
        self._seen: dict = {}
        self._base: dict = {}

    def poll(self) -> None:
        for driver in list(self._manager._drivers):
            if getattr(driver, "namespace", None) == "graph":
                self._seen[driver] = max(self._seen.get(driver, 0),
                                         driver.cache_misses)

    def start(self) -> None:
        self.poll()
        self._base = dict(self._seen)

    def total(self) -> int:
        self.poll()
        return sum(count - self._base.get(driver, 0)
                   for driver, count in self._seen.items())
