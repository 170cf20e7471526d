"""Statistics, host-speed calibration and load generation for every workload.

Pure helpers (no model code) so the self-tests can drive them with a fake
clock: nearest-rank percentiles with the ten-samples-beyond rule, the
host-speed calibration slice, the seeded Poisson arrival schedule, the
open-loop sender that times each request from when it was *due*, and
backlog-growth detection.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

#: a reported percentile needs at least this many samples above its rank
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest-rank index of the ``p``-th percentile of ``n`` samples."""
    if n <= 0:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return max(1, math.ceil(p / 100.0 * n))


def supported(n: int, p: float) -> bool:
    """Whether ``n`` samples leave ``MIN_BEYOND`` samples beyond the ``p``-th."""
    return n > 0 and n - rank(n, p) >= MIN_BEYOND


def min_samples(p: float) -> int:
    """Smallest sample count that supports reporting the ``p``-th percentile."""
    n = 1
    while not supported(n, p):
        n += 1
    return n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: an observed value, never an interpolation."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def reported(values, p: float) -> float:
    """``percentile`` that refuses a rank the sample cannot support."""
    n = len(values)
    if not supported(n, p):
        raise ValueError(f"p{p:g} needs {min_samples(p)} samples, have {n}")
    return percentile(values, p)


def median(values) -> float:
    return percentile(values, 50)


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

#: seconds one calibration slice takes on the reference host (a 2-CPU x86
#: sandbox in its fast state); normalized times are scaled to that speed
CALIBRATION_REF_S = 0.0022


class Calibration:
    """A fixed slice of NumPy, memory-bound and interpreter work.

    The benchmark runs on shared hosts whose speed swings by up to 1.7x over
    a second or two.  Program steps slow down with the host, and so does
    this slice: over a minute of 40-step blocks, step time over the adjacent
    slice's time varied by 2-4% (coefficient of variation) while raw step
    time varied by 10%.  The slice mixes small matrix products, passes over
    a 1 MiB array (a cache-sized working set, which tracked graph training
    twice as well as matrix products alone) and an interpreter loop.
    Timings reported as normalized are ``raw * CALIBRATION_REF_S / slice``,
    taken next to the work they normalize; the raw figures are printed
    beside them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((48, 48))
        self._array = rng.standard_normal(1 << 17)
        self._out = np.empty_like(self._array)

    def __call__(self, slices: int = 1, clock=time.perf_counter) -> float:
        """Mean seconds per slice over ``slices`` back-to-back slices."""
        start = clock()
        for _ in range(slices):
            x = self._matrix
            for _ in range(100):
                x = np.tanh(x @ self._matrix)
            for _ in range(6):
                np.multiply(self._array, 1.0001, out=self._out)
                np.add(self._out, self._array, out=self._out)
            total = 0
            for i in range(20000):
                total += i
        return (clock() - start) / slices


def normalized(seconds: float, slice_seconds: float) -> float:
    """``seconds`` rescaled to the reference host's speed."""
    return seconds * CALIBRATION_REF_S / slice_seconds


# ---------------------------------------------------------------------------
# open-loop load
# ---------------------------------------------------------------------------

def poisson_schedule(rng: np.random.Generator, rate: float,
                     duration: float) -> np.ndarray:
    """Send offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0 or duration <= 0:
        return np.zeros(0)
    count = int(rate * duration * 1.5) + 32
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    while offsets[-1] < duration:  # astronomically rare; keep it exact
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, count))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def fixed_count_schedule(rng: np.random.Generator, rate: float,
                         duration: float) -> np.ndarray:
    """Poisson arrivals conditioned on exactly ``rate * duration`` of them.

    Given their number, the arrival times of a Poisson process are sorted
    uniform draws; fixing the number makes the offered load exact, so
    goodput does not vary with how many arrivals a seed happened to draw.
    """
    return np.sort(rng.uniform(0.0, duration, int(round(rate * duration))))


def backlog_growing(outstanding, slack: float) -> bool:
    """Whether the queue grew over a phase instead of staying bounded.

    ``outstanding`` holds the number of unresolved requests seen at each
    send.  A stable system hovers around a constant level (at most a few
    open micro-batches), so the phase counts as growing when the mean of the
    second half exceeds the mean of the first half by more than ``slack``.
    """
    n = len(outstanding)
    if n < 2:
        return False
    half = n // 2
    first = sum(outstanding[:half]) / half
    second = sum(outstanding[half:]) / (n - half)
    return second - first > slack


@dataclass
class Sent:
    """One request of an open-loop phase, as the generator saw it."""

    index: int
    lane: object
    due: float
    sent: float
    resolved: float = math.nan
    error: BaseException | None = None
    value: object = None
    tag: object = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to when it resolved."""
        return self.resolved - self.due


@dataclass
class PhaseResult:
    rate: float
    sent: list[Sent]
    outstanding: list[int]
    backlog_end: int
    submit_seconds: list[float] = field(default_factory=list)
    start: float = 0.0

    @property
    def lags(self) -> list[float]:
        return [s.sent - s.due for s in self.sent]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.sent if s.error is not None)

    def latencies(self, lane=None) -> list[float]:
        """Due-time latency of every request; a failure never meets a limit."""
        return [math.inf if s.error is not None else s.latency
                for s in self.sent if lane is None or s.lane == lane]

    def windows(self, size: int) -> list[list[float]]:
        """Latencies of resolved requests in consecutive runs of ``size``
        sends (in due order); a short remainder joins the last window."""
        count = max(1, len(self.sent) // size)
        out: list[list[float]] = [[] for _ in range(count)]
        for i, s in enumerate(self.sent):
            if s.error is None:
                out[min(i // size, count - 1)].append(s.latency)
        return out


class _LaneWaiters:
    """One waiter thread per lane, resolving futures in submission order.

    Within a lane the program resolves requests first-in first-out, so a
    thread blocked on the oldest outstanding future observes each resolution
    as it happens; a single waiter across lanes would misdate requests that
    overtake each other.
    """

    def __init__(self, clock, timeout: float) -> None:
        self._clock = clock
        self._timeout = timeout
        self._queues: dict = {}
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self.waiting = 0
        self.resolved = 0

    def put(self, sent: Sent, future) -> None:
        with self._lock:
            self.waiting += 1
        q = self._queues.get(sent.lane)
        if q is None:
            q = self._queues[sent.lane] = queue.Queue()
            thread = threading.Thread(target=self._wait, args=(q,),
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        q.put((sent, future))

    def _wait(self, q: queue.Queue) -> None:
        while True:
            item = q.get()
            if item is None:
                return
            sent, future = item
            try:
                error = future.exception(self._timeout)
            except TimeoutError as exc:
                error = exc
            sent.resolved = self._clock()
            if error is None:
                sent.value = future.result(0)
            sent.error = error
            with self._lock:
                self.resolved += 1
                if self.resolved == self.waiting:
                    self._drained.notify_all()

    def wait_drained(self, timeout: float) -> bool:
        """Block until no request is outstanding, or ``timeout`` passes."""
        with self._drained:
            return self._drained.wait_for(
                lambda: self.resolved == self.waiting, timeout)

    def close(self) -> None:
        for q in self._queues.values():
            q.put(None)
        for thread in self._threads:
            thread.join(self._timeout + 5)
            if thread.is_alive():
                raise RuntimeError("lane waiter did not finish")


def run_open_loop(submit, requests, offsets, rate: float,
                  clock=time.perf_counter, sleep=time.sleep, on_submit=None,
                  timeout: float = 30.0, idle=None,
                  idle_s: float = 0.0) -> PhaseResult:
    """Send ``requests`` at ``offsets`` (seconds from now), never waiting.

    ``offsets`` is a send schedule such as :func:`poisson_schedule`; all
    zeros is a burst.  ``requests(i)`` gives ``(lane, args, tag)`` for the
    ``i``-th send and ``submit(*args)`` returns a future with
    ``exception(timeout)`` and ``result(timeout)``.  Each request is timed
    from its *due* time, so a generator stall or a queue build-up shows up
    in every later request's latency.  ``on_submit(start, end, index)``
    sees each submit call.

    ``idle()`` runs in the generator's idle gaps: whenever no request is
    outstanding and the next send is more than ``idle_s`` away, so it
    neither delays a send nor competes with the program for the CPU.
    """
    waiters = _LaneWaiters(clock, timeout)
    sent: list[Sent] = []
    outstanding: list[int] = []
    submit_seconds: list[float] = []
    start = clock()
    try:
        for index, offset in enumerate(offsets):
            due = start + float(offset)
            while True:
                now = clock()
                if now >= due:
                    break
                if idle is not None and due - now > idle_s:
                    if waiters.wait_drained(due - now - idle_s):
                        idle()
                    continue
                sleep(due - now)
            lane, args, tag = requests(index)
            record = Sent(index, lane, due, clock(), tag=tag)
            begin = clock()
            try:
                future = submit(*args)
            except Exception as error:  # refused request: counts as failed
                record.resolved, record.error = clock(), error
                sent.append(record)
                continue
            end = clock()
            submit_seconds.append(end - begin)
            if on_submit is not None:
                on_submit(begin, end, index)
            sent.append(record)
            outstanding.append(waiters.waiting - waiters.resolved)
            waiters.put(record, future)
    finally:
        waiters.close()
    return PhaseResult(rate, sent, outstanding,
                       outstanding[-1] if outstanding else 0, submit_seconds,
                       start)


def run_closed_loop(submit, requests, clients: int, duration: float,
                    clock=time.perf_counter,
                    timeout: float = 30.0) -> PhaseResult:
    """Keep ``clients`` requests outstanding for ``duration`` seconds.

    Each client sends its next request when its previous one resolves, so
    a request is due when it is sent.  Resolutions are awaited oldest
    first; ``requests`` and ``submit`` are as in :func:`run_open_loop`.
    """
    sent: list[Sent] = []
    pending: deque = deque()
    start = clock()
    deadline = start + duration

    def send() -> None:
        while True:
            lane, args, tag = requests(len(sent))
            now = clock()
            record = Sent(len(sent), lane, now, now, tag=tag)
            sent.append(record)
            try:
                pending.append((record, submit(*args)))
                return
            except Exception as error:  # refused: failed, client goes on
                record.resolved, record.error = clock(), error
            if clock() >= deadline:
                return

    for _ in range(clients):
        send()
    while pending:
        record, future = pending.popleft()
        try:
            error = future.exception(timeout)
        except TimeoutError as exc:
            error = exc
        record.resolved, record.error = clock(), error
        if error is None:
            record.value = future.result(0)
        if clock() < deadline:
            send()
    return PhaseResult(math.inf, sent, [], 0, start=start)
