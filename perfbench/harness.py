"""Measurement primitives shared by every perfbench workload.

Nothing here imports the program under test: percentiles with their sample
counts, spread figures, an in-memory span recorder with self-time
accounting, open-loop (due-time) latency bookkeeping, error counting,
host-speed scaling against a reference loop, peak-RSS probes and the join
of child processes at exit.  ``test_harness.py`` checks each of them.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence


class InvalidRun(Exception):
    """The run cannot be reported: its own measurement went wrong."""


@dataclass
class Outcome:
    """What one benchmark run reports: metric values, error counts, notes."""

    metrics: Dict[str, float]
    ledger: "ErrorLedger"
    lines: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the counts that say how much it rests on."""

    pct: float
    value: float
    count: int
    #: Samples strictly above ``value`` (the guide asks for ten or more).
    beyond: int

    def describe(self, scale: float = 1.0, unit: str = "") -> str:
        return f"p{self.pct:g}={self.value * scale:.4f}{unit} (n={self.count}, {self.beyond} beyond)"


def percentile(values: Sequence[float], pct: float) -> Percentile:
    """Linear-interpolated percentile (numpy's default rule) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(float(v) for v in values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    beyond = sum(1 for v in ordered if v > value)
    return Percentile(pct=pct, value=value, count=len(ordered), beyond=beyond)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans (name, start, end, parent) in memory; computes self time.

    The parent of a span is the innermost span still open *on the same
    thread*, so concurrent request threads each get their own tree.  Calls
    made in any other process (forked evaluation workers inherit the
    wrappers) pass straight through: their spans could never be collected.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._pid = os.getpid()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name=name, start=self.clock(), parent=stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with every call recorded as a span called *name*."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            opened = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(opened)

        return traced

    def counting(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with its calls counted under *name* (no span: too frequent)."""
        recorder = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            with recorder._lock:
                recorder.counts[name] = recorder.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of each span name not covered by that span's own children."""
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] = covered.get(id(span.parent), 0.0) + span.duration
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.duration - covered.get(id(span), 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def total_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Inclusive seconds per span name (children included)."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One scheduled request of an open-loop generator."""

    due: float
    kind: str
    payload: Dict[str, Any]
    sent: Optional[float] = None
    answered: Optional[float] = None
    round_trip: float = 0.0
    response_bytes: int = 0
    job_id: Optional[str] = None
    cached: Optional[bool] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> float:
        """Due time to answer: a stall also delays every request due behind it."""
        if self.answered is None:
            raise ValueError("request was never answered")
        return self.answered - self.due

    @property
    def lateness(self) -> float:
        """How late the generator sent the request."""
        if self.sent is None:
            raise ValueError("request was never sent")
        return max(0.0, self.sent - self.due)


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class ErrorLedger:
    """Counts operations attempted and failed (failed, wrong or refused)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        """Count one attempted operation; a false *ok* is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Steps of the reference loop timed beside the program.
REFERENCE_STEPS = 5_000
#: What the reference loop takes on the reference host.  Every reported
#: time is scaled to that host: measured seconds x REFERENCE_S / the
#: reference loop's time measured beside them.  A shared virtual machine
#: switches between speeds ~1.5x apart for tens of seconds at a time; the
#: loop slows with the program, so the scaled figure does not.
REFERENCE_S = 200e-6


def reference_seconds() -> float:
    """One timing of the reference loop (pure interpreter work, no memory)."""
    started = time.perf_counter()
    total = 0
    for step in range(REFERENCE_STEPS):
        total += step
    return time.perf_counter() - started


def host_scale(reference: Sequence[float]) -> float:
    """Factor from measured to reference-host seconds, from loop timings."""
    if not reference:
        raise ValueError("no reference timings")
    return REFERENCE_S / statistics.median(reference)


class ReferenceSampler:
    """Times the reference loop every *interval_s* on a thread of its own.

    For a program in another process: :meth:`scale` gives the host scale
    over any window of the sampler's clock from the timings inside it.  With
    *cpu*, the thread runs on that CPU only: the one the program is pinned to.
    """

    def __init__(self, interval_s: float = 0.02, clock: Callable[[], float] = time.monotonic,
                 cpu: Optional[int] = None) -> None:
        self.interval_s = interval_s
        self.clock = clock
        self.cpu = cpu
        #: Sample times (ascending) and the loop timing taken at each.
        self.times: List[float] = []
        self.timings: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-reference", daemon=True)

    def _run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(self.interval_s):
            seconds = reference_seconds()
            self.timings.append(seconds)
            self.times.append(self.clock())

    def __enter__(self) -> "ReferenceSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float, pad_s: float = 0.25) -> float:
        """Host scale over ``[start - pad_s, end + pad_s]``."""
        inside = self.timings[bisect.bisect_left(self.times, start - pad_s): bisect.bisect_right(self.times, end + pad_s)]
        if not inside:
            raise InvalidRun(f"no reference timing between {start:.3f} and {end:.3f}")
        return host_scale(inside)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set of another live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def join_children(timeout_s: float = 30.0) -> None:
    """Wait for every process multiprocessing started here, the tracker too.

    A fleet search's shared memory starts multiprocessing's resource
    tracker, which is built to outlive its parent: it exits only once every
    holder of its pipe has closed it.  Pool workers hold the pipe as well, so
    they are joined first (killed if they outstay *timeout_s*); then the pipe
    is closed and the tracker awaited, and killed if it outstays *timeout_s*.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout_s
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)
