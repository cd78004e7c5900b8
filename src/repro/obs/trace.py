"""Structured tracing: spans and events into a bounded ring + JSONL sink.

One process-local :class:`Tracer` (reached via :func:`get_tracer`) collects
two record kinds:

* **spans** — named durations with explicit parent ids (a per-thread stack
  supplies the parent), measured on the monotonic ``time.perf_counter``
  clock so system clock steps can never corrupt a duration;
* **events** — point-in-time marks attached to the enclosing span.

Records land in a bounded in-memory ring (:class:`collections.deque` with a
``maxlen``) and, when a sink path is configured, are appended to a JSONL
file using the same crash-safety discipline as
:class:`repro.utils.jsonl_store.AppendOnlyJsonlStore`: one flushed
``write`` per whole line, under a lock, so a crash can tear at most the
final line — and :func:`read_trace` tolerates exactly that.

Tracing is **off by default** and provably inert: a disabled tracer's
``span``/``event`` calls return immediately without reading a clock, no
telemetry value ever feeds a seed or a payload fingerprint, and the tier-1
suite asserts bit-identical search results with tracing on vs off for every
eval backend.  The one exception is :meth:`Tracer.warning`: operational
degradation (a lost worker process, a store reconnect) is recorded in the ring
even when tracing is disabled, so silent-recovery paths stay visible.

Span ids are a plain process-local counter — deterministic, ordered, and
free of entropy (no ``uuid``), which keeps the determinism lint happy and
trace files diffable.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, IO, Iterator, List, Optional

#: Default bound on the in-memory record ring.
DEFAULT_RING_CAPACITY = 4096


class Span:
    """One open span: emitted as a record when its ``with`` block exits.

    ``attrs`` may be extended while the span is open (e.g. a search span
    recording how many samples it ended up using).
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "attrs", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        duration = time.perf_counter() - self._t0
        self.tracer._pop(self)
        self.tracer._emit(
            {
                "kind": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "t0": self._t0,
                "dur_s": duration,
                "attrs": self.attrs,
            }
        )


class _NullSpan:
    """The disabled-tracer span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Process-local structured tracer (bounded ring + optional JSONL sink)."""

    def __init__(
        self,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        sink_path: Optional[str] = None,
        enabled: bool = False,
    ) -> None:
        if ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {ring_capacity}")
        #: Span/event emission is cheap enough to gate on this single bool.
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=ring_capacity)  # guarded-by: _lock
        self._sink_path = sink_path  # guarded-by: _lock
        self._sink: Optional[IO[str]] = None  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._stack = threading.local()  # per-thread open-span stack

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(
        self,
        enabled: Optional[bool] = None,
        sink_path: "str | None | type(...)" = ...,
        ring_capacity: Optional[int] = None,
    ) -> None:  # acquires-lock: _lock
        """Reconfigure in place (tests and the CLI ``--trace`` flag).

        ``sink_path`` uses ``...`` as "leave unchanged" so ``None`` can mean
        "remove the sink".  Changing the capacity re-bounds the ring while
        keeping its newest records.
        """
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if sink_path is not ...:
                if self._sink is not None:
                    self._sink.close()
                    self._sink = None
                self._sink_path = sink_path
            if ring_capacity is not None:
                if ring_capacity < 1:
                    raise ValueError(f"ring_capacity must be >= 1, got {ring_capacity}")
                self._ring = deque(self._ring, maxlen=ring_capacity)

    @property
    def sink_path(self) -> Optional[str]:
        """The configured JSONL sink path, if any."""
        return self._sink_path

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> "Span | _NullSpan":
        """A context manager timing one named span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, name, span_id, self._current_id(), attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time mark under the current span (when enabled)."""
        if not self.enabled:
            return
        self._record_event(name, "info", attrs)

    def warning(self, name: str, **attrs: Any) -> None:
        """Record an operational-degradation event — even when disabled.

        Dead hosts and lost workers must never vanish silently just because
        nobody turned tracing on; the bounded ring makes always-on safe.
        """
        self._record_event(name, "warning", attrs)

    def _record_event(self, name: str, level: str, attrs: Dict[str, Any]) -> None:
        with self._lock:
            event_id = self._next_id
            self._next_id += 1
        self._emit(
            {
                "kind": "event",
                "name": name,
                "id": event_id,
                "parent": self._current_id(),
                "t": time.perf_counter(),
                "level": level,
                "attrs": attrs,
            }
        )

    def _emit(self, record: Dict[str, Any]) -> None:  # acquires-lock: _lock
        """Ring-append + sink-append one record (single flushed line write)."""
        with self._lock:
            self._ring.append(record)
            if self._sink_path is not None:
                if self._sink is None:
                    self._sink = open(self._sink_path, "a", encoding="utf-8")
                # One write of one whole line, flushed — the same torn-write
                # discipline as AppendOnlyJsonlStore.append_record: a crash
                # can tear at most the trailing line, never an earlier one.
                self._sink.write(json.dumps(record, sort_keys=True, default=str) + "\n")
                self._sink.flush()

    # ------------------------------------------------------------------
    # Per-thread span stack
    # ------------------------------------------------------------------
    def _frames(self) -> List[Span]:
        frames = getattr(self._stack, "frames", None)
        if frames is None:
            frames = []
            self._stack.frames = frames
        return frames

    def _current_id(self) -> Optional[int]:
        frames = self._frames()
        return frames[-1].span_id if frames else None

    def _push(self, span: Span) -> None:
        self._frames().append(span)

    def _pop(self, span: Span) -> None:
        frames = self._frames()
        if frames and frames[-1] is span:
            frames.pop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def records(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        level: Optional[str] = None,
    ) -> List[Dict[str, Any]]:  # acquires-lock: _lock
        """Snapshot of the ring, optionally filtered by kind/name/level."""
        with self._lock:
            snapshot = list(self._ring)
        return [
            record
            for record in snapshot
            if (kind is None or record["kind"] == kind)
            and (name is None or record["name"] == name)
            and (level is None or record.get("level") == level)
        ]

    def clear(self) -> None:  # acquires-lock: _lock
        """Drop every buffered record (tests isolate themselves with this)."""
        with self._lock:
            self._ring.clear()

    def close(self) -> None:  # acquires-lock: _lock
        """Close the sink file (reopened lazily on the next emit)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


#: The process-local tracer every instrumented layer shares.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-local tracer (disabled until configured)."""
    return _TRACER


def configure_tracing(
    enabled: Optional[bool] = None,
    sink_path: "str | None | type(...)" = ...,
    ring_capacity: Optional[int] = None,
) -> Tracer:
    """Configure and return the process-local tracer (CLI ``--trace``)."""
    _TRACER.configure(enabled=enabled, sink_path=sink_path, ring_capacity=ring_capacity)
    return _TRACER


def read_trace(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a trace JSONL file, tolerating a torn tail.

    A crash mid-append can leave one torn trailing line (the sink writes
    whole flushed lines, so earlier lines are always intact); any line that
    fails to parse is skipped instead of aborting the analysis.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record
