"""Flight recorder: per-search phase breakdown + trace-file analyzer.

:class:`FlightRecorder` rides along one search when tracing is enabled and
produces the ``telemetry`` block a
:class:`~repro.utils.serialization.SearchResultSummary` can carry: wall and
CPU seconds per phase (analyze / warm_start / optimize / finalize),
evaluation counts per backend, and generations.

The block is diagnostic, never durable: ``SearchResultSummary.to_dict()``
excludes it by default, so stores, payload fingerprints, campaign resume
byte-identity, and the bit-identity property tests are all untouched by
whether a search was traced (docs/OBSERVABILITY.md spells out the
contract).

:func:`summarize_trace` + :func:`render_trace_summary` implement
``repro-magma trace summarize out.jsonl``: aggregate a trace file's spans
into a per-phase timeline table (count, total/mean/max duration, share of
traced wall time) plus event counts by level.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.trace import read_trace


class _PhaseTimer:
    """Context manager accumulating one phase's wall/cpu seconds."""

    __slots__ = ("recorder", "name", "_wall0", "_cpu0")

    def __init__(self, recorder: "FlightRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.recorder._accumulate(
            self.name,
            wall_s=time.perf_counter() - self._wall0,
            cpu_s=time.process_time() - self._cpu0,
        )


class _NullPhase:
    """The disabled recorder's phase: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_PHASE = _NullPhase()


class FlightRecorder:
    """Accumulates one search's phase timings and evaluation counts.

    Single-threaded by design (one recorder per search, used from the
    search's own thread); monotonic clocks only.
    """

    def __init__(self) -> None:
        self._phases: Dict[str, Dict[str, float]] = {}
        self._counters: Dict[str, float] = {}

    def phase(self, name: str) -> _PhaseTimer:
        """Time a named phase (re-entering the same name accumulates)."""
        return _PhaseTimer(self, name)

    def _accumulate(self, name: str, wall_s: float, cpu_s: float) -> None:
        entry = self._phases.setdefault(name, {"wall_s": 0.0, "cpu_s": 0.0, "count": 0.0})
        entry["wall_s"] += wall_s
        entry["cpu_s"] += cpu_s
        entry["count"] += 1.0

    def count(self, key: str, amount: float = 1.0) -> None:
        """Accumulate a named counter (eval rows, generations)."""
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready ``telemetry`` block."""
        phases = {
            name: {
                "wall_s": entry["wall_s"],
                "cpu_s": entry["cpu_s"],
                "count": int(entry["count"]),
            }
            for name, entry in self._phases.items()
        }
        return {"phases": phases, "counters": dict(self._counters)}


def null_phase() -> _NullPhase:
    """A no-op phase timer (used when no recorder is riding the search)."""
    return _NULL_PHASE


# ----------------------------------------------------------------------
# Trace-file analysis (``repro-magma trace summarize``)
# ----------------------------------------------------------------------
def summarize_trace(path_or_records: "str | Iterable[Dict[str, Any]]") -> Dict[str, Any]:
    """Aggregate a trace (file path or record iterable) per span name.

    Returns ``{"spans": {name: {count, total_s, mean_s, max_s, share}},
    "events": {name: {count, level}}, "wall_s": traced wall span,
    "records": total}`` where ``share`` is the family's total time as a
    fraction of the summed *top-level* span time — nested spans are already
    inside their parents, so only parentless spans define the denominator,
    but every family is scored against it (a nested family at 30% means 30%
    of the traced run was spent inside it).
    """
    records = read_trace(path_or_records) if isinstance(path_or_records, str) else path_or_records
    spans: Dict[str, Dict[str, float]] = {}
    events: Dict[str, Dict[str, Any]] = {}
    top_level_total = 0.0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    total = 0
    for record in records:
        total += 1
        if record.get("kind") == "span":
            name = str(record.get("name"))
            duration = float(record.get("dur_s", 0.0))
            entry = spans.setdefault(
                name, {"count": 0.0, "total_s": 0.0, "max_s": 0.0, "top_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += duration
            entry["max_s"] = max(entry["max_s"], duration)
            if record.get("parent") is None:
                entry["top_s"] += duration
                top_level_total += duration
            t0 = float(record.get("t0", 0.0))
            t_min = t0 if t_min is None else min(t_min, t0)
            t_max = t0 + duration if t_max is None else max(t_max, t0 + duration)
        elif record.get("kind") == "event":
            name = str(record.get("name"))
            info = events.setdefault(name, {"count": 0, "level": record.get("level", "info")})
            info["count"] += 1
    span_summary: Dict[str, Any] = {}
    for name, entry in spans.items():
        span_summary[name] = {
            "count": int(entry["count"]),
            "total_s": entry["total_s"],
            "mean_s": entry["total_s"] / entry["count"],
            "max_s": entry["max_s"],
            "share": (entry["total_s"] / top_level_total) if top_level_total else 0.0,
        }
    return {
        "spans": span_summary,
        "events": events,
        "wall_s": (t_max - t_min) if (t_min is not None and t_max is not None) else 0.0,
        "records": total,
    }


def render_trace_summary(summary: Dict[str, Any]) -> str:
    """A fixed-width per-phase timeline table of :func:`summarize_trace`."""
    lines: List[str] = []
    spans: Dict[str, Dict[str, Any]] = summary["spans"]
    lines.append(
        f"trace: {summary['records']} records, "
        f"{len(spans)} span families, traced wall {summary['wall_s']:.3f}s"
    )
    if spans:
        width = max(len(name) for name in spans)
        header = f"{'span':<{width}}  {'count':>7}  {'total_s':>9}  {'mean_ms':>9}  {'max_ms':>9}  {'share':>6}"
        lines.append(header)
        lines.append("-" * len(header))
        ordered = sorted(spans.items(), key=lambda item: -item[1]["total_s"])
        for name, entry in ordered:
            lines.append(
                f"{name:<{width}}  {entry['count']:>7d}  {entry['total_s']:>9.3f}  "
                f"{entry['mean_s'] * 1e3:>9.2f}  {entry['max_s'] * 1e3:>9.2f}  "
                f"{entry['share'] * 100:>5.1f}%"
            )
    if summary["events"]:
        lines.append("")
        lines.append("events:")
        for name, info in sorted(summary["events"].items()):
            lines.append(f"  {name} ({info['level']}): {info['count']}")
    return "\n".join(lines)
