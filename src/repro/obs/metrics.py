"""Metrics registry: counters/gauges/histograms with Prometheus exposition.

A process-local :class:`MetricsRegistry` (reached via :func:`get_metrics`)
holds every metric the engine emits — evaluations per backend, kernel
row-events, store hit counts, shard dispatch and worker deaths,
service queue depth, store-transport bytes on the wire.  The full
catalogue (names, types, label sets) lives in docs/OBSERVABILITY.md.

Metrics are always on: one lock-guarded float update per *generation*,
*chunk*, or *request* — never per row — so the hot paths stay hot (the
``BENCH_obs_overhead.json`` floor bounds the total at <5% of the batch
sweep).  Like the tracer, metrics observe and never steer: no metric value
feeds a seed, a fingerprint, or a control-flow decision.

:func:`render_prometheus` renders the registry in the Prometheus text
exposition format (version 0.0.4) for the HTTP frontend's ``GET /metrics``
and the ``repro-magma metrics`` CLI dump.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Prometheus metric/label name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds): micro-benchmark to slow-search range.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: Sorted (key, value) label pairs — the identity of one labelled series.
LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    pairs = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid metric label name {key!r}")
        pairs.append((key, str(labels[key])))
    return tuple(pairs)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value (one labelled series)."""

    metric_type = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> None:  # acquires-lock: _lock
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:  # acquires-lock: _lock
        with self._lock:
            return self._value

    def _samples(self, name: str, pairs: LabelPairs) -> List[Tuple[str, LabelPairs, float]]:
        return [(name, pairs, self.value)]


class Gauge:
    """A value that can go up and down (one labelled series)."""

    metric_type = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:  # acquires-lock: _lock
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:  # acquires-lock: _lock
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:  # acquires-lock: _lock
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:  # acquires-lock: _lock
        with self._lock:
            return self._value

    def _samples(self, name: str, pairs: LabelPairs) -> List[Tuple[str, LabelPairs, float]]:
        return [(name, pairs, self.value)]


class Histogram:
    """A distribution of observations over fixed cumulative buckets."""

    metric_type = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._lock = threading.Lock()
        self._bucket_counts = [0] * len(bounds)  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock

    def observe(self, value: float) -> None:  # acquires-lock: _lock
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    # Per-bucket counts; snapshot() renders them cumulatively.
                    self._bucket_counts[index] += 1
                    break

    def snapshot(self) -> Dict[str, Any]:  # acquires-lock: _lock
        """Cumulative bucket counts plus sum/count, as one consistent view."""
        with self._lock:
            counts = list(self._bucket_counts)
            total, count = self._sum, self._count
        cumulative: List[int] = []
        running = 0
        for bucket in counts:
            running += bucket
            cumulative.append(running)
        return {"bounds": self.bounds, "cumulative": cumulative, "sum": total, "count": count}

    @property
    def count(self) -> int:
        return int(self.snapshot()["count"])

    @property
    def sum(self) -> float:
        return float(self.snapshot()["sum"])

    def _samples(self, name: str, pairs: LabelPairs) -> List[Tuple[str, LabelPairs, float]]:
        snap = self.snapshot()
        samples: List[Tuple[str, LabelPairs, float]] = []
        for bound, cumulative in zip(snap["bounds"], snap["cumulative"]):
            le = pairs + (("le", _format_value(bound)),)
            samples.append((f"{name}_bucket", le, float(cumulative)))
        samples.append((f"{name}_bucket", pairs + (("le", "+Inf"),), float(snap["count"])))
        samples.append((f"{name}_sum", pairs, float(snap["sum"])))
        samples.append((f"{name}_count", pairs, float(snap["count"])))
        return samples


#: One metric family: shared name/help/type, one child per label set.
class _Family:
    def __init__(self, name: str, help_text: str, metric_type: str) -> None:
        self.name = name
        self.help = help_text
        self.metric_type = metric_type
        self.children: "Dict[LabelPairs, Counter | Gauge | Histogram]" = {}


class MetricsRegistry:
    """Process-local registry of metric families, keyed by name + labels.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the family's type and help text, later calls return the existing
    series (a type mismatch fails loudly — one name, one type).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    def counter(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        metric = self._series(name, help_text, "counter", labels, lambda: Counter())
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        metric = self._series(name, help_text, "gauge", labels, lambda: Gauge())
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._series(name, help_text, "histogram", labels, lambda: Histogram(buckets))
        assert isinstance(metric, Histogram)
        return metric

    def _series(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labels: Optional[Dict[str, str]],
        build: Any,
    ) -> "Counter | Gauge | Histogram":  # acquires-lock: _lock
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        pairs = _label_pairs(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help_text, metric_type)
                self._families[name] = family
            elif family.metric_type != metric_type:
                raise ValueError(
                    f"metric {name!r} is a {family.metric_type}, not a {metric_type}"
                )
            if help_text and not family.help:
                family.help = help_text
            series = family.children.get(pairs)
            if series is None:
                series = build()
                family.children[pairs] = series
            return series

    # ------------------------------------------------------------------
    def value_of(self, name: str, labels: Optional[Dict[str, str]] = None) -> float:
        """Current value of one counter/gauge series (0.0 when absent)."""
        pairs = _label_pairs(labels)
        with self._lock:
            family = self._families.get(name)
            series = family.children.get(pairs) if family is not None else None
        if series is None or isinstance(series, Histogram):
            return 0.0
        return float(series.value)

    def _family_view(self) -> "List[Tuple[_Family, List[Tuple[LabelPairs, Any]]]]":
        """Consistent (family, sorted children) snapshot taken under the lock."""
        with self._lock:
            return [
                (family, sorted(family.children.items()))
                for family in sorted(self._families.values(), key=lambda f: f.name)
            ]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every series (the CLI/healthz form)."""
        dump: Dict[str, Any] = {}
        for family, children in self._family_view():
            series_list = []
            for pairs, series in children:
                entry: Dict[str, Any] = {"labels": dict(pairs)}
                if isinstance(series, Histogram):
                    entry.update(series.snapshot())
                    entry["bounds"] = list(entry["bounds"])
                else:
                    entry["value"] = series.value
                series_list.append(entry)
            dump[family.name] = {
                "type": family.metric_type,
                "help": family.help,
                "series": series_list,
            }
        return dump

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: List[str] = []
        for family, children in self._family_view():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.metric_type}")
            for pairs, series in children:
                for sample_name, sample_pairs, value in series._samples(family.name, pairs):
                    if sample_pairs:
                        rendered = ",".join(
                            f'{key}="{_escape_label_value(val)}"' for key, val in sample_pairs
                        )
                        lines.append(f"{sample_name}{{{rendered}}} {_format_value(value)}")
                    else:
                        lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:  # acquires-lock: _lock
        """Drop every family (tests isolate themselves with this)."""
        with self._lock:
            self._families.clear()


#: The process-local registry every instrumented layer shares.
_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-local metrics registry."""
    return _REGISTRY


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Prometheus text form of *registry* (default: the process registry)."""
    return (registry if registry is not None else _REGISTRY).render()
