"""Which public entry point of the program belongs to which layer.

The benchmark records spans from its own files: :func:`installed` swaps each
listed entry point for a recording wrapper for the length of a ``with``
block and puts the original back afterwards, so untraced runs execute the
program unmodified.  :func:`layer_metrics` turns the recorded spans and the
program's own counters (``repro.obs`` registry, read in process or scraped
from ``/metrics``) into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
import re
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from harness import Span, SpanRecorder, self_times, total_times

#: ``(module, class or None for a module function, attribute, span name)``.
Target = Tuple[str, Optional[str], str, str]

#: The search stack, outermost first.
SEARCH_TARGETS: Tuple[Target, ...] = (
    ("repro.core.framework", "M3E", "search", "m3e.search"),
    ("repro.optimizers.magma", "MagmaOptimizer", "optimize", "optimizers.optimize"),
    ("repro.core.evaluator", "MappingEvaluator", "evaluate_population", "evaluator.evaluate_population"),
    ("repro.core.evaluator", "MappingEvaluator", "detailed_evaluation", "m3e.finalize"),
    ("repro.core.evaluator", "MappingEvaluator", "schedule_for", "m3e.finalize"),
    ("repro.core.encoding", "MappingCodec", "repair_batch", "codec.repair"),
    ("repro.core.encoding", "MappingCodec", "decode_batch", "codec.decode"),
    ("repro.core.bw_allocator", "BatchBandwidthAllocator", "makespan_cycles", "kernel.sweep"),
    ("repro.core.parallel", "ParallelEvaluationPool", "evaluate", "fleet.evaluate"),
    ("repro.core.analyzer", "JobAnalyzer", "analyze", "analyzer.analyze"),
    ("repro.workloads.benchmark", None, "build_task_workload", "workloads.build"),
    # The campaign engine (which the service builds groups through) imported
    # the function by name, so its reference is patched separately.
    ("repro.experiments.campaign", None, "build_task_workload", "workloads.build"),
)

#: MAGMA's per-child operators: counted, not spanned (tens of thousands of
#: calls per search would make span overhead a layer of its own).
OPERATOR_TARGETS: Tuple[Target, ...] = tuple(
    ("repro.optimizers.operators", None, name, "optimizers.operator_calls")
    for name in ("mutate", "crossover_gen", "crossover_rg", "crossover_accel")
)

#: The mapping server: HTTP frontend, service, solution store.
SERVICE_TARGETS: Tuple[Target, ...] = (
    ("repro.service.httpd", "MappingServiceHTTPServer", "finish_request", "httpd.request"),
    ("repro.service.service", "MappingService", "submit", "service.submit"),
    ("repro.service.service", "MappingService", "_execute", "service.job"),
    ("repro.service.store", "SolutionStore", "lookup_result", "store.lookup"),
    ("repro.service.store", "SolutionStore", "append", "store.append"),
    ("repro.service.store", "SolutionStore", "best_by_fingerprint", "store.index_load"),
)

_ABSENT = object()


@contextmanager
def installed(
    targets: Sequence[Target], wrapper: Callable[[str, Callable[..., Any]], Callable[..., Any]]
) -> Iterator[None]:
    """Replace each target with ``wrapper(span_name, original)`` inside the block."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, owner_name, attr, name in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            own = vars(owner).get(attr, _ABSENT)
            original = getattr(owner, attr) if own is _ABSENT else own
            setattr(owner, attr, wrapper(name, original))
            undo.append((owner, attr, own))
        yield
    finally:
        for owner, attr, own in reversed(undo):
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


@contextmanager
def traced_layers(recorder: SpanRecorder, service: bool = False) -> Iterator[None]:
    """Every layer wrapper of the search stack (and the server's, if asked)."""
    with ExitStack() as stack:
        stack.enter_context(installed(SEARCH_TARGETS, recorder.wrap))
        stack.enter_context(installed(OPERATOR_TARGETS, recorder.counting))
        if service:
            stack.enter_context(installed(SERVICE_TARGETS, recorder.wrap))
        yield


# ----------------------------------------------------------------------
# Counters from the program's own registry
# ----------------------------------------------------------------------
#: Per-layer count -> (registry series, labels).
COUNTERS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "memo.hits": ("repro_memo_hits_total", {}),
    "memo.misses": ("repro_memo_misses_total", {}),
    "kernel.row_events": ("repro_kernel_row_events_total", {}),
    "fleet.chunks": ("repro_chunks_dispatched_total", {"backend": "parallel"}),
    "fleet.fallback_chunks": ("repro_local_fallback_chunks_total", {"backend": "parallel"}),
    "fleet.worker_deaths": ("repro_worker_deaths_total", {"backend": "parallel"}),
    "store.ops.lookup": ("repro_store_ops_total", {"backend": "sqlite", "op": "lookup"}),
    "store.ops.append": ("repro_store_ops_total", {"backend": "sqlite", "op": "append"}),
    # A histogram's running sum: only a /metrics scrape exposes it.
    "service.queue_wait_s": ("repro_service_queue_wait_seconds_sum", {}),
}

ValueOf = Callable[[str, Dict[str, str]], float]


def read_counters(value_of: ValueOf) -> Dict[str, float]:
    return {name: value_of(series, labels) for name, (series, labels) in COUNTERS.items()}


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in COUNTERS}


_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> ValueOf:
    """A ``value_of`` reader over one Prometheus text exposition scrape."""
    samples: Dict[Tuple[str, FrozenSet[Tuple[str, str]]], float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None or line.startswith("#"):
            continue
        name, labels, value = match.groups()
        samples[(name, frozenset(_LABEL.findall(labels or "")))] = float(value)

    def value_of(series: str, labels: Dict[str, str]) -> float:
        return samples.get((series, frozenset(labels.items())), 0.0)

    return value_of


# ----------------------------------------------------------------------
# Spans across a process boundary (the traced server writes, we read)
# ----------------------------------------------------------------------
def dump_spans(recorder: SpanRecorder, path: str) -> None:
    index = {id(span): slot for slot, span in enumerate(recorder.spans)}
    rows = [
        [span.name, span.start, span.end, index.get(id(span.parent), -1)]
        for span in recorder.spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": rows, "counts": recorder.counts}, handle)


def load_spans(path: str) -> Tuple[List[Span], Dict[str, int]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    spans = [Span(name=name, start=start, end=end) for name, start, end, _ in data["spans"]]
    for span, (_, _, _, parent) in zip(spans, data["spans"]):
        if parent >= 0:
            span.parent = spans[parent]
    return spans, data["counts"]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer self-time metric -> the span whose self time it reports.
SELF_TIME_METRICS: Dict[str, str] = {
    "optimizers.self_s": "optimizers.optimize",
    "evaluator.self_s": "evaluator.evaluate_population",
    "codec.repair_s": "codec.repair",
    "codec.decode_s": "codec.decode",
    "kernel.s": "kernel.sweep",
    "fleet.evaluate_s": "fleet.evaluate",
    "m3e.self_s": "m3e.search",
    "m3e.finalize_s": "m3e.finalize",
    "analyzer.build_s": "analyzer.analyze",
    "workloads.build_s": "workloads.build",
    "httpd.self_s": "httpd.request",
    "service.submit_s": "service.submit",
    "store.lookup_s": "store.lookup",
    "store.append_s": "store.append",
    "store.index_load_s": "store.index_load",
}


def layer_metrics(
    spans: Sequence[Span], counts: Dict[str, float], operator_calls: float
) -> Dict[str, float]:
    """Per-layer times (self seconds) and counts of one traced window.

    ``counts`` is the window's :func:`counter_delta`.  The ledger fields
    (``unattributed_share``, ``trace.*``) and the HTTP client-side figures
    are the caller's: only it knows the wall clock it measured.
    """
    own = self_times(spans)
    metrics = {metric: own.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
    # The whole miss job as the server ran it (its search layers are also
    # reported on their own lines).
    metrics["service.search_s"] = total_times(spans).get("service.job", 0.0)
    for name in ("memo.misses", "kernel.row_events", "fleet.chunks", "fleet.fallback_chunks",
                 "fleet.worker_deaths", "store.ops.lookup", "store.ops.append",
                 "service.queue_wait_s"):
        metrics[name] = counts[name]
    lookups = counts["memo.hits"] + counts["memo.misses"]
    metrics["memo.hit_ratio"] = counts["memo.hits"] / lookups if lookups else 0.0
    # On the fleet the sweep runs in worker processes the benchmark cannot
    # trace, so the rate is rows per second of sweeping *or waiting for* it.
    simulating = metrics["kernel.s"] + metrics["fleet.evaluate_s"]
    metrics["kernel.row_events_per_s"] = counts["kernel.row_events"] / simulating if simulating else 0.0
    metrics["optimizers.operator_calls"] = float(operator_calls)
    return metrics


def attributed_seconds(spans: Sequence[Span]) -> float:
    """Seconds covered by some span: the sum of every span's self time."""
    return sum(self_times(spans).values())
