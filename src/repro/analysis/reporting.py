"""Comparison reporting: normalised throughputs and geomean speedups.

The paper reports every main figure as throughput normalised by MAGMA's and
summarises the headline results as geometric-mean speedups of MAGMA over the
other methods.  This module computes both from a dictionary of search
results so figures, examples, the CLI, and EXPERIMENTS.md all derive their
numbers the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.framework import SearchResult
from repro.exceptions import ExperimentError
from repro.utils.tables import format_table, geometric_mean, unique_key


def normalized_throughputs(
    results: Mapping[str, SearchResult],
    reference: str = "MAGMA",
) -> Dict[str, float]:
    """Throughput of each method divided by the reference method's throughput."""
    if reference not in results:
        raise ExperimentError(f"reference method {reference!r} missing from results")
    reference_value = results[reference].throughput_gflops
    if reference_value <= 0:
        raise ExperimentError("reference throughput is non-positive; cannot normalise")
    return {name: result.throughput_gflops / reference_value for name, result in results.items()}


def normalized_values_with_reference(
    values: Mapping[str, float],
    preferred: str = "MAGMA",
) -> tuple[Dict[str, float], str]:
    """Per-method values divided by a reference method's, plus that reference.

    Falls back to the best method when *preferred* is absent from *values*
    (e.g. a figure re-run with ``methods=`` that excludes MAGMA), instead of
    raising.  Returns ``(normalized, reference_used)`` so callers can record
    which method each panel was normalised against.
    """
    if not values:
        raise ExperimentError("cannot normalise an empty values mapping")
    reference = preferred if preferred in values else max(values, key=lambda name: values[name])
    reference_value = float(values[reference])
    if reference_value <= 0:
        raise ExperimentError("reference throughput is non-positive; cannot normalise")
    return {name: float(value) / reference_value for name, value in values.items()}, reference


def speedup_summary(
    per_task_results: Mapping[str, Mapping[str, SearchResult]],
    reference: str = "MAGMA",
) -> Dict[str, float]:
    """Geometric-mean speedup of the reference method over each other method.

    ``per_task_results`` maps a task label (e.g. ``"vision"``) to that task's
    per-method results.  The return value maps every non-reference method to
    ``geomean_over_tasks(reference_throughput / method_throughput)`` — the
    aggregation behind statements like "MAGMA is 1.4x better than Herald".
    """
    speedups: Dict[str, List[float]] = {}
    for task, results in per_task_results.items():
        if reference not in results:
            raise ExperimentError(f"reference {reference!r} missing for task {task!r}")
        reference_value = results[reference].throughput_gflops
        for method, result in results.items():
            if method == reference:
                continue
            value = result.throughput_gflops
            ratio = reference_value / value if value > 0 else float("inf")
            speedups.setdefault(method, []).append(ratio)
    summary: Dict[str, float] = {}
    for method, ratios in speedups.items():
        finite = [r for r in ratios if r != float("inf")]
        summary[method] = geometric_mean(finite) if finite else float("inf")
    return summary


@dataclass
class ComparisonReport:
    """Tabular report of one multi-method comparison (one figure panel)."""

    title: str
    results: Dict[str, SearchResult] = field(default_factory=dict)
    reference: str = "MAGMA"

    def add(self, result: SearchResult, name: Optional[str] = None) -> None:
        """Add one method's search result.

        ``name`` overrides the row label (callers holding an
        already-deduplicated results dict pass its key); otherwise the
        optimizer's display name is used, suffixed if it would collide with a
        row already in the report.
        """
        label = name if name is not None else result.optimizer_name
        self.results[unique_key(label, self.results)] = result

    @property
    def best_method(self) -> Optional[str]:
        """Method with the highest throughput, or ``None`` if empty."""
        if not self.results:
            return None
        return max(self.results, key=lambda name: self.results[name].throughput_gflops)

    def normalized(self) -> Dict[str, float]:
        """Normalised throughputs relative to the reference method."""
        return normalized_throughputs(self.results, self.reference)

    def to_rows(self) -> List[List[object]]:
        """Rows of (method, GFLOP/s, normalised, samples) for tabular output."""
        normalised = self.normalized() if self.reference in self.results else {}
        rows: List[List[object]] = []
        for name, result in self.results.items():
            rows.append(
                [
                    name,
                    result.throughput_gflops,
                    normalised.get(name, float("nan")),
                    result.samples_used,
                ]
            )
        rows.sort(key=lambda row: row[1], reverse=True)
        return rows

    def to_text(self) -> str:
        """Render the report as an ASCII table."""
        table = format_table(
            headers=["method", "throughput (GFLOP/s)", f"norm. vs {self.reference}", "samples"],
            rows=self.to_rows(),
        )
        return f"{self.title}\n{table}"
