"""Small text-reporting helpers shared by the CLI, examples, and benchmarks."""

from __future__ import annotations

import math
from typing import Container, Iterable, Sequence


def unique_key(name: str, existing: Container[str]) -> str:
    """Return *name*, suffixed ``#2``/``#3``/... if it collides with *existing*.

    Shared by every results-dict builder (``M3E.compare``,
    ``ScenarioRun.by_panel``, ``ComparisonReport.add``) so two optimizers
    with the same display name are reported side by side instead of silently
    overwriting each other — and so the collision policy lives in one place.
    """
    if name not in existing:
        return name
    suffix = 2
    while f"{name}#{suffix}" in existing:
        suffix += 1
    return f"{name}#{suffix}"


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    The paper reports most headline speedups as geometric means across tasks;
    this helper mirrors that aggregation.  Raises ``ValueError`` on empty input
    or non-positive entries.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric_mean() requires at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean() requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render *rows* as a fixed-width ASCII table with *headers*.

    Numbers are formatted compactly; everything else is converted with
    ``str``.  Used by examples and the CLI to print experiment summaries.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            magnitude = abs(cell)
            if magnitude >= 1e5 or magnitude < 1e-3:
                return f"{cell:.3e}"
            return f"{cell:.4g}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * w for w in widths)
    body = [line(headers), separator]
    body.extend(line(row) for row in text_rows)
    return "\n".join(body)


def normalize_by(values: dict[str, float], reference_key: str) -> dict[str, float]:
    """Normalise a mapping of label -> value by the value at *reference_key*.

    Mirrors the paper's figures, where throughputs are normalised by MAGMA's.
    """
    if reference_key not in values:
        raise KeyError(f"reference key {reference_key!r} not present in values")
    reference = values[reference_key]
    if reference == 0:
        raise ValueError("reference value is zero; cannot normalise")
    return {k: v / reference for k, v in values.items()}
