"""Seed-replicate statistics for campaign results.

The paper's headline numbers compare *stochastic* optimizers, so a single
seed per cell is an anecdote, not a measurement.  This module turns
seed-replicated campaign cells — the same ``(panel, method, objective,
budget, ...)`` work run under several seeds — into aggregate statistics:

* per-cell **mean ± std** (plus min/max) of every scalar result metric, and
* **cross-seed agreement**: for each ``(panel, objective)`` comparison, the
  fraction of seeds on which the modal winning method actually won.

The aggregation policy follows the seed-repeat scheme of the sentiment-
replication exemplar (group by everything-but-seed, report mean ± std and a
stability score) rather than inventing a new one.  Everything here operates
on plain ``(cell dict, result dict)`` pairs, so it works identically on
in-memory :class:`~repro.core.framework.SearchResult` runs and on records
read back from a :class:`~repro.experiments.campaign.CampaignResultsStore` —
which is what lets ``repro-magma campaign --seeds N`` print the same tables
an interrupted-and-resumed campaign reproduces byte-identically.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.tables import format_table

#: Scalar result metrics aggregated across seed replicates.
REPLICATE_METRICS = ("throughput_gflops", "best_fitness", "objective_value", "samples_used")

#: Cell keys that identify a replicate *group* — everything except the seed.
#: (``seed`` is the replicate axis; the labels stay so tables can name rows.)
_REPLICATE_AXIS = "seed"


@dataclass(frozen=True)
class MetricStats:
    """Mean ± std (and range) of one metric across seed replicates."""

    count: int
    mean: float
    std: float
    min: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricStats":
        """Aggregate raw per-seed values (sample std, ``ddof=1``; 0 for n=1)."""
        if not values:
            raise ValueError("cannot aggregate an empty value list")
        floats = [float(v) for v in values]
        n = len(floats)
        mean = sum(floats) / n
        if n > 1:
            std = math.sqrt(sum((v - mean) ** 2 for v in floats) / (n - 1))
        else:
            std = 0.0
        return cls(count=n, mean=mean, std=std, min=min(floats), max=max(floats))

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready form."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }

    def format(self) -> str:
        """Human form: ``mean ± std``."""
        return f"{self.mean:.4g} ± {self.std:.3g}"


@dataclass
class ReplicateAggregate:
    """One replicate group: a cell identity plus its cross-seed statistics."""

    cell: Dict[str, Any]
    seeds: List[int]
    metrics: Dict[str, MetricStats]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "cell": dict(self.cell),
            "seeds": list(self.seeds),
            "metrics": {name: stats.to_dict() for name, stats in self.metrics.items()},
        }


def replicate_key(cell: Dict[str, Any]) -> str:
    """Canonical identity of a cell's replicate group (the cell minus its seed)."""
    payload = {k: v for k, v in cell.items() if k != _REPLICATE_AXIS}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def aggregate_cells(
    rows: Iterable[Tuple[Dict[str, Any], Dict[str, Any]]],
    metrics: Sequence[str] = REPLICATE_METRICS,
) -> List[ReplicateAggregate]:
    """Group ``(cell, result)`` pairs by everything-but-seed and aggregate.

    Rows whose result lacks a metric (custom scenarios) skip that metric;
    groups appear in first-seen order, seeds sorted within each group.
    """
    grouped: "OrderedDict[str, Tuple[Dict[str, Any], List[Tuple[int, Dict[str, Any]]]]]" = OrderedDict()
    for cell, result in rows:
        key = replicate_key(cell)
        if key not in grouped:
            identity = {k: v for k, v in cell.items() if k != _REPLICATE_AXIS}
            grouped[key] = (identity, [])
        grouped[key][1].append((int(cell.get(_REPLICATE_AXIS, 0)), result))

    aggregates: List[ReplicateAggregate] = []
    for identity, members in grouped.values():
        members.sort(key=lambda pair: pair[0])
        seeds = [seed for seed, _ in members]
        stats: Dict[str, MetricStats] = {}
        for metric in metrics:
            values = [result[metric] for _, result in members if metric in result]
            if values:
                stats[metric] = MetricStats.from_values(values)
        aggregates.append(ReplicateAggregate(cell=identity, seeds=seeds, metrics=stats))
    return aggregates


def cross_seed_agreement(
    rows: Iterable[Tuple[Dict[str, Any], Dict[str, Any]]],
    metric: str = "throughput_gflops",
) -> Dict[str, Dict[str, Any]]:
    """Winner stability of each ``(panel, objective)`` comparison across seeds.

    For every seed the winning method is the one maximising *metric*; the
    comparison's ``agreement`` is the fraction of seeds whose winner is the
    modal winner (1.0 = every seed picks the same method).  Comparisons with
    a single method are trivially stable and still reported.
    """
    # (panel, objective) -> seed -> [(method, value)]
    contests: "OrderedDict[Tuple[str, str], Dict[int, List[Tuple[str, float]]]]" = OrderedDict()
    for cell, result in rows:
        if metric not in result:
            continue
        key = (str(cell.get("panel", "")), str(cell.get("objective", "")))
        seed = int(cell.get(_REPLICATE_AXIS, 0))
        contests.setdefault(key, {}).setdefault(seed, []).append(
            (str(cell.get("method", "")), float(result[metric]))
        )

    agreement: Dict[str, Dict[str, Any]] = {}
    for (panel, objective), by_seed in contests.items():
        per_seed_winner = {
            seed: max(entries, key=lambda pair: pair[1])[0]
            for seed, entries in sorted(by_seed.items())
        }
        tally: Dict[str, int] = {}
        for winner in per_seed_winner.values():
            tally[winner] = tally.get(winner, 0) + 1
        modal = max(tally, key=lambda method: (tally[method], method))
        agreement[f"{panel}/{objective}"] = {
            "panel": panel,
            "objective": objective,
            "winner": modal,
            "agreement": tally[modal] / len(per_seed_winner),
            "num_seeds": len(per_seed_winner),
            "per_seed_winner": {str(seed): w for seed, w in per_seed_winner.items()},
        }
    return agreement


def rows_from_run(cells: Sequence[Any], results: Sequence[Any]) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """``(cell dict, metric dict)`` pairs from an in-memory scenario run."""
    rows = []
    for cell, result in zip(cells, results):
        rows.append((
            cell.to_dict(),
            {
                "throughput_gflops": float(result.throughput_gflops),
                "best_fitness": float(result.best_fitness),
                "objective_value": float(result.objective_value),
                "samples_used": int(result.samples_used),
            },
        ))
    return rows


def rows_from_store(store: Any) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """``(cell, result)`` pairs from a campaign results store (or its path).

    Custom-scenario records (whose payload is an opaque ``output`` dict, not
    per-cell metrics) are skipped — they have no seed-replicate semantics.
    """
    from repro.experiments.campaign import CampaignResultsStore

    owns_store = isinstance(store, str)
    if owns_store:
        # Any store address; closed again before returning.
        store = CampaignResultsStore(store)
    try:
        rows = []
        for record in store.records():
            cell = record.get("cell") or {}
            result = record.get("result") or {}
            if cell.get("custom") or "output" in result:
                continue
            rows.append((cell, result))
        return rows
    finally:
        if owns_store:
            store.close()


def replicate_summary(
    rows: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]],
    metrics: Sequence[str] = REPLICATE_METRICS,
) -> Dict[str, Any]:
    """The full seed-replicate report for a set of ``(cell, result)`` rows."""
    aggregates = aggregate_cells(rows, metrics=metrics)
    return {
        "replicates": [aggregate.to_dict() for aggregate in aggregates],
        "cross_seed_agreement": cross_seed_agreement(rows),
        "num_cells": len(rows),
        "num_groups": len(aggregates),
    }


def replicate_table(
    aggregates: Sequence[ReplicateAggregate],
    metric: str = "throughput_gflops",
    title: Optional[str] = None,
) -> str:
    """ASCII table of per-group uncertainty columns for one metric."""
    headers = ["panel", "method", "objective", "seeds", "mean", "std", "min", "max"]
    rows = []
    for aggregate in aggregates:
        stats = aggregate.metrics.get(metric)
        if stats is None:
            continue
        cell = aggregate.cell
        rows.append([
            cell.get("panel", ""),
            cell.get("method", ""),
            cell.get("objective", ""),
            stats.count,
            stats.mean,
            stats.std,
            stats.min,
            stats.max,
        ])
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table
