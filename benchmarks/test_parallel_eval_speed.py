"""Perf smoke: the sharded multi-process backend vs the single-process batch sweep.

Evaluates the same 200-individual population through the ``batch`` backend
and through ``parallel`` with a warm worker pool, records the wall times and
achieved speedup to ``BENCH_parallel_eval.json``, and asserts the sharded
path is at least 2x faster.  Mirrors ``test_batch_eval_speed.py`` /
``BENCH_batch_eval.json``.

Sharding a population only buys wall time when shards can run on distinct
cores, so this test skips (with a recorded reason) on single-core runners —
the correctness of the parallel backend is covered by the (machine-agnostic)
equivalence tests in ``tests/core/test_parallel_eval.py``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.workloads import TaskType, build_task_workload

#: Minimum accepted parallel-vs-batch speedup on a 200-individual population.
MIN_SPEEDUP = 2.0

POPULATION_SIZE = 200
GROUP_SIZE = 200
SETTING = "S6"  # 16 cores: wide per-event state, the shard-friendly regime
BANDWIDTH_GBPS = 256.0
RESULT_FILE = "BENCH_parallel_eval.json"


def _record(payload: dict) -> None:
    with open(RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _best_of(callable_, repeats: int = 3) -> float:
    """Best-of-N wall time, the usual cheap noise guard for smoke perf tests."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_parallel_backend_at_least_2x_faster(report_lines):
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        reason = (
            f"parallel speedup needs >=2 CPU cores, runner has {cpu_count}; "
            "sharded workers would timeshare one core"
        )
        _record({
            "setting": SETTING,
            "bandwidth_gbps": BANDWIDTH_GBPS,
            "group_size": GROUP_SIZE,
            "population_size": POPULATION_SIZE,
            "cpu_count": cpu_count,
            "status": "skipped",
            "skip_reason": reason,
            "min_required_speedup": MIN_SPEEDUP,
        })
        report_lines.append(f"parallel-eval speedup: skipped ({reason})")
        pytest.skip(reason)

    num_workers = min(cpu_count, 8)
    platform = build_setting(SETTING, BANDWIDTH_GBPS)
    group = build_task_workload(
        TaskType.MIX,
        group_size=GROUP_SIZE,
        seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    parallel = MappingEvaluator(
        group, platform, analysis_table=batch.table,
        eval_config=EvalConfig(backend="parallel", workers=num_workers),
    )
    population = batch.codec.random_population(POPULATION_SIZE, rng=0)

    try:
        # Warm both paths (imports, allocator state, worker bootstrap) outside
        # the timed region, and verify bitwise equivalence before timing.
        parallel._pool.warm_up()
        warm_batch = batch.evaluate_population(population, count_samples=False)
        warm_parallel = parallel.evaluate_population(population, count_samples=False)
        assert np.array_equal(warm_batch, warm_parallel)

        # Clear the memo cache before every timed run so the simulation cost
        # (not a cache hit) is what gets measured; the worker pool stays warm,
        # exactly as it would across the generations of a real search.
        def run_batch():
            batch._fitness_cache.clear()
            batch.evaluate_population(population, count_samples=False)

        def run_parallel():
            parallel._fitness_cache.clear()
            parallel.evaluate_population(population, count_samples=False)

        batch_seconds = _best_of(run_batch)
        parallel_seconds = _best_of(run_parallel)
    finally:
        parallel.close()
    speedup = batch_seconds / parallel_seconds

    _record({
        "setting": SETTING,
        "bandwidth_gbps": BANDWIDTH_GBPS,
        "group_size": GROUP_SIZE,
        "population_size": POPULATION_SIZE,
        "cpu_count": cpu_count,
        "num_workers": num_workers,
        "status": "measured",
        "batch_seconds": batch_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
    })
    report_lines.append(
        f"parallel-eval speedup: {speedup:.1f}x with {num_workers} workers "
        f"(batch {batch_seconds*1e3:.1f} ms vs parallel {parallel_seconds*1e3:.1f} ms, "
        f"{POPULATION_SIZE} individuals)"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"parallel backend only {speedup:.2f}x faster than batch "
        f"({batch_seconds:.4f}s vs {parallel_seconds:.4f}s) with {num_workers} "
        f"workers; expected >= {MIN_SPEEDUP}x"
    )
