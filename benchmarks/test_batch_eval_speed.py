"""Perf smoke: the batch evaluation backend vs the scalar reference oracle.

Evaluates the same 100-individual population through both backends, records
the wall times (and the achieved speedup) to ``BENCH_batch_eval.json``, and
asserts the vectorized batch path is at least 10x faster.  This is a
regression guard for the hot path of every population-based optimizer, not a
statistically rigorous benchmark.  The floor was raised from 3x after the
kernel raw-speed pass (docs/PERFORMANCE.md): the dev-box measurement is
~29x, so 10x still leaves ~3x headroom for slower shared runners while a
regression to the pre-optimization kernel would trip it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.workloads import TaskType, build_task_workload

#: Minimum accepted batch-vs-scalar speedup on a 100-individual population.
MIN_SPEEDUP = 10.0

POPULATION_SIZE = 100
GROUP_SIZE = 20
SETTING = "S2"
BANDWIDTH_GBPS = 16.0


def _best_of(callable_, repeats: int = 3) -> float:
    """Best-of-N wall time, the usual cheap noise guard for smoke perf tests."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_backend_at_least_3x_faster(report_lines, write_bench_result):
    platform = build_setting(SETTING, BANDWIDTH_GBPS)
    group = build_task_workload(
        TaskType.MIX,
        group_size=GROUP_SIZE,
        seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    scalar = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="scalar"))
    batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    population = scalar.codec.random_population(POPULATION_SIZE, rng=0)

    # Warm up both paths (imports, allocator state) outside the timed region,
    # and verify equivalence before timing anything.
    warm_scalar = scalar.evaluate_population(population, count_samples=False)
    warm_batch = batch.evaluate_population(population, count_samples=False)
    assert np.array_equal(warm_scalar, warm_batch)

    scalar_seconds = _best_of(
        lambda: scalar.evaluate_population(population, count_samples=False)
    )
    batch_seconds = _best_of(lambda: batch.evaluate_population(population, count_samples=False))
    speedup = scalar_seconds / batch_seconds

    record = {
        "setting": SETTING,
        "bandwidth_gbps": BANDWIDTH_GBPS,
        "group_size": GROUP_SIZE,
        "population_size": POPULATION_SIZE,
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
    }
    write_bench_result("BENCH_batch_eval.json", record)
    report_lines.append(
        f"batch-eval speedup: {speedup:.1f}x "
        f"(scalar {scalar_seconds*1e3:.1f} ms vs batch {batch_seconds*1e3:.1f} ms, "
        f"{POPULATION_SIZE} individuals)"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batch backend only {speedup:.2f}x faster than scalar "
        f"({scalar_seconds:.4f}s vs {batch_seconds:.4f}s); expected >= {MIN_SPEEDUP}x"
    )
