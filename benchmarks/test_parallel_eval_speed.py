"""Perf smoke: the sharded multi-process backend vs the single-process batch sweep.

Evaluates the same 200-individual population through the ``batch`` backend
and through ``parallel`` with warm workers (one lane per CPU: the
coordinator plus the worker processes), records the wall times and
achieved speedup to ``BENCH_parallel_eval.json``, and asserts the sharded
path is at least 2x faster.  Mirrors ``test_batch_eval_speed.py`` /
``BENCH_batch_eval.json``.

Alongside the speedup it records the host's ``ceiling`` — one in-process
call on the whole population over one call on a single lane's shard, the
best speedup the split could reach given the kernel's fixed per-call cost —
and the ``efficiency``, speedup over ceiling.

Sharding a population only buys wall time when shards can run on distinct
cores, so this test skips (with a recorded reason) on single-core runners —
the correctness of the parallel backend is covered by the (machine-agnostic)
equivalence tests in ``tests/core/test_parallel_eval.py``.
"""

from __future__ import annotations

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


def _best_of(callable_, repeats: int = 3, min_seconds: float = 0.5) -> float:
    """Best wall time of at least *repeats* calls spanning at least *min_seconds*.

    The time floor outlasts short-lived competitors for the host's cores.
    The one this bench always meets is multiprocessing's resource tracker:
    the pool starts it on first use, and its interpreter boot (~0.1 s) slows
    concurrent calls up to 2x.  A fixed count of ~10 ms calls can fall
    wholly inside that window, so the reading would depend on whether an
    earlier test in the session had already started the tracker.
    """
    best = float("inf")
    calls = 0
    deadline = time.perf_counter() + min_seconds
    while calls < repeats or time.perf_counter() < deadline:
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
        calls += 1
    return best


def test_parallel_backend_at_least_2x_faster(report_lines, write_bench_result):
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        reason = (
            f"parallel speedup needs >=2 CPU cores, runner has {cpu_count}; "
            "sharded workers would timeshare one core"
        )
        write_bench_result(RESULT_FILE, {
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

        # The worker pool stays warm between timed calls, exactly as it
        # would across the generations of a real search.
        batch_seconds = _best_of(lambda: batch.evaluate_population(population, count_samples=False))
        parallel_seconds = _best_of(
            lambda: parallel.evaluate_population(population, count_samples=False)
        )
    finally:
        parallel.close()
    speedup = batch_seconds / parallel_seconds
    shard = population[: -(-POPULATION_SIZE // num_workers)]
    ceiling = _best_of(lambda: batch._rig.fitnesses_for_rows(population)) / _best_of(
        lambda: batch._rig.fitnesses_for_rows(shard)
    )

    write_bench_result(RESULT_FILE, {
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
        "ceiling": ceiling,
        "efficiency": speedup / ceiling,
        "min_required_speedup": MIN_SPEEDUP,
    })
    report_lines.append(
        f"parallel-eval speedup: {speedup:.1f}x with {num_workers} lanes "
        f"(batch {batch_seconds*1e3:.1f} ms vs parallel {parallel_seconds*1e3:.1f} ms, "
        f"{POPULATION_SIZE} individuals; ceiling {ceiling:.2f}x, "
        f"efficiency {speedup / ceiling:.2f})"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"parallel backend only {speedup:.2f}x faster than batch "
        f"({batch_seconds:.4f}s vs {parallel_seconds:.4f}s) with {num_workers} "
        f"lanes; expected >= {MIN_SPEEDUP}x"
    )
