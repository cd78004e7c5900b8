"""Perf smoke: the sharded multi-process backend vs the single-process batch sweep.

Evaluates the same population through the ``batch`` backend and through
``parallel`` with warm workers (one lane per CPU: the coordinator plus the
worker processes), at 200 rows and at 80 (the population a search
evaluates per generation), and records the wall times to
``BENCH_parallel_eval.json``.  Mirrors ``test_batch_eval_speed.py`` /
``BENCH_batch_eval.json``.

The gate is each size's ``efficiency``: the measured ``speedup`` over the
host's ``ceiling``, which is one in-process call on the whole population
over one call on a single lane's shard — the best speedup the split could
reach given the kernel's fixed per-call cost.  A 2-lane split cannot reach
a fixed 2.0x on a host where the ceiling itself is under 2
(docs/PERFORMANCE.md, "The efficiency gate"), so the floor is on the share of the
ceiling the pool delivers; the bench also asserts that parallel beats
batch at 200 rows.

Sharding a population only buys wall time when shards can run on distinct
cores, so this test skips (with a recorded reason) on single-core runners —
the correctness of the parallel backend is covered by the (machine-agnostic)
equivalence tests in ``tests/core/test_parallel_eval.py``.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.workloads import TaskType, build_task_workload

#: Minimum accepted efficiency (speedup / ceiling) at every population size.
MIN_EFFICIENCY = 0.4

#: Gated population sizes: the bench's historical 200 rows, and the 80 rows
#: a search's generation evaluates.
POPULATION_SIZES = (200, 80)
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


def _measure(batch: MappingEvaluator, parallel: MappingEvaluator, population: np.ndarray,
             num_workers: int) -> Dict[str, float]:
    """Times, speedup, ceiling and efficiency of one population size."""
    # Warm both paths outside the timed region (the first parallel call
    # starts every worker and waits for its ack), and verify bitwise
    # equivalence before timing.
    warm_batch = batch.evaluate_population(population, count_samples=False)
    warm_parallel = parallel.evaluate_population(population, count_samples=False)
    assert np.array_equal(warm_batch, warm_parallel)

    # The worker pool stays warm between timed calls, exactly as it would
    # across the generations of a real search.
    batch_seconds = _best_of(lambda: batch.evaluate_population(population, count_samples=False))
    parallel_seconds = _best_of(
        lambda: parallel.evaluate_population(population, count_samples=False)
    )
    shard = population[: -(-len(population) // num_workers)]
    ceiling = _best_of(lambda: batch._rig.fitnesses_for_rows(population)) / _best_of(
        lambda: batch._rig.fitnesses_for_rows(shard)
    )
    speedup = batch_seconds / parallel_seconds
    return {
        "batch_seconds": batch_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "ceiling": ceiling,
        "efficiency": speedup / ceiling,
    }


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
            "population_sizes": list(POPULATION_SIZES),
            "cpu_count": cpu_count,
            "status": "skipped",
            "skip_reason": reason,
            "min_required_efficiency": MIN_EFFICIENCY,
        })
        report_lines.append(f"parallel-eval efficiency: skipped ({reason})")
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
    try:
        measured = {
            size: _measure(batch, parallel, batch.codec.random_population(size, rng=0), num_workers)
            for size in POPULATION_SIZES
        }
    finally:
        parallel.close()

    payload = {
        "setting": SETTING,
        "bandwidth_gbps": BANDWIDTH_GBPS,
        "group_size": GROUP_SIZE,
        "population_sizes": list(POPULATION_SIZES),
        "cpu_count": cpu_count,
        "num_workers": num_workers,
        "status": "measured",
        "min_required_efficiency": MIN_EFFICIENCY,
    }
    for size, result in measured.items():
        payload.update({f"{name}_pop{size}": value for name, value in result.items()})
        report_lines.append(
            f"parallel-eval pop {size}: speedup {result['speedup']:.2f}x with {num_workers} lanes "
            f"(batch {result['batch_seconds']*1e3:.1f} ms vs parallel "
            f"{result['parallel_seconds']*1e3:.1f} ms; ceiling {result['ceiling']:.2f}x, "
            f"efficiency {result['efficiency']:.2f})"
        )
    write_bench_result(RESULT_FILE, payload)

    # At 80 rows a shard is ~0.5 ms and the split only about breaks even on
    # a 2-vCPU host (speedup 0.95-1.72 over 12 standalone runs), so beating
    # batch outright is asserted where the bench always has: at 200 rows.
    largest = measured[max(POPULATION_SIZES)]
    assert largest["speedup"] > 1.0, (
        f"parallel backend slower than batch at {max(POPULATION_SIZES)} rows "
        f"({largest['batch_seconds']:.4f}s vs {largest['parallel_seconds']:.4f}s)"
    )
    for size, result in measured.items():
        assert result["efficiency"] >= MIN_EFFICIENCY, (
            f"parallel backend delivers {result['efficiency']:.2f} of its "
            f"{result['ceiling']:.2f}x ceiling at {size} rows with {num_workers} "
            f"lanes; expected >= {MIN_EFFICIENCY}"
        )
