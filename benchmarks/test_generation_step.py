"""Perf smoke: the host cost of building one MAGMA generation.

A search charges a fixed sample budget, so the host time MAGMA spends
*building* each generation's children (parent draws, crossovers, mutation)
is pure overhead on top of evaluating them.  This bench times consecutive
generations on S2 at 16 GB/s with G=20 and a population of 100 (80 children
beside 20 elites), subtracts the batch-backend evaluation of the children,
and keeps the best of 5 generations as ``build_seconds``.

The gate is ``reference_to_build_ratio``: the time of a fixed pure-Python
reference loop (:func:`reference_loop_seconds`, best of 5) divided by
``build_seconds``.  The reference runs on the same interpreter as the
operator step, so the ratio scales out the host's speed; and since the
evaluation time is subtracted, not divided by, a faster (or slower)
evaluation kernel does not move it.  docs/PERFORMANCE.md records the
distributions the floor was chosen from: the whole-generation array step
against the per-child operator loop it replaced.
"""

from __future__ import annotations

import time

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.optimizers.magma import MagmaOptimizer
from repro.workloads import TaskType, build_task_workload

#: Floor on reference-loop time / child-building time.  On a 2-vCPU host the
#: whole-generation step measured 2.55-6.25 (median 4.13) over 40 runs and
#: the per-child operator loop it replaced 0.27-0.46 (median 0.43) over 10
#: (docs/PERFORMANCE.md).  The floor sits ~2.8x under the step's median and
#: ~3.3x over the per-child loop's best run.
MIN_REFERENCE_TO_BUILD_RATIO = 1.5

POPULATION_SIZE = 100
REPEATS = 5
#: Iterations of the reference loop: about 1 ms of interpreted Python.
REFERENCE_ITERATIONS = 20_000


def reference_loop_seconds(repeats: int = REPEATS) -> float:
    """Best-of-*repeats* time of a fixed pure-Python integer loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i % 7
        best = min(best, time.perf_counter() - start)
    return best


def measure_generation_step(repeats: int = REPEATS) -> dict:
    """Best-of-*repeats* child-building and child-evaluation seconds of one generation."""
    platform = build_setting("S2", 16.0)
    group = build_task_workload(
        TaskType.MIX, group_size=20, seed=0, num_sub_accelerators=platform.num_sub_accelerators
    )[0]
    evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    optimizer = MagmaOptimizer(seed=0, population_size=POPULATION_SIZE)
    population = optimizer._initial_population(evaluator, POPULATION_SIZE, None)
    fitnesses = evaluator.evaluate_population(population)

    evaluate = evaluator.evaluate_population
    eval_seconds = []

    def timed_evaluate(children, *args, **kwargs):
        start = time.perf_counter()
        scores = evaluate(children, *args, **kwargs)
        eval_seconds.append(time.perf_counter() - start)
        return scores

    evaluator.evaluate_population = timed_evaluate  # type: ignore[method-assign]
    best_build = best_eval = float("inf")
    # One untimed warm-up generation, then *repeats* timed ones in sequence,
    # as a search runs them.
    for generation in range(repeats + 1):
        start = time.perf_counter()
        population, fitnesses = optimizer._next_generation(evaluator, population, fitnesses)
        total = time.perf_counter() - start
        if generation:
            best_eval = min(best_eval, eval_seconds[-1])
            best_build = min(best_build, total - eval_seconds[-1])
    reference = reference_loop_seconds(repeats)
    return {
        "setting": "S2",
        "bandwidth_gbps": 16.0,
        "group_size": 20,
        "population_size": POPULATION_SIZE,
        "children": POPULATION_SIZE - round(0.2 * POPULATION_SIZE),
        "build_seconds": best_build,
        "eval_seconds": best_eval,
        "reference_iterations": REFERENCE_ITERATIONS,
        "reference_seconds": reference,
        "reference_to_build_ratio": reference / best_build,
    }


def test_generation_build_is_cheap_against_reference_loop(report_lines, write_bench_result):
    record = measure_generation_step()
    record["min_reference_to_build_ratio"] = MIN_REFERENCE_TO_BUILD_RATIO
    write_bench_result("BENCH_generation_step.json", record)
    report_lines.append(
        f"generation step (S2, G=20, {record['children']} children): build "
        f"{record['build_seconds'] * 1e3:.2f} ms, evaluate {record['eval_seconds'] * 1e3:.2f} ms, "
        f"reference loop {record['reference_seconds'] * 1e3:.2f} ms, "
        f"reference/build ratio {record['reference_to_build_ratio']:.1f}x"
    )
    assert record["reference_to_build_ratio"] >= MIN_REFERENCE_TO_BUILD_RATIO, (
        f"reference/build ratio {record['reference_to_build_ratio']:.2f} below floor "
        f"{MIN_REFERENCE_TO_BUILD_RATIO}: building one generation's children costs too much host time"
    )
