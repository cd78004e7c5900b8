"""Perf smoke: MAGMA's generation step next to the evaluation it feeds.

A search charges a fixed sample budget, so the host time MAGMA spends
*building* each generation's children (parent draws, crossovers, mutation)
is pure overhead on top of evaluating them.  This bench times consecutive
generations on S2 at 16 GB/s with G=20 and a population of 100 (80 children
beside 20 elites) and reports ``eval_to_operator_ratio``: batch-backend
evaluation time for the 80 children divided by the time to build them,
best of 5 generations each.  Both timings come from the same host and the
same call, so the ratio does not depend on core count or machine speed.  On
a 2-vCPU host a per-child operator loop measures about 0.8 and the
whole-generation array step about 6 (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import time

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.optimizers.magma import MagmaOptimizer
from repro.workloads import TaskType, build_task_workload

#: Floor on evaluation time / child-building time for one generation.
MIN_EVAL_TO_OPERATOR_RATIO = 4.0

POPULATION_SIZE = 100
REPEATS = 5


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
    return {
        "setting": "S2",
        "bandwidth_gbps": 16.0,
        "group_size": 20,
        "population_size": POPULATION_SIZE,
        "children": POPULATION_SIZE - round(0.2 * POPULATION_SIZE),
        "build_seconds": best_build,
        "eval_seconds": best_eval,
        "eval_to_operator_ratio": best_eval / best_build,
    }


def test_generation_step_is_cheap_next_to_evaluation(report_lines):
    record = measure_generation_step()
    record["min_eval_to_operator_ratio"] = MIN_EVAL_TO_OPERATOR_RATIO
    with open("BENCH_generation_step.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    report_lines.append(
        f"generation step (S2, G=20, {record['children']} children): build "
        f"{record['build_seconds'] * 1e3:.2f} ms, evaluate {record['eval_seconds'] * 1e3:.2f} ms, "
        f"eval/operator ratio {record['eval_to_operator_ratio']:.1f}x"
    )
    assert record["eval_to_operator_ratio"] >= MIN_EVAL_TO_OPERATOR_RATIO, (
        f"eval/operator ratio {record['eval_to_operator_ratio']:.2f} below floor "
        f"{MIN_EVAL_TO_OPERATOR_RATIO}: building children costs too much next to evaluating them"
    )
