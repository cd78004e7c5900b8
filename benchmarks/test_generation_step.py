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

The second gate is ``build_speedup``: the breeding MAGMA ran before it
bred each generation in one buffer (:func:`reference_breed`, kept here
verbatim: one call per operator and one draw per choice) over
``_next_generation`` itself, both breeding from the same parents with a
no-op scorer.  The two arms alternate call by call, each pair's ratio is
taken on its own, and the median ratio is reported, so host drift cancels
within a pair.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

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

#: Floor on the median reference-breeding / one-buffer-breeding time ratio.
#: On a 2-vCPU host 12 standalone runs read 1.196-1.211, and the same bench
#: against the per-operator generation step read 0.921-0.943 over 10
#: (docs/PERFORMANCE.md, "Breeding in one buffer").
MIN_BUILD_SPEEDUP = 1.1

#: Alternating (reference, current) call pairs behind ``build_speedup``.
SPEEDUP_PAIRS = 400

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


# ----------------------------------------------------------------------
# The breeding step before it bred in one buffer, for build_speedup.
# ----------------------------------------------------------------------
def _integers(generator, high, size):
    return (generator.random(size) * high).astype(np.intp)


def _mutate(children, codec, generator, mutation_rate):
    children = children.copy()
    genome = codec.genome_length
    mask = generator.random(children.shape) < mutation_rate
    selection, priority = children[:, :genome], children[:, genome:]
    selection[mask[:, :genome]] = _integers(
        generator, codec.num_sub_accelerators, np.count_nonzero(mask[:, :genome])
    )
    priority[mask[:, genome:]] = generator.random(np.count_nonzero(mask[:, genome:]))
    return children


def _crossover_gen(fathers, mothers, codec, generator):
    genome = codec.genome_length
    n = len(fathers)
    offset = _integers(generator, 2, n) * genome
    pivot = 1 + _integers(generator, genome - 1, n) if genome > 1 else np.zeros(n, dtype=int)
    column = np.arange(codec.encoding_length)
    swap = (column >= (offset + pivot)[:, None]) & (column < (offset + genome)[:, None])
    return np.where(swap, mothers, fathers), np.where(swap, fathers, mothers)


def _crossover_rg(fathers, mothers, codec, generator):
    genome = codec.genome_length
    start = _integers(generator, max(genome - 1, 1), len(fathers))
    stop = start + 1 + _integers(generator, genome - start, len(fathers))
    job = np.arange(codec.encoding_length) % genome
    swap = (job >= start[:, None]) & (job < stop[:, None])
    return np.where(swap, mothers, fathers), np.where(swap, fathers, mothers)


def _crossover_accel(dad, mothers, codec, generator, rebalance_mutation_rate=0.5):
    genome = codec.genome_length
    son = dad.copy()
    core = _integers(generator, codec.num_sub_accelerators, len(son))[:, None]
    moms_jobs = mothers[:, :genome].astype(int) == core
    dads_leftovers = (son[:, :genome].astype(int) == core) & ~moms_jobs
    np.copyto(son, mothers, where=np.concatenate([moms_jobs, moms_jobs], axis=1))
    rebalance = dads_leftovers & (generator.random(dads_leftovers.shape) < rebalance_mutation_rate)
    count = np.count_nonzero(rebalance)
    son[:, :genome][rebalance] = _integers(generator, codec.num_sub_accelerators, count)
    son[:, genome:][rebalance] = generator.random(count)
    return son


def reference_breed(optimizer, evaluator, population, fitnesses):
    """The generation step as MAGMA ran it before breeding in one buffer."""
    cfg = optimizer.config
    codec = evaluator.codec
    order = np.argsort(fitnesses)[::-1]
    population = population[order]
    fitnesses = fitnesses[order]
    pop_size = len(population)
    num_elites = min(pop_size - 1, max(1, int(round(cfg.elite_ratio * pop_size))))
    parent_pool = population[: max(2, num_elites * 2)]
    num_children = pop_size - num_elites
    rng = optimizer.rng
    num_pairs = (num_children + 1) // 2
    dad = _integers(rng, len(parent_pool), num_pairs)
    mom = _integers(rng, len(parent_pool) - 1, num_pairs)
    mom += mom >= dad
    son, daughter = parent_pool[dad], parent_pool[mom]
    if cfg.enable_crossover_gen:
        hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_gen_rate)
        if hit.size:
            son[hit], daughter[hit] = _crossover_gen(son[hit], daughter[hit], codec, rng)
    if cfg.enable_crossover_rg:
        hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_rg_rate)
        if hit.size:
            son[hit], daughter[hit] = _crossover_rg(son[hit], daughter[hit], codec, rng)
    if cfg.enable_crossover_accel:
        hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_accel_rate)
        if hit.size:
            sons = _crossover_accel(son[hit], daughter[hit], codec, rng)
            son[hit] = sons
            daughter[hit] = _crossover_accel(daughter[hit], sons, codec, rng)
    children = np.concatenate([son, daughter], axis=1).reshape(-1, codec.encoding_length)
    children = _mutate(children[:num_children], codec, rng, cfg.mutation_rate)
    next_population = np.vstack([population[:num_elites], children])
    next_fitnesses = np.concatenate(
        [fitnesses[:num_elites], evaluator.evaluate_population(children)]
    )
    return next_population, next_fitnesses


class _NoScore:
    """Scores every child 0 at no cost, so only breeding is timed."""

    def __init__(self, codec):
        self.codec = codec

    def evaluate_population(self, children):
        return np.zeros(len(children))


def measure_build_speedup(pairs: int = SPEEDUP_PAIRS) -> dict:
    """Median over alternating call pairs of reference / current breeding time."""
    platform = build_setting("S2", 16.0)
    group = build_task_workload(
        TaskType.MIX, group_size=20, seed=0, num_sub_accelerators=platform.num_sub_accelerators
    )[0]
    evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    scorer = _NoScore(evaluator.codec)
    reference, current = MagmaOptimizer(seed=0), MagmaOptimizer(seed=0)
    population = evaluator.codec.random_population(POPULATION_SIZE, rng=1)
    fitnesses = evaluator.evaluate_population(population)
    arms = {
        "reference": lambda: reference_breed(reference, scorer, population, fitnesses),
        "current": lambda: current._next_generation(scorer, population, fitnesses),
    }
    for breed in arms.values():  # warm-up
        breed()
    ratios = []
    for pair in range(pairs):
        seconds = {}
        for name in sorted(arms, reverse=bool(pair % 2)):
            start = time.perf_counter()
            arms[name]()
            seconds[name] = time.perf_counter() - start
        ratios.append(seconds["reference"] / seconds["current"])
    # Both arms drew the same stream, so they bred the same children.
    assert reference.rng.bit_generator.state == current.rng.bit_generator.state
    return {
        "speedup_pairs": pairs,
        "build_speedup": statistics.median(ratios),
        "build_speedup_quartiles": statistics.quantiles(ratios, n=4)[::2],
    }


def test_generation_build_is_cheap_against_reference_loop(report_lines, write_bench_result):
    record = measure_generation_step()
    record.update(measure_build_speedup())
    record["min_reference_to_build_ratio"] = MIN_REFERENCE_TO_BUILD_RATIO
    record["min_build_speedup"] = MIN_BUILD_SPEEDUP
    write_bench_result("BENCH_generation_step.json", record)
    report_lines.append(
        f"generation step (S2, G=20, {record['children']} children): build "
        f"{record['build_seconds'] * 1e3:.2f} ms, evaluate {record['eval_seconds'] * 1e3:.2f} ms, "
        f"reference loop {record['reference_seconds'] * 1e3:.2f} ms, "
        f"reference/build ratio {record['reference_to_build_ratio']:.1f}x, "
        f"build speedup over per-operator breeding {record['build_speedup']:.2f}x"
    )
    assert record["reference_to_build_ratio"] >= MIN_REFERENCE_TO_BUILD_RATIO, (
        f"reference/build ratio {record['reference_to_build_ratio']:.2f} below floor "
        f"{MIN_REFERENCE_TO_BUILD_RATIO}: building one generation's children costs too much host time"
    )
    assert record["build_speedup"] >= MIN_BUILD_SPEEDUP, (
        f"breeding speedup {record['build_speedup']:.2f} below floor {MIN_BUILD_SPEEDUP}: "
        "the one-buffer generation step lost its gain over per-operator breeding"
    )
