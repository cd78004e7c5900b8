"""Tests for the MAGMA optimizer."""

import numpy as np
import pytest

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.magma import (
    MagmaConfig,
    MagmaOptimizer,
    magma_mutation_crossover_gen,
    magma_mutation_only,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = MagmaConfig()
        assert config.mutation_rate == 0.05
        assert config.crossover_gen_rate == 0.9
        assert config.crossover_rg_rate == 0.05
        assert config.crossover_accel_rate == 0.05

    def test_rejects_tiny_population(self):
        with pytest.raises(OptimizationError):
            MagmaConfig(population_size=1)

    def test_rejects_bad_rates(self):
        with pytest.raises(OptimizationError):
            MagmaConfig(mutation_rate=1.5)
        with pytest.raises(OptimizationError):
            MagmaConfig(elite_ratio=1.0)

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(OptimizationError):
            MagmaOptimizer(config=MagmaConfig(), population_size=10)


class TestSearchBehaviour:
    def test_finds_mapping_within_budget(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=150)
        optimizer = MagmaOptimizer(seed=0, population_size=12)
        best = optimizer.optimize(evaluator)
        assert best is not None
        assert evaluator.samples_used <= 150
        assert optimizer.metadata["generations"] >= 1

    def test_returned_encoding_is_the_best_seen(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=150)
        optimizer = MagmaOptimizer(seed=1, population_size=12)
        best = optimizer.optimize(evaluator)
        assert evaluator.evaluate(best, count_sample=False) == pytest.approx(evaluator.best_fitness)

    def test_deterministic_given_seed(self, small_platform, mix_group):
        results = []
        for _ in range(2):
            evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=120)
            optimizer = MagmaOptimizer(seed=42, population_size=12)
            optimizer.optimize(evaluator)
            results.append(evaluator.best_fitness)
        assert results[0] == pytest.approx(results[1])

    def test_improves_over_initial_population(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=400)
        optimizer = MagmaOptimizer(seed=3, population_size=16)
        optimizer.optimize(evaluator)
        history = evaluator.history
        initial_best = max(history[:16])
        assert evaluator.best_fitness >= initial_best

    def test_elitism_follows_actual_population_size(self, small_platform, mix_group):
        """Regression: num_elites was derived from cfg.population_size, which
        desynchronizes elitism when warm-start seeds grow the population."""
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=200)
        optimizer = MagmaOptimizer(seed=7, population_size=4, elite_ratio=0.5)
        # 12 warm-start seeds > population_size=4: the population is 12-wide.
        seeds = evaluator.codec.random_population(12, rng=8)
        population = optimizer._initial_population(evaluator, 4, seeds)
        assert len(population) == 12
        fitnesses = evaluator.evaluate_population(population)
        next_population, next_fitnesses = optimizer._next_generation(
            evaluator, population, fitnesses
        )
        # Generation size is preserved and elites count follows the actual
        # population (6 = 0.5 * 12), not the configured size (2 = 0.5 * 4).
        assert len(next_population) == 12
        assert len(next_fitnesses) == 12
        order = np.argsort(fitnesses)[::-1]
        expected_elites = population[order][:6]
        assert np.array_equal(next_population[:6], expected_elites)

    @pytest.mark.parametrize("population_size,elite_ratio", [(2, 0.75), (3, 0.9)])
    def test_elites_always_leave_room_for_a_child(self, small_platform, mix_group, population_size, elite_ratio):
        """Regression: round(ratio * pop) could equal pop, leaving zero children."""
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=20)
        optimizer = MagmaOptimizer(seed=0, population_size=population_size, elite_ratio=elite_ratio)
        assert optimizer.optimize(evaluator) is not None
        assert optimizer.metadata["generations"] >= 1
        assert evaluator.samples_used == 20

    def test_warm_start_population_is_used(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=40)
        seed_encoding = evaluator.codec.random_encoding(rng=5)
        optimizer = MagmaOptimizer(seed=6, population_size=8)
        optimizer.optimize(evaluator, initial_encodings=seed_encoding[None, :])
        # The seeded encoding is evaluated first, so its fitness appears in the history.
        seeded_fitness = evaluator.evaluate(seed_encoding, count_sample=False)
        assert evaluator.history[0] == pytest.approx(seeded_fitness)


class TestAblationVariants:
    def test_mutation_only_disables_crossovers(self):
        optimizer = magma_mutation_only(seed=0)
        assert optimizer.config.enable_crossover_gen is False
        assert optimizer.config.enable_crossover_rg is False
        assert optimizer.config.enable_crossover_accel is False
        assert optimizer.name == "MAGMA-mut"

    def test_mut_gen_variant_enables_only_crossover_gen(self):
        optimizer = magma_mutation_crossover_gen(seed=0)
        assert optimizer.config.enable_crossover_gen is True
        assert optimizer.config.enable_crossover_rg is False
        assert optimizer.config.enable_crossover_accel is False

    def test_all_variants_run(self, small_platform, mix_group):
        for factory in (magma_mutation_only, magma_mutation_crossover_gen):
            evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=60)
            best = factory(seed=0, population_size=10).optimize(evaluator)
            assert best is not None


# ----------------------------------------------------------------------
# Frozen reference: MAGMA's generation step and operators as they were
# written before the one-buffer generation (one call per operator, one
# draw per choice).  The generation step must reproduce it bit for bit,
# random stream included.
# ----------------------------------------------------------------------
def _ref_integers(generator, high, size):
    return (generator.random(size) * high).astype(np.intp)


def _ref_draw_parent_pairs(pool_size, num_pairs, generator):
    i = _ref_integers(generator, pool_size, num_pairs)
    j = _ref_integers(generator, pool_size - 1, num_pairs)
    return i, j + (j >= i)


def _ref_mutate(children, codec, generator, mutation_rate):
    children = children.copy()
    genome = codec.genome_length
    mask = generator.random(children.shape) < mutation_rate
    selection, priority = children[:, :genome], children[:, genome:]
    selection[mask[:, :genome]] = _ref_integers(
        generator, codec.num_sub_accelerators, np.count_nonzero(mask[:, :genome])
    )
    priority[mask[:, genome:]] = generator.random(np.count_nonzero(mask[:, genome:]))
    return children


def _ref_crossover_gen(fathers, mothers, codec, generator):
    genome = codec.genome_length
    n = len(fathers)
    offset = _ref_integers(generator, 2, n) * genome
    pivot = 1 + _ref_integers(generator, genome - 1, n) if genome > 1 else np.zeros(n, dtype=int)
    column = np.arange(codec.encoding_length)
    swap = (column >= (offset + pivot)[:, None]) & (column < (offset + genome)[:, None])
    return np.where(swap, mothers, fathers), np.where(swap, fathers, mothers)


def _ref_crossover_rg(fathers, mothers, codec, generator):
    genome = codec.genome_length
    start = _ref_integers(generator, max(genome - 1, 1), len(fathers))
    stop = start + 1 + _ref_integers(generator, genome - start, len(fathers))
    job = np.arange(codec.encoding_length) % genome
    swap = (job >= start[:, None]) & (job < stop[:, None])
    return np.where(swap, mothers, fathers), np.where(swap, fathers, mothers)


def _ref_crossover_accel(dad, mothers, codec, generator, rebalance_mutation_rate=0.5):
    genome = codec.genome_length
    son = dad.copy()
    core = _ref_integers(generator, codec.num_sub_accelerators, len(son))[:, None]
    moms_jobs = mothers[:, :genome].astype(int) == core
    dads_leftovers = (son[:, :genome].astype(int) == core) & ~moms_jobs
    np.copyto(son, mothers, where=np.concatenate([moms_jobs, moms_jobs], axis=1))
    rebalance = dads_leftovers & (generator.random(dads_leftovers.shape) < rebalance_mutation_rate)
    count = np.count_nonzero(rebalance)
    son[:, :genome][rebalance] = _ref_integers(generator, codec.num_sub_accelerators, count)
    son[:, genome:][rebalance] = generator.random(count)
    return son


def _ref_next_generation(optimizer, evaluator, population, fitnesses):
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
    dad, mom = _ref_draw_parent_pairs(len(parent_pool), (num_children + 1) // 2, rng)
    son, daughter = parent_pool[dad], parent_pool[mom]
    if cfg.enable_crossover_gen:
        hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_gen_rate)
        if hit.size:
            son[hit], daughter[hit] = _ref_crossover_gen(son[hit], daughter[hit], codec, rng)
    if cfg.enable_crossover_rg:
        hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_rg_rate)
        if hit.size:
            son[hit], daughter[hit] = _ref_crossover_rg(son[hit], daughter[hit], codec, rng)
    if cfg.enable_crossover_accel:
        hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_accel_rate)
        if hit.size:
            sons = _ref_crossover_accel(son[hit], daughter[hit], codec, rng)
            son[hit] = sons
            daughter[hit] = _ref_crossover_accel(daughter[hit], sons, codec, rng)
    children = np.concatenate([son, daughter], axis=1).reshape(-1, codec.encoding_length)
    children = _ref_mutate(children[:num_children], codec, rng, cfg.mutation_rate)
    next_population = np.vstack([population[:num_elites], children])
    next_fitnesses = np.concatenate(
        [fitnesses[:num_elites], evaluator.evaluate_population(children)]
    )
    return next_population, next_fitnesses


def _evaluator(group_size, setting="S2", bandwidth=16.0):
    from repro.accelerator import build_setting
    from repro.core.evalconfig import EvalConfig
    from repro.workloads import TaskType, build_task_workload

    platform = build_setting(setting, bandwidth)
    group = build_task_workload(
        TaskType.MIX, group_size=group_size, seed=0, num_sub_accelerators=platform.num_sub_accelerators
    )[0]
    return MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))


_ALL_RATES_ONE = dict(
    mutation_rate=1.0, crossover_gen_rate=1.0, crossover_rg_rate=1.0, crossover_accel_rate=1.0
)

#: (group size, setting, optimizer factory, population size or warm-start rows).
_BREEDING_CASES = {
    "G4": (4, "S2", lambda: MagmaOptimizer(seed=11), 100),
    "G5": (5, "S2", lambda: MagmaOptimizer(seed=12), 100),
    "G20": (20, "S2", lambda: MagmaOptimizer(seed=13), 100),
    "G50": (50, "S4", lambda: MagmaOptimizer(seed=14), 100),
    "G200": (200, "S6", lambda: MagmaOptimizer(seed=15), 100),
    "mutation-only": (20, "S2", lambda: magma_mutation_only(seed=16), 100),
    "mutation-gen": (20, "S2", lambda: magma_mutation_crossover_gen(seed=17), 100),
    "pop51": (20, "S2", lambda: MagmaOptimizer(seed=18, population_size=51), 51),
    "pop2": (20, "S2", lambda: MagmaOptimizer(seed=19, population_size=2), 2),
    "elite0.9": (20, "S2", lambda: MagmaOptimizer(seed=20, elite_ratio=0.9), 100),
    "all-rates-1": (20, "S2", lambda: MagmaOptimizer(seed=21, **_ALL_RATES_ONE), 100),
    "rg-only": (
        20,
        "S2",
        lambda: MagmaOptimizer(
            seed=22, enable_crossover_gen=False, enable_crossover_accel=False, crossover_rg_rate=0.5
        ),
        100,
    ),
    "warm-start-150-non-integer": (20, "S2", lambda: MagmaOptimizer(seed=23), 150),
}


class TestBreedingMatchesFrozenReference:
    @pytest.mark.parametrize("case", sorted(_BREEDING_CASES))
    def test_generations_match_population_fitness_and_stream(self, case):
        group_size, setting, factory, rows = _BREEDING_CASES[case]
        evaluator = _evaluator(group_size, setting)
        codec = evaluator.codec
        start = np.random.default_rng(99)
        # Unrepaired rows: non-integer selection genes exercise the
        # truncating core comparisons of crossover-accel.
        population = np.concatenate(
            [
                start.random((rows, codec.genome_length)) * codec.num_sub_accelerators,
                start.random((rows, codec.genome_length)),
            ],
            axis=1,
        )
        if case != "warm-start-150-non-integer":
            population = codec.repair_batch(population)
        fitnesses = evaluator.evaluate_population(population, count_samples=False)
        candidate, reference = factory(), factory()
        ours, theirs = (population, fitnesses), (population.copy(), fitnesses.copy())
        for _ in range(4):
            ours = candidate._next_generation(evaluator, *ours)
            theirs = _ref_next_generation(reference, evaluator, *theirs)
            assert np.array_equal(ours[0], theirs[0])
            assert np.array_equal(ours[1], theirs[1])
            assert candidate.rng.bit_generator.state == reference.rng.bit_generator.state
