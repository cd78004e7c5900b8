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
