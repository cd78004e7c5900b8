"""Tests for the black-box optimization baselines (stdGA, DE, CMA-ES, PSO, TBPSA, random)."""

import pytest

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers import (
    CMAESOptimizer,
    DifferentialEvolutionOptimizer,
    PSOOptimizer,
    RandomSearchOptimizer,
    StandardGAOptimizer,
    TBPSAOptimizer,
)

BASELINES = [
    ("stdGA", lambda seed: StandardGAOptimizer(seed=seed, population_size=12)),
    ("DE", lambda seed: DifferentialEvolutionOptimizer(seed=seed, population_size=12)),
    ("CMA", lambda seed: CMAESOptimizer(seed=seed, population_size=12)),
    ("PSO", lambda seed: PSOOptimizer(seed=seed, population_size=12)),
    ("TBPSA", lambda seed: TBPSAOptimizer(seed=seed, initial_population_size=12)),
    ("Random", lambda seed: RandomSearchOptimizer(seed=seed, batch_size=12)),
]


@pytest.mark.parametrize("name,factory", BASELINES, ids=[b[0] for b in BASELINES])
class TestAllBaselines:
    def test_respects_budget_and_returns_valid_encoding(self, name, factory, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=100)
        optimizer = factory(seed=0)
        best = optimizer.optimize(evaluator)
        assert evaluator.samples_used <= 100
        assert best is not None
        evaluator.codec.validate(best)
        mapping = evaluator.codec.decode(best)
        assert mapping.num_jobs == mix_group.size

    def test_deterministic_given_seed(self, name, factory, small_platform, mix_group):
        fitnesses = []
        for _ in range(2):
            evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=80)
            factory(seed=11).optimize(evaluator)
            fitnesses.append(evaluator.best_fitness)
        assert fitnesses[0] == pytest.approx(fitnesses[1])

    def test_not_worse_than_first_random_sample(self, name, factory, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=200)
        factory(seed=2).optimize(evaluator)
        assert evaluator.best_fitness >= evaluator.history[0]


class TestConstructionValidation:
    def test_stdga_needs_population(self):
        with pytest.raises(OptimizationError):
            StandardGAOptimizer(population_size=1)

    def test_stdga_elites_always_leave_room_for_a_child(self, small_platform, mix_group):
        """Regression: round(0.75 * 2) == 2 elites left zero children."""
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=20)
        optimizer = StandardGAOptimizer(seed=0, population_size=2, elite_ratio=0.75)
        assert optimizer.optimize(evaluator) is not None
        assert optimizer.metadata["generations"] >= 1
        assert evaluator.samples_used == 20

    def test_de_needs_population_of_four(self):
        with pytest.raises(OptimizationError):
            DifferentialEvolutionOptimizer(population_size=3)

    def test_cma_rejects_bad_sigma(self):
        with pytest.raises(OptimizationError):
            CMAESOptimizer(initial_sigma=0.0)

    def test_pso_rejects_bad_clamp(self):
        with pytest.raises(OptimizationError):
            PSOOptimizer(velocity_clamp=0.0)

    def test_tbpsa_rejects_bad_growth(self):
        with pytest.raises(OptimizationError):
            TBPSAOptimizer(growth_factor=1.0)


class TestPaperHyperparameters:
    def test_stdga_defaults(self):
        optimizer = StandardGAOptimizer()
        assert optimizer.mutation_rate == 0.1
        assert optimizer.crossover_rate == 0.1

    def test_de_defaults(self):
        optimizer = DifferentialEvolutionOptimizer()
        assert optimizer.local_weight == 0.8
        assert optimizer.global_weight == 0.8

    def test_pso_defaults(self):
        optimizer = PSOOptimizer()
        assert optimizer.global_best_weight == 0.8
        assert optimizer.personal_best_weight == 0.8
        assert optimizer.momentum == 1.6

    def test_tbpsa_starts_at_fifty(self):
        assert TBPSAOptimizer().initial_population_size == 50

    def test_cma_uses_elite_half(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=60)
        optimizer = CMAESOptimizer(seed=0, population_size=12)
        optimizer.optimize(evaluator)
        assert optimizer.metadata["generations"] >= 1
