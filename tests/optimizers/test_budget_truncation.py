"""Budget-truncation behaviour of the population-based optimizers.

When ``evaluate_population`` truncates a generation on budget exhaustion the
unevaluated rows carry ``-inf`` placeholder fitnesses.  Those rows must never
reach elite selection or mean recombination — CMA-ES and TBPSA used to
recombine their search distribution from unevaluated samples (and PSO / DE /
stdGA are audited here for the same pattern).
"""

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers import (
    CMAESOptimizer,
    DifferentialEvolutionOptimizer,
    PSOOptimizer,
    StandardGAOptimizer,
    TBPSAOptimizer,
    build_optimizer,
)
from repro.optimizers.base import ranked_finite
from repro.workloads import TaskType, build_task_workload


class TestRankedFinite:
    def test_masks_minus_inf_rows(self):
        fitnesses = np.array([3.0, -np.inf, 7.0, -np.inf, 5.0])
        assert ranked_finite(fitnesses).tolist() == [2, 4, 0]

    def test_all_unevaluated_yields_empty(self):
        assert ranked_finite(np.full(4, -np.inf)).size == 0

    def test_ties_preserve_row_order(self):
        fitnesses = np.array([2.0, 5.0, 5.0, -np.inf, 5.0])
        assert ranked_finite(fitnesses).tolist() == [1, 2, 4, 0]


#: (name, factory) pairs; every population method must survive a budget that
#: truncates its very first generation (budget < population size).
TRUNCATING = [
    ("CMA", lambda: CMAESOptimizer(seed=0, population_size=16)),
    ("TBPSA", lambda: TBPSAOptimizer(seed=0, initial_population_size=16)),
    ("PSO", lambda: PSOOptimizer(seed=0, population_size=16)),
    ("DE", lambda: DifferentialEvolutionOptimizer(seed=0, population_size=16)),
    ("stdGA", lambda: StandardGAOptimizer(seed=0, population_size=16)),
]


@pytest.mark.parametrize("name,factory", TRUNCATING, ids=[t[0] for t in TRUNCATING])
class TestTruncatedGeneration:
    @pytest.mark.parametrize("budget", [5, 17, 23])
    def test_survives_truncation_and_returns_evaluated_best(
        self, name, factory, budget, small_platform, mix_group
    ):
        """The optimizer must spend exactly the budget, return a valid
        encoding, and report a best fitness that was actually measured."""
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=budget)
        best = factory().optimize(evaluator)
        assert evaluator.samples_used == budget
        assert best is not None
        evaluator.codec.validate(best)
        assert np.isfinite(evaluator.best_fitness)
        # The reported best is reproducible — it cannot come from a -inf row.
        assert evaluator.evaluate(best, count_sample=False) >= evaluator.best_fitness


class TestRecombinationExcludesUnevaluated:
    def test_cmaes_mean_ignores_minus_inf_rows(self, small_platform, mix_group):
        """With only one evaluated sample in the generation, the CMA-ES mean
        must move towards that sample alone — under the old behaviour half the
        generation's (unevaluated) rows entered the recombination."""
        budget = 1  # the single generation is truncated to one evaluated row
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=budget)
        optimizer = CMAESOptimizer(seed=3, population_size=16)
        best = optimizer.optimize(evaluator)
        assert evaluator.samples_used == 1
        assert best is not None
        assert np.isfinite(evaluator.best_fitness)

    def test_tbpsa_elite_ignores_minus_inf_rows(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=3)
        optimizer = TBPSAOptimizer(seed=3, initial_population_size=16)
        best = optimizer.optimize(evaluator)
        assert evaluator.samples_used == 3
        assert best is not None
        assert np.isfinite(evaluator.best_fitness)


class TestMissingBudget:
    """An evaluator without a sampling budget never reports exhaustion, so a
    budget-driven optimizer handed one must refuse before its first
    evaluation instead of looping forever."""

    @pytest.mark.parametrize(
        "name", ["magma", "a2c", "ppo2", "stdga", "de", "pso", "cma", "tbpsa", "random"]
    )
    def test_optimizer_refuses_an_unbudgeted_evaluator(self, name):
        platform = build_setting("S1", 16.0)
        group = build_task_workload(
            TaskType.VISION, group_size=8, seed=0,
            num_sub_accelerators=platform.num_sub_accelerators,
        )[0]
        evaluator = MappingEvaluator(group, platform)
        assert evaluator.sampling_budget is None
        with pytest.raises(OptimizationError, match="sampling_budget=None"):
            build_optimizer(name, seed=0).optimize(evaluator)
        assert evaluator.samples_used == 0
        # Direct evaluation stays valid without a budget, and is never cut off.
        fitnesses = evaluator.evaluate_population(evaluator.codec.random_population(4, rng=0))
        assert np.isfinite(fitnesses).all() and evaluator.samples_used == 4
