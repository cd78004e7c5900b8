"""Differential Evolution baseline (DE in Table IV of the paper).

Classic generational ``DE/rand-to-best/1/bin`` with the paper's weights (0.8
for both the local and global differential vectors).  DE operates on the raw
real-valued encoding; the codec's repair step projects candidates back into
the valid mapping domain before decoding.  All trial vectors of a generation
are built first and then evaluated as one population, so the evaluator's
batch backend simulates the whole generation in a single vectorized sweep.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.base import BaseOptimizer
from repro.utils.rng import SeedLike


class DifferentialEvolutionOptimizer(BaseOptimizer):
    """DE/rand-to-best/1 with binomial crossover."""

    default_name = "DE"

    def __init__(
        self,
        seed: SeedLike = None,
        population_size: int = 100,
        local_weight: float = 0.8,
        global_weight: float = 0.8,
        crossover_probability: float = 0.9,
        name: Optional[str] = None,
    ):
        super().__init__(seed=seed, name=name)
        if population_size < 4:
            raise OptimizationError("DE needs a population of at least 4 individuals")
        if not (0.0 <= crossover_probability <= 1.0):
            raise OptimizationError("crossover_probability must be in [0, 1]")
        self.population_size = population_size
        self.local_weight = local_weight
        self.global_weight = global_weight
        self.crossover_probability = crossover_probability

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        self._require_budget(evaluator)
        codec = evaluator.codec
        population = self._initial_population(evaluator, self.population_size, initial_encodings)
        fitnesses = evaluator.evaluate_population(population)
        dimension = codec.encoding_length
        generations = 0

        while not evaluator.budget_exhausted:
            pop_size = len(population)
            best_index = int(np.argmax(fitnesses))
            best = population[best_index]
            trials = np.empty_like(population)
            for i in range(pop_size):
                candidates = [idx for idx in range(pop_size) if idx != i]
                r1, r2 = self.rng.choice(candidates, size=2, replace=False)
                # rand-to-best mutation: pull towards the population best
                # (global weight) plus a scaled random difference (local weight).
                mutant = (
                    population[i]
                    + self.global_weight * (best - population[i])
                    + self.local_weight * (population[int(r1)] - population[int(r2)])
                )
                # Binomial crossover with a guaranteed mutant gene.
                cross_mask = self.rng.random(dimension) < self.crossover_probability
                cross_mask[int(self.rng.integers(0, dimension))] = True
                trials[i] = codec.repair(np.where(cross_mask, mutant, population[i]))
            trial_fitnesses = evaluator.evaluate_population(trials)
            # Trials left unevaluated by budget exhaustion carry -inf and must
            # never replace an incumbent (even an -inf one from a truncated
            # initial evaluation).
            improved = (trial_fitnesses >= fitnesses) & np.isfinite(trial_fitnesses)
            population[improved] = trials[improved]
            fitnesses[improved] = trial_fitnesses[improved]
            generations += 1

        self.metadata["generations"] = generations
        return evaluator.best_encoding
