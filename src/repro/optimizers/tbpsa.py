"""Test-based Population Size Adaptation baseline (TBPSA in Table IV).

TBPSA is an evolution strategy designed for noisy objectives: it keeps a
Gaussian search distribution whose mean is re-estimated from the best half of
recent samples and grows its population (averaging window) when progress
stalls, which is the "test-based population size adaptation" the name refers
to.  The paper initialises the population size at 50 and lets it evolve.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.base import BaseOptimizer, ranked_finite
from repro.utils.rng import SeedLike


class TBPSAOptimizer(BaseOptimizer):
    """Evolution strategy with stagnation-triggered population-size growth."""

    default_name = "TBPSA"

    def __init__(
        self,
        seed: SeedLike = None,
        initial_population_size: int = 50,
        max_population_size: int = 400,
        initial_sigma: float = 0.3,
        growth_factor: float = 1.5,
        stagnation_generations: int = 5,
        name: Optional[str] = None,
    ):
        super().__init__(seed=seed, name=name)
        if initial_population_size < 4:
            raise OptimizationError("TBPSA needs an initial population of at least 4")
        if growth_factor <= 1.0:
            raise OptimizationError(f"growth_factor must exceed 1.0, got {growth_factor}")
        self.initial_population_size = initial_population_size
        self.max_population_size = max_population_size
        self.initial_sigma = initial_sigma
        self.growth_factor = growth_factor
        self.stagnation_generations = stagnation_generations

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        self._require_budget(evaluator)
        codec = evaluator.codec
        dimension = codec.encoding_length
        scale = np.concatenate(
            [
                np.full(codec.genome_length, max(1, codec.num_sub_accelerators - 1)),
                np.ones(codec.genome_length),
            ]
        )

        if initial_encodings is not None:
            mean = codec.repair(np.atleast_2d(np.asarray(initial_encodings, dtype=float))[0]) / scale
        else:
            mean = self.rng.random(dimension)
        sigma = self.initial_sigma
        population_size = self.initial_population_size

        best_history: Deque[float] = deque(maxlen=self.stagnation_generations)
        generations = 0
        growths = 0

        while not evaluator.budget_exhausted:
            z = self.rng.standard_normal((population_size, dimension))
            samples = np.clip(mean + sigma * z, 0.0, 1.0)
            encodings = samples * scale
            fitnesses = evaluator.evaluate_population(encodings)

            # Budget truncation leaves -inf placeholders for unevaluated
            # samples; the mean/sigma re-estimation must only average rows
            # whose fitness was actually measured.
            order = ranked_finite(fitnesses)
            if order.size == 0:
                break
            elite_count = max(2, population_size // 2)
            elite = samples[order[:elite_count]]
            mean = elite.mean(axis=0)
            sigma = float(np.clip(elite.std(axis=0).mean(), 0.02, 0.5))

            generation_best = float(fitnesses[order[0]])
            if best_history and generation_best <= max(best_history) + 1e-12:
                # No measurable progress: grow the averaging population, the
                # TBPSA response to a noisy / flat neighbourhood.
                if (
                    len(best_history) == self.stagnation_generations
                    and population_size < self.max_population_size
                ):
                    population_size = min(
                        self.max_population_size, int(population_size * self.growth_factor)
                    )
                    growths += 1
                    best_history.clear()
            best_history.append(generation_best)
            generations += 1

        self.metadata.update(
            {
                "generations": generations,
                "final_population_size": population_size,
                "population_growths": growths,
                "final_sigma": sigma,
            }
        )
        return evaluator.best_encoding
