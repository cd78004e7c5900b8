"""Standard genetic algorithm baseline (stdGA in Table IV of the paper).

The standard GA uses the classic single-point crossover over the whole
encoding and per-gene mutation, with the paper's rates (mutation 0.1,
crossover 0.1).  Its lack of structure relative to MAGMA's operators is what
the paper's ablation highlights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.encoding import MappingCodec
from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers import operators
from repro.optimizers.base import BaseOptimizer
from repro.utils.rng import SeedLike


class StandardGAOptimizer(BaseOptimizer):
    """Plain generational GA with single-point crossover and uniform mutation."""

    default_name = "stdGA"

    def __init__(
        self,
        seed: SeedLike = None,
        population_size: int = 100,
        mutation_rate: float = 0.1,
        crossover_rate: float = 0.1,
        elite_ratio: float = 0.1,
        name: Optional[str] = None,
    ):
        super().__init__(seed=seed, name=name)
        if population_size < 2:
            raise OptimizationError("population_size must be at least 2")
        if not (0.0 <= mutation_rate <= 1.0 and 0.0 <= crossover_rate <= 1.0):
            raise OptimizationError("mutation_rate and crossover_rate must be in [0, 1]")
        if not (0.0 < elite_ratio < 1.0):
            raise OptimizationError(f"elite_ratio must be in (0, 1), got {elite_ratio}")
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self.elite_ratio = elite_ratio

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        self._require_budget(evaluator)
        population = self._initial_population(evaluator, self.population_size, initial_encodings)
        fitnesses = evaluator.evaluate_population(population)
        generations = 0

        while not evaluator.budget_exhausted:
            order = np.argsort(fitnesses)[::-1]
            population, fitnesses = population[order], fitnesses[order]
            # Size elites and children from the actual population, which can
            # exceed population_size when warm-start seeds were injected.
            pop_size = len(population)
            num_elites = min(pop_size - 1, max(1, int(round(self.elite_ratio * pop_size))))
            child_array = self._children(population, fitnesses, pop_size - num_elites, evaluator.codec)
            child_fitnesses = evaluator.evaluate_population(child_array)
            population = np.vstack([population[:num_elites], child_array])
            fitnesses = np.concatenate([fitnesses[:num_elites], child_fitnesses])
            generations += 1

        self.metadata["generations"] = generations
        return evaluator.best_encoding

    # ------------------------------------------------------------------
    def _children(
        self, population: np.ndarray, fitnesses: np.ndarray, num_children: int, codec: MappingCodec
    ) -> np.ndarray:
        """Tournament selection, single-point crossover and mutation, one array step each."""
        pairs = (num_children + 1) // 2
        # k=3 tournaments, one row per parent; argmax keeps the first best contender.
        contenders = self.rng.integers(0, len(population), size=(2 * pairs, min(3, len(population))))
        winners = contenders[np.arange(2 * pairs), np.argmax(fitnesses[contenders], axis=1)]
        dad, mom = population[winners[0::2]], population[winners[1::2]]
        crossed = self.rng.random(pairs) < self.crossover_rate
        pivot = self.rng.integers(1, codec.encoding_length, size=pairs)
        swap = crossed[:, None] & (np.arange(codec.encoding_length) >= pivot[:, None])
        children = np.concatenate([np.where(swap, mom, dad), np.where(swap, dad, mom)], axis=1)
        children = children.reshape(-1, codec.encoding_length)[:num_children]
        return operators.mutate(children, codec, self.rng, self.mutation_rate)
