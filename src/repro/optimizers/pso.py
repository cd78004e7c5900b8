"""Particle Swarm Optimization baseline (PSO in Table IV of the paper).

Standard global-best PSO with the paper's hyper-parameters: weighting 0.8 for
the global best, 0.8 for the particle's own best, and inertia/momentum 1.6.
Because an inertia above 1 makes the raw update divergent, velocities are
clamped to a fraction of the search-space width, the standard remedy used in
discrete/clamped PSO variants.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.base import BaseOptimizer
from repro.utils.rng import SeedLike


class PSOOptimizer(BaseOptimizer):
    """Global-best particle swarm optimizer on the encoded mapping space."""

    default_name = "PSO"

    def __init__(
        self,
        seed: SeedLike = None,
        population_size: int = 100,
        global_best_weight: float = 0.8,
        personal_best_weight: float = 0.8,
        momentum: float = 1.6,
        velocity_clamp: float = 0.25,
        name: Optional[str] = None,
    ):
        super().__init__(seed=seed, name=name)
        if population_size < 2:
            raise OptimizationError("PSO needs at least 2 particles")
        if velocity_clamp <= 0:
            raise OptimizationError(f"velocity_clamp must be positive, got {velocity_clamp}")
        self.population_size = population_size
        self.global_best_weight = global_best_weight
        self.personal_best_weight = personal_best_weight
        self.momentum = momentum
        self.velocity_clamp = velocity_clamp

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        self._require_budget(evaluator)
        codec = evaluator.codec
        dimension = codec.encoding_length
        upper = np.concatenate(
            [
                np.full(codec.genome_length, float(codec.num_sub_accelerators - 1)),
                np.ones(codec.genome_length),
            ]
        )
        lower = np.zeros(dimension)
        span = np.maximum(upper - lower, 1e-9)

        positions = self._initial_population(evaluator, self.population_size, initial_encodings)
        num_particles = len(positions)  # can exceed population_size with warm-start seeds
        velocities = (self.rng.random((num_particles, dimension)) - 0.5) * span * 0.1
        fitnesses = evaluator.evaluate_population(positions)

        personal_best = positions.copy()
        personal_best_fitness = fitnesses.copy()
        global_index = int(np.argmax(fitnesses))
        global_best = positions[global_index].copy()
        global_best_fitness = float(fitnesses[global_index])

        iterations = 0
        clamp = self.velocity_clamp * span
        while not evaluator.budget_exhausted:
            r_personal = self.rng.random((num_particles, dimension))
            r_global = self.rng.random((num_particles, dimension))
            velocities = (
                self.momentum * velocities
                + self.personal_best_weight * r_personal * (personal_best - positions)
                + self.global_best_weight * r_global * (global_best - positions)
            )
            velocities = np.clip(velocities, -clamp, clamp)
            positions = np.clip(positions + velocities, lower, upper)

            fitnesses = evaluator.evaluate_population(positions)
            improved = fitnesses > personal_best_fitness
            personal_best[improved] = positions[improved]
            personal_best_fitness[improved] = fitnesses[improved]
            best_index = int(np.argmax(personal_best_fitness))
            if personal_best_fitness[best_index] > global_best_fitness:
                global_best_fitness = float(personal_best_fitness[best_index])
                global_best = personal_best[best_index].copy()
            iterations += 1

        self.metadata.update({"iterations": iterations, "global_best_fitness": global_best_fitness})
        return evaluator.best_encoding
