"""MAGMA — Multi-Accelerator Genetic Mapping Algorithm (Section V of the paper).

MAGMA is a genetic algorithm whose exploration is structured by the custom
operators of :mod:`repro.optimizers.operators`.  Each generation:

1. the population is evaluated and sorted by fitness,
2. an elite fraction survives unchanged,
3. parents are drawn from the best-performing individuals and recombined with
   crossover-gen (the dominant operator), crossover-rg, and crossover-accel,
4. every child is passed through the standard mutation operator.

The per-operator enable flags make the ablation study of Fig. 16 a pure
configuration matter, and the hyper-parameters exposed here are the ones the
paper tunes via Bayesian optimisation (Section V-B3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers import operators
from repro.optimizers.base import BaseOptimizer
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class MagmaConfig:
    """Hyper-parameters of MAGMA (defaults follow Section V-B2 of the paper)."""

    population_size: int = 100
    elite_ratio: float = 0.2
    mutation_rate: float = 0.05
    crossover_gen_rate: float = 0.9
    crossover_rg_rate: float = 0.05
    crossover_accel_rate: float = 0.05
    #: Operator ablation switches (Fig. 16).
    enable_crossover_gen: bool = True
    enable_crossover_rg: bool = True
    enable_crossover_accel: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise OptimizationError("MAGMA needs a population of at least 2 individuals")
        if not (0.0 < self.elite_ratio < 1.0):
            raise OptimizationError(f"elite_ratio must be in (0, 1), got {self.elite_ratio}")
        for rate_name in ("mutation_rate", "crossover_gen_rate", "crossover_rg_rate", "crossover_accel_rate"):
            rate = getattr(self, rate_name)
            if not (0.0 <= rate <= 1.0):
                raise OptimizationError(f"{rate_name} must be in [0, 1], got {rate}")


class MagmaOptimizer(BaseOptimizer):
    """The MAGMA genetic algorithm with domain-specific operators."""

    default_name = "MAGMA"

    def __init__(
        self,
        seed: SeedLike = None,
        config: Optional[MagmaConfig] = None,
        name: Optional[str] = None,
        **overrides: object,
    ):
        super().__init__(seed=seed, name=name)
        if config is None:
            config = MagmaConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            raise OptimizationError("pass either a MagmaConfig or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """Run the generational loop until the sampling budget is exhausted."""
        cfg = self.config
        population = self._initial_population(evaluator, cfg.population_size, initial_encodings)
        fitnesses = evaluator.evaluate_population(population)
        generations = 0

        while not evaluator.budget_exhausted:
            population, fitnesses = self._next_generation(evaluator, population, fitnesses)
            generations += 1

        best_index = int(np.argmax(fitnesses))
        self.metadata.update(
            {
                "generations": generations,
                "population_size": cfg.population_size,
                "final_population_best": float(fitnesses[best_index]),
            }
        )
        # The evaluator's global best can precede the final population's best
        # (elitism keeps it, but guard against operator drift anyway).
        if evaluator.best_encoding is not None and evaluator.best_fitness >= fitnesses[best_index]:
            return evaluator.best_encoding
        return population[best_index]

    # ------------------------------------------------------------------
    def _next_generation(
        self,
        evaluator: MappingEvaluator,
        population: np.ndarray,
        fitnesses: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Produce and evaluate the next generation."""
        cfg = self.config
        codec = evaluator.codec
        order = np.argsort(fitnesses)[::-1]
        population = population[order]
        fitnesses = fitnesses[order]

        # Elitism must follow the *actual* population size: warm-starting with
        # more initial encodings than cfg.population_size (Section V-C) grows
        # the population, and sizing elites from the configured value would
        # desynchronize the elite/child split from the sorted population.
        pop_size = len(population)
        num_elites = min(pop_size - 1, max(1, int(round(cfg.elite_ratio * pop_size))))
        parent_pool = population[: max(2, num_elites * 2)]
        num_children = pop_size - num_elites

        # One array step builds the whole child block: distinct parent pairs
        # drawn uniformly from the elite-biased pool, one rate mask per
        # crossover applied to its rows (gen, then rg, then accel, whose
        # daughter is crossed with the already-updated son), sons and
        # daughters interleaved, and one mutation call over every child.
        rng = self.rng
        dad, mom = operators.draw_parent_pairs(len(parent_pool), (num_children + 1) // 2, rng)
        son, daughter = parent_pool[dad], parent_pool[mom]
        # A crossover drawing no rows draws no randomness, so skipping the
        # call on an empty hit leaves the random stream untouched.
        if cfg.enable_crossover_gen:
            hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_gen_rate)
            if hit.size:
                son[hit], daughter[hit] = operators.crossover_gen(son[hit], daughter[hit], codec, rng)
        if cfg.enable_crossover_rg:
            hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_rg_rate)
            if hit.size:
                son[hit], daughter[hit] = operators.crossover_rg(son[hit], daughter[hit], codec, rng)
        if cfg.enable_crossover_accel:
            hit = np.flatnonzero(rng.random(len(son)) < cfg.crossover_accel_rate)
            if hit.size:
                sons = operators.crossover_accel(son[hit], daughter[hit], codec, rng)
                son[hit] = sons
                daughter[hit] = operators.crossover_accel(daughter[hit], sons, codec, rng)
        children = np.concatenate([son, daughter], axis=1).reshape(-1, codec.encoding_length)
        children = operators.mutate(children[:num_children], codec, rng, cfg.mutation_rate)

        next_population = np.vstack([population[:num_elites], children])
        next_fitnesses = np.concatenate(
            [fitnesses[:num_elites], evaluator.evaluate_population(children)]
        )
        return next_population, next_fitnesses


def magma_mutation_only(seed: SeedLike = None, **overrides: object) -> MagmaOptimizer:
    """MAGMA restricted to the mutation operator (ablation level 1 of Fig. 16)."""
    config = MagmaConfig(
        enable_crossover_gen=False,
        enable_crossover_rg=False,
        enable_crossover_accel=False,
        **overrides,  # type: ignore[arg-type]
    )
    return MagmaOptimizer(seed=seed, config=config, name="MAGMA-mut")


def magma_mutation_crossover_gen(seed: SeedLike = None, **overrides: object) -> MagmaOptimizer:
    """MAGMA with mutation + crossover-gen only (ablation level 2 of Fig. 16)."""
    config = MagmaConfig(
        enable_crossover_rg=False,
        enable_crossover_accel=False,
        **overrides,  # type: ignore[arg-type]
    )
    return MagmaOptimizer(seed=seed, config=config, name="MAGMA-mut+gen")
