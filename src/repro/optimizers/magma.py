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
        num_cores = evaluator.codec.num_sub_accelerators
        genome = evaluator.codec.genome_length
        order = np.argsort(fitnesses)[::-1]

        # Elitism must follow the *actual* population size: warm-starting with
        # more initial encodings than cfg.population_size (Section V-C) grows
        # the population, and sizing elites from the configured value would
        # desynchronize the elite/child split from the sorted population.
        pop_size = len(population)
        num_elites = min(pop_size - 1, max(1, int(round(cfg.elite_ratio * pop_size))))
        pool_size = min(pop_size, max(2, num_elites * 2))
        num_children = pop_size - num_elites
        num_pairs = (num_children + 1) // 2

        # One buffer holds the generation: the elites, then each distinct
        # parent pair drawn uniformly from the elite-biased pool as a (son,
        # daughter) row pair, gathered with one take.  Each step draws its
        # own values and the next operator's rate mask in one call (a
        # disabled operator draws nothing; an operator hitting no pair draws
        # nothing more).
        rng = self.rng
        u_dad, u_mom, u_gen = operators.draw(
            rng, num_pairs, num_pairs, num_pairs if cfg.enable_crossover_gen else 0
        )
        dad, mom = operators.parent_pairs(u_dad, u_mom, pool_size)
        kept = np.empty(num_elites + 2 * num_pairs, dtype=np.intp)
        kept[:num_elites] = order[:num_elites]
        kept[num_elites::2] = order.take(dad)
        kept[num_elites + 1::2] = order.take(mom)
        rows = population.take(kept, axis=0)
        pairs = rows[num_elites:].reshape(num_pairs, 2, -1)

        # Crossover-gen then crossover-rg: two swaps in a row are one swap
        # by the XOR of their masks, so both ranges go into one mask.
        gen_hit = u_gen < cfg.crossover_gen_rate
        num_gen = np.count_nonzero(gen_hit)
        u_genome, u_pivot, u_rg = operators.draw(
            rng, num_gen, num_gen if genome > 1 else 0, num_pairs if cfg.enable_crossover_rg else 0
        )
        rg_hit = u_rg < cfg.crossover_rg_rate
        num_rg = np.count_nonzero(rg_hit)
        u_start, u_stop, u_accel = operators.draw(
            rng, num_rg, num_rg, num_pairs if cfg.enable_crossover_accel else 0
        )
        if num_gen or num_rg:
            # Per pair, gen's one column range and rg's two; a pair an
            # operator did not hit keeps the empty range [0, 0).
            bounds = np.zeros((6, num_pairs), dtype=np.intp)
            if num_gen:
                bounds[:2, gen_hit] = operators.crossover_gen_bounds(u_genome, u_pivot, genome)
            if num_rg:
                bounds[2:, rg_hit] = operators.crossover_rg_bounds(u_start, u_stop, genome)
            swap = operators.swap_mask(bounds, 2 * genome)
            np.copyto(pairs, pairs[:, ::-1].copy(), where=swap[:, None])

        # Crossover-accel: the daughter is crossed with the updated son.
        accel_hit = u_accel < cfg.crossover_accel_rate
        if accel_hit.any():
            crossed = pairs[accel_hit]
            son, daughter = crossed[:, 0], crossed[:, 1]
            operators.crossover_accel_into(son, daughter, rng, num_cores)
            operators.crossover_accel_into(daughter, son, rng, num_cores)
            pairs[accel_hit] = crossed

        # Mutation covers every child; an odd child count drops the last
        # daughter unmutated.
        children = rows[num_elites:pop_size]
        operators.mutate_into(children, rng, num_cores, cfg.mutation_rate)
        next_fitnesses = np.concatenate(
            [fitnesses.take(order[:num_elites]), evaluator.evaluate_population(children)]
        )
        return rows[:pop_size], next_fitnesses


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
