"""Base class shared by all optimization algorithms in M3E.

Every algorithm — MAGMA, the black-box baselines, the RL agents, and the
manual heuristics — implements the same tiny interface: ``optimize`` receives
a :class:`~repro.core.evaluator.MappingEvaluator` (which owns the search
space shape, the fitness function, and the sampling budget) and returns the
best encoded mapping it found.  The evaluator enforces the shared sampling
budget, so algorithms simply loop until ``evaluator.budget_exhausted``.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.utils.rng import SeedLike, SeedPolicy


def ranked_finite(fitnesses: np.ndarray) -> np.ndarray:
    """Indices of the *evaluated* rows of a generation, best fitness first.

    When :meth:`MappingEvaluator.evaluate_population` truncates a generation
    on budget exhaustion, the unevaluated rows carry ``-inf`` placeholders.
    Elite selection and mean recombination must never consume those rows —
    they are arbitrary samples whose fitness was never measured — so rankers
    go through this mask.  Ties preserve row order (stable sort), matching
    what a stable descending sort of the full generation would pick.
    """
    fitnesses = np.asarray(fitnesses, dtype=float)
    finite = np.flatnonzero(np.isfinite(fitnesses))
    if finite.size == 0:
        return finite
    return finite[np.argsort(-fitnesses[finite], kind="stable")]


class BaseOptimizer(abc.ABC):
    """Common interface and bookkeeping for mapping optimizers.

    Parameters
    ----------
    seed:
        Seed or generator for the algorithm's random stream.
    name:
        Display name; defaults to the class-level ``default_name``.
    """

    #: Registry / display name, overridden by subclasses.
    default_name: str = "base"

    #: Whether the algorithm is a reinforcement-learning agent.  RL episodes
    #: are much slower in wall-clock terms, so the reduced experiment scales
    #: give RL agents a trimmed sampling budget (Section VI-B).  Budget
    #: policies key off this flag — resolved through the optimizer registry —
    #: rather than off a hard-coded set of method names, so new aliases of an
    #: RL optimizer automatically inherit the reduced budget.
    is_rl: bool = False

    def __init__(self, seed: SeedLike = None, name: Optional[str] = None):
        self.name = name or self.default_name
        #: The governing seed policy (see :mod:`repro.utils.rng`): explicit
        #: seed, session substream, or unset (error under pytest).
        self.seed_policy = SeedPolicy.resolve(seed)
        self._rng: Optional[np.random.Generator] = None
        #: Free-form dictionary of algorithm-specific diagnostics, surfaced in
        #: :class:`~repro.core.framework.SearchResult.metadata`.
        self.metadata: Dict[str, Any] = {}

    @property
    def rng(self) -> np.random.Generator:
        """The algorithm's root random stream.

        Materialised on first use, so *constructing* an optimizer without a
        seed is fine (e.g. to inspect hyper-parameter defaults) — only
        actually drawing unseeded randomness trips the policy's
        unset-is-error-under-pytest rule.
        """
        if self._rng is None:
            self._rng = self.seed_policy.generator()
        return self._rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self._rng = value

    # ------------------------------------------------------------------
    def reseed(self, seed: SeedLike) -> None:
        """Replace the algorithm's *entire* random state (used by M3E.compare).

        Rebuilds the policy and the root stream, then gives subclasses a
        chance to rebuild any component-local generators via
        :meth:`_reseed_components` — a reseeded optimizer must be
        bit-identical to a freshly constructed one with the same seed.
        """
        self.seed_policy = SeedPolicy.resolve(seed)
        self._rng = None
        self._reseed_components()

    def _reseed_components(self) -> None:
        """Hook for subclasses holding generators besides ``self.rng``.

        Any optimizer that caches a component-local generator (rather than
        deriving it per-``optimize`` call via :meth:`stream`) must rebuild it
        here, or :meth:`reseed` silently leaves stale streams behind.
        """

    def stream(self, name: str) -> np.random.Generator:
        """A named substream for an optimizer component (reseed-safe).

        Namespaced as ``optimizer/<optimizer-name>/<name>`` so two
        optimizers (or two components) never collide.  Derive component
        generators (RL network init, operator-local noise) through this
        rather than caching draws of ``self.rng``.
        """
        return self.seed_policy.stream(f"optimizer/{self.name}/{name}")

    @abc.abstractmethod
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """Search for a good mapping and return the best encoding found.

        ``initial_encodings`` optionally seeds the initial population /
        starting point (used by the warm-start engine).  Returning ``None``
        tells the framework to fall back to the evaluator's best-so-far
        record.
        """

    def _require_budget(self, evaluator: MappingEvaluator) -> None:
        """Refuse an evaluator without a sampling budget.

        Search loops run until ``evaluator.budget_exhausted``, which an
        evaluator without a budget never reports, so the search would never
        end.  Direct ``evaluate``/``evaluate_population`` calls on such an
        evaluator stay valid.
        """
        if evaluator.sampling_budget is None:
            raise OptimizationError(
                f"optimizer {self.name!r} needs a sampling budget, but the evaluator has "
                f"sampling_budget=None: its search loop would never end"
            )

    # ------------------------------------------------------------------
    # Helpers shared by population-based methods.
    # ------------------------------------------------------------------
    def _initial_population(
        self,
        evaluator: MappingEvaluator,
        population_size: int,
        initial_encodings: Optional[np.ndarray],
    ) -> np.ndarray:
        """Random population, optionally seeded with user-provided encodings.

        When the warm-start engine supplies more seeds than
        ``population_size`` every seed is kept, so the returned population can
        be *larger* than requested — population-based optimizers must size
        their generations from ``len(population)``, not their configured
        population size.
        """
        if population_size <= 0:
            raise OptimizationError(f"population_size must be positive, got {population_size}")
        population = evaluator.codec.random_population(population_size, self.rng)
        if initial_encodings is not None:
            seeds = evaluator.codec.repair_batch(initial_encodings)
            if len(seeds) >= population_size:
                population = seeds.copy()
            else:
                population[: len(seeds)] = seeds
        return population

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
