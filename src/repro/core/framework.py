"""The M3E search driver.

:class:`M3E` glues the pieces of Fig. 3 together: the Job Analyzer prepares
the Job Analysis Table, the chosen optimization algorithm proposes encoded
mappings, the decoder + BW allocator + fitness function evaluate them, and
the loop continues until the sampling budget is exhausted (or the optimizer
converges).  The result carries the best mapping, its schedule, and the
convergence history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.accelerator import AcceleratorPlatform
from repro.core.analyzer import AnalysisTableCache, JobAnalysisTable, JobAnalyzer
from repro.core.encoding import Mapping
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.core.objectives import Objective
from repro.core.schedule import Schedule
from repro.exceptions import ConfigurationError, OptimizationError
from repro.obs import FlightRecorder, get_tracer
from repro.obs.flight import null_phase
from repro.utils.rng import SeedLike
from repro.workloads.groups import JobGroup

#: Sampling budget used throughout the paper's evaluation (Section VI-B).
DEFAULT_SAMPLING_BUDGET = 10_000


def _population_size_of(algorithm: Any) -> int:
    """How many warm-start seeds an algorithm can absorb.

    GA-family optimizers keep the size either on the instance (stdGA, DE,
    PSO) or on their config dataclass (MAGMA, CMA-ES, TBPSA); point methods
    take a single seed encoding.
    """
    size = getattr(algorithm, "population_size", None)
    if size is None:
        size = getattr(getattr(algorithm, "config", None), "population_size", None)
    return int(size) if size else 1


@dataclass
class SearchResult:
    """Outcome of one mapping search.

    Attributes
    ----------
    best_encoding:
        The best encoded mapping found.
    best_mapping:
        Its decoded form (per-core ordered job lists).
    best_fitness:
        Fitness of the best mapping (higher is better).
    objective_value:
        The objective in natural units (GFLOP/s for throughput).
    samples_used:
        Number of fitness evaluations consumed.
    history:
        Best-so-far fitness after each evaluation (convergence curve).
    schedule:
        Full schedule (timeline + bandwidth segments) of the best mapping.
    optimizer_name:
        Name of the algorithm that produced the result.
    metadata:
        Optimizer-specific extras (e.g. final population, RL training stats).
    """

    best_encoding: np.ndarray
    best_mapping: Mapping
    best_fitness: float
    objective_value: float
    samples_used: int
    history: List[float]
    schedule: Schedule
    optimizer_name: str
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Flight-recorder block (wall/cpu per phase, eval + cache counts) —
    #: attached only when tracing is enabled, and deliberately *not* part of
    #: ``metadata``: metadata is durable/fingerprintable, telemetry is
    #: diagnostic and excluded from every store and fingerprint
    #: (docs/OBSERVABILITY.md).
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @property
    def throughput_gflops(self) -> float:
        """Throughput of the best schedule in GFLOP/s (the paper's main metric)."""
        return self.schedule.throughput_gflops


class M3E:
    """Multi-workload Multi-accelerator Mapping Explorer.

    Parameters
    ----------
    platform:
        The multi-core accelerator to map onto.
    objective:
        Objective name or instance (default ``"throughput"``).
    sampling_budget:
        Number of fitness evaluations each search may use (paper: 10K).
    eval_config:
        The evaluation-engine configuration
        (:class:`~repro.core.evalconfig.EvalConfig`): backend, local worker
        count, remote fleet, token — one validated object handed to every
        evaluator this explorer builds.
    table_cache:
        Job-analysis-table cache to consult before building a table.  By
        default every explorer gets a private cache; the campaign engine
        passes one shared :class:`~repro.core.analyzer.AnalysisTableCache`
        to every explorer it builds so equal (group, platform) cells reuse
        one table process-wide.
    warm_store:
        Optional warm-start provider (Section V-C made persistent).  Any
        object with ``warm_population(group, codec, objective, count, rng)``
        returning seed encodings (or ``None``) and ``observe(group, encoding,
        codec, fitness, objective)`` fits; the reference implementation is
        :class:`~repro.service.warmlib.WarmStartLibrary`.  When set, every
        search without explicit ``initial_encodings`` is seeded from the best
        remembered same-task solution, and every finished search reports its
        winner back.  ``None`` (the default) keeps searches bit-identical to
        the historical cold-start behaviour.
    """

    def __init__(
        self,
        platform: AcceleratorPlatform,
        objective: Objective | str = "throughput",
        sampling_budget: int = DEFAULT_SAMPLING_BUDGET,
        table_cache: Optional[AnalysisTableCache] = None,
        warm_store: Optional[Any] = None,
        eval_config: EvalConfig = EvalConfig(),
    ):
        if sampling_budget <= 0:
            raise OptimizationError(f"sampling_budget must be positive, got {sampling_budget}")
        # All backend/worker/host validation lives in EvalConfig itself.
        if not isinstance(eval_config, EvalConfig):
            raise ConfigurationError(f"M3E: eval_config must be an EvalConfig, got {eval_config!r}")
        self.eval_config = eval_config
        if eval_config.backend == "parallel":
            # Load the pool now, so the first search does not pay the import.
            import repro.core.parallel  # noqa: F401
        self.platform = platform
        self.objective = objective
        self.sampling_budget = sampling_budget
        self.warm_store = warm_store
        self._analyzer = JobAnalyzer(platform)
        self._table_cache = table_cache if table_cache is not None else AnalysisTableCache()

    # ------------------------------------------------------------------
    def analyze(self, group: JobGroup) -> JobAnalysisTable:
        """Build (and cache) the Job Analysis Table for a group.

        The cache is keyed by content fingerprints of the platform and the
        group (its layer shapes, in order) rather than ``id(group)``: an
        ``id`` can be reused by a new group once the old one is garbage
        collected, which would silently return the wrong table.  Content
        keying also lets two equal-content groups — possibly analysed by two
        different explorers sharing one cache — reuse one table.
        """
        return self._table_cache.get_or_build(self.platform, group, self._analyzer)

    def build_evaluator(
        self,
        group: JobGroup,
        sampling_budget: Optional[int] = None,
        resolved_seed: Optional[int] = None,
    ) -> MappingEvaluator:
        """Construct the fitness evaluator for a group (pre-processing step).

        ``resolved_seed`` is the search's concrete seed (when known): the
        parallel backend carries it into its worker bootstraps so workers
        never re-derive their own.
        """
        return MappingEvaluator(
            group=group,
            platform=self.platform,
            objective=self.objective,
            analysis_table=self.analyze(group),
            sampling_budget=sampling_budget if sampling_budget is not None else self.sampling_budget,
            eval_config=self.eval_config,
            resolved_seed=resolved_seed,
        )

    # ------------------------------------------------------------------
    def search(
        self,
        group: JobGroup,
        optimizer: Any = "magma",
        seed: SeedLike = None,
        sampling_budget: Optional[int] = None,
        optimizer_options: Optional[Dict[str, Any]] = None,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> SearchResult:
        """Run one mapping search and return the best mapping found.

        ``optimizer`` may be a registered algorithm name (see
        :func:`repro.optimizers.list_optimizers`) or an already-constructed
        optimizer instance.  ``initial_encodings`` seeds the initial
        population — this is how the warm-start engine injects previous
        solutions (Section V-C).
        """
        # Imported lazily to avoid a circular dependency: the optimizers
        # package builds on the core evaluator defined here.
        from repro.optimizers import build_optimizer
        from repro.optimizers.base import BaseOptimizer

        # The algorithm is built first so its governing seed policy is known
        # before the evaluator exists: the parallel backend threads the
        # resolved seed into its worker bootstraps.
        if isinstance(optimizer, BaseOptimizer):
            algorithm = optimizer
            if seed is not None:
                algorithm.reseed(seed)
        else:
            algorithm = build_optimizer(optimizer, seed=seed, **(optimizer_options or {}))
        seed_policy = getattr(algorithm, "seed_policy", None)
        resolved_seed = seed_policy.resolved_seed if seed_policy is not None else None

        # Telemetry observes, never steers: the tracer/recorder touch no RNG
        # and feed no fingerprint, so a traced search is bit-identical to an
        # untraced one (asserted per backend by the tier-1 property tests).
        tracer = get_tracer()
        recorder = FlightRecorder() if tracer.enabled else None

        def phase(name: str) -> Any:
            return recorder.phase(name) if recorder is not None else null_phase()

        with tracer.span(
            "m3e.search",
            optimizer=algorithm.name,
            backend=self.eval_config.backend,
            group_size=group.size,
            seed=resolved_seed,
        ):
            with phase("analyze"):
                evaluator = self.build_evaluator(group, sampling_budget, resolved_seed=resolved_seed)

            with phase("warm_start"):
                if initial_encodings is None and self.warm_store is not None:
                    # Perturbations of the extra warm seeds must be
                    # reproducible: with no explicit seed (e.g. campaign cells
                    # hand over a pre-seeded optimizer instance), draw from the
                    # algorithm's own deterministic stream instead of fresh OS
                    # entropy.
                    warm_rng = seed if seed is not None else getattr(algorithm, "rng", None)
                    initial_encodings = self.warm_store.warm_population(
                        group,
                        evaluator.codec,
                        objective=evaluator.objective.name,
                        count=_population_size_of(algorithm),
                        rng=warm_rng,
                    )

            try:
                with phase("optimize"):
                    best_encoding = algorithm.optimize(evaluator, initial_encodings=initial_encodings)
                    if best_encoding is None:
                        if evaluator.best_encoding is None:
                            raise OptimizationError(
                                f"optimizer {algorithm.name!r} returned no solution and evaluated no samples"
                            )
                        best_encoding = evaluator.best_encoding

                with phase("finalize"):
                    detail = evaluator.detailed_evaluation(best_encoding)
            finally:
                # The parallel backend's worker pool persists across
                # generations; release it once the search is over (no-op for
                # other backends).
                evaluator.close()
            if self.warm_store is not None:
                with phase("finalize"):
                    self.warm_store.observe(
                        group,
                        best_encoding,
                        evaluator.codec,
                        detail.fitness,
                        objective=evaluator.objective.name,
                    )

        telemetry: Optional[Dict[str, Any]] = None
        if recorder is not None:
            recorder.count(f"evals_{self.eval_config.backend}", float(evaluator.samples_used))
            recorder.count("generations", float(evaluator.generations))
            telemetry = recorder.to_dict()
            telemetry["backend"] = self.eval_config.backend
        metadata = dict(algorithm.metadata)
        if seed_policy is not None:
            # Record the seed that governed this search so replays (service,
            # campaign store, figure post-hooks) know their provenance.
            metadata.setdefault("resolved_seed", resolved_seed)
            metadata.setdefault("seed_source", seed_policy.source)
        return SearchResult(
            best_encoding=np.asarray(best_encoding, dtype=float),
            best_mapping=detail.mapping,
            best_fitness=detail.fitness,
            objective_value=detail.objective_value,
            samples_used=evaluator.samples_used,
            history=evaluator.history,
            schedule=detail.schedule,
            optimizer_name=algorithm.name,
            metadata=metadata,
            telemetry=telemetry,
        )

    def compare(
        self,
        group: JobGroup,
        optimizers: List[Any],
        seed: SeedLike = None,
        sampling_budget: Optional[int] = None,
    ) -> Dict[str, SearchResult]:
        """Run several optimizers on the same group with independent RNG streams.

        This is the building block behind the per-figure experiments: every
        algorithm receives the same group, platform, objective, and sampling
        budget, exactly as in Section VI-B.
        """
        from repro.utils.rng import spawn_rngs
        from repro.utils.tables import unique_key

        rngs = spawn_rngs(seed, len(optimizers))
        results: Dict[str, SearchResult] = {}
        for algorithm, rng in zip(optimizers, rngs):
            result = self.search(group, optimizer=algorithm, seed=rng, sampling_budget=sampling_budget)
            # Two optimizers may share a display name (e.g. two MAGMA
            # instances with different configs); suffix instead of silently
            # overwriting the earlier result.
            results[unique_key(result.optimizer_name, results)] = result
        return results
