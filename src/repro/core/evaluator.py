"""Fitness evaluator: encoded mapping -> decoded schedule -> objective value.

This is the "Evaluation" half of the M3E loop (Fig. 3 of the paper): the
decoder turns the encoded mapping into a mapping description, the BW
allocator simulates it under the system-bandwidth constraint, and the fitness
function extracts the objective.  The evaluator also keeps a sample counter
and the best-so-far trace, which every experiment uses to enforce the shared
sampling budget and to draw convergence curves (Fig. 11, Fig. 16).

Four evaluation backends are available, chosen by the ``eval_config``
constructor argument (:class:`~repro.core.evalconfig.EvalConfig`, also exposed
as ``--eval-backend {scalar,batch,parallel,rpc}`` on the CLI):

* ``"batch"`` (default) — :meth:`MappingEvaluator.evaluate_population` decodes
  and simulates the whole population in one vectorized sweep through
  :class:`~repro.core.bw_allocator.BatchBandwidthAllocator`, with an
  encoding -> fitness memoization cache so elites and duplicate children cost
  no re-simulation.  Budget accounting still charges every requested sample,
  exactly as Section VI-B prescribes.
* ``"parallel"`` — the batch sweep sharded across a persistent pool of worker
  processes (:mod:`repro.core.parallel`); ``EvalConfig.workers`` picks the
  pool size (default: one per usable CPU, capped at 8).  Workers run the same
  :class:`~repro.core.parallel.SimulationRig` code path the batch backend
  uses in process, and the memo cache stays in the main process (only cache
  misses are dispatched, computed fitnesses are merged back), so the results
  are bit-identical to ``batch``.
* ``"rpc"`` — the same sharded sweep dispatched to remote evaluation workers
  (:mod:`repro.core.rpc`; ``EvalConfig.hosts`` lists their ``host:port``
  addresses, started with ``repro-magma eval-worker``).  Sharding, gather
  order, and the coordinator-side memo cache are identical to ``parallel``;
  dead workers are detected by heartbeat and their shards re-dispatched,
  falling back to local evaluation when no worker is reachable — so results
  stay bit-identical to ``batch`` whatever the fleet does.
* ``"scalar"`` — the original one-encoding-at-a-time reference oracle.

All backends produce bit-identical fitnesses, history, and best-encoding for
the same inputs; the scalar path is kept as the correctness oracle for the
equivalence property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.accelerator import AcceleratorPlatform
from repro.core.analyzer import JobAnalysisTable, JobAnalyzer
from repro.core.bw_allocator import BandwidthAllocator, BatchBandwidthAllocator
from repro.core.encoding import Mapping, MappingCodec
from repro.core.evalconfig import (
    DEFAULT_EVAL_BACKEND,
    EVAL_BACKENDS,
    EvalConfig,
)
from repro.core.objectives import Objective, get_objective
from repro.core.parallel import EvaluatorSpec, ParallelEvaluationPool, SimulationRig
from repro.core.rpc import RpcEvaluationPool
from repro.core.schedule import Schedule
from repro.exceptions import ConfigurationError, OptimizationError
from repro.obs import get_metrics, get_tracer
from repro.workloads.groups import JobGroup

#: Backends that dispatch population shards to a pool of workers.
_POOLED_BACKENDS: Tuple[str, ...] = ("parallel", "rpc")

#: Soft cap on the number of memoized encoding->fitness entries.
_FITNESS_CACHE_LIMIT = 200_000


@dataclass(frozen=True)
class EvaluationResult:
    """Result of evaluating one encoded mapping."""

    fitness: float
    objective_value: float
    makespan_cycles: float
    mapping: Mapping


class MappingEvaluator:
    """Evaluates encoded mappings for one (group, platform, objective) problem.

    The evaluator is the single object optimizers interact with: it exposes
    the codec (so algorithms know the search-space shape), a scalar
    ``evaluate`` call, and bookkeeping of the sampling budget.
    """

    def __init__(
        self,
        group: JobGroup,
        platform: AcceleratorPlatform,
        objective: Objective | str = "throughput",
        analysis_table: Optional[JobAnalysisTable] = None,
        sampling_budget: Optional[int] = None,
        resolved_seed: Optional[int] = None,
        eval_config: EvalConfig = EvalConfig(),
    ):
        if not isinstance(eval_config, EvalConfig):
            raise ConfigurationError(
                f"MappingEvaluator: eval_config must be an EvalConfig, got {eval_config!r}"
            )
        self.eval_config = eval_config
        self.group = group
        self.platform = platform
        self.objective = get_objective(objective)
        self.backend = eval_config.backend
        #: The search's resolved seed (recorded here so worker bootstraps in
        #: the parallel/rpc backends carry it instead of re-deriving one).
        self.resolved_seed = resolved_seed
        self.codec = MappingCodec(
            num_jobs=group.size,
            num_sub_accelerators=platform.num_sub_accelerators,
        )
        self.table = analysis_table if analysis_table is not None else JobAnalyzer(platform).analyze(group)
        self.allocator = BandwidthAllocator(
            system_bandwidth_gbps=platform.system_bandwidth_gbps,
            frequency_hz=platform.sub_accelerators[0].frequency_hz,
        )
        self.batch_allocator = BatchBandwidthAllocator(
            system_bandwidth_gbps=platform.system_bandwidth_gbps,
            frequency_hz=platform.sub_accelerators[0].frequency_hz,
        )
        #: The row-fitness engine shared (as a code path) with parallel workers.
        self._rig = SimulationRig(
            codec=self.codec,
            allocator=self.batch_allocator,
            table=self.table,
            objective=self.objective,
            resolved_seed=resolved_seed,
        )
        # Backend/worker/host combinations were validated once, by
        # ``EvalConfig.__post_init__``.
        self._pool: "Optional[ParallelEvaluationPool | RpcEvaluationPool]" = None
        if self.backend == "parallel":
            self._pool = ParallelEvaluationPool(
                spec=EvaluatorSpec.capture(
                    self.codec, self.batch_allocator, self.table, self.objective,
                    resolved_seed=resolved_seed,
                ),
                num_workers=eval_config.workers,
            )
        elif self.backend == "rpc":
            # No hosts (or none alive) degrades to local evaluation — the
            # pool's contract is "use the fleet when it is there", so results
            # never depend on fleet health.
            self._pool = RpcEvaluationPool(
                spec=EvaluatorSpec.capture(
                    self.codec, self.batch_allocator, self.table, self.objective,
                    resolved_seed=resolved_seed,
                ),
                hosts=eval_config.hosts,
                token=eval_config.rpc_token,
            )
        self.sampling_budget = sampling_budget
        # Telemetry (docs/OBSERVABILITY.md): per-generation spans when the
        # process tracer is enabled, always-on cheap counters (one lock
        # update per generation, never per row).  Observation only — nothing
        # here feeds a seed, a fingerprint, or a control-flow decision.
        self._tracer = get_tracer()
        _metrics = get_metrics()
        self._m_evals = _metrics.counter(
            "repro_evals_total",
            "Fitness evaluations performed, by evaluation backend",
            labels={"backend": self.backend},
        )
        self._m_memo_hits = _metrics.counter(
            "repro_memo_hits_total", "Encoding->fitness memo-cache hits (no re-simulation)"
        )
        self._m_memo_misses = _metrics.counter(
            "repro_memo_misses_total", "Memo-cache misses (rows freshly simulated)"
        )
        self._m_row_events = _metrics.counter(
            "repro_kernel_row_events_total",
            "Simulated kernel row-events (freshly simulated rows x group size)",
        )
        #: Cumulative memo-cache statistics (the flight recorder reads these
        #: at the end of a search).
        self.memo_hits = 0
        self.memo_misses = 0
        #: Number of :meth:`evaluate_population` calls (≈ optimizer generations).
        self.generations = 0
        #: Memoized repaired-encoding -> fitness map used by the batch
        #: backend.  Hits skip re-simulation but still consume budget.
        self._fitness_cache: Dict[bytes, float] = {}
        #: When true, every evaluated encoding and its fitness are recorded
        #: (used by the exploration-visualisation experiment, Fig. 10).
        self.record_samples = False
        self._samples_used = 0
        self._best_fitness = -np.inf
        self._best_encoding: Optional[np.ndarray] = None
        self._history: List[float] = []
        self._sampled_encodings: List[np.ndarray] = []
        self._sampled_fitnesses: List[float] = []

    # ------------------------------------------------------------------
    # Budget / history bookkeeping
    # ------------------------------------------------------------------
    @property
    def samples_used(self) -> int:
        """Number of fitness evaluations performed so far."""
        return self._samples_used

    @property
    def budget_exhausted(self) -> bool:
        """True once the sampling budget (if any) has been consumed."""
        return self.sampling_budget is not None and self._samples_used >= self.sampling_budget

    @property
    def remaining_budget(self) -> Optional[int]:
        """Evaluations left before the budget is exhausted (None = unlimited)."""
        if self.sampling_budget is None:
            return None
        return max(0, self.sampling_budget - self._samples_used)

    @property
    def best_fitness(self) -> float:
        """Best fitness seen so far (-inf before the first evaluation)."""
        return self._best_fitness

    @property
    def best_encoding(self) -> Optional[np.ndarray]:
        """Copy of the best encoded mapping seen so far."""
        return None if self._best_encoding is None else self._best_encoding.copy()

    @property
    def history(self) -> List[float]:
        """Best-so-far fitness after each evaluation (convergence curve)."""
        return list(self._history)

    @property
    def sampled_encodings(self) -> np.ndarray:
        """All recorded encodings (empty unless ``record_samples`` is set)."""
        if not self._sampled_encodings:
            return np.empty((0, self.codec.encoding_length))
        return np.asarray(self._sampled_encodings)

    @property
    def sampled_fitnesses(self) -> np.ndarray:
        """Fitness of each recorded encoding (empty unless ``record_samples``)."""
        return np.asarray(self._sampled_fitnesses)

    def reset(self) -> None:
        """Clear the sample counter, history, and best-so-far record."""
        self._samples_used = 0
        self._best_fitness = -np.inf
        self._best_encoding = None
        self._history = []
        self._sampled_encodings = []
        self._sampled_fitnesses = []

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, encoding: np.ndarray, count_sample: bool = True) -> float:
        """Evaluate one encoded mapping and return its fitness.

        When *count_sample* is true (the default) the evaluation consumes one
        unit of the sampling budget and is recorded in the convergence
        history.  Heuristic mappers and reporting paths pass ``False``.
        """
        if count_sample and self.budget_exhausted:
            raise OptimizationError(
                f"sampling budget of {self.sampling_budget} evaluations exhausted"
            )
        repaired = self.codec.repair(np.asarray(encoding, dtype=float))
        if self.backend in ("batch",) + _POOLED_BACKENDS:
            # One-at-a-time callers (RL environments, heuristics, DE trials in
            # scalar-era code paths) share the population memo cache: repeated
            # encodings skip re-simulation but still charge budget below.
            # Single encodings are never dispatched to workers — the IPC cost
            # would dwarf the simulation.
            key = repaired.tobytes()
            fitness = self._fitness_cache.get(key)
            if fitness is None:
                self.memo_misses += 1
                self._m_memo_misses.inc()
                self._m_row_events.inc(self.group.size)
                fitness = float(self._scalar_fitness(repaired))
                if len(self._fitness_cache) < _FITNESS_CACHE_LIMIT:
                    self._fitness_cache[key] = fitness
            else:
                self.memo_hits += 1
                self._m_memo_hits.inc()
        else:
            # The scalar oracle must score the *repaired* encoding, exactly
            # like the batch path: simulating the raw vector would let the two
            # backends (and the recorded best_encoding's fitness) disagree on
            # out-of-domain encodings.
            fitness = self._scalar_fitness(repaired)
        self._m_evals.inc()
        if count_sample:
            self._record_sample(fitness, repaired)
        return fitness

    def evaluate_population(self, population: np.ndarray, count_samples: bool = True) -> np.ndarray:
        """Evaluate a ``(pop, 2G)`` array of encodings, respecting the budget.

        On the ``batch`` backend the whole population is decoded and simulated
        in one vectorized sweep (memoized per repaired encoding); ``parallel``
        shards the same sweep across worker processes; the ``scalar`` backend
        evaluates row by row.  All yield bit-identical fitnesses, history, and
        best-encoding.  If the budget runs out part-way through, the remaining
        individuals receive ``-inf`` fitness so population-based optimizers
        can finish their generation without over-spending samples.
        """
        population = np.atleast_2d(np.asarray(population, dtype=float))
        num = population.shape[0]
        fitnesses = np.full(num, -np.inf)
        if count_samples:
            remaining = self.remaining_budget
            num_evaluated = num if remaining is None else min(num, remaining)
        else:
            num_evaluated = num
        if num_evaluated == 0:
            return fitnesses

        self.generations += 1
        with self._tracer.span(
            "evaluator.generation",
            backend=self.backend,
            rows=int(num_evaluated),
            gen=self.generations,
        ):
            if self.backend in _POOLED_BACKENDS:
                values, repaired = self._memoized_fitnesses(
                    population[:num_evaluated], self._pool.evaluate
                )
            elif self.backend == "batch":
                values, repaired = self._memoized_fitnesses(
                    population[:num_evaluated], self._rig.fitnesses_for_rows
                )
            else:
                # The scalar oracle simulates the repaired rows (the batch path
                # always has), so out-of-domain encodings score identically.
                repaired = np.stack(
                    [self.codec.repair(population[i]) for i in range(num_evaluated)]
                )
                values = np.array(
                    [self._scalar_fitness(repaired[i]) for i in range(num_evaluated)]
                )
                self._m_row_events.inc(int(num_evaluated) * self.group.size)
        self._m_evals.inc(int(num_evaluated))

        fitnesses[:num_evaluated] = values
        if count_samples:
            self._record_population(values, repaired)
        return fitnesses

    # ------------------------------------------------------------------
    # Backend internals
    # ------------------------------------------------------------------
    def _record_sample(self, fitness: float, repaired: np.ndarray) -> None:
        """Charge one budget sample and update the best/history bookkeeping."""
        self._samples_used += 1
        if fitness > self._best_fitness:
            self._best_fitness = fitness
            self._best_encoding = repaired
        self._history.append(self._best_fitness)
        if self.record_samples:
            self._sampled_encodings.append(repaired)
            self._sampled_fitnesses.append(fitness)

    def _record_population(self, fitnesses: np.ndarray, repaired: np.ndarray) -> None:
        """Vectorized :meth:`_record_sample` over a whole evaluated population.

        Produces exactly the bookkeeping a per-row loop would — the running
        best is a cumulative maximum seeded with the previous best, and the
        best encoding is the first row achieving the new maximum — but in a
        handful of array ops, so ``record_samples=True`` reporting runs
        (Fig. 10/15-style full-timeline recording) stay on the fast path.
        """
        num = len(fitnesses)
        self._samples_used += num
        running_best = np.maximum.accumulate(np.maximum(fitnesses, self._best_fitness))
        self._history.extend(float(v) for v in running_best)
        new_best = float(running_best[-1])
        if new_best > self._best_fitness:
            self._best_fitness = new_best
            self._best_encoding = repaired[int(np.argmax(fitnesses))].copy()
        if self.record_samples:
            self._sampled_encodings.extend(repaired[i].copy() for i in range(num))
            self._sampled_fitnesses.extend(float(v) for v in fitnesses)

    def _scalar_fitness(self, encoding: np.ndarray) -> float:
        """Reference fitness of one encoding via the scalar allocator."""
        mapping = self.codec.decode(encoding)
        makespan = self.allocator.makespan_cycles(mapping, self.table)
        schedule = self._lightweight_schedule(makespan)
        return self.objective.fitness(schedule, mapping, self.table)

    def _memoized_fitnesses(
        self, population: np.ndarray, simulate: Callable[[np.ndarray], np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fitness of every row, memoized; *simulate* scores the cache misses.

        Returns ``(fitnesses, repaired)``.  Rows whose repaired encoding was
        seen before (earlier generations or duplicates within this batch) are
        served from the cache without re-simulation; only the unique misses
        reach *simulate* — the in-process batch sweep or the worker pool.
        Freshly computed fitnesses merge back into the main-process cache, so
        parallel workers never need shared state.
        """
        repaired = self.codec.repair_batch(population)
        keys = [row.tobytes() for row in repaired]
        fresh: Dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self._fitness_cache and key not in fresh:
                fresh[key] = i
        hits = len(keys) - len(fresh)
        self.memo_hits += hits
        self.memo_misses += len(fresh)
        if hits:
            self._m_memo_hits.inc(hits)
        computed: Dict[bytes, float] = {}
        if fresh:
            self._m_memo_misses.inc(len(fresh))
            self._m_row_events.inc(len(fresh) * self.group.size)
            values = simulate(repaired[list(fresh.values())])
            computed = {key: float(values[slot]) for slot, key in enumerate(fresh)}
            if len(self._fitness_cache) < _FITNESS_CACHE_LIMIT:
                self._fitness_cache.update(computed)
        fitnesses = np.array(
            [computed.get(key, self._fitness_cache.get(key)) for key in keys], dtype=float
        )
        return fitnesses, repaired

    def detailed_evaluation(self, encoding: np.ndarray) -> EvaluationResult:
        """Evaluate one encoding and return the decoded mapping plus metrics.

        The encoding is repaired first, so the metrics always describe the
        same point the search fitness was measured at — a continuous
        optimizer's raw, out-of-domain vector must not yield a different
        result than its recorded (repaired) counterpart.
        """
        repaired = self.codec.repair(np.asarray(encoding, dtype=float))
        mapping = self.codec.decode(repaired)
        schedule = self.allocator.allocate(mapping, self.table)
        fitness = self.objective.fitness(schedule, mapping, self.table)
        value = self.objective.report_value(schedule, mapping, self.table)
        return EvaluationResult(
            fitness=fitness,
            objective_value=value,
            makespan_cycles=schedule.makespan_cycles,
            mapping=mapping,
        )

    def schedule_for(self, encoding: np.ndarray) -> Schedule:
        """Return the full schedule (timeline + bandwidth segments) of an encoding.

        Repairs before decoding, for the same reason as
        :meth:`detailed_evaluation`.
        """
        repaired = self.codec.repair(np.asarray(encoding, dtype=float))
        mapping = self.codec.decode(repaired)
        return self.allocator.allocate(mapping, self.table)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (the parallel/rpc backends' worker pools).

        Safe to call on any backend and more than once; a closed pooled
        evaluator lazily restarts its pool (or re-dials its workers) if it is
        used again.  RPC workers themselves keep serving — only this
        coordinator's connections are dropped.
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "MappingEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _lightweight_schedule(self, makespan_cycles: float) -> Schedule:
        """Build a minimal Schedule carrying only the makespan.

        The throughput / latency objectives only need the makespan and the
        total FLOPs; skipping the per-job timeline keeps the inner loop of
        10K-sample searches fast.  Delegates to the rig so the scalar oracle
        and the batch/parallel paths share one construction.
        """
        return self._rig.summary_schedule(makespan_cycles)
