"""Fitness evaluator: encoded mapping -> decoded schedule -> objective value.

This is the "Evaluation" half of the M3E loop (Fig. 3 of the paper): the
decoder turns the encoded mapping into a mapping description, the BW
allocator simulates it under the system-bandwidth constraint, and the fitness
function extracts the objective.  The evaluator also keeps a sample counter
and the best-so-far trace, which every experiment uses to enforce the shared
sampling budget and to draw convergence curves (Fig. 11, Fig. 16).

Three evaluation backends are available, chosen by the ``eval_config``
constructor argument (:class:`~repro.core.evalconfig.EvalConfig`, also exposed
as ``--eval-backend {scalar,batch,parallel}`` on the CLI):

* ``"batch"`` (default) — :meth:`MappingEvaluator.evaluate_population` repairs,
  decodes and simulates the whole population in one vectorized sweep through
  :class:`~repro.core.bw_allocator.BatchBandwidthAllocator`.
* ``"parallel"`` — the batch sweep sharded across a persistent pool of worker
  processes (:mod:`repro.core.parallel`); ``EvalConfig.workers`` picks the
  pool size (default: one per usable CPU, capped at 8).  Every lane runs the
  evaluator's own :class:`SimulationRig` (workers get a copy of it), so the
  results are bit-identical to ``batch``.  Only this backend imports the
  pool module (and with it :mod:`multiprocessing`).
* ``"scalar"`` — the original one-encoding-at-a-time reference oracle.

Every backend simulates exactly the rows it is given: fitness is a pure
function of the repaired row, so a duplicate row costs one more simulation
and scores the same.  Every evaluated sample is charged against the budget,
exactly as Section VI-B prescribes.  Single encodings
(:meth:`MappingEvaluator.evaluate`, used by RL and the heuristics) always
run the scalar path; the IPC cost of a worker would dwarf one simulation.

All backends produce bit-identical fitnesses, history, and best-encoding for
the same inputs; the scalar path is kept as the correctness oracle for the
equivalence property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

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
from repro.core.schedule import Schedule
from repro.exceptions import ConfigurationError, OptimizationError
from repro.obs import get_metrics, get_tracer
from repro.workloads.groups import JobGroup

if TYPE_CHECKING:
    from repro.core.parallel import ParallelEvaluationPool


@dataclass(frozen=True)
class EvaluationResult:
    """Result of evaluating one encoded mapping."""

    fitness: float
    objective_value: float
    makespan_cycles: float
    mapping: Mapping
    schedule: Schedule


class SimulationRig:
    """Codec + batched allocator + table + objective: the row-fitness engine.

    ``fitnesses_for_rows`` is the one implementation of "simulate these
    repaired encodings and score them" — the ``batch`` backend calls it in
    process and every ``parallel`` lane calls it on its shard, so the two
    backends cannot drift apart numerically.  A rig pickles (a spawned
    ``parallel`` worker receives it that way) and scores the same rows the
    same after.
    """

    def __init__(
        self,
        codec: MappingCodec,
        allocator: BatchBandwidthAllocator,
        table: JobAnalysisTable,
        objective: Objective,
    ):
        self.codec = codec
        self.allocator = allocator
        self.table = table
        self.objective = objective

    def fitnesses_for_rows(self, rows: np.ndarray) -> np.ndarray:
        """Fitness of each (already repaired) encoding row, in row order."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        batch = self.codec.decode_batch(rows)
        makespans = self.allocator.makespan_cycles(batch, self.table)
        # Makespan-only objectives (the default throughput, latency) score the
        # whole population in a few ufuncs, elementwise bit-identical to the
        # per-row path below; mapping-reading objectives fall through to it.
        vectorized = self.objective.fitness_batch(
            makespans, self.table, self.allocator.frequency_hz
        )
        if vectorized is not None:
            return np.asarray(vectorized, dtype=float)
        fitnesses = np.empty(len(rows), dtype=float)
        for slot in range(len(rows)):
            schedule = self.summary_schedule(float(makespans[slot]))
            mapping = batch.mapping(slot) if self.objective.needs_mapping else None
            fitnesses[slot] = float(self.objective.fitness(schedule, mapping, self.table))
        return fitnesses

    def summary_schedule(self, makespan_cycles: float) -> Schedule:
        """Minimal Schedule carrying only the makespan (the fast fitness path)."""
        return Schedule(
            jobs=(),
            segments=(),
            num_sub_accelerators=self.codec.num_sub_accelerators,
            total_flops=self.table.total_flops,
            frequency_hz=self.allocator.frequency_hz,
            makespan_cycles_override=makespan_cycles,
        )


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
        #: The row-fitness engine; the parallel pool runs this same rig.
        self._rig = SimulationRig(
            codec=self.codec,
            allocator=self.batch_allocator,
            table=self.table,
            objective=self.objective,
        )
        # Backend/worker combinations were validated once, by
        # ``EvalConfig.__post_init__``.
        self._pool: Optional[ParallelEvaluationPool] = None
        if self.backend == "parallel":
            from repro.core.parallel import ParallelEvaluationPool

            self._pool = ParallelEvaluationPool(rig=self._rig, num_workers=eval_config.workers)
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
        self._m_row_events = _metrics.counter(
            "repro_kernel_row_events_total",
            "Simulated kernel row-events (evaluated rows x group size)",
        )
        #: Number of :meth:`evaluate_population` calls (≈ optimizer generations).
        self.generations = 0
        #: When true, every evaluated encoding and its fitness are recorded
        #: (used by the exploration-visualisation experiment, Fig. 10).
        self.record_samples = False
        self._samples_used = 0
        self._best_fitness = -np.inf
        self._best_encoding: Optional[np.ndarray] = None
        # Per-call float64 arrays, joined only when read.
        self._history: List[np.ndarray] = []
        self._sampled_encodings: List[np.ndarray] = []
        self._sampled_fitnesses: List[np.ndarray] = []

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
        return np.concatenate(self._history).tolist() if self._history else []

    @property
    def sampled_encodings(self) -> np.ndarray:
        """All recorded encodings (empty unless ``record_samples`` is set)."""
        if not self._sampled_encodings:
            return np.empty((0, self.codec.encoding_length))
        return np.concatenate(self._sampled_encodings)

    @property
    def sampled_fitnesses(self) -> np.ndarray:
        """Fitness of each recorded encoding (empty unless ``record_samples``)."""
        if not self._sampled_fitnesses:
            return np.empty(0)
        return np.concatenate(self._sampled_fitnesses)

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
        fitness = float(self._scalar_fitness(repaired))
        self._m_evals.inc()
        self._m_row_events.inc(self.group.size)
        if count_sample:
            self._record_population(np.array([fitness]), repaired[None, :])
        return fitness

    def evaluate_population(self, population: np.ndarray, count_samples: bool = True) -> np.ndarray:
        """Evaluate a ``(pop, 2G)`` array of encodings, respecting the budget.

        On the ``batch`` backend the whole population is decoded and simulated
        in one vectorized sweep; ``parallel`` shards the same sweep across
        worker processes; the ``scalar`` backend evaluates row by row.  All
        yield bit-identical fitnesses, history, and best-encoding.  If the
        budget runs out part-way through, the remaining individuals receive
        ``-inf`` fitness so population-based optimizers can finish their
        generation without over-spending samples.
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
            rows = population[:num_evaluated]
            if self.backend == "scalar":
                # The oracle repairs and simulates row by row; like the batch
                # path it scores the repaired rows, so out-of-domain
                # encodings score identically on every backend.
                repaired = np.stack([self.codec.repair(row) for row in rows])
                values = np.array([self._scalar_fitness(row) for row in repaired])
            else:
                repaired = self.codec.repair_batch(rows)
                simulate = self._rig.fitnesses_for_rows if self._pool is None else self._pool.evaluate
                values = simulate(repaired)
        self._m_evals.inc(int(num_evaluated))
        self._m_row_events.inc(int(num_evaluated) * self.group.size)

        fitnesses[:num_evaluated] = values
        if count_samples:
            self._record_population(values, repaired)
        return fitnesses

    # ------------------------------------------------------------------
    # Backend internals
    # ------------------------------------------------------------------
    def _record_population(self, fitnesses: np.ndarray, repaired: np.ndarray) -> None:
        """Charge one budget sample per row and update the best/history bookkeeping.

        Produces exactly the bookkeeping a per-row loop would — the running
        best is a cumulative maximum seeded with the previous best, and the
        best encoding is the first row achieving the new maximum — but in a
        handful of array ops, so ``record_samples=True`` reporting runs
        (Fig. 10/15-style full-timeline recording) stay on the fast path.
        """
        self._samples_used += len(fitnesses)
        running_best = np.maximum.accumulate(np.maximum(fitnesses, self._best_fitness))
        self._history.append(running_best)
        new_best = float(running_best[-1])
        if new_best > self._best_fitness:
            self._best_fitness = new_best
            self._best_encoding = repaired[int(np.argmax(fitnesses))].copy()
        if self.record_samples:
            self._sampled_encodings.append(repaired.copy())
            self._sampled_fitnesses.append(np.array(fitnesses, dtype=float))

    def _scalar_fitness(self, encoding: np.ndarray) -> float:
        """Reference fitness of one encoding via the scalar allocator."""
        mapping = self.codec.decode(encoding)
        makespan = self.allocator.makespan_cycles(mapping, self.table)
        schedule = self._lightweight_schedule(makespan)
        return self.objective.fitness(schedule, mapping, self.table)

    def detailed_evaluation(self, encoding: np.ndarray) -> EvaluationResult:
        """Evaluate one encoding and return the decoded mapping, metrics and schedule.

        The encoding is repaired first, so the metrics always describe the
        same point the search fitness was measured at — a continuous
        optimizer's raw, out-of-domain vector must not yield a different
        result than its recorded (repaired) counterpart.  The scalar
        allocator replays the mapping once, recording the full timeline.
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
            schedule=schedule,
        )

    def schedule_for(self, encoding: np.ndarray) -> Schedule:
        """Return the full schedule (timeline + bandwidth segments) of an encoding.

        The schedule of :meth:`detailed_evaluation`, so it too describes the
        repaired encoding.
        """
        return self.detailed_evaluation(encoding).schedule

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (the parallel backend's worker pool).

        Safe to call on any backend and more than once; a closed parallel
        evaluator lazily restarts its pool if it is used again.
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
