"""Sharded multi-process evaluation backend (the ``parallel`` eval backend).

The batch evaluation engine simulates a whole population in one vectorized
sweep, but a single process can only use one core.  The population sweep is
embarrassingly parallel across *rows* (each individual's simulation is
independent), so this module shards a population across a persistent pool of
worker processes:

* :class:`EvaluatorSpec` is a small picklable recipe — codec shape, system
  bandwidth, objective, and the dense Job Analysis Table arrays — from which
  a worker can rebuild the full evaluation state without ever shipping the
  (heavier, model-bearing) :class:`~repro.workloads.groups.JobGroup` or
  platform objects across the process boundary.
* :class:`SimulationRig` is the reconstructed state: codec + batched
  allocator + table + objective.  The in-process ``batch`` backend and the
  workers run the *same* rig code path, which is what makes the ``parallel``
  backend bit-identical to ``batch`` by construction.
* :class:`ParallelEvaluationPool` owns the worker pool: it bootstraps each
  worker once (``initializer`` rebuilds the rig from the spec), splits a
  population of repaired encodings into fixed-size work-stealing chunks that
  idle workers pull from the pool's shared task queue, scatters each chunk's
  fitnesses at its own row offset (row order is positional, so any steal
  schedule gathers identically), and is reused across generations until
  :meth:`ParallelEvaluationPool.close`.  Arrays travel zero-copy through a
  :class:`SharedMemoryRing` — workers read encodings and write fitness rows
  in place — so only tiny chunk descriptors cross the pool's pipes.

Memoization stays in the main process: the evaluator dispatches only rows
that miss its encoding -> fitness cache and merges the freshly computed
fitnesses back, so workers never need a shared cache (and duplicate rows are
simulated exactly once per search, same as the ``batch`` backend).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.analyzer import JobAnalysisTable
from repro.core.bw_allocator import BatchBandwidthAllocator
from repro.core.encoding import MappingCodec
from repro.core.objectives import Objective, get_objective
from repro.core.schedule import Schedule
from repro.exceptions import ConfigurationError
from repro.obs import get_metrics, get_tracer

#: Populations below twice this are simulated inline in the main process: the
#: dispatch overhead would exceed the simulation cost.
MIN_ROWS_PER_WORKER = 8

#: Height of one work-stealing chunk: the fixed unit of dispatch every
#: distributed backend pulls from its shared queue.  Small enough that a slow
#: worker strands at most one chunk's worth of latency, large enough that the
#: per-chunk dispatch overhead stays amortised (see BENCH_dispatch_overhead.json,
#: written by benchmarks/test_dispatch_overhead.py).
DEFAULT_CHUNK_ROWS = 16

#: Test seams for the fault-injection property tests (inherited by forked
#: workers at pool creation): a per-chunk delay to simulate slow workers, and
#: a chunk start row whose worker kills itself mid-task to simulate a crash.
_FAULT_DELAY_S: float = 0.0
_FAULT_KILL_CHUNK_START: Optional[int] = None


def split_chunks(num_rows: int, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> List[Tuple[int, int]]:
    """Fixed-size contiguous ``(start, stop)`` chunks — the work-stealing unit.

    Chunks are *pulled* from a shared queue by whichever worker goes idle
    first, not assigned up front.  Each chunk writes its fitnesses at its own
    row offset, so the gathered result is row-ordered no matter which worker
    computed which chunk or in what order — and because every row's
    simulation is independent (the batch kernel is elementwise per row), the
    values are bit-identical for every chunk size and steal schedule.
    """
    if chunk_rows < 1:
        raise ConfigurationError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return [
        (start, min(start + chunk_rows, int(num_rows)))
        for start in range(0, int(num_rows), chunk_rows)
    ]


def resolve_num_workers(num_workers: Optional[int]) -> int:
    """Resolve a worker-count request against the CPUs this process may use.

    ``None`` (auto) uses every CPU in the process's affinity mask (so a
    ``taskset``-pinned run does not oversubscribe its cores), capped at 8 —
    population shards are overhead-bound below ~25 rows, so more workers
    than that rarely helps.  Explicit requests are honoured as given.
    """
    if num_workers is None:
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:  # pragma: no cover - platforms without affinity masks
            usable = os.cpu_count() or 1
        return max(1, min(usable, 8))
    if num_workers < 1:
        raise ConfigurationError(f"eval workers must be >= 1, got {num_workers}")
    return int(num_workers)


@dataclass(frozen=True, eq=False)
class EvaluatorSpec:
    """Picklable recipe for rebuilding per-worker evaluation state.

    Carries exactly what the decode -> BW-allocate -> fitness loop needs:
    the codec shape, the shared-bandwidth constraint, the objective, and the
    dense Job Analysis Table arrays.  Everything here pickles cheaply (NumPy
    arrays plus scalars), so the spec crosses the process boundary once per
    worker regardless of how many generations the pool serves.

    ``eq=False``: a generated ``__eq__`` would be wrong here (ndarray
    comparison is elementwise, objectives compare by identity), so specs keep
    identity semantics.
    """

    num_jobs: int
    num_sub_accelerators: int
    system_bandwidth_gbps: float
    frequency_hz: float
    objective: Objective
    latency_cycles: np.ndarray
    required_bw_gbps: np.ndarray
    energy_joules: np.ndarray
    dram_traffic_bytes: np.ndarray
    job_flops: np.ndarray
    #: The search's resolved seed, carried to every worker so worker-side
    #: randomness (if any is ever added) derives from the coordinator's seed
    #: policy instead of being re-resolved per process.  ``None`` when the
    #: search itself is unseeded.
    resolved_seed: Optional[int] = None

    @classmethod
    def capture(
        cls,
        codec: MappingCodec,
        allocator: BatchBandwidthAllocator,
        table: JobAnalysisTable,
        objective: Objective | str,
        resolved_seed: Optional[int] = None,
    ) -> "EvaluatorSpec":
        """Snapshot an evaluator's state into a spec (arrays are shared, not copied)."""
        return cls(
            num_jobs=codec.num_jobs,
            num_sub_accelerators=codec.num_sub_accelerators,
            system_bandwidth_gbps=allocator.system_bandwidth_gbps,
            frequency_hz=allocator.frequency_hz,
            objective=get_objective(objective),
            latency_cycles=table.latency_cycles,
            required_bw_gbps=table.required_bw_gbps,
            energy_joules=table.energy_joules,
            dram_traffic_bytes=table.dram_traffic_bytes,
            job_flops=table.job_flops,
            resolved_seed=resolved_seed,
        )

    def build_rig(self) -> "SimulationRig":
        """Reconstruct the full evaluation state described by this spec."""
        table = JobAnalysisTable(
            latency_cycles=self.latency_cycles,
            required_bw_gbps=self.required_bw_gbps,
            energy_joules=self.energy_joules,
            dram_traffic_bytes=self.dram_traffic_bytes,
            job_flops=self.job_flops,
        )
        return SimulationRig(
            codec=MappingCodec(
                num_jobs=self.num_jobs,
                num_sub_accelerators=self.num_sub_accelerators,
            ),
            allocator=BatchBandwidthAllocator(
                system_bandwidth_gbps=self.system_bandwidth_gbps,
                frequency_hz=self.frequency_hz,
            ),
            table=table,
            objective=self.objective,
            resolved_seed=self.resolved_seed,
        )


class SimulationRig:
    """Codec + batched allocator + table + objective: the row-fitness engine.

    ``fitnesses_for_rows`` is the one implementation of "simulate these
    repaired encodings and score them" — the ``batch`` backend calls it in
    process and every ``parallel`` worker calls it on its shard, so the two
    backends cannot drift apart numerically.
    """

    def __init__(
        self,
        codec: MappingCodec,
        allocator: BatchBandwidthAllocator,
        table: JobAnalysisTable,
        objective: Objective,
        resolved_seed: Optional[int] = None,
    ):
        self.codec = codec
        self.allocator = allocator
        self.table = table
        self.objective = objective
        #: The coordinating search's resolved seed (see EvaluatorSpec).
        self.resolved_seed = resolved_seed

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


# ----------------------------------------------------------------------
# Zero-copy transport: shared-memory ring
# ----------------------------------------------------------------------
class SharedMemoryRing:
    """Rotating ring of named shared-memory slots for zero-copy dispatch.

    One generation's traffic — the repaired population in and the fitness
    row out — lives in a single slot; consecutive generations rotate through
    the slots so a straggler still reading slot ``k`` can never observe slot
    ``k``'s next reuse until a full rotation later.  Slots are created
    lazily and grown (never shrunk) to the largest population seen; the
    coordinator owns them and unlinks them all on :meth:`close`.
    """

    def __init__(self, slots: int = 2):
        self._slots: List[Optional[shared_memory.SharedMemory]] = [None] * max(2, slots)
        self._turn = 0

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """Next slot in rotation, (re)created if absent or too small."""
        index = self._turn % len(self._slots)
        self._turn += 1
        segment = self._slots[index]
        if segment is None or segment.size < nbytes:
            if segment is not None:
                segment.close()
                segment.unlink()
            segment = shared_memory.SharedMemory(create=True, size=max(1, int(nbytes)))
            self._slots[index] = segment
        return segment

    def close(self) -> None:
        """Release and unlink every slot (idempotent)."""
        for index, segment in enumerate(self._slots):
            if segment is None:
                continue
            self._slots[index] = None
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
#: Per-worker rig, rebuilt once by the pool initializer (module-global so the
#: map function can reach it; each worker process has its own copy).
_WORKER_RIG: Optional[SimulationRig] = None

#: Per-worker shared-memory attachments, cached by segment name so each ring
#: slot is mapped once per worker process, not once per chunk.
_WORKER_SHM: Dict[str, shared_memory.SharedMemory] = {}

#: Attachment cache bound: ring slots are few, but a long-lived worker serving
#: many coordinators should not accumulate dead mappings without limit.
_WORKER_SHM_CACHE_LIMIT = 8


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to (or reuse the cached mapping of) one named ring slot."""
    segment = _WORKER_SHM.get(name)
    if segment is None:
        while len(_WORKER_SHM) >= _WORKER_SHM_CACHE_LIMIT:
            stale = _WORKER_SHM.pop(next(iter(_WORKER_SHM)))  # oldest attachment
            stale.close()
        segment = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = segment
    return segment


def _bootstrap_worker(spec: EvaluatorSpec) -> None:
    """Pool initializer: rebuild the evaluation state once per worker.

    The coordinator's resolved seed travels inside the spec: a parallel
    worker is dedicated to one coordinator, so installing it as the worker's
    session seed means any worker-side randomness derives from the search's
    own seed policy rather than re-resolving (or falling back to entropy)
    in the child process.
    """
    global _WORKER_RIG
    _WORKER_RIG = spec.build_rig()
    if spec.resolved_seed is not None:
        from repro.utils.rng import set_global_seed

        set_global_seed(spec.resolved_seed, source="worker-bootstrap")


def _worker_ready(_: int) -> bool:
    """Trivial map function for :meth:`ParallelEvaluationPool.warm_up`."""
    return _WORKER_RIG is not None


def _inject_chunk_faults(start: int) -> None:
    """Honour the fault-injection test seams (no-ops in production)."""
    if _FAULT_DELAY_S > 0.0:
        time.sleep(_FAULT_DELAY_S)
    if _FAULT_KILL_CHUNK_START is not None and start == _FAULT_KILL_CHUNK_START:
        os._exit(1)  # simulate a worker crash mid-chunk


def _evaluate_shm_chunk(task: Tuple[str, int, int, int, int]) -> Tuple[int, int]:
    """Work-stealing map function: one chunk, read and written in place.

    *task* is ``(segment_name, pop, width, start, stop)``: the worker maps
    the named ring slot, reads its chunk of encoding rows **in place** (the
    rig's decode never copies the float64 input), and writes the fitness row
    back **in place** at the slot's output region — the only bytes that cross
    the process boundary are this tiny task tuple and the ``(start, stop)``
    acknowledgement.
    """
    name, pop, width, start, stop = task
    if _WORKER_RIG is None:  # pragma: no cover - defensive, initializer always runs
        raise RuntimeError("parallel evaluation worker used before bootstrap")
    _inject_chunk_faults(start)
    segment = _attach_shared_memory(name)
    rows = np.ndarray((pop, width), dtype=np.float64, buffer=segment.buf)[start:stop]
    fitnesses = _WORKER_RIG.fitnesses_for_rows(rows)
    out = np.ndarray((pop,), dtype=np.float64, buffer=segment.buf, offset=pop * width * 8)
    out[start:stop] = fitnesses
    return start, stop


# ----------------------------------------------------------------------
# Main process side
# ----------------------------------------------------------------------
class ParallelEvaluationPool:
    """Persistent pool of evaluation workers sharing one :class:`EvaluatorSpec`.

    The pool is created lazily on the first evaluation, reused across
    generations (workers keep their reconstructed rig for their lifetime),
    and shut down cleanly by :meth:`close` (also invoked on garbage
    collection and by ``with`` blocks).  A population is cut into fixed-size
    contiguous chunks (:meth:`_chunks`) that idle workers steal from one
    shared queue; each chunk writes its fitnesses at its own row offset, so
    the gathered result preserves row order exactly whatever the schedule.
    """

    def __init__(
        self,
        spec: EvaluatorSpec,
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        task_timeout_s: float = 60.0,
    ):
        self.spec = spec
        self.num_workers = resolve_num_workers(num_workers)
        if start_method is None:
            # fork reuses the parent's imported modules (cheap bootstrap);
            # spawn is the portable fallback and works because the spec is
            # picklable and the worker entry points are module-level.
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self.start_method = start_method
        if chunk_rows < 1:
            raise ConfigurationError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.chunk_rows = int(chunk_rows)
        #: How long to wait for one chunk acknowledgement before declaring
        #: its worker lost and recomputing the missing chunks inline.
        self.task_timeout_s = float(task_timeout_s)
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._fallback_rig: Optional[SimulationRig] = None
        self._ring: Optional[SharedMemoryRing] = None
        # Telemetry (docs/OBSERVABILITY.md): dispatch counters plus
        # structured warnings on the recovery paths, coordinator-side only —
        # workers never touch the tracer or the registry.
        self._tracer = get_tracer()
        _metrics = get_metrics()
        self._m_chunks = _metrics.counter(
            "repro_chunks_dispatched_total",
            "Work-stealing chunks dispatched to evaluation workers",
            labels={"backend": "parallel"},
        )
        self._m_fallback = _metrics.counter(
            "repro_local_fallback_chunks_total",
            "Chunks recomputed inline after a worker or fleet loss",
            labels={"backend": "parallel"},
        )
        self._m_deaths = _metrics.counter(
            "repro_worker_deaths_total",
            "Workers (or whole pools) lost mid-evaluation",
            labels={"backend": "parallel"},
        )

    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True while worker processes are alive."""
        return self._pool is not None

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            # Start the shared-memory resource tracker *before* forking
            # workers: a child forked without a live tracker would lazily
            # spawn its own on first attach, and that private tracker later
            # "cleans up" (and warns about) segments the coordinator still
            # owns.  With the tracker already running, every process funnels
            # into the one inherited instance and the coordinator's unlink is
            # the single source of truth.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            context = multiprocessing.get_context(self.start_method)
            self._pool = context.Pool(
                processes=self.num_workers,
                initializer=_bootstrap_worker,
                initargs=(self.spec,),
            )
        return self._pool

    def _chunks(self, num_rows: int) -> List[Tuple[int, int]]:
        """Fixed-size work-stealing chunks, shrunk so every worker gets work.

        The chunk height is :attr:`chunk_rows` capped at an even split of the
        population (never below :data:`MIN_ROWS_PER_WORKER`): a population
        that used to fill every worker under static sharding still does under
        work stealing, while large populations get several chunks per worker
        for the queue to balance.
        """
        num_rows = int(num_rows)
        if num_rows < 2 * MIN_ROWS_PER_WORKER:
            # A population this small is overhead-bound: one (inline)
            # chunk beats any dispatch.
            return split_chunks(num_rows, max(1, num_rows))
        even = -(-num_rows // self.num_workers)  # ceil division
        height = min(self.chunk_rows, max(MIN_ROWS_PER_WORKER, even))
        return split_chunks(num_rows, height)

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        """Fitness of each (already repaired) encoding row, preserving row order."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if len(rows) == 0:
            return np.empty(0, dtype=float)
        chunks = self._chunks(len(rows))
        if len(chunks) == 1 or self.num_workers == 1:
            # A single chunk gains nothing from IPC (one worker would do all
            # the work anyway); run it in process and leave the pool alone.
            return self._local_rig().fitnesses_for_rows(rows)
        pool = self._ensure_pool()
        self._m_chunks.inc(len(chunks))
        self._tracer.event("parallel.dispatch", chunks=len(chunks), rows=len(rows), transport="shm")
        return self._evaluate_shared(pool, rows, chunks)

    def _evaluate_shared(
        self,
        pool: multiprocessing.pool.Pool,
        rows: np.ndarray,
        chunks: List[Tuple[int, int]],
    ) -> np.ndarray:
        """Zero-copy dispatch: population and fitnesses travel via the ring.

        One ring slot holds the whole generation — the ``(pop, width)``
        float64 population followed by the ``(pop,)`` fitness row.  Workers
        pull ``(segment, start, stop)`` descriptors from the pool's shared
        task queue (``imap_unordered`` with ``chunksize=1`` *is* the steal
        queue: an idle worker takes the next chunk the moment it finishes its
        last) and write results in place, so the arrays themselves never
        cross the pipe in either direction.
        """
        pop, width = rows.shape
        if self._ring is None:
            self._ring = SharedMemoryRing()
        segment = self._ring.acquire(rows.nbytes + pop * 8)
        shared_rows = np.ndarray((pop, width), dtype=np.float64, buffer=segment.buf)
        shared_rows[:] = rows
        shared_out = np.ndarray((pop,), dtype=np.float64, buffer=segment.buf, offset=rows.nbytes)
        tasks = [(segment.name, pop, width, start, stop) for start, stop in chunks]
        acks = self._collect(pool.imap_unordered(_evaluate_shm_chunk, tasks, chunksize=1),
                             len(chunks))
        acked = {start for start, _ in acks}
        missing = [chunk for chunk in chunks if chunk[0] not in acked]
        if missing:
            self._note_inline_recovery(missing)
            rig = self._local_rig()
            for start, stop in missing:
                shared_out[start:stop] = rig.fitnesses_for_rows(rows[start:stop])
        return np.array(shared_out, dtype=float, copy=True)

    def _note_inline_recovery(self, missing: List[Tuple[int, int]]) -> None:
        """Make a silent recovery loud: which chunks a lost worker stranded.

        Recovery itself stays automatic (results are bit-identical either
        way), but fleet degradation must be visible — the warning is recorded
        even with tracing disabled.
        """
        self._m_fallback.inc(len(missing))
        self._tracer.warning(
            "parallel.chunks-recovered-inline",
            chunks=[[int(start), int(stop)] for start, stop in missing],
            transport="shm",
        )

    def _collect(self, iterator, expected: int) -> list:
        """Up to *expected* results from the steal queue, bailing out on timeout.

        A killed worker's in-flight chunk never produces a result, so an
        unbounded ``for`` over ``imap_unordered`` would hang forever.  Each
        ``next`` gets :attr:`task_timeout_s`; on timeout the remaining chunks
        go to the caller's inline-recompute path and the wedged pool is
        abandoned (an incomplete map job pins ``Pool.join`` forever, so a
        clean ``close`` is no longer possible — the next generation lazily
        builds a fresh pool instead).
        """
        results: list = []
        for _ in range(expected):
            try:
                results.append(iterator.next(timeout=self.task_timeout_s))
            except StopIteration:  # pragma: no cover - expected count is exact
                break
            except multiprocessing.TimeoutError:
                self._m_deaths.inc()
                self._tracer.warning(
                    "parallel.pool-abandoned",
                    timeout_s=self.task_timeout_s,
                    chunks_pending=expected - len(results),
                )
                self._abandon_pool()
                break
        return results

    def _abandon_pool(self) -> None:
        """Terminate a pool wedged by a lost worker; the next use rebuilds it."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None

    def _local_rig(self) -> SimulationRig:
        if self._fallback_rig is None:
            self._fallback_rig = self.spec.build_rig()
        return self._fallback_rig

    def warm_up(self) -> None:
        """Start the workers eagerly (used by benchmarks to exclude startup cost)."""
        self._ensure_pool().map(_worker_ready, range(self.num_workers), chunksize=1)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and unlink the ring; both lazily re-create."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    def __enter__(self) -> "ParallelEvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.terminate()
            if self._ring is not None:
                self._ring.close()
        except Exception:  # repro-lint: disable=RPL502 — GC finalizer must never raise
            pass
