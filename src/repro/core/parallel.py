"""Sharded multi-process evaluation backend (the ``parallel`` eval backend).

The batch evaluation engine simulates a whole population in one vectorized
sweep, but a single process can only use one core.  The population sweep is
embarrassingly parallel across *rows* (each individual's simulation is
independent), so this module splits each generation across N compute
lanes: the coordinator itself plus N-1 dedicated worker processes.

* :class:`EvaluatorSpec` is a small picklable recipe — codec shape, system
  bandwidth, objective, and the dense Job Analysis Table arrays — from which
  a worker can rebuild the full evaluation state without ever shipping the
  (heavier, model-bearing) :class:`~repro.workloads.groups.JobGroup` or
  platform objects across the process boundary.
* :class:`~repro.core.evaluator.SimulationRig` (the batch engine, which
  lives beside the evaluator) is the reconstructed state: codec + batched
  allocator + table + objective.  The in-process ``batch`` backend, the
  coordinator's own shard and the workers run the *same* rig code path,
  which is what makes the ``parallel`` backend bit-identical to ``batch``
  by construction.
* :class:`ParallelEvaluationPool` owns the lanes.  Per generation it cuts
  the population into one contiguous, near-equal shard per lane
  (:func:`split_shards`), writes it into a :class:`SharedMemoryRing` slot,
  sends each worker a ``(segment, pop, width, start, stop)`` descriptor
  over that worker's own pipe, computes shard 0 itself, and then gathers
  the acks.  Every shard reads its rows and writes its fitnesses in place
  at its own row offset, so only the tiny descriptors and acks cross the
  pipes and the gathered result is row-ordered whatever the split.

One shard per lane, not many small chunks, because every kernel call pays
a fixed per-call cost that chunking multiplies (docs/PERFORMANCE.md).  The
descriptors go out from the calling thread, before the coordinator starts
its own shard: a helper thread would need the GIL that shard holds, and
its worker would start late.

Before each dispatch every worker is pinned to a CPU of its own, none of
them the coordinator's current one (:func:`worker_cpus`).  Left to itself,
Linux often wakes a worker on the CPU of the coordinator that sent it its
descriptor, and the two shards then run one after the other; whether it
does depends on recent load, so an unpinned fleet switches between a
parallel and a serial speed from one search to the next.

A worker that dies mid-shard surfaces at once as ``EOFError``/``OSError``
on its pipe; one that stays silent past ``task_timeout_s`` is terminated.
Either way its shard is recomputed inline (bit-identically) and the worker
is respawned on the next call.

Each call simulates exactly the rows it is given, as the ``batch`` backend
does: no fitness is cached between calls, in the pool or in the evaluator.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, Collection, Dict, List, Optional, Tuple

import numpy as np

from repro.core.analyzer import JobAnalysisTable
from repro.core.bw_allocator import BatchBandwidthAllocator
from repro.core.encoding import MappingCodec
from repro.core.evaluator import SimulationRig
from repro.core.objectives import Objective, get_objective
from repro.exceptions import ConfigurationError
from repro.obs import get_metrics, get_tracer

#: Populations below twice this are simulated inline in the main process: the
#: dispatch overhead would exceed the simulation cost.  No shard is ever
#: smaller than this, so small populations use fewer lanes.
MIN_ROWS_PER_WORKER = 8

#: Test seams for the fault-injection property tests (inherited by forked
#: workers when they start): a per-shard delay to simulate slow workers, and
#: a shard start row whose worker kills itself mid-task to simulate a crash.
_FAULT_DELAY_S: float = 0.0
_FAULT_KILL_SHARD_START: Optional[int] = None


def split_shards(num_rows: int, lanes: int) -> List[Tuple[int, int]]:
    """*lanes* contiguous ``(start, stop)`` shards covering *num_rows* rows.

    Shard heights differ by at most one row.  Each shard writes its
    fitnesses at its own row offset and every row's simulation is
    independent (the batch kernel is elementwise per row), so the gathered
    values are bit-identical for every lane count.
    """
    edges = [lane * int(num_rows) // lanes for lane in range(lanes + 1)]
    return list(zip(edges, edges[1:]))


def worker_cpus(coordinator_cpu: int, allowed: Collection[int], num_workers: int) -> Optional[List[int]]:
    """One CPU per worker from *allowed*, none of them *coordinator_cpu*.

    ``None`` when there are too few other CPUs for a lane each (or the
    coordinator's CPU is unknown, negative): placement is then the OS's.
    """
    others = sorted(set(allowed) - {coordinator_cpu})
    if coordinator_cpu < 0 or len(others) < num_workers:
        return None
    return others[:num_workers]


def _load_sched_getcpu() -> Optional[Callable[[], int]]:
    """The C library's ``sched_getcpu``, where workers can be pinned at all."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        return ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):  # pragma: no cover - no such symbol
        return None


#: The calling thread's current CPU, or ``None`` where workers are not pinned.
_SCHED_GETCPU = _load_sched_getcpu()


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

    def build_rig(self) -> SimulationRig:
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
#: Per-worker shared-memory attachments, cached by segment name so each ring
#: slot is mapped once per worker process, not once per shard.
_WORKER_SHM: Dict[str, shared_memory.SharedMemory] = {}

#: Attachment cache bound: ring slots are few, but a long-lived worker should
#: not accumulate dead mappings (the ring regrows slots) without limit.
_WORKER_SHM_CACHE_LIMIT = 8

#: Warm-up probe: a worker answers it with itself once its rig is built.
_PING = "ping"


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


def _bootstrap_worker(spec: EvaluatorSpec) -> SimulationRig:
    """Rebuild the evaluation state once per worker.

    The coordinator's resolved seed travels inside the spec: a parallel
    worker is dedicated to one coordinator, so installing it as the worker's
    session seed means any worker-side randomness derives from the search's
    own seed policy rather than re-resolving (or falling back to entropy)
    in the child process.
    """
    rig = spec.build_rig()
    if spec.resolved_seed is not None:
        from repro.utils.rng import set_global_seed

        set_global_seed(spec.resolved_seed, source="worker-bootstrap")
    return rig


def _inject_shard_faults(start: int) -> None:
    """Honour the fault-injection test seams (no-ops in production)."""
    if _FAULT_DELAY_S > 0.0:
        time.sleep(_FAULT_DELAY_S)
    if _FAULT_KILL_SHARD_START is not None and start == _FAULT_KILL_SHARD_START:
        os._exit(1)  # simulate a worker crash mid-shard


def _evaluate_shm_shard(
    rig: SimulationRig, task: Tuple[str, int, int, int, int]
) -> Tuple[int, int, float]:
    """One shard, read and written in place; returns ``(start, stop, compute_s)``.

    *task* is ``(segment_name, pop, width, start, stop)``: the worker maps
    the named ring slot, reads its shard of encoding rows **in place** (the
    rig's decode never copies the float64 input), and writes the fitness row
    back **in place** at the slot's output region.  ``compute_s`` is the
    worker's own wall time for the shard, so the coordinator can split a
    shard's latency into compute and wait.
    """
    name, pop, width, start, stop = task
    _inject_shard_faults(start)
    began = time.perf_counter()
    segment = _attach_shared_memory(name)
    rows = np.ndarray((pop, width), dtype=np.float64, buffer=segment.buf)[start:stop]
    out = np.ndarray((pop,), dtype=np.float64, buffer=segment.buf, offset=pop * width * 8)
    out[start:stop] = rig.fitnesses_for_rows(rows)
    return start, stop, time.perf_counter() - began


def _worker_loop(conn: Connection, spec: EvaluatorSpec) -> None:
    """Worker process entry point: bootstrap once, then serve shards in order.

    Messages are shard descriptors (acked by :func:`_evaluate_shm_shard`'s
    result), :data:`_PING` (echoed) or ``None`` (stop).  The coordinator
    closing its end stops the loop too.  A shard that raises kills the
    worker; the coordinator then recomputes it inline, which raises the
    real error if the problem was not this process.
    """
    rig = _bootstrap_worker(spec)
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            conn.send(_PING if task == _PING else _evaluate_shm_shard(rig, task))
    finally:
        while _WORKER_SHM:
            _WORKER_SHM.popitem()[1].close()
        conn.close()


# ----------------------------------------------------------------------
# Main process side
# ----------------------------------------------------------------------
#: One worker lane: its process and the coordinator's end of its pipe.
_Worker = Tuple[BaseProcess, Connection]


def _reap(process: BaseProcess, grace_s: float) -> Optional[int]:
    """Wait up to *grace_s* for *process* to exit, then terminate and kill it.

    Returns the exit code (negative: the signal that ended it).
    """
    process.join(grace_s)
    if process.is_alive():
        process.terminate()
        process.join(1.0)
    if process.is_alive():  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join()
    exitcode = process.exitcode
    process.close()
    return exitcode


class ParallelEvaluationPool:
    """N compute lanes sharing one :class:`EvaluatorSpec`: the coordinator plus N-1 workers.

    Workers start lazily on the first sharded evaluation, keep their
    reconstructed rig across generations, and stop on :meth:`close` (also
    invoked on garbage collection and by ``with`` blocks).  Each generation
    is one contiguous shard per lane; the coordinator computes shard 0
    while the workers compute the rest, and every shard writes its
    fitnesses at its own row offset, so row order is preserved exactly.
    """

    def __init__(
        self,
        spec: EvaluatorSpec,
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        task_timeout_s: float = 60.0,
    ):
        self.spec = spec
        #: Compute lanes: the coordinator plus ``num_workers - 1`` worker processes.
        self.num_workers = resolve_num_workers(num_workers)
        if start_method is None:
            # fork reuses the parent's imported modules (cheap bootstrap);
            # spawn is the portable fallback and works because the spec is
            # picklable and the worker entry point is module-level.
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self.start_method = start_method
        #: How long to wait for a worker's ack (after the coordinator's own
        #: shard) before terminating it and recomputing its shard inline.
        self.task_timeout_s = float(task_timeout_s)
        #: ``(process, coordinator end of its pipe)`` per worker lane; ``None``
        #: until started, and again after the worker is lost or closed.
        self._workers: List[Optional[_Worker]] = [None] * (self.num_workers - 1)
        self._fallback_rig: Optional[SimulationRig] = None
        self._ring: Optional[SharedMemoryRing] = None
        # Telemetry (docs/OBSERVABILITY.md): dispatch counters plus
        # structured warnings on the recovery paths, coordinator-side only —
        # workers never touch the tracer or the registry.
        self._tracer = get_tracer()
        _metrics = get_metrics()
        self._m_chunks = _metrics.counter(
            "repro_chunks_dispatched_total",
            "Shards dispatched to evaluation workers",
            labels={"backend": "parallel"},
        )
        self._m_fallback = _metrics.counter(
            "repro_local_fallback_chunks_total",
            "Shards recomputed inline after a worker loss",
            labels={"backend": "parallel"},
        )
        self._m_deaths = _metrics.counter(
            "repro_worker_deaths_total",
            "Workers lost mid-evaluation (died, or silent past the timeout)",
            labels={"backend": "parallel"},
        )
        self._m_compute = _metrics.counter(
            "repro_worker_compute_seconds_total",
            "Seconds workers spent computing their shards, as reported in their acks",
            labels={"backend": "parallel"},
        )

    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True while worker processes are alive."""
        return any(worker is not None for worker in self._workers)

    def _start_worker(self) -> _Worker:
        context = multiprocessing.get_context(self.start_method)
        conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_loop, args=(child_conn, self.spec), name="repro-eval-worker", daemon=True
        )
        try:
            process.start()
        finally:
            # The worker now holds the only other end, so its death reads
            # as EOF on ``conn`` at once.
            child_conn.close()
        return process, conn

    def _ensure_workers(self, count: int) -> List[_Worker]:
        """The first *count* worker lanes, starting any that are not running."""
        if not all(self._workers[:count]):
            # Start the shared-memory resource tracker *before* forking
            # workers: a child forked without a live tracker would lazily
            # spawn its own on first attach, and that private tracker later
            # "cleans up" (and warns about) segments the coordinator still
            # owns.  With the tracker already running, every process funnels
            # into the one inherited instance and the coordinator's unlink is
            # the single source of truth.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            for index in range(count):
                if self._workers[index] is None:
                    self._workers[index] = self._start_worker()
        return self._workers[:count]  # type: ignore[return-value]

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        """Fitness of each (already repaired) encoding row, preserving row order."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if len(rows) == 0:
            return np.empty(0, dtype=float)
        lanes = min(self.num_workers, len(rows) // MIN_ROWS_PER_WORKER)
        if lanes < 2:
            # One lane gains nothing from IPC: run it in process and leave
            # the workers alone.
            return self._local_rig().fitnesses_for_rows(rows)
        return self._evaluate_shared(rows, split_shards(len(rows), lanes))

    def _evaluate_shared(self, rows: np.ndarray, shards: List[Tuple[int, int]]) -> np.ndarray:
        """Zero-copy dispatch: population and fitnesses travel via the ring.

        One ring slot holds the whole generation — the ``(pop, width)``
        float64 population followed by the ``(pop,)`` fitness row.  Shards
        1.. go to the workers, shard 0 is computed here meanwhile, and a
        shard whose worker is lost is recomputed here afterwards.
        """
        pop, width = rows.shape
        if self._ring is None:
            self._ring = SharedMemoryRing()
        segment = self._ring.acquire(rows.nbytes + pop * 8)
        np.ndarray((pop, width), dtype=np.float64, buffer=segment.buf)[:] = rows
        out = np.ndarray((pop,), dtype=np.float64, buffer=segment.buf, offset=rows.nbytes)
        workers = self._ensure_workers(len(shards) - 1)
        self._pin_workers(workers)
        sent = []
        for index, ((_, conn), (start, stop)) in enumerate(zip(workers, shards[1:])):
            try:
                conn.send((segment.name, pop, width, start, stop))
                sent.append(index)
            except OSError:  # died since the last generation
                self._lose_worker(index, "died", (start, stop))
        self._m_chunks.inc(len(sent))

        start, stop = shards[0]
        began = time.perf_counter()
        try:
            out[start:stop] = self._local_rig().fitnesses_for_rows(rows[start:stop])
        except BaseException:
            # Nobody will read the workers' acks now; stop them so the next
            # call starts from clean pipes.
            self._stop_workers(grace_s=0.0)
            raise
        compute_s: List[Optional[float]] = [time.perf_counter() - began] + [None] * len(workers)

        deadline = time.monotonic() + self.task_timeout_s
        for index in sent:
            ack = self._await_ack(index, deadline, shards[index + 1])
            if ack is not None:
                compute_s[index + 1] = ack[2]
        self._m_compute.inc(sum(seconds for seconds in compute_s[1:] if seconds is not None))

        missing = [shard for shard, seconds in zip(shards, compute_s) if seconds is None]
        if missing:
            self._note_inline_recovery(missing)
            rig = self._local_rig()
            for start, stop in missing:
                out[start:stop] = rig.fitnesses_for_rows(rows[start:stop])
        self._tracer.event(
            "parallel.dispatch",
            rows=pop,
            shards=len(shards),
            workers=len(sent),
            shard_rows=[stop - start for start, stop in shards],
            compute_s=compute_s,
            transport="shm",
        )
        return np.array(out, dtype=float, copy=True)

    def _pin_workers(self, workers: List[_Worker]) -> None:
        """Pin each worker to its own CPU away from the coordinator's (see the module doc).

        Repeated every generation, because the coordinator may have moved.
        """
        if _SCHED_GETCPU is None:
            return
        cpus = worker_cpus(_SCHED_GETCPU(), os.sched_getaffinity(0), len(workers))
        for (process, _), cpu in zip(workers, cpus or ()):
            try:
                os.sched_setaffinity(process.pid, {cpu})
            except OSError:  # exited; its send fails next and recovers it
                pass

    def _await_ack(self, index: int, deadline: float, shard: Tuple[int, int]) -> Optional[tuple]:
        """Worker *index*'s ack, or ``None`` once the worker is declared lost.

        A dead worker's pipe reads as EOF at once; a live one that stays
        silent until *deadline* is terminated.
        """
        _, conn = self._workers[index]  # type: ignore[misc]
        try:
            if conn.poll(max(0.0, deadline - time.monotonic())):
                return conn.recv()
            reason = "timeout"
        except (EOFError, OSError):
            reason = "died"
        self._lose_worker(index, reason, shard)
        return None

    def _lose_worker(self, index: int, reason: str, shard: Tuple[int, int]) -> None:
        """Stop worker *index* (respawned on the next call) and say so."""
        process, conn = self._workers[index]  # type: ignore[misc]
        self._workers[index] = None
        conn.close()
        exitcode = _reap(process, grace_s=0.0)
        self._m_deaths.inc()
        self._tracer.warning(
            "parallel.worker-lost",
            reason=reason,
            exitcode=exitcode,
            shard=[int(shard[0]), int(shard[1])],
            timeout_s=self.task_timeout_s,
        )

    def _note_inline_recovery(self, missing: List[Tuple[int, int]]) -> None:
        """Make a silent recovery loud: which shards a lost worker stranded.

        Recovery itself stays automatic (results are bit-identical either
        way), but fleet degradation must be visible — the warning is recorded
        even with tracing disabled.
        """
        self._m_fallback.inc(len(missing))
        self._tracer.warning(
            "parallel.chunks-recovered-inline",
            shards=[[int(start), int(stop)] for start, stop in missing],
            transport="shm",
        )

    def _local_rig(self) -> SimulationRig:
        if self._fallback_rig is None:
            self._fallback_rig = self.spec.build_rig()
        return self._fallback_rig

    def warm_up(self) -> None:
        """Start every worker and wait for its rig (benchmarks exclude startup this way)."""
        workers = self._ensure_workers(len(self._workers))
        for _, conn in workers:
            conn.send(_PING)
        deadline = time.monotonic() + self.task_timeout_s
        for index in range(len(workers)):
            self._await_ack(index, deadline, (0, 0))

    # ------------------------------------------------------------------
    def _stop_workers(self, grace_s: float) -> None:
        """Ask every worker to stop; terminate any still running after *grace_s*."""
        for index, worker in enumerate(self._workers):
            if worker is None:
                continue
            self._workers[index] = None
            process, conn = worker
            try:
                conn.send(None)
            except OSError:  # already gone
                pass
            conn.close()
            _reap(process, grace_s)

    def close(self) -> None:
        """Stop the workers and unlink the ring; both lazily re-create."""
        self._stop_workers(grace_s=5.0)
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    def __enter__(self) -> "ParallelEvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._stop_workers(grace_s=0.0)
            if self._ring is not None:
                self._ring.close()
        except Exception:  # repro-lint: disable=RPL502 — GC finalizer must never raise
            pass
