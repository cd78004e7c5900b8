"""Bandwidth allocator — Algorithm 1 of the paper.

The shared system bandwidth is a global resource.  Splitting it evenly across
cores wastes it (a core running a compute-bound job does not need its even
share, while a core running a memory-bound job starves).  Algorithm 1 instead
re-allocates the bandwidth proportionally to the *required* bandwidth of the
jobs currently live on each core, re-computing the split every time a job
finishes and the next job on that core launches.

The allocator consumes the decoded mapping description plus the Job Analysis
Table and produces either just the makespan (fast path used inside the
optimization loop) or a full :class:`~repro.core.schedule.Schedule` with the
job timeline and bandwidth segments (used for reporting and Fig. 15).

**Closed form.**  While the live jobs demand ``D`` in total, each receives
``bw * min(1, B / D)`` of the system bandwidth ``B``, so every live job drains
at the *same* fraction ``ratio = min(1, B / D)`` of its no-stall speed.  In
virtual time (no-stall cycles) each core therefore runs its queue back to
back: job ``k`` of a core ends at virtual time ``V_k = sum(latency[:k+1])``
of that core's queue, whatever the other cores do.  Sorting all ``G`` end
times gives the events in order; between consecutive events the live set,
hence ``D``, is fixed, so the real makespan is::

    makespan = sum_j (V_(j) - V_(j-1)) / min(1, B / D_j)

where ``D`` starts at the sum of every core's first job's bandwidth and each
event adds ``bw(next job on that core, or 0) - bw(finished job)``.  Under
saturation (``D >= B`` throughout) each term is ``dv * D / B``, so the sum is
the total traffic ``sum(latency * bw) / B`` whatever the job order.

Two allocators implement it:

* :class:`BandwidthAllocator` — the scalar reference oracle, one mapping at a
  time, a per-event loop that can record the full timeline, and
* :class:`BatchBandwidthAllocator` — the vectorized engine behind the
  ``batch`` evaluation backend: a whole population in a few dozen NumPy
  calls (per-lane running sums, one row-wise argsort, one cumsum and one
  event-order sum) and no per-event loop.

Both perform the same IEEE operations in the same order (sequential sums in
core and event order, ties broken by core then queue position), so their
makespans are bit-identical.

**Precondition.**  Both keep ``D`` as that running sum rather than summing
the live bandwidths afresh at each event, so its rounding error scales with
the spread ``max(bw) / min(bw)`` of the bandwidths a mapping uses.  Both
reject (:class:`~repro.exceptions.SchedulingError`) a mapping whose spread
could put any interval's demand more than ``1e-6`` off, relative; see
:func:`_check_bw_spread`.
"""

from __future__ import annotations

import ctypes
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.analyzer import JobAnalysisTable
from repro.core.encoding import Mapping, MappingBatch, stable_argsort_rows
from repro.core.schedule import BandwidthSegment, Schedule, ScheduledJob
from repro.exceptions import SchedulingError
from repro.utils.units import DEFAULT_FREQUENCY_HZ

#: glibc's ``mallopt`` parameter numbers for ``M_TOP_PAD`` and
#: ``M_MMAP_THRESHOLD``.
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3

#: Bytes of free heap that glibc keeps above the top of the heap when it
#: trims.  Each generation's kernel temporaries are freed at its end; with
#: the default pad glibc hands that memory back to the OS and the next
#: generation faults it in again, page by page (tens of thousands of minor
#: faults per S6/G=200 search).  8 MiB is the smallest of 4, 8 and 16 MiB
#: that keeps both a search and a 200-row call near zero faults
#: (docs/PERFORMANCE.md).
_HEAP_TOP_PAD_BYTES = 8 << 20

#: Allocations at least this large are mmapped rather than taken from the
#: heap.  Setting any ``mallopt`` parameter freezes glibc's sliding mmap
#: threshold at its 128 KiB default, so without this the largest arrays of
#: a call of a few hundred S6/G=200 rows would be mmapped and faulted in
#: afresh on every call.  32 MiB is glibc's largest threshold on 64-bit.
_MMAP_THRESHOLD_BYTES = 32 << 20


def _pad_heap_top(pad_bytes: int, mmap_threshold_bytes: int) -> bool:
    """Set glibc's ``M_TOP_PAD`` and ``M_MMAP_THRESHOLD``.

    False where the C library has no ``mallopt`` or refuses a value.  The
    settings are process-wide: they hold for every allocation of the
    process that imports this module, not only for the allocator's.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # pragma: no cover - not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(_M_TOP_PAD, pad_bytes) == 1
        and mallopt(_M_MMAP_THRESHOLD, mmap_threshold_bytes) == 1
    )


#: Whether this process's heap keeps the pad and the raised mmap threshold.
_HEAP_TOP_PADDED = _pad_heap_top(_HEAP_TOP_PAD_BYTES, _MMAP_THRESHOLD_BYTES)


def _check_positive(system_bandwidth_gbps: float, frequency_hz: float) -> None:
    if system_bandwidth_gbps <= 0:
        raise SchedulingError(f"system bandwidth must be positive, got {system_bandwidth_gbps}")
    if frequency_hz <= 0:
        raise SchedulingError(f"frequency must be positive, got {frequency_hz}")


def _check_shape(num_jobs: int, num_cores: int, table: JobAnalysisTable) -> None:
    if num_jobs != table.num_jobs:
        raise SchedulingError(
            f"mapping covers {num_jobs} jobs but the analysis table has {table.num_jobs}"
        )
    if num_cores > table.num_sub_accelerators:
        raise SchedulingError(
            f"mapping targets {num_cores} cores but the analysis table only has "
            f"{table.num_sub_accelerators}"
        )


#: Worst-case relative error allowed in an interval's running demand (see
#: :func:`_check_bw_spread`).
_MAX_DEMAND_ERROR = 1e-6


def _check_bw_spread(spread: float, num_jobs: int, num_cores: int) -> None:
    """Reject bandwidths too far apart for the running demand sum.

    Both allocators keep the interval demand ``D`` as a running sum of
    per-event steps, ``D += bw(next) - bw(finished)``, not a fresh sum of the
    live bandwidths.  Its rounding error grows with the bandwidths that
    pass through it: each of the at most ``G + A`` additions errs by at
    most one unit roundoff ``u`` of a value no larger than ``(A + 1) *
    max(bw)``, while a live interval's demand is at least ``min(bw)``.  So
    the relative error of every interval's demand is at most ``u * (G + A) *
    (A + 1) * spread``, ``spread = max(bw) / min(bw)`` over the bandwidths
    the mapping uses.  A mapping whose bound exceeds :data:`_MAX_DEMAND_ERROR`
    is rejected rather than given a wrong makespan (at ``G = 200`` on 16
    cores, spreads beyond about 2.4e6; the built-in workloads stay under
    6e3).
    """
    unit_roundoff = np.finfo(float).eps / 2
    if not spread * unit_roundoff * (num_jobs + num_cores) * (num_cores + 1) <= _MAX_DEMAND_ERROR:
        raise SchedulingError(
            f"required bandwidths span a factor of {spread:.3g}, too wide for the "
            f"running demand sum of {num_jobs} jobs on {num_cores} cores"
        )


def _table_fails_no_mapping(table: JobAnalysisTable) -> bool:
    """Whether every entry of *table* is valid and its whole spread passes.

    Valid means a positive latency and a positive finite ``latency * bw``
    (which imply a positive bandwidth; NaN fails every comparison).  A
    mapping uses a subset of the entries on at most the table's cores, so
    no mapping on such a table can fail either check.
    """
    latency, bw = table.latency_cycles, table.required_bw_gbps
    with np.errstate(over="ignore", invalid="ignore"):
        work = latency * bw
        if not (latency.min() > 0 and work.min() > 0 and work.max() < np.inf):
            return False
        spread = float(bw.max() / bw.min())
    try:
        _check_bw_spread(spread, table.num_jobs, table.num_sub_accelerators)
    except SchedulingError:
        return False
    return True


def _bad_job(job_index: int, core: int) -> SchedulingError:
    return SchedulingError(
        f"job {job_index} has non-positive or non-finite latency/bandwidth on core {core}"
    )


class BandwidthAllocator:
    """Implements the proportional bandwidth re-allocation of Algorithm 1.

    Requires every used latency and bandwidth to be positive and finite,
    with a finite product, and the used bandwidths' spread to satisfy
    :func:`_check_bw_spread`; otherwise it raises
    :class:`~repro.exceptions.SchedulingError`.
    """

    def __init__(self, system_bandwidth_gbps: float, frequency_hz: float = DEFAULT_FREQUENCY_HZ):
        _check_positive(system_bandwidth_gbps, frequency_hz)
        self.system_bandwidth_gbps = system_bandwidth_gbps
        self.frequency_hz = frequency_hz

    # ------------------------------------------------------------------
    def makespan_cycles(self, mapping: Mapping, table: JobAnalysisTable) -> float:
        """Fast path: simulate the schedule and return only the makespan."""
        return self._simulate(mapping, table, record=False)[0]

    def allocate(self, mapping: Mapping, table: JobAnalysisTable) -> Schedule:
        """Full path: simulate the schedule and return the complete timeline."""
        makespan, jobs, segments = self._simulate(mapping, table, record=True)
        return Schedule(
            jobs=jobs,
            segments=segments,
            num_sub_accelerators=mapping.num_sub_accelerators,
            total_flops=table.total_flops,
            frequency_hz=self.frequency_hz,
        )

    # ------------------------------------------------------------------
    def _simulate(
        self,
        mapping: Mapping,
        table: JobAnalysisTable,
        record: bool,
    ) -> Tuple[float, List[ScheduledJob], List[BandwidthSegment]]:
        """Event-by-event walk of Algorithm 1 in virtual time.

        Each event finishes the live job with the earliest virtual end time
        (ties: lowest core first) and launches that core's next job.  The
        real time between events is the virtual time between them divided by
        the drain ratio ``min(1, B / D)`` of the interval.
        """
        queues = mapping.assignments
        num_cores = len(queues)
        _check_shape(mapping.num_jobs, num_cores, table)
        latency_table = table.latency_cycles
        bw_table = table.required_bw_gbps

        def job_params(core: int, job_index: int) -> Tuple[float, float]:
            """(latency, bw) of *job_index* on *core*, validated."""
            latency = float(latency_table[job_index, core])
            bw = float(bw_table[job_index, core])
            if not (latency > 0 and bw > 0 and math.isfinite(latency * bw)):
                raise _bad_job(job_index, core)
            return latency, bw

        params = [[job_params(core, job) for job in queue] for core, queue in enumerate(queues)]
        used_bw = [bw for queue in params for _, bw in queue]
        if used_bw:
            _check_bw_spread(max(used_bw) / min(used_bw), mapping.num_jobs, num_cores)

        position = [0] * num_cores
        #: Virtual end time of each core's live job (inf once its queue is done).
        lane_end = [math.inf] * num_cores
        live_bw = [0.0] * num_cores
        lane_start = [0.0] * num_cores  # real start time of each live job
        demand = 0.0
        for core in range(num_cores):
            if queues[core]:
                lane_end[core], live_bw[core] = params[core][0]
                demand += live_bw[core]

        scheduled_jobs: List[ScheduledJob] = []
        segments: List[BandwidthSegment] = []
        virtual_now = now = 0.0
        bandwidth = self.system_bandwidth_gbps
        for _ in range(mapping.num_jobs):
            core = min(range(num_cores), key=lane_end.__getitem__)
            virtual_end = lane_end[core]
            if not demand > 0:
                raise SchedulingError("live jobs' bandwidth demand rounded to a non-positive value")
            ratio = min(bandwidth / demand, 1.0)
            start = now
            now += (virtual_end - virtual_now) / ratio
            if record and virtual_end > virtual_now:
                segments.append(
                    BandwidthSegment(
                        start_cycle=start,
                        end_cycle=now,
                        allocation_gbps=tuple(bw * ratio for bw in live_bw),
                    )
                )
            virtual_now = virtual_end
            slot = position[core]
            if record:
                job_index = queues[core][slot]
                scheduled_jobs.append(
                    ScheduledJob(
                        job_index=job_index,
                        sub_accelerator_index=core,
                        start_cycle=lane_start[core],
                        end_cycle=now,
                        no_stall_latency_cycles=float(latency_table[job_index, core]),
                        required_bw_gbps=live_bw[core],
                    )
                )
            lane_start[core] = now
            position[core] = slot = slot + 1
            if slot < len(queues[core]):
                latency, next_bw = params[core][slot]
                lane_end[core] = virtual_end + latency
            else:
                next_bw = 0.0
                lane_end[core] = math.inf
            demand += next_bw - live_bw[core]
            live_bw[core] = next_bw

        if not math.isfinite(now):
            raise SchedulingError("bandwidth allocation produced a non-finite makespan")
        return now, scheduled_jobs, segments


class BatchBandwidthAllocator:
    """Vectorized closed-form Algorithm 1 over a whole population of mappings.

    Per call, the latencies are laid out zero-padded as ``(Lmax + 1, pop *
    cores)``; a running sum down each lane (one vector add per queue depth)
    gives every job's virtual end time; one argsort per row, with ties in
    the scalar's order, puts the ``G`` events in order; one cumsum of the
    per-event bandwidth steps gives each interval's demand and one sum of
    ``dv / ratio`` in event order the real time.  There is no per-event loop.

    Every floating-point operation mirrors the scalar
    :class:`BandwidthAllocator` element-wise and in order, so the returned
    makespans are bit-identical to running the scalar walk per individual.
    It has the scalar's preconditions: the batch raises
    :class:`~repro.exceptions.SchedulingError` when any row would alone.
    They are checked once per table when the whole table passes them (no
    mapping on it can then fail), and per row, on every call, when it
    does not.
    """

    def __init__(self, system_bandwidth_gbps: float, frequency_hz: float = DEFAULT_FREQUENCY_HZ):
        _check_positive(system_bandwidth_gbps, frequency_hz)
        self.system_bandwidth_gbps = system_bandwidth_gbps
        self.frequency_hz = frequency_hz
        #: The last table shown to fail no mapping (see makespan_cycles).
        self._proven_table: Optional[JobAnalysisTable] = None

    # ------------------------------------------------------------------
    def makespan_cycles(self, batch: MappingBatch, table: JobAnalysisTable) -> np.ndarray:
        """Simulate every mapping of *batch* and return a ``(pop,)`` makespan array."""
        num_cores = batch.num_sub_accelerators
        _check_shape(batch.num_jobs, num_cores, table)
        pop, num_jobs = batch.pop_size, batch.num_jobs
        lane_cores = batch.lane_cores
        table_index = batch.lane_order * table.num_sub_accelerators + lane_cores
        latency = table.latency_cycles.take(table_index)
        bw = table.required_bw_gbps.take(table_index)
        # A table whose every entry is valid and whose whole bandwidth spread
        # passes the bound fails no mapping; its arrays are read-only, so
        # that is proven once per table.  Any other table checks the
        # entries and the spread each row uses: a mapping that never uses a
        # bad entry still simulates, as on the scalar path.
        if table is not self._proven_table:
            if _table_fails_no_mapping(table):
                self._proven_table = table
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    bad = np.argwhere(~((latency > 0) & (bw > 0) & np.isfinite(latency * bw)))
                if bad.size:
                    row, slot = bad[0]
                    raise _bad_job(batch.lane_order[row, slot], lane_cores[row, slot])
                spread = bw.max(axis=1, initial=0.0) / bw.min(axis=1, initial=np.inf)
                _check_bw_spread(float(spread.max(initial=0.0)), num_jobs, num_cores)

        # Zero-padded (depth, lane) layout, lane = row * cores + core: the
        # lane-major entry i of a row sits at depth i - (its lane's start).
        # The deepest level is always padding, so a lane's last job sees a
        # zero "next bandwidth".  Rows concatenate whole, so the flat cumsum
        # of the queue lengths is each lane's start in the flat entry order.
        lengths = batch.queue_lengths.reshape(-1)
        num_lanes = lengths.size
        lane = lane_cores + np.arange(0, num_lanes, num_cores)[:, None]
        entry = np.arange(lane.size).reshape(pop, num_jobs)
        slots = (entry - (np.cumsum(lengths) - lengths).take(lane)) * num_lanes + lane
        depth = int(lengths.max(initial=0)) + 1
        padded_latency = np.zeros((depth, num_lanes))
        padded_latency.reshape(-1)[slots] = latency
        padded_bw = np.zeros(depth * num_lanes)
        padded_bw[slots] = bw
        # Virtual end times: a per-lane running sum, one vector add per depth
        # level across every lane, so each lane adds sequentially exactly as
        # the scalar's running sum does.  (A cumsum along axis 0 gives the
        # same bits but ran 3-4x slower than these contiguous row adds.)
        for level in range(1, depth - 1):
            np.add(padded_latency[level - 1], padded_latency[level], out=padded_latency[level])
        virtual_end = padded_latency.take(slots)

        # Events in virtual-time order.  The scalar walk breaks ties by core
        # then queue position, i.e. by lane-major index, which a stable
        # argsort keeps.  Each row is one ascending run per core.
        order = stable_argsort_rows(virtual_end, runs=num_cores)
        order += entry[:, :1]
        times = np.zeros((pop, num_jobs + 1))
        times[:, 1:] = virtual_end.take(order)
        # Interval demand: each lane's first bandwidth summed in core order,
        # then one step per event, next job's bw - finished job's bw.  The
        # last event's step would only describe the empty tail: dropped.
        bw_step = padded_bw[num_lanes:] - padded_bw[:-num_lanes]
        steps = np.concatenate(
            (padded_bw[:num_lanes].reshape(pop, num_cores), bw_step.take(slots.take(order[:, :-1]))),
            axis=1,
        )
        demand = np.cumsum(steps, axis=1)[:, num_cores - 1:]
        if not demand.min(initial=np.inf) > 0:
            raise SchedulingError("live jobs' bandwidth demand rounded to a non-positive value")

        ratio = np.divide(self.system_bandwidth_gbps, demand)
        np.minimum(ratio, 1.0, out=ratio)
        elapsed = times[:, 1:] - times[:, :-1]
        elapsed /= ratio
        # Each row's intervals summed in event order, as the scalar walk
        # adds them: reducing an event-major (G, pop) array adds one event
        # row at a time across all rows.  A lone row would be reduced as a
        # pairwise sum, so it takes the running sum.
        if pop > 1:
            makespans = np.add.reduce(np.ascontiguousarray(elapsed.T), axis=0)
        else:
            makespans = np.cumsum(elapsed, axis=1)[:, -1]
        if not makespans.max(initial=0.0) < np.inf:
            raise SchedulingError("bandwidth allocation produced a non-finite makespan")
        return makespans
