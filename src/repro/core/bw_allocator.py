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

Two allocators implement the same simulation:

* :class:`BandwidthAllocator` — the scalar reference oracle, one mapping at a
  time, able to record the full timeline, and
* :class:`BatchBandwidthAllocator` — the vectorized engine behind the
  ``batch`` evaluation backend: it stacks the per-core live-job state of a
  whole population (``(cores, pop)`` arrays) so each iteration of the event
  loop advances *every* individual at once.  Each (individual, core) lane
  walks a flat job sequence closed by an idle sentinel, so a job launch is a
  cursor bump and a gather.  Its makespans are bit-identical to the scalar
  path; both sum the bandwidth demand sequentially in core order, so
  floating-point rounding cannot diverge between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.analyzer import JobAnalysisTable
from repro.core.encoding import Mapping, MappingBatch
from repro.core.schedule import BandwidthSegment, Schedule, ScheduledJob
from repro.exceptions import SchedulingError
from repro.utils.units import DEFAULT_FREQUENCY_HZ

#: Numerical tolerance when deciding that a job's remaining work is finished.
_EPSILON = 1e-9

#: The batched sweep compacts its state arrays down to the still-running rows
#: once at least this many rows have converged (and they are the majority):
#: below this, the gather costs more than the dead rows' masked no-op steps.
_COMPACTION_MIN_ROWS = 16


@dataclass(frozen=True)
class ScheduleEvent:
    """One re-allocation event: a job finished and bandwidth was re-split."""

    time_cycles: float
    finished_job_index: int
    sub_accelerator_index: int


class BandwidthAllocator:
    """Implements the proportional bandwidth re-allocation of Algorithm 1."""

    def __init__(self, system_bandwidth_gbps: float, frequency_hz: float = DEFAULT_FREQUENCY_HZ):
        if system_bandwidth_gbps <= 0:
            raise SchedulingError(
                f"system bandwidth must be positive, got {system_bandwidth_gbps}"
            )
        if frequency_hz <= 0:
            raise SchedulingError(f"frequency must be positive, got {frequency_hz}")
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
        """Event-driven simulation of Algorithm 1.

        Each core executes its assigned jobs in order.  At every event (a job
        completion) the system bandwidth is re-split proportionally to the
        live jobs' required bandwidth, capped so no job receives more than it
        needs when the total demand is below the system budget.
        """
        if mapping.num_jobs != table.num_jobs:
            raise SchedulingError(
                f"mapping covers {mapping.num_jobs} jobs but the analysis table has {table.num_jobs}"
            )
        num_cores = mapping.num_sub_accelerators
        if num_cores > table.num_sub_accelerators:
            raise SchedulingError(
                f"mapping targets {num_cores} cores but the analysis table only has "
                f"{table.num_sub_accelerators}"
            )

        queues: List[List[int]] = [list(core_jobs) for core_jobs in mapping.assignments]
        queue_pos = [0] * num_cores

        # Per-core live-job state.
        current_job = np.full(num_cores, -1, dtype=int)
        remaining_work = np.zeros(num_cores)  # latency_cycles * required_bw
        required_bw = np.zeros(num_cores)
        job_start = np.zeros(num_cores)

        scheduled_jobs: List[ScheduledJob] = []
        segments: List[BandwidthSegment] = []

        def launch_next(core: int, now: float) -> None:
            """Pop the next job of *core*'s queue (if any) and make it live."""
            if queue_pos[core] < len(queues[core]):
                job_index = queues[core][queue_pos[core]]
                queue_pos[core] += 1
                latency = table.latency_cycles[job_index, core]
                bw = table.required_bw_gbps[job_index, core]
                if latency <= 0 or bw <= 0:
                    raise SchedulingError(
                        f"job {job_index} has non-positive latency/bandwidth on core {core}"
                    )
                current_job[core] = job_index
                remaining_work[core] = latency * bw
                required_bw[core] = bw
                job_start[core] = now
            else:
                current_job[core] = -1
                remaining_work[core] = 0.0
                required_bw[core] = 0.0

        now = 0.0
        for core in range(num_cores):
            launch_next(core, now)

        active = current_job >= 0
        while np.any(active):
            # Sum the demand core-by-core in index order (idle cores hold an
            # exact 0.0, which leaves a sequential float sum unchanged).  The
            # batched allocator's np.add.accumulate adds in the same order, so
            # both paths round identically even on platforms with 8+ cores
            # where NumPy's pairwise sum would differ.
            total_demand = 0.0
            for bw_value in required_bw:
                total_demand += float(bw_value)
            allocation = np.zeros(num_cores)
            if total_demand <= self.system_bandwidth_gbps:
                allocation[active] = required_bw[active]
            else:
                allocation[active] = required_bw[active] * (self.system_bandwidth_gbps / total_demand)

            with np.errstate(divide="ignore", invalid="ignore"):
                runtimes = np.where(active, remaining_work / np.maximum(allocation, _EPSILON), np.inf)
            dt = float(runtimes.min())
            if not np.isfinite(dt) or dt < 0:
                raise SchedulingError("bandwidth allocation produced a non-finite time step")

            if record:
                segments.append(
                    BandwidthSegment(
                        start_cycle=now,
                        end_cycle=now + dt,
                        allocation_gbps=tuple(float(a) for a in allocation),
                    )
                )

            # Cores whose runtime equals the step finish now; computing this from
            # the runtimes (rather than the drained remaining work) guarantees
            # at least one job completes per event even under floating-point
            # rounding, so the loop always terminates.
            finished = active & (runtimes <= dt * (1.0 + 1e-12) + _EPSILON)

            # Advance time and drain work proportionally to each core's allocation.
            remaining_work[active] -= dt * allocation[active]
            # Floating-point rounding can drive a non-finished core's residual
            # slightly negative, which would yield a negative runtime (and a
            # spurious SchedulingError) on the next event; clamp at zero.
            np.maximum(remaining_work, 0.0, out=remaining_work)
            remaining_work[finished] = 0.0
            now += dt
            for core in np.flatnonzero(finished):
                job_index = int(current_job[core])
                if record:
                    scheduled_jobs.append(
                        ScheduledJob(
                            job_index=job_index,
                            sub_accelerator_index=int(core),
                            start_cycle=float(job_start[core]),
                            end_cycle=float(now),
                            no_stall_latency_cycles=float(table.latency_cycles[job_index, core]),
                            required_bw_gbps=float(table.required_bw_gbps[job_index, core]),
                        )
                    )
                launch_next(int(core), now)
            active = current_job >= 0

        return now, scheduled_jobs, segments


class BatchBandwidthAllocator:
    """Vectorized Algorithm 1 over a whole population of mappings.

    State arrays are shaped ``(cores, rows)``: one *lane* per (individual,
    core).  Each lane walks a flat sequence of its queued jobs closed by an
    idle sentinel, so launching a lane's next job is a cursor bump plus two
    gathers, and an exhausted lane needs no mask.  Each iteration of the
    event loop advances every still-running individual by its own next
    event.  Individuals finish after different event counts; finished rows
    idle (their step is forced to zero) until enough of them retire to
    compact the state arrays down to the live rows.

    Every floating-point operation mirrors the scalar
    :class:`BandwidthAllocator` element-wise, so the returned makespans are
    bit-identical to running the scalar simulation per individual.
    """

    def __init__(self, system_bandwidth_gbps: float, frequency_hz: float = DEFAULT_FREQUENCY_HZ):
        if system_bandwidth_gbps <= 0:
            raise SchedulingError(
                f"system bandwidth must be positive, got {system_bandwidth_gbps}"
            )
        if frequency_hz <= 0:
            raise SchedulingError(f"frequency must be positive, got {frequency_hz}")
        self.system_bandwidth_gbps = system_bandwidth_gbps
        self.frequency_hz = frequency_hz

    # ------------------------------------------------------------------
    def makespan_cycles(self, batch: MappingBatch, table: JobAnalysisTable) -> np.ndarray:
        """Simulate every mapping of *batch* and return a ``(pop,)`` makespan array."""
        if batch.num_jobs != table.num_jobs:
            raise SchedulingError(
                f"mapping covers {batch.num_jobs} jobs but the analysis table has {table.num_jobs}"
            )
        num_cores = batch.num_sub_accelerators
        if num_cores > table.num_sub_accelerators:
            raise SchedulingError(
                f"mapping targets {num_cores} cores but the analysis table only has "
                f"{table.num_sub_accelerators}"
            )
        pop = batch.pop_size
        num_jobs = batch.num_jobs
        lane_order = batch.lane_order
        core_of_slot = np.take_along_axis(batch.selection, lane_order, axis=1)
        latency = table.latency_cycles[lane_order, core_of_slot]
        bw = table.required_bw_gbps[lane_order, core_of_slot]
        # latency * bw is the exact multiplication the scalar launch performs.
        with np.errstate(over="ignore", invalid="ignore"):
            work = latency * bw
        bad = ~((latency > 0) & (bw > 0) & np.isfinite(work))
        if np.any(bad):
            row, slot = np.argwhere(bad)[0]
            raise SchedulingError(
                f"job {lane_order[row, slot]} has non-positive or non-finite "
                f"latency/bandwidth on core {core_of_slot[row, slot]}"
            )

        # Every (row, core) lane's jobs, in execution order, followed by one
        # idle sentinel (work = +inf, bw = 0): row p's lanes fill the flat
        # slots [p * width, (p + 1) * width) in core order.  A lane parked on
        # its sentinel draws no bandwidth and its runtime inf / _EPSILON never
        # finishes, so the sweep needs no active mask; and since every real
        # job's work is finite, a row whose step is inf has run out of jobs.
        width = num_jobs + num_cores
        rows_2d = np.arange(pop)[:, None]
        slots = rows_2d * width + np.arange(num_jobs) + core_of_slot
        seq_work = np.full(pop * width, np.inf)
        seq_bw = np.zeros(pop * width)
        seq_work[slots] = work
        seq_bw[slots] = bw

        # Lane state is (cores, rows): with cores leading, the per-row demand
        # and step reductions run over the outer axis as whole-row vector ops.
        # Cursors are absolute sequence positions, so compacting rows is a
        # plain column gather.
        lane_start = np.cumsum(batch.queue_lengths, axis=1) - batch.queue_lengths
        cursor = (lane_start + np.arange(num_cores) + rows_2d * width).T.copy()
        remaining_work = seq_work[cursor]
        required_bw = seq_bw[cursor]
        now = np.zeros(pop)
        #: Compacted column -> original row (identity until rows retire).
        row_index = np.arange(pop)
        makespans = np.empty(pop)

        advanced = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                # Buffers for this compaction epoch: the event loop runs O(G)
                # steps whose cost is per-op overhead on small arrays, so
                # every op below is in place (identical values, no allocation).
                n = len(row_index)
                demand_acc, alloc, runtime, drain = (np.empty((num_cores, n)) for _ in range(4))
                demand = demand_acc[-1]
                ratio, step, thresh = np.empty(n), np.empty(n), np.empty(n)
                dead = np.empty(n, dtype=bool)
                done = np.empty((num_cores, n), dtype=bool)
                flat_cursor = cursor.reshape(-1)
                flat_work = remaining_work.reshape(-1)
                flat_bw = required_bw.reshape(-1)
                while True:
                    # np.add.accumulate adds sequentially by definition, so
                    # the demand sum rounds exactly like the scalar's per-core
                    # loop (sentinel lanes hold an exact 0.0).
                    np.add.accumulate(required_bw, axis=0, out=demand_acc)
                    # min(B / demand, 1) is the scalar's capped/uncapped split
                    # bit for bit: under budget the quotient is >= 1 and
                    # x * 1.0 returns x's bits exactly.
                    np.divide(self.system_bandwidth_gbps, demand, out=ratio)
                    np.minimum(ratio, 1.0, out=ratio)
                    np.multiply(required_bw, ratio, out=alloc)
                    np.maximum(alloc, _EPSILON, out=drain)  # drain doubles as the denominator
                    np.divide(remaining_work, drain, out=runtime)
                    runtime.min(axis=0, out=step)
                    np.isinf(step, out=dead)
                    num_dead = int(np.count_nonzero(dead))
                    if num_dead == n or (
                        num_dead >= _COMPACTION_MIN_ROWS and 2 * num_dead >= n
                    ):
                        break
                    # Every live row finishes at least one job per step, so a
                    # sweep that needs more than G steps is not converging
                    # (a NaN step finishes nothing).
                    advanced += 1
                    if advanced > num_jobs:
                        raise SchedulingError("bandwidth allocation produced a non-finite time step")
                    if num_dead:
                        np.copyto(step, 0.0, where=dead)

                    np.multiply(step, 1.0 + 1e-12, out=thresh)
                    np.add(thresh, _EPSILON, out=thresh)
                    np.less_equal(runtime, thresh, out=done)

                    np.multiply(alloc, step, out=drain)
                    np.subtract(remaining_work, drain, out=remaining_work)
                    np.maximum(remaining_work, 0.0, out=remaining_work)
                    np.add(now, step, out=now)

                    # Launch: each finished lane steps its cursor to the next
                    # entry of its sequence (a job, or the sentinel).
                    lanes = np.flatnonzero(done)
                    position = flat_cursor[lanes]
                    position += 1
                    flat_cursor[lanes] = position
                    flat_work[lanes] = seq_work[position]
                    flat_bw[lanes] = seq_bw[position]

                # Retire the rows whose lanes all sit on their sentinels and
                # carry only the live rows on: each row's trajectory is
                # independent (every op is elementwise per row), so dropping
                # finished rows cannot perturb the survivors' bits.
                retired = np.flatnonzero(dead)
                if np.any(required_bw[:, retired]):
                    # A live lane's runtime overflowed to inf.
                    raise SchedulingError("bandwidth allocation produced a non-finite time step")
                makespans[row_index[retired]] = now[retired]
                if num_dead == n:
                    return makespans
                keep = np.flatnonzero(~dead)
                row_index = row_index[keep]
                # take() keeps the state C-contiguous (a[:, keep] would be
                # Fortran-ordered), so the flat views above stay views.
                cursor = cursor.take(keep, axis=1)
                remaining_work = remaining_work.take(keep, axis=1)
                required_bw = required_bw.take(keep, axis=1)
                now = now[keep]
