"""Job Analyzer and Job Analysis Table (Section IV-D2/D4 of the paper).

The Job Analyzer profiles every job of a group on every sub-accelerator with
the analytical cost model and stores the two scalars the scheduler needs —
*no-stall latency* and *no-stall (required) bandwidth* — in the Job Analysis
Table.  The table is computed once per (group, platform) pair and then acts
as a constant-time lookup inside the optimization loop, which is what makes
10K-sample searches cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator import AcceleratorPlatform, SubAcceleratorConfig
from repro.costmodel import AnalyticalCostModel, FlexibleArrayCostModel
from repro.exceptions import SchedulingError
from repro.workloads.groups import JobGroup
from repro.workloads.jobs import Job
from repro.workloads.layers import LayerShape


def group_fingerprint(group: JobGroup) -> Tuple:
    """Hashable content key of a group: the analysis table depends only on the
    layer of each job, in job order."""
    return tuple(job.layer for job in group.jobs)


def platform_fingerprint(platform: AcceleratorPlatform) -> Tuple:
    """Hashable content key of a platform, for table caching.

    The table profiles layers per sub-accelerator, so it depends only on the
    sub-accelerator configurations — not on the platform's name or on the
    shared system bandwidth (the bandwidth is divided later, by the BW
    allocator).  Keying on the cores alone lets a bandwidth sweep over one
    setting share a single table.
    """
    return platform.sub_accelerators


class AnalysisTableCache:
    """A ``(platform fingerprint, group fingerprint) -> JobAnalysisTable`` cache.

    :class:`~repro.core.framework.M3E` keeps a private instance per explorer;
    the campaign engine passes one shared instance to every explorer it
    builds so a grid of search cells builds each table once per unique
    (group, platform) pair instead of once per cell.  ``hits`` / ``builds``
    counters make the reuse observable (and benchmarkable).
    """

    def __init__(self) -> None:
        self._tables: Dict[Tuple, JobAnalysisTable] = {}
        self.hits = 0
        self.builds = 0

    def __len__(self) -> int:
        return len(self._tables)

    def get_or_build(
        self, platform: AcceleratorPlatform, group: JobGroup, analyzer: Optional["JobAnalyzer"] = None
    ) -> JobAnalysisTable:
        """Return the cached table for (platform, group), building it on miss.

        ``analyzer`` supplies an existing :class:`JobAnalyzer` for the
        platform (so its per-layer memoisation is reused); when omitted a
        fresh analyzer is constructed for the build.
        """
        key = (platform_fingerprint(platform), group_fingerprint(group))
        table = self._tables.get(key)
        if table is None:
            self.builds += 1
            table = (analyzer or JobAnalyzer(platform)).analyze(group)
            self._tables[key] = table
        else:
            self.hits += 1
        return table


_SHARED_TABLE_CACHE: Optional[AnalysisTableCache] = None


def shared_table_cache() -> AnalysisTableCache:
    """The process-wide analysis-table cache used by the campaign engine."""
    global _SHARED_TABLE_CACHE
    if _SHARED_TABLE_CACHE is None:
        _SHARED_TABLE_CACHE = AnalysisTableCache()
    return _SHARED_TABLE_CACHE


@dataclass(frozen=True)
class JobProfile:
    """Profile of one job on one sub-accelerator."""

    job_index: int
    sub_accelerator_index: int
    no_stall_latency_cycles: float
    required_bw_gbps: float
    energy_joules: float
    dram_traffic_bytes: float


def _read_only_copy(array: np.ndarray) -> np.ndarray:
    copy = np.array(array, order="C")
    copy.setflags(write=False)
    return copy


class JobAnalysisTable:
    """Dense lookup table: (job, sub-accelerator) -> latency / bandwidth / energy.

    Backed by NumPy arrays of shape ``(num_jobs, num_sub_accelerators)`` so the
    BW allocator and heuristics can vectorise their lookups.  The table keeps
    read-only copies of the arrays it is given, so a fact proven about it
    once (the batched allocator's precondition checks) stays true.
    """

    def __init__(
        self,
        latency_cycles: np.ndarray,
        required_bw_gbps: np.ndarray,
        energy_joules: np.ndarray,
        dram_traffic_bytes: np.ndarray,
        job_flops: np.ndarray,
    ):
        shapes = {
            "latency_cycles": latency_cycles.shape,
            "required_bw_gbps": required_bw_gbps.shape,
            "energy_joules": energy_joules.shape,
            "dram_traffic_bytes": dram_traffic_bytes.shape,
        }
        first = latency_cycles.shape
        if any(shape != first for shape in shapes.values()):
            raise SchedulingError(f"analysis table arrays must share a shape, got {shapes}")
        if job_flops.shape != (first[0],):
            raise SchedulingError(
                f"job_flops must have shape ({first[0]},), got {job_flops.shape}"
            )
        self.latency_cycles = _read_only_copy(latency_cycles)
        self.required_bw_gbps = _read_only_copy(required_bw_gbps)
        self.energy_joules = _read_only_copy(energy_joules)
        self.dram_traffic_bytes = _read_only_copy(dram_traffic_bytes)
        self.job_flops = _read_only_copy(job_flops)
        #: Total FLOPs across all jobs (numerator of the throughput
        #: objective), summed once: the arrays are read-only.
        self.total_flops = float(self.job_flops.sum())

    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs covered by the table."""
        return self.latency_cycles.shape[0]

    @property
    def num_sub_accelerators(self) -> int:
        """Number of sub-accelerators covered by the table."""
        return self.latency_cycles.shape[1]

    def profile(self, job_index: int, sub_index: int) -> JobProfile:
        """Return the full profile of one (job, sub-accelerator) pair."""
        self._check_indices(job_index, sub_index)
        return JobProfile(
            job_index=job_index,
            sub_accelerator_index=sub_index,
            no_stall_latency_cycles=float(self.latency_cycles[job_index, sub_index]),
            required_bw_gbps=float(self.required_bw_gbps[job_index, sub_index]),
            energy_joules=float(self.energy_joules[job_index, sub_index]),
            dram_traffic_bytes=float(self.dram_traffic_bytes[job_index, sub_index]),
        )

    def latency(self, job_index: int, sub_index: int) -> float:
        """No-stall latency of one (job, sub-accelerator) pair, in cycles."""
        self._check_indices(job_index, sub_index)
        return float(self.latency_cycles[job_index, sub_index])

    def bandwidth(self, job_index: int, sub_index: int) -> float:
        """Required (no-stall) bandwidth of one pair, in GB/s."""
        self._check_indices(job_index, sub_index)
        return float(self.required_bw_gbps[job_index, sub_index])

    def best_sub_accelerator(self, job_index: int) -> int:
        """Core with the lowest no-stall latency for a job (Herald-style affinity)."""
        self._check_indices(job_index, 0)
        return int(np.argmin(self.latency_cycles[job_index]))

    def average_latency_per_core(self) -> np.ndarray:
        """Mean no-stall latency per core across all jobs (Fig. 13a-style)."""
        return self.latency_cycles.mean(axis=0)

    def average_bandwidth_per_core(self) -> np.ndarray:
        """Mean required bandwidth per core across all jobs (Fig. 13b-style)."""
        return self.required_bw_gbps.mean(axis=0)

    def _check_indices(self, job_index: int, sub_index: int) -> None:
        if not (0 <= job_index < self.num_jobs):
            raise SchedulingError(f"job index {job_index} out of range [0, {self.num_jobs})")
        if not (0 <= sub_index < self.num_sub_accelerators):
            raise SchedulingError(
                f"sub-accelerator index {sub_index} out of range [0, {self.num_sub_accelerators})"
            )


def hardware_key(config: SubAcceleratorConfig) -> Tuple:
    """Every field of a core's configuration except its ``name``.

    Cost-model results depend on the hardware alone, so cores that differ
    only by name (S6's 16 cores are 4 distinct configs) share one cost model
    and one memo entry per layer.
    """
    return tuple(
        getattr(config, f.name) for f in dataclass_fields(config) if f.name != "name"
    )


#: ``(layer, hardware key) -> (latency, bw, energy, traffic)`` of every pair
#: any analyzer of this process has profiled.  The cost model is a pure
#: function of the layer and the hardware (:func:`hardware_key`), so one memo
#: serves every analyzer; it is bounded by the model zoo's layers times the
#: hardware configurations in use.  Two threads that miss on one key at once
#: only compute the same value twice.
_LAYER_PROFILES: Dict[Tuple[LayerShape, Tuple], Tuple[float, float, float, float]] = {}


class JobAnalyzer:
    """Profiles jobs on sub-accelerators and builds :class:`JobAnalysisTable` objects.

    Cost-model evaluations are memoised process-wide on ``(layer,
    hardware)``, where the hardware is a core's configuration without its
    name (:func:`hardware_key`), so repeated layer shapes (the common case in
    batched-job benchmarks), identical cores and later analyzers of the same
    hardware each profile a layer once.  :meth:`analyze` looks up each
    distinct (layer, hardware) pair of a group once and fills the table by
    fancy indexing.
    """

    def __init__(self, platform: AcceleratorPlatform):
        self.platform = platform
        self._hardware = [hardware_key(sub) for sub in platform.sub_accelerators]
        self._cost_models: Dict[Tuple, AnalyticalCostModel | FlexibleArrayCostModel] = {}
        for key, sub in zip(self._hardware, platform.sub_accelerators):
            if key not in self._cost_models:
                self._cost_models[key] = sub.build_cost_model()

    # ------------------------------------------------------------------
    def profile_layer(self, layer: LayerShape, sub_index: int) -> Tuple[float, float, float, float]:
        """Profile one layer on one core: (latency, bw, energy, traffic)."""
        if not (0 <= sub_index < len(self._hardware)):
            raise SchedulingError(
                f"sub-accelerator index {sub_index} out of range [0, {len(self._hardware)})"
            )
        return self._profile(layer, self._hardware[sub_index])

    def _profile(self, layer: LayerShape, hardware: Tuple) -> Tuple[float, float, float, float]:
        key = (layer, hardware)
        profile = _LAYER_PROFILES.get(key)
        if profile is None:
            estimate = self._cost_models[hardware].evaluate(layer)
            profile = _LAYER_PROFILES[key] = (
                estimate.no_stall_latency_cycles,
                estimate.required_bw_gbps,
                estimate.energy_joules,
                estimate.dram_traffic_bytes,
            )
        return profile

    def analyze(self, group: JobGroup | Sequence[Job]) -> JobAnalysisTable:
        """Build the Job Analysis Table for a group of jobs on this platform."""
        jobs: Sequence[Job] = group.jobs if isinstance(group, JobGroup) else tuple(group)
        if not jobs:
            raise SchedulingError("cannot analyze an empty job group")
        layer_slots: Dict[LayerShape, int] = {}
        job_layers = [layer_slots.setdefault(job.layer, len(layer_slots)) for job in jobs]
        hardware_slots: Dict[Tuple, int] = {}
        core_hardware = [hardware_slots.setdefault(key, len(hardware_slots)) for key in self._hardware]
        # (layer, hardware, field) profiles, spread to (job, core, field).
        profiles = np.array(
            [[self._profile(layer, hardware) for hardware in hardware_slots] for layer in layer_slots],
            dtype=float,
        )
        pairs = profiles[np.array(job_layers)[:, None], np.array(core_hardware)]
        return JobAnalysisTable(
            latency_cycles=pairs[:, :, 0],
            required_bw_gbps=pairs[:, :, 1],
            energy_joules=pairs[:, :, 2],
            dram_traffic_bytes=pairs[:, :, 3],
            job_flops=np.array([job.flops for job in jobs], dtype=float),
        )
