"""Tests for the bandwidth allocator (Algorithm 1)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.analyzer import JobAnalysisTable
from repro.core.bw_allocator import BandwidthAllocator, BatchBandwidthAllocator
from repro.core.encoding import Mapping, MappingCodec
from repro.core.evaluator import MappingEvaluator
from repro.exceptions import SchedulingError
from repro.workloads import TaskType, build_task_workload


def _table(latency: np.ndarray, bandwidth: np.ndarray) -> JobAnalysisTable:
    """Build a small analysis table from explicit latency / bandwidth arrays."""
    latency = np.asarray(latency, dtype=float)
    bandwidth = np.asarray(bandwidth, dtype=float)
    return JobAnalysisTable(
        latency_cycles=latency,
        required_bw_gbps=bandwidth,
        energy_joules=np.ones_like(latency),
        dram_traffic_bytes=latency * bandwidth,
        job_flops=np.full(latency.shape[0], 1000.0),
    )


class TestValidation:
    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(SchedulingError):
            BandwidthAllocator(system_bandwidth_gbps=0)

    def test_rejects_mismatched_mapping(self):
        table = _table(np.ones((2, 2)), np.ones((2, 2)))
        mapping = Mapping(assignments=((0,), (1, 2)), num_jobs=3)
        with pytest.raises(SchedulingError):
            BandwidthAllocator(16).makespan_cycles(mapping, table)

    def test_rejects_more_cores_than_table(self):
        table = _table(np.ones((2, 1)), np.ones((2, 1)))
        mapping = Mapping(assignments=((0,), (1,)), num_jobs=2)
        with pytest.raises(SchedulingError):
            BandwidthAllocator(16).makespan_cycles(mapping, table)


class TestUncontendedExecution:
    def test_single_job_runs_at_no_stall_latency(self):
        table = _table([[100.0]], [[2.0]])
        mapping = Mapping(assignments=((0,),), num_jobs=1)
        makespan = BandwidthAllocator(16).makespan_cycles(mapping, table)
        assert makespan == pytest.approx(100.0)

    def test_sequential_jobs_add_up(self):
        table = _table([[100.0], [50.0]], [[2.0], [2.0]])
        mapping = Mapping(assignments=((0, 1),), num_jobs=2)
        makespan = BandwidthAllocator(16).makespan_cycles(mapping, table)
        assert makespan == pytest.approx(150.0)

    def test_parallel_jobs_limited_by_slowest_core(self):
        table = _table([[100.0, 100.0], [40.0, 40.0]], [[1.0, 1.0], [1.0, 1.0]])
        mapping = Mapping(assignments=((0,), (1,)), num_jobs=2)
        makespan = BandwidthAllocator(16).makespan_cycles(mapping, table)
        assert makespan == pytest.approx(100.0)

    def test_demand_below_system_bw_runs_at_full_speed(self):
        table = _table([[100.0, 100.0], [100.0, 100.0]], [[3.0, 3.0], [4.0, 4.0]])
        mapping = Mapping(assignments=((0,), (1,)), num_jobs=2)
        # Total demand 7 < 16 GB/s: both jobs finish at their no-stall latency.
        makespan = BandwidthAllocator(16).makespan_cycles(mapping, table)
        assert makespan == pytest.approx(100.0)


class TestContention:
    def test_two_identical_memory_bound_jobs_share_bandwidth(self):
        table = _table([[100.0, 100.0], [100.0, 100.0]], [[16.0, 16.0], [16.0, 16.0]])
        mapping = Mapping(assignments=((0,), (1,)), num_jobs=2)
        # Each job needs 16 GB/s but only 8 is available per job: 2x stretch.
        makespan = BandwidthAllocator(16).makespan_cycles(mapping, table)
        assert makespan == pytest.approx(200.0)

    def test_proportional_allocation_matches_hand_computation(self):
        # Job A: lat 100, bw 12; job B: lat 100, bw 4; system 8 GB/s.
        # Allocations: A gets 6, B gets 2 -> both stretch 2x and finish at 200.
        table = _table([[100.0, 100.0], [100.0, 100.0]], [[12.0, 12.0], [4.0, 4.0]])
        mapping = Mapping(assignments=((0,), (1,)), num_jobs=2)
        makespan = BandwidthAllocator(8).makespan_cycles(mapping, table)
        assert makespan == pytest.approx(200.0)

    def test_bandwidth_reallocated_after_completion(self):
        # Two memory-bound jobs on core 0 run after each other while core 1 is
        # busy with one long compute-bound job; after the first job of core 0
        # finishes, its bandwidth share is re-allocated.
        latency = [[100.0, 100.0], [100.0, 100.0], [300.0, 300.0]]
        bandwidth = [[16.0, 16.0], [16.0, 16.0], [0.5, 0.5]]
        table = _table(latency, bandwidth)
        mapping = Mapping(assignments=((0, 1), (2,)), num_jobs=3)
        schedule = BandwidthAllocator(16).allocate(mapping, table)
        schedule.validate()
        core0_jobs = schedule.jobs_on_core(0)
        assert len(core0_jobs) == 2
        # Both memory-bound jobs are slightly stretched because the long job
        # takes a small share, but total time stays close to 2 x 100 cycles.
        assert schedule.makespan_cycles == pytest.approx(300.0, rel=0.05)

    def test_makespan_never_below_traffic_bound(self):
        rng = np.random.default_rng(0)
        latency = rng.uniform(10, 1000, size=(6, 2))
        bandwidth = rng.uniform(0.5, 30, size=(6, 2))
        table = _table(latency, bandwidth)
        mapping = Mapping(assignments=((0, 2, 4), (1, 3, 5)), num_jobs=6)
        system_bw = 4.0
        makespan = BandwidthAllocator(system_bw).makespan_cycles(mapping, table)
        total_traffic_time = sum(
            latency[j, core] * bandwidth[j, core] / system_bw
            for core, jobs in enumerate(mapping.assignments)
            for j in jobs
        )
        assert makespan >= total_traffic_time - 1e-6


class TestScheduleRecording:
    def test_fast_and_recorded_paths_agree(self, small_platform, mix_group, analysis_table):
        from repro.core.encoding import MappingCodec

        codec = MappingCodec(mix_group.size, small_platform.num_sub_accelerators)
        allocator = BandwidthAllocator(small_platform.system_bandwidth_gbps)
        for seed in range(5):
            mapping = codec.decode(codec.random_encoding(rng=seed))
            fast = allocator.makespan_cycles(mapping, analysis_table)
            schedule = allocator.allocate(mapping, analysis_table)
            assert fast == schedule.makespan_cycles

    def test_every_job_scheduled_exactly_once(self, small_platform, mix_group, analysis_table):
        from repro.core.encoding import MappingCodec

        codec = MappingCodec(mix_group.size, small_platform.num_sub_accelerators)
        allocator = BandwidthAllocator(small_platform.system_bandwidth_gbps)
        mapping = codec.decode(codec.random_encoding(rng=7))
        schedule = allocator.allocate(mapping, analysis_table)
        assert sorted(job.job_index for job in schedule.jobs) == list(range(mix_group.size))

    def test_segments_tile_the_makespan(self, small_platform, mix_group, analysis_table):
        from repro.core.encoding import MappingCodec

        codec = MappingCodec(mix_group.size, small_platform.num_sub_accelerators)
        allocator = BandwidthAllocator(small_platform.system_bandwidth_gbps)
        mapping = codec.decode(codec.random_encoding(rng=9))
        schedule = allocator.allocate(mapping, analysis_table)
        starts = [seg.start_cycle for seg in schedule.segments]
        ends = [seg.end_cycle for seg in schedule.segments]
        assert starts[0] == pytest.approx(0.0)
        assert ends[-1] == pytest.approx(schedule.makespan_cycles)
        for previous_end, next_start in zip(ends[:-1], starts[1:]):
            assert next_start == pytest.approx(previous_end)

    def test_allocation_never_exceeds_system_bandwidth(self, small_platform, mix_group, analysis_table):
        from repro.core.encoding import MappingCodec

        codec = MappingCodec(mix_group.size, small_platform.num_sub_accelerators)
        allocator = BandwidthAllocator(small_platform.system_bandwidth_gbps)
        mapping = codec.decode(codec.random_encoding(rng=13))
        schedule = allocator.allocate(mapping, analysis_table)
        for segment in schedule.segments:
            assert segment.total_allocated_gbps <= small_platform.system_bandwidth_gbps + 1e-6


def _problem(setting: str, bandwidth: float, group_size: int):
    platform = build_setting(setting, bandwidth)
    group = build_task_workload(
        TaskType.MIX, group_size=group_size, seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    return MappingEvaluator(group, platform)


def _batch_makespans(bandwidth, codec, table, population):
    batch = codec.decode_batch(codec.repair_batch(population))
    return BatchBandwidthAllocator(bandwidth).makespan_cycles(batch, table)


def _lower_bounds(mapping: Mapping, table: JobAnalysisTable, bandwidth: float):
    """(longest lane's no-stall time, total traffic time at full bandwidth)."""
    lanes = [
        sum(table.latency_cycles[job, core] for job in jobs)
        for core, jobs in enumerate(mapping.assignments)
    ]
    traffic = sum(
        table.latency_cycles[job, core] * table.required_bw_gbps[job, core]
        for core, jobs in enumerate(mapping.assignments)
        for job in jobs
    ) / bandwidth
    return max(lanes), traffic


class TestClosedForm:
    """The virtual-time closed form reproduces the event sweep's model."""

    FIXTURE = Path(__file__).parent / "data" / "event_sweep_makespans.json"

    def test_matches_recorded_event_sweep_makespans(self):
        """Makespans recorded from the per-event sweep (S2 at 16 GB/s, S5
        saturated at 1 GB/s, S6 at 256 GB/s with G=200) agree to 1e-12
        relative: the model is unchanged, only the rounding moved."""
        cases = json.loads(self.FIXTURE.read_text())["cases"]
        assert {case["setting"] for case in cases} == {"S2", "S5", "S6"}
        for case in cases:
            evaluator = _problem(case["setting"], case["bandwidth_gbps"], case["group_size"])
            codec = evaluator.codec
            expected = np.array(case["makespan_cycles"])
            population = codec.random_population(len(expected), rng=case["population_seed"])
            batch = _batch_makespans(case["bandwidth_gbps"], codec, evaluator.table, population)
            np.testing.assert_allclose(batch, expected, rtol=1e-12, atol=0)
            scalar = BandwidthAllocator(case["bandwidth_gbps"])
            for row, makespan in zip(population, batch):
                assert scalar.makespan_cycles(codec.decode(row), evaluator.table) == makespan

    def test_saturated_makespan_equals_traffic_bound_whatever_the_order(self):
        """The lower bound ``max(longest lane's sum(latency),
        sum(latency * bw) / B)`` (a property test in tests/test_properties.py)
        is met with equality to its traffic term when every interval has
        ``D >= B``: here every job alone needs at least the system bandwidth,
        so this holds for any assignment and priority order (the Fig. 15
        identity)."""
        rng = np.random.default_rng(5)
        latency = rng.uniform(50.0, 5000.0, size=(12, 4))
        bandwidth = rng.uniform(8.0, 40.0, size=(12, 4))
        table = _table(latency, bandwidth)
        codec = MappingCodec(num_jobs=12, num_sub_accelerators=4)
        population = codec.random_population(40, rng=6)
        makespans = _batch_makespans(8.0, codec, table, population)
        for row, makespan in zip(population, makespans):
            lane_bound, traffic_bound = _lower_bounds(codec.decode(row), table, 8.0)
            assert makespan == pytest.approx(traffic_bound, rel=1e-12)
            assert makespan >= lane_bound

    def test_tied_end_times_timeline_matches_batch(self):
        """Identical jobs on several cores end at the same virtual time: the
        recorded timeline's makespan is the batch makespan bit for bit, tied
        jobs end at the same real time, and no zero-length segment appears."""
        latency = np.full((9, 3), 100.0)
        table = _table(latency, np.random.default_rng(1).uniform(4.0, 6.0, size=(9, 3)))
        codec = MappingCodec(num_jobs=9, num_sub_accelerators=3)
        population = codec.random_population(40, rng=2)
        population[:, :9] = np.tile([0, 1, 2], 3)
        makespans = _batch_makespans(6.0, codec, table, population)
        allocator = BandwidthAllocator(6.0)
        for row, makespan in zip(population, makespans):
            schedule = allocator.allocate(codec.decode(row), table)
            assert schedule.makespan_cycles == makespan
            assert all(segment.end_cycle > segment.start_cycle for segment in schedule.segments)
            # Three rounds of three tied completions: three distinct end times.
            assert len({job.end_cycle for job in schedule.jobs}) == 3
            assert len(schedule.segments) == 3
            schedule.validate()
