"""Tests for the Job Analyzer and Job Analysis Table."""

from dataclasses import replace

import numpy as np
import pytest

from repro.accelerator import AcceleratorPlatform, build_setting
from repro.core import analyzer as analyzer_module
from repro.core.analyzer import JobAnalyzer, JobAnalysisTable, hardware_key
from repro.exceptions import SchedulingError
from repro.workloads import TaskType, build_task_workload
from repro.workloads.layers import fully_connected

TABLE_ARRAYS = ("latency_cycles", "required_bw_gbps", "energy_joules", "dram_traffic_bytes", "job_flops")


def _assert_tables_identical(first: JobAnalysisTable, second: JobAnalysisTable) -> None:
    for name in TABLE_ARRAYS:
        assert getattr(first, name).shape == getattr(second, name).shape
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


class TestJobAnalyzer:
    def test_table_shape_matches_group_and_platform(self, small_platform, mix_group):
        table = JobAnalyzer(small_platform).analyze(mix_group)
        assert table.num_jobs == mix_group.size
        assert table.num_sub_accelerators == small_platform.num_sub_accelerators

    def test_all_entries_positive(self, analysis_table):
        assert np.all(analysis_table.latency_cycles > 0)
        assert np.all(analysis_table.required_bw_gbps > 0)
        assert np.all(analysis_table.energy_joules > 0)
        assert np.all(analysis_table.dram_traffic_bytes > 0)

    def test_total_flops_matches_group(self, small_platform, mix_group):
        table = JobAnalyzer(small_platform).analyze(mix_group)
        assert table.total_flops == pytest.approx(mix_group.total_flops)

    def test_empty_group_rejected(self, small_platform):
        with pytest.raises(SchedulingError):
            JobAnalyzer(small_platform).analyze([])

    def test_profile_layer_caches_identical_layers(self, small_platform, monkeypatch):
        monkeypatch.setattr(analyzer_module, "_LAYER_PROFILES", {})
        analyzer = JobAnalyzer(small_platform)
        layer = fully_connected(4, 256, 256)
        first = analyzer.profile_layer(layer, 0)
        second = analyzer.profile_layer(layer, 0)
        assert first == second
        assert len(analyzer_module._LAYER_PROFILES) == 1
        # A later analyzer of the same hardware reads the same entry.
        assert JobAnalyzer(small_platform).profile_layer(layer, 0) is first
        assert len(analyzer_module._LAYER_PROFILES) == 1

    def test_cores_differing_only_by_name_share_memo_and_cost_model(
        self, small_platform, mix_group, monkeypatch
    ):
        monkeypatch.setattr(analyzer_module, "_LAYER_PROFILES", {})
        hb, lb = small_platform.sub_accelerators
        twins = AcceleratorPlatform(
            name="twins",
            sub_accelerators=(hb, replace(hb, name="hb1"), lb, replace(lb, name="lb1")),
            system_bandwidth_gbps=16.0,
        )
        analyzer = JobAnalyzer(twins)
        assert len(analyzer._cost_models) == 2
        layer = fully_connected(4, 256, 256)
        assert analyzer.profile_layer(layer, 0) == analyzer.profile_layer(layer, 1)
        assert len(analyzer_module._LAYER_PROFILES) == 1

        # The table equals one built core by core, each core on its own.
        table = analyzer.analyze(mix_group)
        for a, sub in enumerate(twins.sub_accelerators):
            single = AcceleratorPlatform(name=sub.name, sub_accelerators=(sub,), system_bandwidth_gbps=16.0)
            column = JobAnalyzer(single).analyze(mix_group)
            for name in ("latency_cycles", "required_bw_gbps", "energy_joules", "dram_traffic_bytes"):
                assert getattr(table, name)[:, a].tobytes() == getattr(column, name)[:, 0].tobytes()

    def test_profile_layer_rejects_bad_core_index(self, small_platform):
        analyzer = JobAnalyzer(small_platform)
        with pytest.raises(SchedulingError):
            analyzer.profile_layer(fully_connected(1, 8, 8), 99)

    def test_lb_core_has_lower_bandwidth_profile(self, small_platform, mix_group):
        """On the tiny platform core 0 is HB and core 1 is LB."""
        table = JobAnalyzer(small_platform).analyze(mix_group)
        assert table.average_bandwidth_per_core()[1] < table.average_bandwidth_per_core()[0]
        assert table.average_latency_per_core()[1] > table.average_latency_per_core()[0]


def _direct_latency_and_bw(platform, jobs) -> tuple:
    """Latency and bandwidth arrays from one cost-model call per (job, core)."""
    models = [sub.build_cost_model() for sub in platform.sub_accelerators]
    estimates = [[model.evaluate(job.layer) for model in models] for job in jobs]
    latency = np.array([[e.no_stall_latency_cycles for e in row] for row in estimates], dtype=float)
    bandwidth = np.array([[e.required_bw_gbps for e in row] for row in estimates], dtype=float)
    return latency, bandwidth


class TestProcessWideProfileMemo:
    """Tables built from profiles other analyzers left in the process memo
    equal tables built from an empty memo, bit for bit, and both equal one
    cost-model call per (job, core)."""

    @staticmethod
    def _group(seed: int):
        return build_task_workload(TaskType.MIX, group_size=200, seed=seed, num_sub_accelerators=16)[0]

    @staticmethod
    def _assert_matches_cost_models(table, platform, jobs) -> None:
        latency, bandwidth = _direct_latency_and_bw(platform, jobs)
        assert table.latency_cycles.tobytes() == latency.tobytes()
        assert table.required_bw_gbps.tobytes() == bandwidth.tobytes()

    def test_warm_s6_table_equals_cold_build(self, monkeypatch):
        platform = build_setting("S6")
        assert len({hardware_key(sub) for sub in platform.sub_accelerators}) == 4
        group = self._group(0)
        monkeypatch.setattr(analyzer_module, "_LAYER_PROFILES", {})
        cold = JobAnalyzer(platform).analyze(group)
        profiled = len(analyzer_module._LAYER_PROFILES)
        warm = JobAnalyzer(platform).analyze(group)
        assert len(analyzer_module._LAYER_PROFILES) == profiled  # nothing re-profiled
        _assert_tables_identical(cold, warm)
        self._assert_matches_cost_models(warm, platform, group.jobs)
        # A permutation of the group reads the same profiles in its own order.
        permuted = list(reversed(group.jobs))
        _assert_tables_identical(
            JobAnalyzer(platform).analyze(permuted),
            JobAnalyzer(build_setting("S6")).analyze(permuted),
        )
        assert JobAnalyzer(platform).analyze(permuted).latency_cycles.tobytes() == (
            cold.latency_cycles[::-1].tobytes()
        )

    def test_setting_sharing_hardware_with_a_warm_one_equals_cold_build(self, monkeypatch):
        s4, s6 = build_setting("S4"), build_setting("S6")
        shared = {hardware_key(sub) for sub in s4.sub_accelerators} & {
            hardware_key(sub) for sub in s6.sub_accelerators
        }
        assert shared
        group = self._group(1)
        monkeypatch.setattr(analyzer_module, "_LAYER_PROFILES", {})
        cold = JobAnalyzer(s4).analyze(group)
        monkeypatch.setattr(analyzer_module, "_LAYER_PROFILES", {})
        JobAnalyzer(s6).analyze(group)
        warm = JobAnalyzer(s4).analyze(group)
        _assert_tables_identical(cold, warm)
        self._assert_matches_cost_models(warm, s4, group.jobs)


class TestJobAnalysisTable:
    def test_profile_accessor(self, analysis_table):
        profile = analysis_table.profile(0, 1)
        assert profile.job_index == 0
        assert profile.sub_accelerator_index == 1
        assert profile.no_stall_latency_cycles == analysis_table.latency(0, 1)
        assert profile.required_bw_gbps == analysis_table.bandwidth(0, 1)

    def test_out_of_range_indices_rejected(self, analysis_table):
        with pytest.raises(SchedulingError):
            analysis_table.latency(analysis_table.num_jobs, 0)
        with pytest.raises(SchedulingError):
            analysis_table.bandwidth(0, analysis_table.num_sub_accelerators)

    def test_best_sub_accelerator_minimises_latency(self, analysis_table):
        for job in range(analysis_table.num_jobs):
            best = analysis_table.best_sub_accelerator(job)
            assert analysis_table.latency(job, best) == analysis_table.latency_cycles[job].min()

    def test_mismatched_array_shapes_rejected(self):
        with pytest.raises(SchedulingError):
            JobAnalysisTable(
                latency_cycles=np.ones((3, 2)),
                required_bw_gbps=np.ones((3, 3)),
                energy_joules=np.ones((3, 2)),
                dram_traffic_bytes=np.ones((3, 2)),
                job_flops=np.ones(3),
            )

    def test_mismatched_flops_shape_rejected(self):
        with pytest.raises(SchedulingError):
            JobAnalysisTable(
                latency_cycles=np.ones((3, 2)),
                required_bw_gbps=np.ones((3, 2)),
                energy_joules=np.ones((3, 2)),
                dram_traffic_bytes=np.ones((3, 2)),
                job_flops=np.ones(4),
            )

    def test_total_flops_is_the_sum_of_its_read_only_job_flops(self, analysis_table):
        # Summed once at construction; the table's arrays cannot change after.
        assert analysis_table.total_flops == float(analysis_table.job_flops.sum())
        assert not analysis_table.job_flops.flags.writeable
        flops = np.array([3.0e9, 1.5e-3, 7.0e12])
        table = JobAnalysisTable(
            latency_cycles=np.ones((3, 2)),
            required_bw_gbps=np.ones((3, 2)),
            energy_joules=np.ones((3, 2)),
            dram_traffic_bytes=np.ones((3, 2)),
            job_flops=flops,
        )
        flops[0] = 0.0
        assert table.total_flops == float(np.array([3.0e9, 1.5e-3, 7.0e12]).sum())
