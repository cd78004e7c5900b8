"""Tests for the M3E search driver."""

import numpy as np
import pytest

from repro.core.evalconfig import EvalConfig
from repro.core.framework import M3E, SearchResult
from repro.exceptions import OptimizationError
from repro.optimizers import MagmaOptimizer


class TestM3E:
    def test_rejects_bad_budget(self, small_platform):
        with pytest.raises(OptimizationError):
            M3E(small_platform, sampling_budget=0)

    def test_analysis_table_is_cached_per_group(self, small_platform, mix_group):
        explorer = M3E(small_platform, sampling_budget=100)
        first = explorer.analyze(mix_group)
        second = explorer.analyze(mix_group)
        assert first is second

    def test_search_returns_complete_result(self, small_platform, mix_group):
        explorer = M3E(small_platform, sampling_budget=120)
        result = explorer.search(mix_group, optimizer="magma", seed=0,
                                 optimizer_options={"population_size": 12})
        assert isinstance(result, SearchResult)
        assert result.throughput_gflops > 0
        assert result.samples_used <= 120
        assert len(result.history) == result.samples_used
        assert result.best_mapping.num_jobs == mix_group.size
        assert result.optimizer_name == "MAGMA"
        result.schedule.validate()

    def test_search_replays_its_best_mapping_once(self, small_platform, mix_group, monkeypatch):
        """The reported fitness and schedule come from one recorded replay."""
        from repro.core.bw_allocator import BandwidthAllocator

        replays = []
        allocate = BandwidthAllocator.allocate

        def counting_allocate(self, mapping, table):
            replays.append(mapping)
            return allocate(self, mapping, table)

        monkeypatch.setattr(BandwidthAllocator, "allocate", counting_allocate)
        explorer = M3E(small_platform, sampling_budget=60)
        result = explorer.search(mix_group, optimizer="magma", seed=2,
                                 optimizer_options={"population_size": 12})
        assert replays == [result.best_mapping]
        evaluator = explorer.build_evaluator(mix_group)
        assert result.schedule.makespan_cycles == evaluator.schedule_for(result.best_encoding).makespan_cycles
        assert result.best_fitness == evaluator.evaluate(result.best_encoding, count_sample=False)

    def test_search_with_optimizer_instance(self, small_platform, mix_group):
        explorer = M3E(small_platform, sampling_budget=80)
        optimizer = MagmaOptimizer(seed=3, population_size=10)
        result = explorer.search(mix_group, optimizer=optimizer)
        assert result.optimizer_name == "MAGMA"
        assert result.samples_used <= 80

    def test_search_respects_per_call_budget_override(self, small_platform, mix_group):
        explorer = M3E(small_platform, sampling_budget=1000)
        result = explorer.search(
            mix_group, optimizer="random", seed=0, sampling_budget=50
        )
        assert result.samples_used <= 50 + 1

    def test_search_is_deterministic_given_seed(self, small_platform, mix_group):
        explorer = M3E(small_platform, sampling_budget=100)
        a = explorer.search(mix_group, optimizer="stdga", seed=7,
                            optimizer_options={"population_size": 10})
        b = explorer.search(mix_group, optimizer="stdga", seed=7,
                            optimizer_options={"population_size": 10})
        assert a.best_fitness == pytest.approx(b.best_fitness)
        assert np.allclose(a.best_encoding, b.best_encoding)

    def test_compare_runs_each_method_once(self, small_platform, mix_group):
        explorer = M3E(small_platform, sampling_budget=60)
        results = explorer.compare(mix_group, optimizers=["herald-like", "ai-mt-like", "random"], seed=0)
        assert set(results) == {"Herald-like", "AI-MT-like", "Random"}
        assert all(r.throughput_gflops > 0 for r in results.values())

    def test_analysis_cache_survives_group_id_reuse(self, small_platform):
        """Regression: the table cache was keyed by ``id(group)``, so a new
        group reusing a garbage-collected group's id silently received the
        wrong (stale) table."""
        import gc

        from repro.workloads import TaskType, build_task_workload

        explorer = M3E(small_platform, sampling_budget=50)

        def table_for(seed):
            group = build_task_workload(
                TaskType.MIX, group_size=8, seed=seed,
                num_sub_accelerators=small_platform.num_sub_accelerators,
            )[0]
            return explorer.analyze(group)

        # Many create/analyze/discard cycles: with id() keying, CPython
        # routinely reuses a freed group's id and returns the wrong table.
        tables = [table_for(seed) for seed in range(6)]
        gc.collect()
        for seed in range(6):
            fresh_group = build_task_workload(
                TaskType.MIX, group_size=8, seed=seed,
                num_sub_accelerators=small_platform.num_sub_accelerators,
            )[0]
            fresh = explorer.analyze(fresh_group)
            assert np.array_equal(fresh.latency_cycles, tables[seed].latency_cycles)
            assert np.array_equal(fresh.required_bw_gbps, tables[seed].required_bw_gbps)

    def test_compare_does_not_overwrite_same_named_optimizers(self, small_platform, mix_group):
        """Regression: two optimizers sharing a display name silently
        overwrote each other in the compare() results dict."""
        explorer = M3E(small_platform, sampling_budget=40)
        twins = [
            MagmaOptimizer(seed=0, population_size=8),
            MagmaOptimizer(seed=1, population_size=10),
        ]
        results = explorer.compare(mix_group, optimizers=twins, seed=0)
        assert len(results) == 2
        assert set(results) == {"MAGMA", "MAGMA#2"}
        assert all(r.throughput_gflops > 0 for r in results.values())

    def test_eval_backend_validated_and_threaded(self, small_platform, mix_group):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            M3E(small_platform, eval_config=EvalConfig(backend="nope"))
        explorer = M3E(small_platform, sampling_budget=50, eval_config=EvalConfig(backend="scalar"))
        assert explorer.build_evaluator(mix_group).backend == "scalar"

    def test_warm_start_encodings_accepted(self, small_platform, mix_group):
        explorer = M3E(small_platform, sampling_budget=60)
        evaluator = explorer.build_evaluator(mix_group)
        seed_encoding = evaluator.codec.random_encoding(rng=0)
        result = explorer.search(
            mix_group,
            optimizer="magma",
            seed=1,
            initial_encodings=seed_encoding[None, :],
            optimizer_options={"population_size": 8},
        )
        assert result.throughput_gflops > 0
