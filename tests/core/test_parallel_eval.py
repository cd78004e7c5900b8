"""Tests for the sharded multi-process evaluation backend.

The ``parallel`` backend must be a drop-in replacement for ``batch`` (and
therefore for the ``scalar`` oracle): bit-identical fitnesses, history,
best-encoding, and budget accounting — the worker pool is purely a
throughput device.  These tests run with small worker counts so they stay
cheap on single-core CI runners (correctness does not need real parallelism).
"""

import pickle

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import EVAL_BACKENDS, MappingEvaluator
from repro.core.framework import M3E
from repro.core import parallel as parallel_module
from repro.core.parallel import (
    EvaluatorSpec,
    ParallelEvaluationPool,
    SharedMemoryRing,
    resolve_num_workers,
    split_chunks,
)
from repro.exceptions import ConfigurationError
from repro.workloads import TaskType, build_task_workload


def _problem(setting: str, bandwidth: float, group_size: int, seed: int = 0):
    platform = build_setting(setting, bandwidth)
    group = build_task_workload(
        TaskType.MIX,
        group_size=group_size,
        seed=seed,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    return platform, group


def _spec_for(evaluator: MappingEvaluator) -> EvaluatorSpec:
    return EvaluatorSpec.capture(
        evaluator.codec, evaluator.batch_allocator, evaluator.table, evaluator.objective
    )


class TestEvaluatorSpec:
    def test_spec_pickles_and_rebuilds_equivalent_rig(self):
        """The spec is the worker-bootstrap contract: it must survive pickling
        and rebuild a rig that scores rows bit-identically to the original."""
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        spec = _spec_for(evaluator)
        clone = pickle.loads(pickle.dumps(spec))
        rig = clone.build_rig()
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(16, rng=3))
        assert np.array_equal(
            rig.fitnesses_for_rows(rows), evaluator._rig.fitnesses_for_rows(rows)
        )

    def test_spec_shares_table_arrays_without_copy(self):
        platform, group = _problem("S1", 16.0, 8)
        evaluator = MappingEvaluator(group, platform)
        spec = _spec_for(evaluator)
        assert spec.latency_cycles is evaluator.table.latency_cycles

    def test_resolve_num_workers(self):
        assert resolve_num_workers(3) == 3
        assert resolve_num_workers(None) >= 1
        with pytest.raises(ConfigurationError):
            resolve_num_workers(0)

    def test_auto_worker_count_follows_the_affinity_mask(self, monkeypatch):
        """A process pinned to one CPU (``taskset -c 0``) gets one worker,
        however many CPUs the machine has; the auto count is capped at 8."""
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(parallel_module.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_num_workers(None) == 1
        monkeypatch.setattr(parallel_module.os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
        assert resolve_num_workers(None) == 8
        assert resolve_num_workers(12) == 12  # explicit requests are not capped

    def test_auto_worker_count_without_affinity_support(self, monkeypatch):
        monkeypatch.delattr(parallel_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 3)
        assert resolve_num_workers(None) == 3
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        assert resolve_num_workers(None) == 1


class TestParallelEvaluationPool:
    def test_preserves_row_order_across_shards(self):
        """Sharding is contiguous and the gather must reassemble row order,
        including populations that do not divide evenly across workers."""
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(33, rng=7))
        reference = evaluator._rig.fitnesses_for_rows(rows)
        with ParallelEvaluationPool(_spec_for(evaluator), num_workers=2) as pool:
            assert np.array_equal(pool.evaluate(rows), reference)

    def test_pool_reused_across_calls_and_restartable_after_close(self):
        platform, group = _problem("S1", 16.0, 8)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(20, rng=1))
        reference = evaluator._rig.fitnesses_for_rows(rows)
        pool = ParallelEvaluationPool(_spec_for(evaluator), num_workers=2)
        try:
            assert np.array_equal(pool.evaluate(rows), reference)
            assert pool.is_running
            pool.close()
            assert not pool.is_running
            # A closed pool lazily restarts when used again.
            assert np.array_equal(pool.evaluate(rows), reference)
        finally:
            pool.close()

    def test_warm_up_starts_workers_and_next_evaluate_is_bit_identical(self):
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        spec = _spec_for(evaluator)
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(40, rng=9))
        reference = spec.build_rig().fitnesses_for_rows(rows)
        with ParallelEvaluationPool(spec, num_workers=2) as pool:
            pool.warm_up()
            assert pool.is_running
            assert np.array_equal(pool.evaluate(rows), reference)
            assert pool.is_running  # the warmed pool served the dispatch

    def test_empty_population_needs_no_workers(self):
        platform, group = _problem("S1", 16.0, 8)
        evaluator = MappingEvaluator(group, platform)
        pool = ParallelEvaluationPool(_spec_for(evaluator), num_workers=2)
        out = pool.evaluate(np.empty((0, evaluator.codec.encoding_length)))
        assert out.shape == (0,)
        assert not pool.is_running  # nothing dispatched, nothing started
        pool.close()


class TestParallelBackendEquivalence:
    @pytest.mark.parametrize("setting,bandwidth,group_size,objective", [
        ("S1", 16.0, 10, "throughput"),
        ("S2", 2.0, 12, "latency"),
        ("S3", 64.0, 16, "throughput"),
        ("S2", 16.0, 12, "energy"),  # needs_mapping objective inside workers
    ])
    def test_population_evaluation_bitwise_identical_to_batch(
        self, setting, bandwidth, group_size, objective
    ):
        """Property: the parallel backend matches batch bit for bit —
        fitnesses, history, budget, and best encoding."""
        platform, group = _problem(setting, bandwidth, group_size)
        batch = MappingEvaluator(group, platform, objective=objective,
                                 sampling_budget=400, eval_config=EvalConfig(backend="batch"))
        parallel = MappingEvaluator(group, platform, objective=objective,
                                    sampling_budget=400, eval_config=EvalConfig(backend="parallel", workers=2))
        rng = np.random.default_rng(11)
        try:
            for _ in range(3):
                population = batch.codec.random_population(30, rng)
                assert np.array_equal(
                    batch.evaluate_population(population),
                    parallel.evaluate_population(population),
                )
            assert batch.history == parallel.history
            assert batch.samples_used == parallel.samples_used
            assert np.array_equal(batch.best_encoding, parallel.best_encoding)
            assert batch.best_fitness == parallel.best_fitness
        finally:
            parallel.close()

    def test_out_of_domain_population_identical_to_batch(self):
        """Continuous optimizers feed raw real vectors; repair happens in the
        main process, so workers and the batch path must agree bit for bit."""
        platform, group = _problem("S2", 16.0, 10)
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        parallel = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="parallel", workers=2))
        rng = np.random.default_rng(5)
        population = rng.normal(scale=4.0, size=(40, batch.codec.encoding_length))
        try:
            assert np.array_equal(
                batch.evaluate_population(population, count_samples=False),
                parallel.evaluate_population(population, count_samples=False),
            )
        finally:
            parallel.close()

    def test_budget_truncation_identical_to_batch(self):
        platform, group = _problem("S2", 16.0, 10)
        batch = MappingEvaluator(group, platform, sampling_budget=7, eval_config=EvalConfig(backend="batch"))
        parallel = MappingEvaluator(group, platform, sampling_budget=7,
                                    eval_config=EvalConfig(backend="parallel", workers=2))
        population = batch.codec.random_population(10, rng=0)
        try:
            assert np.array_equal(
                batch.evaluate_population(population),
                parallel.evaluate_population(population),
            )
            assert parallel.samples_used == 7
            assert batch.history == parallel.history
        finally:
            parallel.close()

    def test_cache_merges_into_main_process(self):
        """Worker results must land in the main-process memo cache: a repeat
        generation is served without any live workers at all."""
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="parallel", workers=2))
        population = evaluator.codec.random_population(24, rng=4)
        first = evaluator.evaluate_population(population, count_samples=False)
        assert evaluator._pool.is_running  # 24 rows -> two shards, real dispatch
        assert len(evaluator._fitness_cache) == 24
        evaluator.close()
        # Every row is now memoized: re-evaluating must not restart the pool.
        second = evaluator.evaluate_population(population, count_samples=False)
        assert np.array_equal(first, second)
        assert not evaluator._pool.is_running

    def test_small_populations_run_inline_without_starting_workers(self):
        """A single shard gains nothing from IPC: tiny generations must not
        pay pool startup (and must still match the batch backend)."""
        platform, group = _problem("S1", 16.0, 8)
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        parallel = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="parallel", workers=4))
        population = batch.codec.random_population(10, rng=2)
        assert np.array_equal(
            batch.evaluate_population(population, count_samples=False),
            parallel.evaluate_population(population, count_samples=False),
        )
        assert not parallel._pool.is_running
        parallel.close()

    def test_single_evaluate_shares_cache_without_dispatch(self):
        platform, group = _problem("S1", 16.0, 8)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="parallel", workers=2))
        encoding = evaluator.codec.random_encoding(rng=0)
        fitness = evaluator.evaluate(encoding, count_sample=False)
        assert not evaluator._pool.is_running  # scalar calls stay in process
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        assert fitness == batch.evaluate(encoding, count_sample=False)
        evaluator.close()

    def test_search_results_identical_to_batch(self):
        """End to end: a full MAGMA search is backend-invariant."""
        platform, group = _problem("S2", 16.0, 12)
        results = {}
        for backend in ("batch", "parallel"):
            explorer = M3E(
                platform,
                sampling_budget=150,
                eval_config=EvalConfig(backend=backend, workers=2 if backend == "parallel" else None),
            )
            results[backend] = explorer.search(
                group, optimizer="magma", seed=13,
                optimizer_options={"population_size": 10},
            )
        assert results["batch"].best_fitness == results["parallel"].best_fitness
        assert np.array_equal(
            results["batch"].best_encoding, results["parallel"].best_encoding
        )
        assert results["batch"].history == results["parallel"].history


class TestConfiguration:
    def test_parallel_listed_as_backend(self):
        assert "parallel" in EVAL_BACKENDS

    def test_rejects_workers_on_other_backends(self):
        platform, group = _problem("S1", 16.0, 8)
        with pytest.raises(ConfigurationError):
            MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch", workers=2))
        with pytest.raises(ConfigurationError):
            M3E(platform, eval_config=EvalConfig(backend="batch", workers=2))

    def test_rejects_non_positive_worker_count(self):
        platform, group = _problem("S1", 16.0, 8)
        with pytest.raises(ConfigurationError):
            MappingEvaluator(group, platform, eval_config=EvalConfig(backend="parallel", workers=0))


class TestWorkStealingProperties:
    """Work-stealing dispatch must be invisible in the results.

    The property under test: for every chunk size and fault schedule (slow
    workers, a worker killed mid-chunk), the gathered fitnesses are bit-identical to the in-process
    batch sweep — chunking and steal order are pure throughput devices.
    """

    @pytest.fixture()
    def rig_and_rows(self):
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        spec = _spec_for(evaluator)
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(73, rng=5))
        return spec, rows, spec.build_rig().fitnesses_for_rows(rows)

    @pytest.fixture(autouse=True)
    def _reset_fault_seams(self):
        yield
        parallel_module._FAULT_DELAY_S = 0.0
        parallel_module._FAULT_KILL_CHUNK_START = None

    def test_split_chunks_contract(self):
        assert split_chunks(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert split_chunks(8, 8) == [(0, 8)]
        assert split_chunks(0, 16) == []
        with pytest.raises(ConfigurationError):
            split_chunks(10, 0)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 16, 50])
    def test_arbitrary_chunk_sizes_bit_identical(self, rig_and_rows, chunk_rows):
        spec, rows, reference = rig_and_rows
        with ParallelEvaluationPool(spec, num_workers=3, chunk_rows=chunk_rows) as pool:
            assert np.array_equal(pool.evaluate(rows), reference)

    def test_slow_workers_bit_identical(self, rig_and_rows):
        spec, rows, reference = rig_and_rows
        parallel_module._FAULT_DELAY_S = 0.01
        with ParallelEvaluationPool(spec, num_workers=3, chunk_rows=7) as pool:
            assert np.array_equal(pool.evaluate(rows), reference)

    def test_killed_worker_recovers_bit_identical(self, rig_and_rows):
        """The worker holding the chunk at row 14 kills itself mid-task: the
        orphaned chunks are recomputed inline, the wedged pool is abandoned,
        and the next generation dispatches on a fresh pool."""
        from repro.obs import get_tracer

        spec, rows, reference = rig_and_rows
        get_tracer().clear()
        parallel_module._FAULT_KILL_CHUNK_START = 14
        pool = ParallelEvaluationPool(spec, num_workers=3, chunk_rows=7, task_timeout_s=2.0)
        try:
            assert np.array_equal(pool.evaluate(rows), reference)
            parallel_module._FAULT_KILL_CHUNK_START = None
            assert np.array_equal(pool.evaluate(rows), reference)
        finally:
            pool.close()
        # Silent recovery is banned: the rebuild left structured warning
        # events (with chunk identity) in the tracer ring even though
        # tracing was never enabled.
        warnings_seen = get_tracer().records(kind="event", level="warning")
        names = {record["name"] for record in warnings_seen}
        assert "parallel.pool-abandoned" in names
        recovered = [r for r in warnings_seen if r["name"] == "parallel.chunks-recovered-inline"]
        assert recovered and all(r["attrs"]["chunks"] for r in recovered)

    def test_shared_memory_ring_rotates_and_grows(self):
        ring = SharedMemoryRing()
        first = ring.acquire(64)
        second = ring.acquire(64)
        assert first.name != second.name  # consecutive generations rotate slots
        third = ring.acquire(64)
        assert third.name == first.name  # full rotation reuses the slot
        grown = ring.acquire(first.size + 1)  # too small: recreated bigger
        assert grown.name != second.name and grown.size >= first.size + 1
        ring.close()
        ring.close()  # idempotent
