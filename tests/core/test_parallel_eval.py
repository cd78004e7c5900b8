"""Tests for the sharded multi-process evaluation backend.

The ``parallel`` backend must be a drop-in replacement for ``batch`` (and
therefore for the ``scalar`` oracle): bit-identical fitnesses, history,
best-encoding, and budget accounting — the worker pool is purely a
throughput device.  These tests run with small worker counts so they stay
cheap on single-core CI runners (correctness does not need real parallelism).
"""

import multiprocessing
import pickle
import signal
import time

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import EVAL_BACKENDS, MappingEvaluator, SimulationRig
from repro.core.framework import M3E
from repro.core import parallel as parallel_module
from repro.core.parallel import (
    EvaluatorSpec,
    ParallelEvaluationPool,
    SharedMemoryRing,
    MIN_ROWS_PER_WORKER,
    resolve_num_workers,
    split_shards,
    worker_cpus,
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
        assert isinstance(rig, SimulationRig)
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
        assert multiprocessing.active_children() == []  # close() reaped every worker

    def test_spawn_pool_equals_batch_and_closes_cleanly(self):
        """Where ``fork`` is missing the pool spawns its workers: each starts
        a fresh interpreter, unpickles the spec and rebuilds the rig from the
        evaluator module.  Its fitnesses equal the batch backend bit for bit."""
        from repro.obs import get_metrics

        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(40, rng=5))
        reference = evaluator.evaluate_population(rows, count_samples=False)
        fallback = get_metrics().counter(
            "repro_local_fallback_chunks_total", labels={"backend": "parallel"}
        )
        fallback_before = fallback.value
        pool = ParallelEvaluationPool(_spec_for(evaluator), num_workers=2, start_method="spawn")
        try:
            assert np.array_equal(pool.evaluate(rows), reference)
            (process, _), = pool._workers
            assert type(process).__name__ == "SpawnProcess"
            assert np.array_equal(pool.evaluate(rows[::-1]), reference[::-1])
        finally:
            pool.close()
        assert fallback.value == fallback_before  # the spawned worker computed its shards
        assert not pool.is_running
        assert multiprocessing.active_children() == []

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

    def test_worker_cpus_avoid_the_coordinator(self):
        """Each worker gets a CPU of its own and none gets the coordinator's;
        with too few other CPUs (or an unknown one) placement is the OS's."""
        assert worker_cpus(1, {0, 1}, 1) == [0]
        assert worker_cpus(0, {0, 1, 2, 3}, 2) == [1, 2]
        assert worker_cpus(5, {0, 1}, 2) == [0, 1]  # coordinator outside the mask
        assert worker_cpus(1, {0, 1}, 2) is None
        assert worker_cpus(0, {0}, 1) is None
        assert worker_cpus(-1, {0, 1, 2}, 1) is None

    @pytest.mark.skipif(
        parallel_module._SCHED_GETCPU is None or len(parallel_module.os.sched_getaffinity(0)) < 2,
        reason="needs sched_getcpu and two CPUs",
    )
    def test_dispatch_pins_each_worker_to_one_cpu(self):
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(40, rng=9))
        reference = evaluator._rig.fitnesses_for_rows(rows)
        allowed = parallel_module.os.sched_getaffinity(0)
        with ParallelEvaluationPool(_spec_for(evaluator), num_workers=2) as pool:
            assert np.array_equal(pool.evaluate(rows), reference)
            (process, _), = pool._workers
            pinned = parallel_module.os.sched_getaffinity(process.pid)
        assert len(pinned) == 1 and pinned <= allowed

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

    def test_generation_after_close_restarts_the_pool(self):
        """A closed evaluator restarts its pool lazily on the next generation
        and scores the same rows the same."""
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="parallel", workers=2))
        population = evaluator.codec.random_population(24, rng=4)
        try:
            first = evaluator.evaluate_population(population, count_samples=False)
            assert evaluator._pool.is_running  # 24 rows -> two shards, real dispatch
            evaluator.close()
            assert not evaluator._pool.is_running
            second = evaluator.evaluate_population(population, count_samples=False)
            assert np.array_equal(first, second)
            assert evaluator._pool.is_running
        finally:
            evaluator.close()

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


class TestShardingProperties:
    """One-shard-per-lane dispatch must be invisible in the results.

    The property under test: for every lane count, population size and
    fault schedule (slow workers, a worker killed mid-shard, a worker silent
    past the timeout), the gathered fitnesses are bit-identical to the
    in-process batch sweep — the split is a pure throughput device.
    """

    @pytest.fixture()
    def evaluator(self):
        platform, group = _problem("S2", 16.0, 10)
        return MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))

    @pytest.fixture()
    def rig_and_rows(self, evaluator):
        spec = _spec_for(evaluator)
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(73, rng=5))
        return spec, rows, spec.build_rig().fitnesses_for_rows(rows)

    @pytest.fixture(autouse=True)
    def _reset_fault_seams(self):
        yield
        parallel_module._FAULT_DELAY_S = 0.0
        parallel_module._FAULT_KILL_SHARD_START = None

    def test_split_shards_contract(self):
        assert split_shards(10, 3) == [(0, 3), (3, 6), (6, 10)]
        assert split_shards(80, 2) == [(0, 40), (40, 80)]
        assert split_shards(8, 1) == [(0, 8)]

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("pop", [1, 15, 16, 17, 33, 73, 80, 200])
    def test_every_partition_bit_identical(self, evaluator, num_workers, pop):
        spec = _spec_for(evaluator)
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(pop, rng=pop))
        with ParallelEvaluationPool(spec, num_workers=num_workers) as pool:
            assert np.array_equal(pool.evaluate(rows), spec.build_rig().fitnesses_for_rows(rows))
            # Workers ran exactly when the population fills two lanes or more.
            lanes = min(num_workers, pop // MIN_ROWS_PER_WORKER)
            assert pool.is_running == (lanes >= 2)

    def test_slow_workers_bit_identical(self, rig_and_rows):
        spec, rows, reference = rig_and_rows
        parallel_module._FAULT_DELAY_S = 0.01
        with ParallelEvaluationPool(spec, num_workers=3) as pool:
            assert np.array_equal(pool.evaluate(rows), reference)

    def test_killed_worker_recovers_at_once_bit_identical(self, rig_and_rows):
        """The worker holding the shard at row 24 kills itself mid-task: the
        coordinator reads EOF on its pipe at once (not after the timeout),
        recomputes the shard inline, and respawns the worker next call."""
        from repro.obs import get_metrics, get_tracer

        spec, rows, reference = rig_and_rows
        get_tracer().clear()
        deaths = get_metrics().counter("repro_worker_deaths_total", labels={"backend": "parallel"})
        deaths_before = deaths.value
        parallel_module._FAULT_KILL_SHARD_START = 24  # 73 rows, 3 lanes: (0, 24), (24, 48), (48, 73)
        pool = ParallelEvaluationPool(spec, num_workers=3, task_timeout_s=30.0)
        try:
            began = time.perf_counter()
            assert np.array_equal(pool.evaluate(rows), reference)
            assert time.perf_counter() - began < 10.0  # well under task_timeout_s
            parallel_module._FAULT_KILL_SHARD_START = None
            assert np.array_equal(pool.evaluate(rows), reference)
            assert all(pool._workers)  # the lost lane was respawned
        finally:
            pool.close()
        assert deaths.value == deaths_before + 1
        # Silent recovery is banned: the loss left structured warning events
        # (with shard identity) in the tracer ring even though tracing was
        # never enabled.
        warnings_seen = get_tracer().records(kind="event", level="warning")
        lost = [r for r in warnings_seen if r["name"] == "parallel.worker-lost"]
        assert [(r["attrs"]["reason"], r["attrs"]["shard"], r["attrs"]["exitcode"]) for r in lost] == [
            ("died", [24, 48], 1)
        ]
        recovered = [r for r in warnings_seen if r["name"] == "parallel.chunks-recovered-inline"]
        assert [r["attrs"]["shards"] for r in recovered] == [[[24, 48]]]

    def test_silent_worker_is_terminated_and_respawned(self, rig_and_rows):
        """A live worker that never acks within task_timeout_s is terminated;
        its shard is recomputed inline and a fresh worker serves the next call."""
        from repro.obs import get_tracer

        spec, rows, reference = rig_and_rows
        get_tracer().clear()
        parallel_module._FAULT_DELAY_S = 30.0
        pool = ParallelEvaluationPool(spec, num_workers=2, task_timeout_s=0.5)
        try:
            began = time.perf_counter()
            assert np.array_equal(pool.evaluate(rows), reference)
            assert time.perf_counter() - began < 10.0
            assert not pool.is_running
            parallel_module._FAULT_DELAY_S = 0.0
            assert np.array_equal(pool.evaluate(rows), reference)
            assert pool.is_running
        finally:
            pool.close()
        lost = get_tracer().records(kind="event", name="parallel.worker-lost", level="warning")
        assert [(r["attrs"]["reason"], r["attrs"]["exitcode"]) for r in lost] == [("timeout", -signal.SIGTERM)]

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
