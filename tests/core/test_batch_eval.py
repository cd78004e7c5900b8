"""Tests for the batched evaluation engine and its bitwise scalar equivalence.

The batch backend must be a drop-in replacement for the scalar reference
oracle: same fitnesses (bit for bit), same convergence history, same
best-encoding, same budget accounting — only faster.
"""

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.analyzer import JobAnalysisTable
from repro.core.bw_allocator import BandwidthAllocator, BatchBandwidthAllocator
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import EVAL_BACKENDS, MappingEvaluator
from repro.core.encoding import MappingCodec
from repro.exceptions import ConfigurationError, SchedulingError
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


def _assert_batch_matches_scalar(bandwidth, codec, table, population):
    """Batch makespans equal the scalar oracle's, row by row, bit for bit."""
    batch_makespans = BatchBandwidthAllocator(bandwidth).makespan_cycles(
        codec.decode_batch(population), table
    )
    scalar = BandwidthAllocator(bandwidth)
    for i in range(len(population)):
        expected = scalar.makespan_cycles(codec.decode(population[i]), table)
        assert batch_makespans[i] == expected  # bitwise, no tolerance


def _with_selection(codec, population, selection):
    """Copy of *population* with every row's selection genome replaced."""
    rows = np.array(population, dtype=float)
    rows[:, : codec.num_jobs] = selection
    return rows


class TestBatchDecode:
    def test_repair_batch_matches_scalar_repair(self):
        codec = MappingCodec(num_jobs=9, num_sub_accelerators=4)
        rng = np.random.default_rng(0)
        population = rng.normal(scale=3.0, size=(25, codec.encoding_length))
        repaired = codec.repair_batch(population)
        for i in range(len(population)):
            assert np.array_equal(repaired[i], codec.repair(population[i]))

    def test_decode_batch_matches_scalar_decode(self):
        codec = MappingCodec(num_jobs=11, num_sub_accelerators=3)
        population = codec.random_population(30, rng=1)
        batch = codec.decode_batch(population)
        for i in range(len(population)):
            assert batch.mapping(i) == codec.decode(population[i])

    def test_decode_batch_ties_break_on_job_index(self):
        codec = MappingCodec(num_jobs=4, num_sub_accelerators=2)
        encoding = np.array([0, 1, 0, 1, 0.5, 0.5, 0.5, 0.5])
        batch = codec.decode_batch(encoding[None, :])
        assert batch.mapping(0) == codec.decode(encoding)
        assert batch.mapping(0).assignments == ((0, 2), (1, 3))

    def test_decode_batch_with_empty_cores_matches_scalar_decode(self):
        """Cores with no jobs decode to empty queues, wherever they sit."""
        codec = MappingCodec(num_jobs=7, num_sub_accelerators=5)
        rng = np.random.default_rng(4)
        population = codec.random_population(40, rng=rng)
        # Rows drawing from two of the five cores, plus all-on-one-core rows.
        population[:20, :7] = rng.choice([1, 3], size=(20, 7))
        population[20, :7] = 0
        population[21, :7] = 4
        batch = codec.decode_batch(population)
        assert batch.queue_lengths[20].tolist() == [7, 0, 0, 0, 0]
        assert batch.queue_lengths[21].tolist() == [0, 0, 0, 0, 7]
        for i in range(len(population)):
            assert batch.mapping(i) == codec.decode(population[i])

    def test_lane_order_groups_jobs_by_core_in_priority_order(self):
        codec = MappingCodec(num_jobs=6, num_sub_accelerators=3)
        encoding = np.array([2, 0, 2, 0, 2, 2, 0.9, 0.5, 0.1, 0.2, 0.1, 0.0])
        batch = codec.decode_batch(encoding[None, :])
        assert batch.lane_order[0].tolist() == [3, 1, 5, 2, 4, 0]
        assert batch.queue_lengths[0].tolist() == [2, 0, 4]


class TestBatchAllocator:
    @pytest.mark.parametrize("setting,bandwidth,group_size", [
        ("S1", 16.0, 8),
        ("S2", 4.0, 12),
        ("S3", 64.0, 16),   # 8 cores: exercises the sequential demand sum
        ("S6", 256.0, 20),  # 16 cores
    ])
    def test_makespans_bitwise_equal_scalar(self, setting, bandwidth, group_size):
        platform, group = _problem(setting, bandwidth, group_size)
        evaluator = MappingEvaluator(group, platform)
        population = evaluator.codec.random_population(32, rng=3)
        _assert_batch_matches_scalar(bandwidth, evaluator.codec, evaluator.table, population)

    @pytest.mark.parametrize("pop_size", [1, 15, 16, 17, 33, 80])
    def test_population_sizes_around_compaction(self, pop_size):
        """Sizes on both sides of ``_COMPACTION_MIN_ROWS`` and twice it."""
        platform, group = _problem("S2", 16.0, 20)
        evaluator = MappingEvaluator(group, platform)
        population = evaluator.codec.random_population(pop_size, rng=pop_size)
        _assert_batch_matches_scalar(16.0, evaluator.codec, evaluator.table, population)

    def test_sixteen_cores_at_search_group_size(self):
        """S6 at G=200: 16-lane demand sums over a search-sized schedule."""
        platform, group = _problem("S6", 256.0, 200)
        evaluator = MappingEvaluator(group, platform)
        population = evaluator.codec.random_population(12, rng=5)
        _assert_batch_matches_scalar(256.0, evaluator.codec, evaluator.table, population)

    def test_rows_with_empty_cores(self):
        """Lanes that start on their sentinel stay idle and draw no bandwidth."""
        platform, group = _problem("S3", 8.0, 16)  # 8 cores
        evaluator = MappingEvaluator(group, platform)
        codec = evaluator.codec
        rng = np.random.default_rng(6)
        population = codec.random_population(30, rng=rng)
        population = _with_selection(codec, population, rng.choice([2, 5, 7], size=(30, 16)))
        _assert_batch_matches_scalar(8.0, codec, evaluator.table, population)

    @pytest.mark.parametrize("core", [0, 3])
    def test_every_job_on_one_core(self, core):
        platform, group = _problem("S2", 4.0, 12)
        evaluator = MappingEvaluator(group, platform)
        codec = evaluator.codec
        population = _with_selection(codec, codec.random_population(20, rng=core), core)
        _assert_batch_matches_scalar(4.0, codec, evaluator.table, population)

    def test_compaction_retires_early_finishers(self):
        """Rows that drain in fewer steps retire mid-sweep; survivors' bits hold.

        With identical jobs, a row spreading its 8 jobs evenly over 4 cores
        finishes in 2 events, while a row stacking them on one core needs 8,
        so the 24 spread rows retire (and compact away) long before the rest.
        """
        latency = np.full((8, 4), 100.0)
        latency[:, 2] = 70.0
        table = JobAnalysisTable(
            latency_cycles=latency,
            required_bw_gbps=np.full((8, 4), 3.0),
            energy_joules=np.ones((8, 4)),
            dram_traffic_bytes=latency * 3.0,
            job_flops=np.full(8, 1000.0),
        )
        codec = MappingCodec(num_jobs=8, num_sub_accelerators=4)
        population = codec.random_population(30, rng=7)
        population[:24, :8] = np.tile([0, 1, 2, 3], 2)
        population[24:, :8] = np.arange(6)[:, None] % 4
        _assert_batch_matches_scalar(5.0, codec, table, population)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_work_raises_instead_of_idling(self):
        """``latency * bw`` of +inf must not pass for an idle sentinel lane."""
        latency = np.full((4, 2), 100.0)
        bandwidth = np.full((4, 2), 2.0)
        latency[1, 0] = 1e200
        bandwidth[1, 0] = 1e200
        table = JobAnalysisTable(
            latency_cycles=latency,
            required_bw_gbps=bandwidth,
            energy_joules=np.ones((4, 2)),
            dram_traffic_bytes=np.ones((4, 2)),
            job_flops=np.full(4, 1000.0),
        )
        codec = MappingCodec(num_jobs=4, num_sub_accelerators=2)
        encoding = np.array([0, 0, 1, 1, 0.1, 0.2, 0.3, 0.4])
        with pytest.raises(SchedulingError):
            BandwidthAllocator(16.0).makespan_cycles(codec.decode(encoding), table)
        with pytest.raises(SchedulingError):
            BatchBandwidthAllocator(16.0).makespan_cycles(
                codec.decode_batch(encoding[None, :]), table
            )

    def test_residual_work_clamped_at_zero(self):
        """Regression guard for the residual-work clamp: floating-point
        rounding in ``remaining_work -= dt * allocation`` must never leave a
        live core with negative residual work (which would surface as a
        negative ``runtimes.min()`` and a spurious SchedulingError on the next
        event).  Stress heavily-contended (low-bandwidth) schedules, where
        near-tie completion events make the drain arithmetic most delicate."""
        platform, group = _problem("S5", 1.0, 24)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="scalar"))
        rng = np.random.default_rng(9)
        for _ in range(50):
            encoding = evaluator.codec.random_encoding(rng)
            makespan = evaluator.allocator.makespan_cycles(
                evaluator.codec.decode(encoding), evaluator.table
            )
            assert np.isfinite(makespan) and makespan > 0


class TestBackendEquivalence:
    @pytest.mark.parametrize("setting,bandwidth,group_size,objective", [
        ("S1", 16.0, 10, "throughput"),
        ("S2", 16.0, 12, "throughput"),
        ("S2", 2.0, 12, "latency"),
        ("S3", 64.0, 16, "throughput"),
        ("S2", 16.0, 12, "energy"),  # needs_mapping objective on the batch path
    ])
    def test_population_evaluation_bitwise_identical(self, setting, bandwidth, group_size, objective):
        """Property: fitnesses, history, and best encoding match bit for bit."""
        platform, group = _problem(setting, bandwidth, group_size)
        scalar = MappingEvaluator(group, platform, objective=objective,
                                  sampling_budget=400, eval_config=EvalConfig(backend="scalar"))
        batch = MappingEvaluator(group, platform, objective=objective,
                                 sampling_budget=400, eval_config=EvalConfig(backend="batch"))
        rng = np.random.default_rng(11)
        for _ in range(4):
            population = scalar.codec.random_population(30, rng)
            fitness_scalar = scalar.evaluate_population(population)
            fitness_batch = batch.evaluate_population(population)
            assert np.array_equal(fitness_scalar, fitness_batch)
        assert scalar.history == batch.history  # exact, not approx
        assert scalar.samples_used == batch.samples_used
        assert np.array_equal(scalar.best_encoding, batch.best_encoding)
        assert scalar.best_fitness == batch.best_fitness

    def test_equivalent_with_unrepaired_real_vectors(self):
        """Continuous optimizers feed raw real vectors; repair must agree."""
        platform, group = _problem("S2", 16.0, 10)
        scalar = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="scalar"))
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rng = np.random.default_rng(5)
        population = rng.normal(scale=4.0, size=(40, scalar.codec.encoding_length))
        assert np.array_equal(
            scalar.evaluate_population(population, count_samples=False),
            batch.evaluate_population(population, count_samples=False),
        )

    def test_budget_truncation_matches_scalar(self):
        platform, group = _problem("S2", 16.0, 10)
        scalar = MappingEvaluator(group, platform, sampling_budget=7, eval_config=EvalConfig(backend="scalar"))
        batch = MappingEvaluator(group, platform, sampling_budget=7, eval_config=EvalConfig(backend="batch"))
        population = scalar.codec.random_population(10, rng=0)
        fitness_scalar = scalar.evaluate_population(population)
        fitness_batch = batch.evaluate_population(population)
        assert np.array_equal(fitness_scalar, fitness_batch)
        assert np.sum(np.isfinite(fitness_batch)) == 7
        assert scalar.samples_used == batch.samples_used == 7
        assert scalar.history == batch.history

    def test_duplicates_served_from_cache_still_charge_budget(self):
        """Memoization skips re-simulation but budget accounting is unchanged."""
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, sampling_budget=100, eval_config=EvalConfig(backend="batch"))
        encoding = evaluator.codec.random_encoding(rng=0)
        population = np.tile(encoding, (6, 1))
        fitnesses = evaluator.evaluate_population(population)
        assert evaluator.samples_used == 6  # every duplicate charged
        assert len(set(fitnesses.tolist())) == 1
        assert len(evaluator._fitness_cache) == 1  # simulated once

    def test_search_results_identical_across_backends(self):
        """End to end: a full MAGMA search is backend-invariant."""
        from repro.core.framework import M3E

        platform, group = _problem("S2", 16.0, 12)
        results = {}
        for backend in EVAL_BACKENDS:
            explorer = M3E(platform, sampling_budget=150, eval_config=EvalConfig(backend=backend))
            results[backend] = explorer.search(
                group, optimizer="magma", seed=13,
                optimizer_options={"population_size": 10},
            )
        for backend in EVAL_BACKENDS:
            assert results["scalar"].best_fitness == results[backend].best_fitness
            assert np.array_equal(
                results["scalar"].best_encoding, results[backend].best_encoding
            )
            assert results["scalar"].history == results[backend].history

    def test_rejects_unknown_backend(self):
        platform, group = _problem("S1", 16.0, 8)
        with pytest.raises(ConfigurationError):
            MappingEvaluator(group, platform, eval_config=EvalConfig(backend="gpu"))


class TestOutOfDomainParity:
    """Regression tests: every backend must simulate the *repaired* encoding.

    The scalar backend used to hand the raw encoding to its fitness path
    while the batch backend simulated the repaired one, so an out-of-domain
    vector (e.g. a continuous optimizer's un-rounded selection gene) could
    score differently per backend, and the recorded ``best_encoding`` was a
    repaired vector whose fitness was never the one measured.
    """

    def _evaluators(self, sampling_budget=None):
        platform, group = _problem("S2", 16.0, 10)
        return {
            backend: MappingEvaluator(
                group, platform, sampling_budget=sampling_budget, eval_config=EvalConfig(backend=backend)
            )
            for backend in ("scalar", "batch")
        }

    def test_single_evaluate_identical_on_unrepaired_encoding(self):
        evaluators = self._evaluators(sampling_budget=10)
        encoding = evaluators["scalar"].codec.random_encoding(rng=0)
        encoding[0] = 2.7  # selection gene off the integer lattice
        encoding[-1] = 1.9  # priority gene outside [0, 1)
        fitnesses = {name: ev.evaluate(encoding) for name, ev in evaluators.items()}
        assert fitnesses["scalar"] == fitnesses["batch"]

    def test_property_unrepaired_populations_identical(self):
        """Property: arbitrary real vectors score identically on both backends."""
        evaluators = self._evaluators()
        rng = np.random.default_rng(23)
        for scale in (0.5, 3.0, 10.0):
            population = rng.normal(scale=scale, size=(25, evaluators["scalar"].codec.encoding_length))
            results = {
                name: ev.evaluate_population(population, count_samples=False)
                for name, ev in evaluators.items()
            }
            assert np.array_equal(results["scalar"], results["batch"])

    def test_best_encoding_fitness_is_the_measured_one(self):
        """The recorded best encoding must reproduce the recorded fitness."""
        for backend in ("scalar", "batch"):
            platform, group = _problem("S2", 16.0, 10)
            evaluator = MappingEvaluator(group, platform, sampling_budget=30, eval_config=EvalConfig(backend=backend))
            rng = np.random.default_rng(3)
            population = rng.normal(scale=4.0, size=(20, evaluator.codec.encoding_length))
            evaluator.evaluate_population(population)
            replay = evaluator.evaluate(evaluator.best_encoding, count_sample=False)
            assert replay == evaluator.best_fitness


class TestReportingRepairsEncodings:
    """``detailed_evaluation``/``schedule_for`` must repair before decoding,
    so a continuous optimizer's raw best vector yields the same final metrics
    as the repaired encoding whose fitness the search recorded."""

    def test_detailed_evaluation_matches_search_fitness(self):
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform)
        raw = np.random.default_rng(8).normal(
            scale=4.0, size=evaluator.codec.encoding_length
        )
        fitness = evaluator.evaluate(raw, count_sample=False)
        detail = evaluator.detailed_evaluation(raw)
        assert detail.fitness == pytest.approx(fitness)
        repaired_detail = evaluator.detailed_evaluation(evaluator.codec.repair(raw))
        assert detail.fitness == repaired_detail.fitness
        assert detail.mapping == repaired_detail.mapping

    def test_schedule_for_matches_repaired_schedule(self):
        platform, group = _problem("S1", 16.0, 8)
        evaluator = MappingEvaluator(group, platform)
        raw = np.random.default_rng(9).normal(
            scale=4.0, size=evaluator.codec.encoding_length
        )
        raw_schedule = evaluator.schedule_for(raw)
        repaired_schedule = evaluator.schedule_for(evaluator.codec.repair(raw))
        assert raw_schedule.makespan_cycles == repaired_schedule.makespan_cycles
        assert raw_schedule.jobs == repaired_schedule.jobs


class TestRecordSamplesAcrossBackends:
    def test_sampled_encodings_and_fitnesses_identical(self):
        """``record_samples=True`` (the Fig. 10 exploration path) must record
        the same repaired encodings and fitnesses on every backend."""
        platform, group = _problem("S2", 16.0, 10)
        evaluators = {}
        for backend in EVAL_BACKENDS:
            evaluator = MappingEvaluator(group, platform, sampling_budget=100, eval_config=EvalConfig(backend=backend))
            evaluator.record_samples = True
            evaluators[backend] = evaluator
        rng = np.random.default_rng(17)
        populations = [
            rng.normal(scale=3.0, size=(20, evaluators["scalar"].codec.encoding_length))
            for _ in range(2)
        ]
        for evaluator in evaluators.values():
            for population in populations:
                evaluator.evaluate_population(population)
            evaluator.close()
        reference = evaluators["scalar"]
        for backend in ("batch", "parallel"):
            other = evaluators[backend]
            assert np.array_equal(reference.sampled_encodings, other.sampled_encodings)
            assert np.array_equal(reference.sampled_fitnesses, other.sampled_fitnesses)
        # Every recorded encoding is repaired (in the valid domain).
        encodings = reference.sampled_encodings
        genome = reference.codec.genome_length
        assert np.array_equal(np.rint(encodings[:, :genome]), encodings[:, :genome])
        assert np.all((encodings[:, genome:] >= 0.0) & (encodings[:, genome:] < 1.0))
