"""Tests for the batched evaluation engine and its bitwise scalar equivalence.

The batch backend must be a drop-in replacement for the scalar reference
oracle: same fitnesses (bit for bit), same convergence history, same
best-encoding, same budget accounting — only faster.
"""

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.analyzer import JobAnalysisTable
from repro.core.bw_allocator import BandwidthAllocator, BatchBandwidthAllocator, _check_bw_spread
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
        codec.decode_batch(codec.repair_batch(population)), table
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
        population = codec.repair_batch(codec.random_population(30, rng=1))
        batch = codec.decode_batch(population)
        for i in range(len(population)):
            assert batch.mapping(i) == codec.decode(population[i])

    def test_decode_batch_ties_break_on_job_index(self):
        codec = MappingCodec(num_jobs=4, num_sub_accelerators=2)
        encoding = np.array([0, 1, 0, 1, 0.5, 0.5, 0.5, 0.5])
        batch = codec.decode_batch(encoding[None, :])
        assert batch.mapping(0) == codec.decode(encoding)
        assert batch.mapping(0).assignments == ((0, 2), (1, 3))

    def test_decode_batch_many_tied_priorities_match_scalar_decode(self):
        """Rows drawing priorities from three values: long runs of ties on
        the same core must still order by job index."""
        codec = MappingCodec(num_jobs=64, num_sub_accelerators=3)
        rng = np.random.default_rng(12)
        population = codec.random_population(20, rng=rng)
        population[:, 64:] = rng.choice([0.25, 0.5, 0.75], size=(20, 64))
        population[10:, 64:] = rng.random((10, 64))  # untied rows in the same batch
        batch = codec.decode_batch(codec.repair_batch(population))
        for i in range(len(population)):
            assert batch.mapping(i) == codec.decode(population[i])

    def test_decode_batch_with_empty_cores_matches_scalar_decode(self):
        """Cores with no jobs decode to empty queues, wherever they sit."""
        codec = MappingCodec(num_jobs=7, num_sub_accelerators=5)
        rng = np.random.default_rng(4)
        population = codec.random_population(40, rng=rng)
        # Rows drawing from two of the five cores, plus all-on-one-core rows.
        population[:20, :7] = rng.choice([1, 3], size=(20, 7))
        population[20, :7] = 0
        population[21, :7] = 4
        batch = codec.decode_batch(codec.repair_batch(population))
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


class TestBatchDecodeTiedRows:
    """The decode skips its rank cumsum when no row of a batch has a tied
    priority; a batch with ties in one row or in every row takes the
    cumsum.  Each must equal the scalar decode row by row."""

    @pytest.mark.parametrize("tied_rows", ["none", "one", "every"])
    @pytest.mark.parametrize("num_jobs,num_cores", [(20, 4), (200, 16)])
    def test_batch_equals_scalar_decode(self, tied_rows, num_jobs, num_cores):
        codec = MappingCodec(num_jobs=num_jobs, num_sub_accelerators=num_cores)
        rng = np.random.default_rng(num_jobs)
        rows = codec.repair_batch(codec.random_population(24, rng=rng))
        if tied_rows == "one":
            # Two priority values on two cores: every core holds runs of
            # equal priorities, which the default argsort returns out of
            # job order, so only the dense ranks keep them in it.
            rows[7, :num_jobs] = np.arange(num_jobs) % 2
            rows[7, num_jobs:] = rng.choice([0.25, 0.5], size=num_jobs)
        elif tied_rows == "every":
            rows = np.array([codec.encode(codec.decode(row)) for row in rows])
        has_tie = [len(np.unique(row[num_jobs:])) < num_jobs for row in rows]
        assert sum(has_tie) == {"none": 0, "one": 1, "every": len(rows)}[tied_rows]
        batch = codec.decode_batch(rows)
        for i in range(len(rows)):
            assert batch.mapping(i) == codec.decode(rows[i])


class TestBatchDecodeTiesAtScale:
    """The batch decode ranks equal priorities densely and breaks the tie on
    job index; at G=200 on 16 cores it must still equal the scalar decode
    on rows that are nearly all ties."""

    NUM_JOBS, NUM_CORES = 200, 16

    @pytest.fixture()
    def codec(self):
        return MappingCodec(num_jobs=self.NUM_JOBS, num_sub_accelerators=self.NUM_CORES)

    @staticmethod
    def _assert_matches_scalar(codec, rows):
        """*rows* are in the encoding domain, so both decodes read them as given."""
        batch = codec.decode_batch(rows)
        for i in range(len(rows)):
            assert batch.mapping(i) == codec.decode(rows[i])

    def test_encoded_rows_where_each_cores_kth_job_shares_a_priority(self, codec):
        """``encode`` gives the k-th job of every core the same priority."""
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(12):
            mapping = codec.decode(codec.random_encoding(rng))
            encoding = codec.encode(mapping)
            assert len(np.unique(encoding[self.NUM_JOBS:])) < self.NUM_JOBS
            rows.append(encoding)
        self._assert_matches_scalar(codec, np.array(rows))

    def test_clipped_rows_full_of_the_priority_bounds(self, codec):
        rng = np.random.default_rng(6)
        population = codec.random_population(16, rng=rng)
        population[:, self.NUM_JOBS:] = rng.choice([-3.0, 0.0, 1.0, 7.5], size=(16, self.NUM_JOBS))
        population[8:, self.NUM_JOBS:] = rng.choice([0.0, 1 - 1e-12], size=(8, self.NUM_JOBS))
        repaired = codec.repair_batch(population)
        assert set(np.unique(repaired[:, self.NUM_JOBS:])) == {0.0, 1 - 1e-12}
        self._assert_matches_scalar(codec, repaired)

    def test_negative_zero_ties_with_zero(self, codec):
        rng = np.random.default_rng(7)
        population = codec.random_population(8, rng=rng)
        population[:, self.NUM_JOBS:] = np.where(
            rng.random((8, self.NUM_JOBS)) < 0.5, -0.0, 0.0
        )
        population[4:, self.NUM_JOBS::3] = rng.random((4, len(range(0, self.NUM_JOBS, 3))))
        priorities = population[:, self.NUM_JOBS:]
        assert np.signbit(priorities).any() and (~np.signbit(priorities) & (priorities == 0)).any()
        self._assert_matches_scalar(codec, population)


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

    @pytest.mark.parametrize("layout", ["one_job_per_lane", "one_lane_holds_all", "empty_lanes"])
    @pytest.mark.parametrize("pop_size", [1, 33])
    def test_padding_edge_cases(self, layout, pop_size):
        """Padded-layout extremes: ``Lmax`` = 1, a single lane of all G jobs
        (``Lmax`` = G), and lanes that hold no job at all."""
        platform, group = _problem("S3", 8.0, 8)  # 8 cores, 8 jobs
        evaluator = MappingEvaluator(group, platform)
        codec = evaluator.codec
        rng = np.random.default_rng(pop_size)
        population = codec.random_population(pop_size, rng=rng)
        selection = {
            "one_job_per_lane": np.array([rng.permutation(8) for _ in range(pop_size)]),
            "one_lane_holds_all": rng.integers(0, 8, size=(pop_size, 1)),
            "empty_lanes": rng.choice([1, 6], size=(pop_size, 8)),
        }[layout]
        population = _with_selection(codec, population, selection)
        batch = codec.decode_batch(codec.repair_batch(population))
        expected_depth = {"one_job_per_lane": 1, "one_lane_holds_all": 8}.get(layout)
        if expected_depth is not None:
            assert batch.queue_lengths.max() == expected_depth
        _assert_batch_matches_scalar(8.0, codec, evaluator.table, population)

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

    @pytest.mark.parametrize("num_jobs", [8, 64])  # both sides of the row-sort switch
    def test_tied_virtual_end_times_across_cores(self, num_jobs):
        """Identical jobs end at equal virtual times on several cores at once;
        the batch's tie order (core, then queue position) must match the
        scalar walk's, or the running demand sum would round differently.

        Cores 0, 1 and 3 run 100-cycle jobs, core 2 70-cycle ones; each job
        needs its own bandwidth in [2, 4) GB/s, so the demand steps of tied
        events differ and their summation order shows in the bits.  With
        5 GB/s every interval is contended.
        """
        latency = np.full((num_jobs, 4), 100.0)
        latency[:, 2] = 70.0
        table = JobAnalysisTable(
            latency_cycles=latency,
            required_bw_gbps=np.random.default_rng(3).uniform(2.0, 4.0, size=(num_jobs, 4)),
            energy_joules=np.ones((num_jobs, 4)),
            dram_traffic_bytes=latency * 3.0,
            job_flops=np.full(num_jobs, 1000.0),
        )
        codec = MappingCodec(num_jobs=num_jobs, num_sub_accelerators=4)
        population = codec.random_population(30, rng=7)
        population[:24, :num_jobs] = np.tile([0, 1, 2, 3], num_jobs // 4)
        population[24:, :num_jobs] = np.arange(6)[:, None] % 4
        _assert_batch_matches_scalar(5.0, codec, table, population)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_work_raises_instead_of_idling(self):
        """A job whose ``latency * bw`` overflows to +inf is rejected."""
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

    @pytest.mark.parametrize("high_bw,low_bw,system_bw", [
        (1e20, 1e-5, 16.0),  # 1e20 + 1e-5 - 1e20 rounds the live demand to 0
        (1e17, 10.0, 12.0),  # the demand reads 16 instead of 10 after the big job
    ])
    def test_bandwidth_spread_too_wide_for_running_demand_raises(
        self, high_bw, low_bw, system_bw
    ):
        """The interval demand is a running sum of bandwidth steps; with
        bandwidths this far apart its rounding error swamps the small job's
        demand once the big job ends.  Both allocators refuse the mapping
        instead of returning a wrong makespan.  The bound reads only the
        bandwidths a mapping uses: a row that leaves the big entry unused
        simulates, bit-identically on both."""
        table = JobAnalysisTable(
            latency_cycles=np.array([[1.0, 1.0], [100.0, 100.0], [50.0, 50.0]]),
            required_bw_gbps=np.array([[high_bw, low_bw], [low_bw, low_bw], [low_bw, low_bw]]),
            energy_joules=np.ones((3, 2)),
            dram_traffic_bytes=np.ones((3, 2)),
            job_flops=np.full(3, 1000.0),
        )
        codec = MappingCodec(num_jobs=3, num_sub_accelerators=2)
        population = np.array([
            [0, 1, 1, 0.5, 0.5, 0.5],  # job 0 at high_bw on core 0
            [1, 0, 1, 0.5, 0.5, 0.5],  # job 0 at low_bw on core 1
        ])
        with pytest.raises(SchedulingError, match="span a factor"):
            BandwidthAllocator(system_bw).makespan_cycles(codec.decode(population[0]), table)
        with pytest.raises(SchedulingError, match="span a factor"):
            BatchBandwidthAllocator(system_bw).makespan_cycles(codec.decode_batch(population), table)
        _assert_batch_matches_scalar(system_bw, codec, table, population[1:])

    def test_bandwidth_spread_bound_leaves_built_in_workloads_alone(self):
        """The widest built-in tables (S6, G=200, mixed tasks) sit far inside
        the running demand's spread bound."""
        platform, group = _problem("S6", 256.0, 200)
        evaluator = MappingEvaluator(group, platform)
        bw = evaluator.table.required_bw_gbps
        spread = bw.max() / bw.min()
        assert spread < 1e4
        _check_bw_spread(100 * spread, 200, 16)  # passes with 100x headroom

    def test_contended_schedules_stay_finite_and_positive(self):
        """Heavily contended (low-bandwidth) schedules, where many events fall
        close together, still yield finite positive makespans."""
        platform, group = _problem("S5", 1.0, 24)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="scalar"))
        rng = np.random.default_rng(9)
        for _ in range(50):
            encoding = evaluator.codec.random_encoding(rng)
            makespan = evaluator.allocator.makespan_cycles(
                evaluator.codec.decode(encoding), evaluator.table
            )
            assert np.isfinite(makespan) and makespan > 0


class TestKernelEventOrderSum:
    """Each makespan is its row's interval terms summed in event order, as
    the scalar walk adds them.  Terms spanning twelve decades make a
    pairwise (blocked) sum round differently from the sequential one, so a
    kernel that summed them any other way would break bit-identity here."""

    NUM_JOBS, NUM_CORES = 64, 4

    def _table(self):
        rng = np.random.default_rng(11)
        shape = (self.NUM_JOBS, self.NUM_CORES)
        latency = 10.0 ** rng.uniform(0.0, 12.0, size=shape)
        bandwidth = rng.uniform(1.0, 4.0, size=shape)
        return JobAnalysisTable(
            latency_cycles=latency,
            required_bw_gbps=bandwidth,
            energy_joules=np.ones(shape),
            dram_traffic_bytes=latency * bandwidth,
            job_flops=np.full(self.NUM_JOBS, 1000.0),
        )

    @pytest.mark.parametrize("contended", [False, True], ids=["uncontended", "contended"])
    @pytest.mark.parametrize("pop_size", [1, 2, 3, 40])
    def test_wide_magnitude_intervals_match_scalar(self, contended, pop_size):
        codec = MappingCodec(num_jobs=self.NUM_JOBS, num_sub_accelerators=self.NUM_CORES)
        population = codec.random_population(pop_size, rng=pop_size)
        bandwidth = 5.0 if contended else 1000.0
        _assert_batch_matches_scalar(bandwidth, codec, self._table(), population)


class TestKernelChecksPerTable:
    """The batched kernel proves once per table that no mapping can fail its
    checks, and skips them on later calls; a table it cannot prove keeps
    checking the entries and spread each batch uses, on every call."""

    @staticmethod
    def _table(latency, bandwidth):
        latency = np.asarray(latency, dtype=float)
        return JobAnalysisTable(
            latency_cycles=latency,
            required_bw_gbps=np.asarray(bandwidth, dtype=float),
            energy_joules=np.ones_like(latency),
            dram_traffic_bytes=np.ones_like(latency),
            job_flops=np.full(latency.shape[0], 1000.0),
        )

    def test_invalid_entry_raises_for_the_rows_that_use_it_on_every_call(self):
        latency = np.full((4, 2), 100.0)
        latency[1, 0] = 0.0  # job 1 cannot run on core 0
        table = self._table(latency, np.full((4, 2), 2.0))
        codec = MappingCodec(num_jobs=4, num_sub_accelerators=2)
        uses = np.array([[0, 0, 1, 1, 0.1, 0.2, 0.3, 0.4]])
        avoids = np.array([[0, 1, 1, 0, 0.1, 0.2, 0.3, 0.4]])
        allocator = BatchBandwidthAllocator(16.0)
        for _ in range(3):
            assert allocator.makespan_cycles(codec.decode_batch(avoids), table)[0] == (
                BandwidthAllocator(16.0).makespan_cycles(codec.decode(avoids[0]), table)
            )
            with pytest.raises(SchedulingError, match="job 1 has non-positive"):
                allocator.makespan_cycles(codec.decode_batch(uses), table)
            with pytest.raises(SchedulingError, match="job 1 has non-positive"):
                allocator.makespan_cycles(codec.decode_batch(np.vstack((avoids, uses))), table)

    def test_a_proof_for_one_table_does_not_cover_another(self):
        codec = MappingCodec(num_jobs=4, num_sub_accelerators=2)
        good = self._table(np.full((4, 2), 100.0), np.full((4, 2), 2.0))
        latency = np.full((4, 2), 100.0)
        latency[1, 0] = np.nan
        bad = self._table(latency, np.full((4, 2), 2.0))
        uses = codec.decode_batch(np.array([[0, 0, 1, 1, 0.1, 0.2, 0.3, 0.4]]))
        allocator = BatchBandwidthAllocator(16.0)
        allocator.makespan_cycles(uses, good)
        with pytest.raises(SchedulingError, match="job 1 has non-positive"):
            allocator.makespan_cycles(uses, bad)
        allocator.makespan_cycles(uses, good)
        with pytest.raises(SchedulingError, match="job 1 has non-positive"):
            allocator.makespan_cycles(uses, bad)

    def test_spread_failing_table_checks_each_row_on_every_call(self):
        table = self._table(
            [[1.0, 1.0], [100.0, 100.0], [50.0, 50.0]],
            [[1e17, 10.0], [10.0, 10.0], [10.0, 10.0]],
        )
        codec = MappingCodec(num_jobs=3, num_sub_accelerators=2)
        wide = np.array([[0, 1, 1, 0.5, 0.5, 0.5]])  # job 0 at 1e17 GB/s
        narrow = np.array([[1, 0, 1, 0.5, 0.5, 0.5]])
        allocator = BatchBandwidthAllocator(12.0)
        for _ in range(3):
            assert allocator.makespan_cycles(codec.decode_batch(narrow), table)[0] == (
                BandwidthAllocator(12.0).makespan_cycles(codec.decode(narrow[0]), table)
            )
            with pytest.raises(SchedulingError, match="span a factor"):
                allocator.makespan_cycles(codec.decode_batch(wide), table)

    def test_a_proven_table_gives_a_fresh_allocators_makespans(self):
        platform, group = _problem("S6", 256.0, 40)
        evaluator = MappingEvaluator(group, platform)
        codec, table = evaluator.codec, evaluator.table
        allocator = BatchBandwidthAllocator(256.0)
        for seed in range(3):
            batch = codec.decode_batch(codec.repair_batch(codec.random_population(12, rng=seed)))
            expected = BatchBandwidthAllocator(256.0).makespan_cycles(batch, table)
            assert allocator.makespan_cycles(batch, table).tobytes() == expected.tobytes()

    def test_table_keeps_read_only_copies_of_its_arrays(self):
        latency = np.full((3, 2), 100.0)
        bandwidth = np.full((3, 2), 2.0)
        table = self._table(latency, bandwidth)
        latency[0, 0] = -1.0
        bandwidth[0, 0] = np.inf
        assert table.latency_cycles[0, 0] == 100.0 and table.required_bw_gbps[0, 0] == 2.0
        for name in ("latency_cycles", "required_bw_gbps", "energy_joules",
                     "dram_traffic_bytes", "job_flops"):
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0.0


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

    @pytest.mark.parametrize("backend", EVAL_BACKENDS)
    def test_duplicates_each_charge_budget_and_score_identically(self, backend):
        """Every copy of a row is charged, and every copy scores the same."""
        platform, group = _problem("S2", 16.0, 10)
        workers = 2 if backend == "parallel" else None
        with MappingEvaluator(
            group, platform, sampling_budget=100,
            eval_config=EvalConfig(backend=backend, workers=workers),
        ) as evaluator:
            encoding = evaluator.codec.random_encoding(rng=0)
            fitnesses = evaluator.evaluate_population(np.tile(encoding, (6, 1)))
            assert evaluator.samples_used == 6
            assert len(set(fitnesses.tolist())) == 1
            assert evaluator.evaluate(encoding) == fitnesses[0]
            assert evaluator.samples_used == 7
            assert evaluator.history == [fitnesses[0]] * 7

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
