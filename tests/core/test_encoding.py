"""Tests for the mapping encoding scheme."""

import numpy as np
import pytest

from repro.core import encoding
from repro.core.encoding import Mapping, MappingCodec, stable_argsort_rows
from repro.exceptions import EncodingError


@pytest.fixture()
def codec() -> MappingCodec:
    return MappingCodec(num_jobs=6, num_sub_accelerators=3)


class TestCodecBasics:
    def test_lengths(self, codec):
        assert codec.genome_length == 6
        assert codec.encoding_length == 12

    def test_invalid_construction(self):
        with pytest.raises(EncodingError):
            MappingCodec(num_jobs=0, num_sub_accelerators=2)
        with pytest.raises(EncodingError):
            MappingCodec(num_jobs=4, num_sub_accelerators=0)

    def test_random_encoding_is_valid(self, codec):
        encoding = codec.random_encoding(rng=0)
        codec.validate(encoding)
        selection = codec.selection_genome(encoding)
        priority = codec.priority_genome(encoding)
        assert np.all((selection >= 0) & (selection < 3))
        assert np.all((priority >= 0) & (priority < 1))

    def test_random_population_shape(self, codec):
        population = codec.random_population(10, rng=1)
        assert population.shape == (10, 12)

    def test_validate_rejects_wrong_length(self, codec):
        with pytest.raises(EncodingError):
            codec.validate(np.zeros(5))

    def test_validate_rejects_nan(self, codec):
        bad = np.zeros(12)
        bad[3] = np.nan
        with pytest.raises(EncodingError):
            codec.validate(bad)


class TestRepair:
    def test_repair_clamps_selection_genes(self, codec):
        encoding = np.concatenate([np.full(6, 99.7), np.full(6, 0.5)])
        repaired = codec.repair(encoding)
        assert np.all(repaired[:6] == 2)

    def test_repair_clamps_negative_values(self, codec):
        encoding = np.concatenate([np.full(6, -3.2), np.full(6, -0.4)])
        repaired = codec.repair(encoding)
        assert np.all(repaired[:6] == 0)
        assert np.all(repaired[6:] == 0.0)

    def test_repair_rounds_fractional_selections(self, codec):
        encoding = np.concatenate([np.full(6, 1.4), np.full(6, 0.5)])
        repaired = codec.repair(encoding)
        assert np.all(repaired[:6] == 1)

    def test_repair_keeps_priorities_below_one(self, codec):
        encoding = np.concatenate([np.zeros(6), np.full(6, 2.0)])
        repaired = codec.repair(encoding)
        assert np.all(repaired[6:] < 1.0)


class TestDecode:
    def test_decode_covers_every_job_once(self, codec):
        mapping = codec.decode(codec.random_encoding(rng=3))
        all_jobs = sorted(j for core in mapping.assignments for j in core)
        assert all_jobs == list(range(6))

    def test_decode_orders_by_priority(self, codec):
        encoding = np.array([0, 0, 0, 1, 1, 1, 0.9, 0.1, 0.5, 0.3, 0.2, 0.8], dtype=float)
        mapping = codec.decode(encoding)
        assert mapping.assignments[0] == (1, 2, 0)
        assert mapping.assignments[1] == (4, 3, 5)

    def test_priority_ties_break_on_job_index(self, codec):
        encoding = np.concatenate([np.zeros(6), np.full(6, 0.5)])
        mapping = codec.decode(encoding)
        assert mapping.assignments[0] == (0, 1, 2, 3, 4, 5)

    def test_decode_of_example_from_paper_figure5(self):
        # Fig. 5(a): two sub-accelerators, five jobs, encoding
        # [1,2,2,1,2 | 0.1,0.8,0.4,0.7,0.3] decodes to
        # accel-1: J1 then J4; accel-2: J5, J3, J2 (0-indexed: 0,3 and 4,2,1).
        codec = MappingCodec(num_jobs=5, num_sub_accelerators=2)
        encoding = np.array([1, 2, 2, 1, 2, 0.1, 0.8, 0.4, 0.7, 0.3], dtype=float) - np.array(
            [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        )
        mapping = codec.decode(encoding)
        assert mapping.assignments[0] == (0, 3)
        assert mapping.assignments[1] == (4, 2, 1)


class TestStableArgsortRows:
    @pytest.mark.parametrize("num_columns", [1, 2, 31, 32, 33, 64, 200, 1100])
    @pytest.mark.parametrize("ties", ["none", "three_values", "all_equal", "integers"])
    def test_equals_numpy_stable_argsort(self, num_columns, ties):
        """Both sides of the row-length switch give NumPy's stable order,
        whatever the tie pattern, with the same index dtype."""
        rng = np.random.default_rng(num_columns)
        shape = (25, num_columns)
        values = {
            "none": rng.random(shape),
            "three_values": rng.choice([0.25, 0.5, 0.75], size=shape),
            "all_equal": np.full(shape, 0.5),
            "integers": rng.integers(0, 5, size=shape).astype(float),
        }[ties]
        expected = np.argsort(values, axis=1, kind="stable")
        order = stable_argsort_rows(values, runs=num_columns)
        assert order.dtype == expected.dtype
        assert np.array_equal(order, expected)


def _lane_rows(num_rows: int, num_columns: int, runs: int, seed: int) -> np.ndarray:
    """Kernel-like rows: *runs* per-lane cumsums of integer latencies, so
    equal end times recur across lanes."""
    rng = np.random.default_rng(seed)
    rows = np.empty((num_rows, num_columns))
    for row in rows:
        lengths = np.bincount(rng.integers(0, runs, size=num_columns), minlength=runs)
        latency = rng.integers(1, 4, size=num_columns).astype(float)
        for start, stop in zip(np.cumsum(lengths) - lengths, np.cumsum(lengths)):
            row[start:stop] = np.cumsum(latency[start:stop])
    return rows


class TestStableArgsortByRuns:
    """The sort is picked by (columns, runs); both paths give NumPy's stable order."""

    @pytest.mark.parametrize("num_columns", [32, 33, 50, 200])
    @pytest.mark.parametrize("runs", [1, 4, 5, 16])
    def test_both_paths_equal_numpy_stable_argsort(self, num_columns, runs, monkeypatch):
        values = _lane_rows(30, num_columns, runs, seed=num_columns * 100 + runs)
        expected = np.argsort(values, axis=1, kind="stable")
        assert len(np.unique(values)) < values.size // 4  # ties across lanes
        assert np.array_equal(stable_argsort_rows(values, runs=runs), expected)
        # Force each path in turn: the switch changes speed, never the order.
        for columns, max_runs in ((10**9, 10**9), (0, 0)):
            monkeypatch.setattr(encoding, "_STABLE_ARGSORT_MAX_COLUMNS", columns)
            monkeypatch.setattr(encoding, "_STABLE_ARGSORT_MAX_RUNS", max_runs)
            order = stable_argsort_rows(values, runs=runs)
            assert order.dtype == expected.dtype
            assert np.array_equal(order, expected)

    def test_switch_reads_runs_and_columns(self, monkeypatch):
        """Few runs or few columns take NumPy's stable sort; long rows of
        many runs take the repair path."""
        stable_calls = []
        real_argsort = np.argsort

        def spy(values, axis=-1, kind=None):
            stable_calls.append(kind == "stable")
            return real_argsort(values, axis=axis, kind=kind)

        monkeypatch.setattr(encoding.np, "argsort", spy)
        cases = [
            ((8, 32), 16, True),  # short rows: the length rule
            ((8, 50), 4, True),  # S1/S2 rows: the run rule, any length
            ((8, 200), 4, True),
            ((8, 33), 5, False),
            ((8, 50), 16, False),  # 80-row calls (a MAGMA generation) lose with stable
            ((8, 200), 200, False),
        ]
        for shape, runs, stable in cases:
            stable_calls.clear()
            stable_argsort_rows(np.zeros(shape), runs=runs)
            assert stable_calls == [stable], (shape, runs)


class TestEncodeRoundTrip:
    def test_encode_decode_round_trip(self, codec):
        original = codec.decode(codec.random_encoding(rng=11))
        recovered = codec.decode(codec.encode(original))
        assert recovered.assignments == original.assignments

    def test_encode_rejects_mismatched_job_count(self, codec):
        other = MappingCodec(num_jobs=4, num_sub_accelerators=3)
        mapping = other.decode(other.random_encoding(rng=0))
        with pytest.raises(EncodingError):
            codec.encode(mapping)


class TestMapping:
    def test_rejects_duplicate_job(self):
        with pytest.raises(EncodingError):
            Mapping(assignments=((0, 1), (1,)), num_jobs=3)

    def test_rejects_missing_job(self):
        with pytest.raises(EncodingError):
            Mapping(assignments=((0,), (1,)), num_jobs=3)

    def test_rejects_out_of_range_job(self):
        with pytest.raises(EncodingError):
            Mapping(assignments=((0, 5), (1, 2)), num_jobs=4)

    def test_core_of_and_jobs_per_core(self):
        mapping = Mapping(assignments=((0, 2), (1,), ()), num_jobs=3)
        assert mapping.core_of(2) == 0
        assert mapping.core_of(1) == 1
        assert mapping.jobs_per_core() == [2, 1, 0]

    def test_describe_lists_cores(self):
        mapping = Mapping(assignments=((0,), (1,)), num_jobs=2)
        assert "core0" in mapping.describe() and "core1" in mapping.describe()
