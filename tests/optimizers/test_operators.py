"""Tests for MAGMA's genetic operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import MappingCodec
from repro.core.evaluator import MappingEvaluator
from repro.optimizers import operators
from repro.optimizers.magma import MagmaOptimizer


@pytest.fixture()
def codec() -> MappingCodec:
    return MappingCodec(num_jobs=10, num_sub_accelerators=4)


@pytest.fixture()
def parents(codec):
    rng = np.random.default_rng(0)
    return codec.random_encoding(rng), codec.random_encoding(rng)


class TestMutation:
    def test_mutation_preserves_validity(self, codec, parents):
        child = operators.mutate(parents[0], codec, rng=1, mutation_rate=0.5)
        codec.validate(child)
        mapping = codec.decode(child)
        assert mapping.num_jobs == 10

    def test_zero_rate_is_identity(self, codec, parents):
        child = operators.mutate(parents[0], codec, rng=1, mutation_rate=0.0)
        assert np.array_equal(child, parents[0])

    def test_full_rate_changes_most_genes(self, codec, parents):
        child = operators.mutate(parents[0], codec, rng=1, mutation_rate=1.0)
        assert np.sum(child != parents[0]) > codec.genome_length

    def test_parent_not_modified_in_place(self, codec, parents):
        original = parents[0].copy()
        operators.mutate(parents[0], codec, rng=2, mutation_rate=1.0)
        assert np.array_equal(parents[0], original)

    def test_mutated_selection_genes_stay_in_range(self, codec, parents):
        child = operators.mutate(parents[0], codec, rng=3, mutation_rate=1.0)
        selection = child[: codec.genome_length]
        assert np.all((selection >= 0) & (selection < codec.num_sub_accelerators))


class TestCrossoverGen:
    def test_only_one_genome_is_touched(self, codec, parents):
        dad, mom = parents
        son, daughter = operators.crossover_gen(dad, mom, codec, rng=5)
        genome = codec.genome_length
        selection_changed = not np.array_equal(son[:genome], dad[:genome])
        priority_changed = not np.array_equal(son[genome:], dad[genome:])
        # Exactly one of the two genomes may change (the other is preserved).
        assert not (selection_changed and priority_changed)

    def test_children_are_gene_swaps_of_parents(self, codec, parents):
        dad, mom = parents
        son, daughter = operators.crossover_gen(dad, mom, codec, rng=7)
        for position in range(codec.encoding_length):
            assert son[position] in (dad[position], mom[position])
            assert daughter[position] in (dad[position], mom[position])

    def test_material_is_conserved(self, codec, parents):
        dad, mom = parents
        son, daughter = operators.crossover_gen(dad, mom, codec, rng=9)
        assert np.allclose(np.sort(np.concatenate([son, daughter])),
                           np.sort(np.concatenate([dad, mom])))


class TestCrossoverRg:
    def test_both_genomes_swapped_over_same_range(self, codec, parents):
        dad, mom = parents
        son, _ = operators.crossover_rg(dad, mom, codec, rng=11)
        genome = codec.genome_length
        selection_diff = np.flatnonzero(son[:genome] != dad[:genome])
        priority_diff = np.flatnonzero(son[genome:] != dad[genome:])
        # Any job whose selection gene came from mom also took mom's priority
        # gene (cross-genome dependency preserved), up to coincidental equality.
        for job in selection_diff:
            assert son[genome + job] == mom[genome + job]
        for job in priority_diff:
            assert son[job] == mom[job]

    def test_material_is_conserved(self, codec, parents):
        dad, mom = parents
        son, daughter = operators.crossover_rg(dad, mom, codec, rng=13)
        assert np.allclose(np.sort(np.concatenate([son, daughter])),
                           np.sort(np.concatenate([dad, mom])))

    def test_single_job_codec_handled(self):
        codec = MappingCodec(num_jobs=1, num_sub_accelerators=2)
        dad = codec.random_encoding(rng=0)
        mom = codec.random_encoding(rng=1)
        son, daughter = operators.crossover_rg(dad, mom, codec, rng=2)
        assert np.array_equal(son, mom)
        assert np.array_equal(daughter, dad)


class TestCrossoverAccel:
    def test_moms_core_assignment_is_copied(self, codec, parents):
        dad, mom = parents
        rng = np.random.default_rng(17)
        son = operators.crossover_accel(dad, mom, codec, rng=rng)
        codec.validate(son)
        genome = codec.genome_length
        mom_selection = mom[:genome].astype(int)
        son_selection = son[:genome].astype(int)
        # Find the core whose jobs were copied: all of mom's jobs on it must
        # now be on the same core in the son with mom's priorities.
        copied_cores = [
            core
            for core in range(codec.num_sub_accelerators)
            if np.flatnonzero(mom_selection == core).size > 0
            and all(
                son_selection[j] == core and son[genome + j] == mom[genome + j]
                for j in np.flatnonzero(mom_selection == core)
            )
        ]
        assert copied_cores, "no core was copied from mom"

    def test_result_remains_valid_mapping(self, codec, parents):
        dad, mom = parents
        for seed in range(5):
            son = operators.crossover_accel(dad, mom, codec, rng=seed)
            mapping = codec.decode(son)
            assert sorted(j for core in mapping.assignments for j in core) == list(range(10))


# ----------------------------------------------------------------------
# Batched operators: properties over random shapes, batches and seeds
# ----------------------------------------------------------------------
@st.composite
def parent_batches(draw):
    """A codec plus dad/mom ``(n, 2G)`` batches and an operator seed."""
    codec = MappingCodec(
        num_jobs=draw(st.integers(min_value=1, max_value=10)),
        num_sub_accelerators=draw(st.integers(min_value=1, max_value=4)),
    )
    rows = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    dad, mom = codec.random_population(rows, rng), codec.random_population(rows, rng)
    return codec, dad, mom, draw(st.integers(min_value=0, max_value=2**31 - 1))


def _assert_valid_rows(codec, batch):
    genome = codec.genome_length
    assert batch.shape[1] == codec.encoding_length
    for row in batch:
        codec.validate(row)
        selection, priority = row[:genome], row[genome:]
        assert np.array_equal(selection, np.rint(selection))
        assert np.all((selection >= 0) & (selection < codec.num_sub_accelerators))
        assert np.all((priority >= 0.0) & (priority < 1.0))


def _swapped(dad, mom, swap):
    return np.where(swap, mom, dad), np.where(swap, dad, mom)


BATCHED = {
    "mutate": lambda codec, dad, mom, seed: (operators.mutate(dad, codec, seed, 0.3),),
    "crossover_gen": lambda codec, dad, mom, seed: operators.crossover_gen(dad, mom, codec, seed),
    "crossover_rg": lambda codec, dad, mom, seed: operators.crossover_rg(dad, mom, codec, seed),
    "crossover_accel": lambda codec, dad, mom, seed: (operators.crossover_accel(dad, mom, codec, seed),),
}


@pytest.mark.parametrize("name", sorted(BATCHED))
class TestBatchedOperatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(case=parent_batches())
    def test_every_output_row_is_a_valid_encoding(self, name, case):
        codec, dad, mom, seed = case
        for batch in BATCHED[name](codec, dad, mom, seed):
            assert batch.shape == dad.shape
            _assert_valid_rows(codec, batch)

    @settings(max_examples=40, deadline=None)
    @given(case=parent_batches())
    def test_one_row_batch_equals_the_flat_call(self, name, case):
        codec, dad, mom, seed = case
        batched = BATCHED[name](codec, dad[:1], mom[:1], seed)
        flat = BATCHED[name](codec, dad[0], mom[0], seed)
        for rows, vector in zip(batched, flat):
            assert vector.ndim == 1
            assert np.array_equal(rows[0], vector)


class TestBatchedCrossoverStructure:
    @settings(max_examples=60, deadline=None)
    @given(case=parent_batches())
    def test_crossover_gen_swaps_one_suffix_of_one_genome(self, case):
        codec, dad, mom, seed = case
        genome = codec.genome_length
        sons, daughters = operators.crossover_gen(dad, mom, codec, seed)
        column = np.arange(codec.encoding_length)
        for son, daughter, father, mother in zip(sons, daughters, dad, mom):
            candidates = [
                _swapped(father, mother, (column >= offset + pivot) & (column < offset + genome))
                for offset in (0, genome)
                for pivot in (range(1, genome) if genome > 1 else [0])
            ]
            assert any(np.array_equal(son, s) and np.array_equal(daughter, d) for s, d in candidates)

    @settings(max_examples=60, deadline=None)
    @given(case=parent_batches())
    def test_crossover_rg_swaps_the_same_job_range_in_both_genomes(self, case):
        codec, dad, mom, seed = case
        genome = codec.genome_length
        sons, daughters = operators.crossover_rg(dad, mom, codec, seed)
        job = np.arange(codec.encoding_length) % genome
        for son, daughter, father, mother in zip(sons, daughters, dad, mom):
            candidates = [
                _swapped(father, mother, (job >= start) & (job < stop))
                for start in range(genome)
                for stop in range(start + 1, genome + 1)
            ]
            assert any(np.array_equal(son, s) and np.array_equal(daughter, d) for s, d in candidates)

    @settings(max_examples=60, deadline=None)
    @given(case=parent_batches())
    def test_crossover_accel_copies_moms_jobs_on_the_drawn_core(self, case):
        codec, dad, mom, seed = case
        genome = codec.genome_length
        sons = operators.crossover_accel(dad, mom, codec, seed)
        for son, father, mother in zip(sons, dad, mom):
            dad_cores, mom_cores = father[:genome].astype(int), mother[:genome].astype(int)

            def explained_by(core):
                copied = mom_cores == core
                untouched = ~copied & (dad_cores != core)
                return (
                    np.array_equal(son[:genome][copied], mother[:genome][copied])
                    and np.array_equal(son[genome:][copied], mother[genome:][copied])
                    and np.array_equal(son[:genome][untouched], father[:genome][untouched])
                    and np.array_equal(son[genome:][untouched], father[genome:][untouched])
                )

            assert any(explained_by(core) for core in range(codec.num_sub_accelerators))


class TestParentPairs:
    @settings(max_examples=60, deadline=None)
    @given(
        pool_size=st.integers(min_value=2, max_value=40),
        num_pairs=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_pairs_are_distinct_and_in_the_pool(self, pool_size, num_pairs, seed):
        i, j = operators.draw_parent_pairs(pool_size, num_pairs, seed)
        assert len(i) == len(j) == num_pairs
        assert np.all(i != j)
        assert np.all((i >= 0) & (i < pool_size) & (j >= 0) & (j < pool_size))

    def test_every_ordered_pair_is_equally_likely(self):
        i, j = operators.draw_parent_pairs(4, 120_000, 0)
        counts = np.zeros((4, 4))
        np.add.at(counts, (i, j), 1)
        assert np.all(np.diag(counts) == 0)
        off_diagonal = counts[~np.eye(4, dtype=bool)] / 120_000
        assert np.allclose(off_diagonal, 1 / 12, atol=0.005)


class TestGenerationCrossoverRates:
    # Rate 0 hits no pair, so no crossover rule runs at all (an empty hit
    # skips it); rate 1 crosses all 4 pairs.  The generation step calls the
    # rules' helpers: the first argument holds one entry per crossed pair.
    @pytest.mark.parametrize("rate,expected_calls", [(0.0, []), (1.0, [4])], ids=["0.0-0", "1.0-4"])
    def test_rate_bounds_apply_to_no_pair_or_every_pair(
        self, rate, expected_calls, monkeypatch, small_platform, mix_group
    ):
        rows_seen = {"crossover_gen_bounds": [], "crossover_rg_bounds": [], "crossover_accel_into": []}
        for name, calls in rows_seen.items():
            original = getattr(operators, name)

            def recording(first, *args, _original=original, _calls=calls, **kwargs):
                _calls.append(len(first))
                return _original(first, *args, **kwargs)

            monkeypatch.setattr(operators, name, recording)
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=100)
        optimizer = MagmaOptimizer(
            seed=0,
            population_size=10,
            elite_ratio=0.2,
            crossover_gen_rate=rate,
            crossover_rg_rate=rate,
            crossover_accel_rate=rate,
        )
        population = optimizer._initial_population(evaluator, 10, None)
        optimizer._next_generation(evaluator, population, evaluator.evaluate_population(population))
        # 10 individuals, 2 elites: 8 children from 4 parent pairs.
        assert rows_seen["crossover_gen_bounds"] == expected_calls
        assert rows_seen["crossover_rg_bounds"] == expected_calls
        assert rows_seen["crossover_accel_into"] == expected_calls * 2
