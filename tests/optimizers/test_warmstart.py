"""Tests for the warm-start engine (Section V-C / Table V)."""

import numpy as np
import pytest

from repro.core.encoding import MappingCodec
from repro.exceptions import OptimizationError
from repro.optimizers.warmstart import WarmStartEngine


@pytest.fixture()
def codec():
    return MappingCodec(num_jobs=8, num_sub_accelerators=3)


class TestRecordAndRecognise:
    def test_unknown_task_returns_none(self, codec):
        assert WarmStartEngine().suggest("vision", codec) is None

    def test_record_and_suggest_round_trip(self, codec):
        engine = WarmStartEngine()
        encoding = codec.random_encoding(rng=0)
        engine.record("mix", encoding, codec, fitness=10.0)
        assert engine.knows("mix")
        suggestion = engine.suggest("mix", codec, count=1)
        assert suggestion is not None
        assert np.allclose(suggestion[0], codec.repair(encoding))

    def test_better_solution_replaces_worse(self, codec):
        engine = WarmStartEngine()
        first = codec.random_encoding(rng=1)
        second = codec.random_encoding(rng=2)
        engine.record("vision", first, codec, fitness=5.0)
        engine.record("vision", second, codec, fitness=8.0)
        assert np.allclose(engine.suggest("vision", codec)[0], codec.repair(second))

    def test_worse_solution_does_not_replace(self, codec):
        engine = WarmStartEngine()
        first = codec.random_encoding(rng=1)
        second = codec.random_encoding(rng=2)
        engine.record("vision", first, codec, fitness=9.0)
        engine.record("vision", second, codec, fitness=3.0)
        assert np.allclose(engine.suggest("vision", codec)[0], codec.repair(first))

    def test_empty_task_key_rejected(self, codec):
        with pytest.raises(OptimizationError):
            WarmStartEngine().record("", codec.random_encoding(rng=0), codec, fitness=1.0)

    def test_clear_and_known_tasks(self, codec):
        engine = WarmStartEngine()
        engine.record("vision", codec.random_encoding(rng=0), codec, fitness=1.0)
        engine.record("language", codec.random_encoding(rng=1), codec, fitness=1.0)
        assert engine.known_tasks() == ["language", "vision"]
        engine.clear()
        assert engine.known_tasks() == []


class TestAdaptation:
    def test_suggestions_match_requested_count(self, codec):
        engine = WarmStartEngine()
        engine.record("mix", codec.random_encoding(rng=0), codec, fitness=1.0)
        suggestions = engine.suggest("mix", codec, count=5, rng=1)
        assert suggestions.shape == (5, codec.encoding_length)
        # The first suggestion is the remembered solution, unperturbed.
        assert np.array_equal(suggestions[0], engine.suggest("mix", codec)[0])

    def test_perturbed_copies_remain_valid(self, codec):
        engine = WarmStartEngine()
        engine.record("mix", codec.random_encoding(rng=0), codec, fitness=1.0)
        suggestions = engine.suggest("mix", codec, count=6, rng=2, perturbation=0.5)
        for suggestion in suggestions:
            codec.validate(suggestion)
            mapping = codec.decode(suggestion)
            assert mapping.num_jobs == codec.num_jobs

    def test_adapts_to_larger_group(self, codec):
        engine = WarmStartEngine()
        engine.record("mix", codec.random_encoding(rng=0), codec, fitness=1.0)
        bigger = MappingCodec(num_jobs=20, num_sub_accelerators=3)
        suggestion = engine.suggest("mix", bigger)[0]
        bigger.validate(suggestion)
        assert suggestion.shape == (40,)

    def test_adapts_to_smaller_group_and_fewer_cores(self, codec):
        engine = WarmStartEngine()
        engine.record("mix", codec.random_encoding(rng=3), codec, fitness=1.0)
        smaller = MappingCodec(num_jobs=4, num_sub_accelerators=2)
        suggestion = engine.suggest("mix", smaller)[0]
        smaller.validate(suggestion)
        assert np.all(suggestion[:4] < 2)
