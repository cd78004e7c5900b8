"""Tests for the persistent warm-start library and the M3E warm_store hook."""

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.encoding import MappingCodec
from repro.core.framework import M3E
from repro.optimizers.warmstart import WarmStartEngine
from repro.service.warmlib import WarmStartLibrary, group_task_key
from repro.utils.storage import StoreBackend
from repro.workloads.benchmark import TaskType, build_task_workload


@pytest.fixture()
def codec():
    return MappingCodec(num_jobs=8, num_sub_accelerators=3)


class TestStateRoundTrip:
    """Satellite: WarmStartEngine.to_state()/from_state() dict round-trip."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_round_tripped_engine_suggests_identical_populations(self, codec, seed):
        engine = WarmStartEngine()
        rng = np.random.default_rng(seed)
        for task in ("vision", "language", "mix"):
            engine.record(task, codec.random_encoding(rng=rng), codec, fitness=float(rng.random()))

        clone = WarmStartEngine.from_state(engine.to_state())
        assert clone.known_tasks() == engine.known_tasks()
        other = MappingCodec(num_jobs=12, num_sub_accelerators=2)
        for task in engine.known_tasks():
            for target in (codec, other):
                original = engine.suggest(task, target, count=7, rng=seed)
                restored = clone.suggest(task, target, count=7, rng=seed)
                np.testing.assert_array_equal(original, restored)

    def test_state_is_json_safe(self, codec):
        import json

        engine = WarmStartEngine()
        engine.record("mix", codec.random_encoding(rng=0), codec, fitness=1.5)
        state = json.loads(json.dumps(engine.to_state()))
        restored = WarmStartEngine.from_state(state)
        np.testing.assert_array_equal(
            restored.suggest("mix", codec, rng=0), engine.suggest("mix", codec, rng=0)
        )

    def test_malformed_state_rejected(self):
        from repro.exceptions import OptimizationError

        with pytest.raises(OptimizationError):
            WarmStartEngine.from_state({"mix": {"encoding": [1.0], "num_jobs": 4}})
        with pytest.raises(OptimizationError):
            WarmStartEngine.from_state(
                {"mix": {"encoding": [1.0, 0.5], "num_jobs": 4,
                         "num_sub_accelerators": 2, "fitness": 1.0}}
            )

    def test_record_reports_whether_memory_changed(self, codec):
        engine = WarmStartEngine()
        assert engine.record("mix", codec.random_encoding(rng=0), codec, fitness=5.0)
        assert not engine.record("mix", codec.random_encoding(rng=1), codec, fitness=3.0)
        assert engine.record("mix", codec.random_encoding(rng=2), codec, fitness=8.0)


class TestLibraryPersistence:
    def test_solutions_survive_reload(self, tmp_path, codec):
        path = str(tmp_path / "warm.sqlite3")
        library = WarmStartLibrary(path)
        encoding = codec.random_encoding(rng=0)
        assert library.record("vision", "throughput", encoding, codec, fitness=4.0)

        reloaded = WarmStartLibrary(path)
        assert reloaded.known_tasks() == ["vision/throughput"]
        assert reloaded.fitness_of("vision", "throughput") == 4.0
        np.testing.assert_array_equal(
            reloaded.suggest("vision", "throughput", codec, rng=1),
            library.suggest("vision", "throughput", codec, rng=1),
        )

    def test_only_improvements_are_appended(self, tmp_path, codec):
        path = str(tmp_path / "warm.sqlite3")
        library = WarmStartLibrary(path)
        library.record("mix", "throughput", codec.random_encoding(rng=0), codec, fitness=4.0)
        assert not library.record(
            "mix", "throughput", codec.random_encoding(rng=1), codec, fitness=2.0
        )
        library.record("mix", "throughput", codec.random_encoding(rng=2), codec, fitness=9.0)
        with StoreBackend(path) as store:
            assert len(store) == 2  # the non-improvement was not persisted
        assert WarmStartLibrary(path).fitness_of("mix", "throughput") == 9.0

    def test_objectives_are_namespaced(self, tmp_path, codec):
        library = WarmStartLibrary(str(tmp_path / "warm.sqlite3"))
        library.record("mix", "throughput", codec.random_encoding(rng=0), codec, fitness=4.0)
        assert library.suggest("mix", "energy", codec) is None
        assert library.fitness_of("mix", "energy") is None

    def test_missing_file_is_empty_library(self, tmp_path):
        library = WarmStartLibrary(str(tmp_path / "nope.sqlite3"))
        assert len(library) == 0

class TestGroupTaskKey:
    def test_single_task_group(self):
        group = build_task_workload(TaskType.VISION, group_size=8, seed=0)[0]
        assert group_task_key(group) == "vision"

    def test_mixed_group(self):
        group = build_task_workload(TaskType.MIX, group_size=16, seed=0)[0]
        assert group_task_key(group) in [t.value for t in TaskType]


class TestM3EWarmStoreHook:
    def test_search_records_winner_and_seeds_next_search(self, tmp_path):
        path = str(tmp_path / "warm.sqlite3")
        platform = build_setting("S1", 16.0)
        group = build_task_workload(
            TaskType.VISION, group_size=8, seed=0,
            num_sub_accelerators=platform.num_sub_accelerators,
        )[0]

        library = WarmStartLibrary(path)
        explorer = M3E(platform, sampling_budget=48, warm_store=library)
        result = explorer.search(
            group, optimizer="magma", seed=0, optimizer_options={"population_size": 12}
        )
        assert library.fitness_of("vision", "throughput") == pytest.approx(result.best_fitness)

        # A fresh process (new library instance) warm-starts from the stored
        # winner: the adapted solution is injected verbatim, so the new
        # search's first population already contains it.
        fresh = WarmStartLibrary(path)
        evaluator = explorer.build_evaluator(group)
        warm = fresh.warm_population(group, evaluator.codec, objective="throughput", count=3, rng=1)
        assert warm is not None and warm.shape[0] == 3
        np.testing.assert_array_equal(warm[0], evaluator.codec.repair(result.best_encoding))

    def test_warm_started_campaign_cells_are_reproducible(self, tmp_path):
        """Regression: with no explicit search seed (campaign cells hand M3E
        a pre-seeded optimizer), warm perturbations must come from the
        optimizer's deterministic stream, not OS entropy — identical reruns
        of a warm-started cell must be bit-identical."""
        import shutil

        from repro.experiments.campaign import CampaignRunner
        from repro.experiments.scenarios import ScenarioSpec
        from repro.experiments.settings import get_scale

        seed_path = str(tmp_path / "seed.sqlite3")
        platform = build_setting("S1", 16.0)
        group = build_task_workload(
            TaskType.VISION, group_size=8, seed=0,
            num_sub_accelerators=platform.num_sub_accelerators,
        )[0]
        seed_library = WarmStartLibrary(seed_path)
        M3E(platform, sampling_budget=48, warm_store=seed_library).search(
            group, optimizer="magma", seed=0, optimizer_options={"population_size": 12}
        )
        # Closed before copying: closing the last handle folds SQLite's
        # write-ahead log into the database file the copy reads.
        seed_library.close()

        spec = ScenarioSpec(
            name="warm-repro", description="one warm-started cell",
            settings=("S1",), tasks=("vision",), methods=("magma",), seeds=(1,),
        )
        cell = spec.expand(get_scale("tiny"))[0]

        results = []
        for run in ("a", "b"):
            library_path = str(tmp_path / f"lib_{run}.sqlite3")
            shutil.copy(seed_path, library_path)
            runner = CampaignRunner(scale="tiny", warm_store=WarmStartLibrary(library_path))
            results.append(runner.run_cell(cell))
        np.testing.assert_array_equal(results[0].best_encoding, results[1].best_encoding)
        assert results[0].history == results[1].history

    def test_no_warm_store_keeps_cold_start(self, tmp_path):
        platform = build_setting("S1", 16.0)
        group = build_task_workload(
            TaskType.VISION, group_size=8, seed=0,
            num_sub_accelerators=platform.num_sub_accelerators,
        )[0]
        cold = M3E(platform, sampling_budget=48).search(
            group, optimizer="magma", seed=0, optimizer_options={"population_size": 12}
        )
        empty_library = WarmStartLibrary(str(tmp_path / "empty.sqlite3"))
        warm = M3E(platform, sampling_budget=48, warm_store=empty_library).search(
            group, optimizer="magma", seed=0, optimizer_options={"population_size": 12}
        )
        # An *empty* library must not change the search at all.
        np.testing.assert_array_equal(cold.best_encoding, warm.best_encoding)
        assert cold.history == warm.history
