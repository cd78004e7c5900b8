"""Seed-consistency properties: one resolved seed, one result — everywhere.

The determinism contract (docs/DETERMINISM.md) promises that the *resolved*
seed fully determines a search: running the same cell twice with the same
seed must produce a bit-identical :class:`SearchResultSummary` through every
evaluation backend and through the mapping service's submit path.  These
tests also fence the classic display-vs-decision bug (a result whose printed
fitness came from a different stream than the acceptance decision): the
reported ``best_fitness`` must literally be the last entry of the search's
own best-so-far history.

The unset case is part of the contract too: under pytest, drawing unseeded
randomness is a hard error, never silent OS entropy.
"""

import pytest

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.framework import M3E
from repro.exceptions import ConfigurationError
from repro.optimizers import build_optimizer, list_optimizers
from repro.service import MappingService
from repro.utils.rng import clear_global_seed, set_global_seed
from repro.utils.serialization import SearchResultSummary
from repro.workloads import TaskType, build_task_workload

#: Every evaluation backend.
BACKENDS = ("scalar", "batch", "parallel")

SEED = 1234

#: Options per optimizer; the RL agents run their Table IV defaults.
OPTIMIZER_OPTIONS = {"magma": {"population_size": 8}}


def _problem(group_size: int = 10):
    platform = build_setting("S1", 16.0)
    group = build_task_workload(
        TaskType.MIX,
        group_size=group_size,
        seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    return platform, group


def _search(backend: str, seed, optimizer: str = "magma"):
    platform, group = _problem()
    config = EvalConfig(backend=backend, workers=2 if backend == "parallel" else None)
    explorer = M3E(platform, sampling_budget=120, eval_config=config)
    return explorer.search(
        group,
        optimizer=optimizer,
        seed=seed,
        optimizer_options=OPTIMIZER_OPTIONS.get(optimizer),
    )


class TestBackendSeedConsistency:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_seed_is_bit_identical_per_backend(self, backend):
        """Property: same resolved seed ⇒ bit-identical summary, per backend."""
        first = SearchResultSummary.from_result(_search(backend, SEED))
        second = SearchResultSummary.from_result(_search(backend, SEED))
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("backend", ("batch", "parallel"))
    @pytest.mark.parametrize("optimizer", ("magma", "a2c", "ppo2"))
    def test_every_backend_matches_the_scalar_oracle(self, optimizer, backend):
        """Standing invariant: backends are interchangeable at fixed seed.

        The RL agents score each rollout's finished episodes through the
        configured backend, so they are held to it too.
        """
        oracle = SearchResultSummary.from_result(_search("scalar", SEED, optimizer))
        other = SearchResultSummary.from_result(_search(backend, SEED, optimizer))
        assert other.to_dict() == oracle.to_dict()

    def test_displayed_fitness_is_the_selection_fitness(self):
        """The reported best fitness must be the one the search's own history
        converged to — not a re-evaluation under some other stream."""
        result = _search("batch", SEED)
        assert result.history, "search must record a best-so-far history"
        assert result.best_fitness == result.history[-1]
        # History is best-so-far: monotone, and its max is the final value.
        assert result.best_fitness == max(result.history)

    def test_resolved_seed_recorded_in_metadata(self):
        result = _search("batch", SEED)
        assert result.metadata.get("resolved_seed") == SEED
        assert result.metadata.get("seed_source") == "explicit"


class TestServiceSeedConsistency:
    def _submit(self, tmp_path, tag: str, request: dict) -> SearchResultSummary:
        service = MappingService(
            store=str(tmp_path / f"solutions-{tag}.sqlite3"), scale="tiny", workers=1
        )
        try:
            job = service.submit(request)
            return service.result(job.job_id, timeout=120)
        finally:
            service.close()

    def test_same_seed_submit_is_bit_identical_across_services(self, tmp_path):
        """Two fresh services (separate stores, separate processes in real
        deployments) answer the same seeded request bit-identically."""
        request = {"task": "vision", "setting": "S1", "seed": SEED}
        first = self._submit(tmp_path, "a", request)
        second = self._submit(tmp_path, "b", request)
        assert first.to_dict() == second.to_dict()

    def test_seedless_submit_resolves_to_a_concrete_stored_seed(self, tmp_path):
        """A request without a seed resolves at submit time (to the session
        seed, else 0), so the stored payload replays bit-identically."""
        service = MappingService(
            store=str(tmp_path / "solutions.sqlite3"), scale="tiny", workers=1
        )
        try:
            job = service.submit({"task": "vision", "setting": "S1"})
            service.result(job.job_id, timeout=120)
            (record,) = service.store.records()
            assert record["request"]["seed"] == 0
        finally:
            service.close()

    def test_session_seed_governs_seedless_submits(self, tmp_path):
        set_global_seed(77, source="test")
        try:
            service = MappingService(
                store=str(tmp_path / "solutions.sqlite3"), scale="tiny", workers=1
            )
            try:
                job = service.submit({"task": "vision", "setting": "S1"})
                service.result(job.job_id, timeout=120)
                (record,) = service.store.records()
                assert record["request"]["seed"] == 77
            finally:
                service.close()
        finally:
            clear_global_seed()


class TestUnseededIsAnError:
    def test_unseeded_search_raises_under_pytest(self):
        with pytest.raises(ConfigurationError, match="no random seed resolved"):
            _search("batch", None)

    def test_unseeded_optimizer_draw_raises_under_pytest(self):
        optimizer = build_optimizer("magma", population_size=8)
        with pytest.raises(ConfigurationError, match="no random seed resolved"):
            optimizer.rng.random()

    def test_session_seed_unblocks_and_pins_unseeded_runs(self):
        """With a session seed installed, seedless runs are deterministic:
        the same session seed reproduces the same result."""

        def run():
            clear_global_seed()
            set_global_seed(5, source="test")
            try:
                return SearchResultSummary.from_result(_search("batch", None))
            finally:
                clear_global_seed()

        first, second = run(), run()
        assert first.to_dict() == second.to_dict()

    def test_session_seeded_run_records_its_resolved_seed(self):
        clear_global_seed()
        set_global_seed(5, source="test")
        try:
            result = _search("batch", None)
            assert result.metadata.get("resolved_seed") == 5
            assert result.metadata.get("seed_source") == "test"
        finally:
            clear_global_seed()


class TestReseedRoundTrip:
    """reseed() must be indistinguishable from fresh construction.

    This covers every registered optimizer — including the RL agents, whose
    network-init generators historically survived a reseed — by comparing
    a fresh-constructed search against a construct-then-reseed search.
    """

    @pytest.mark.parametrize("method", sorted(list_optimizers()))
    def test_reseed_equals_fresh_construction(self, method):
        platform, group = _problem(group_size=8)

        fresh = build_optimizer(method, seed=SEED)
        stale = build_optimizer(method, seed=SEED + 999)
        stale.reseed(SEED)

        results = []
        for algorithm in (fresh, stale):
            explorer = M3E(platform, sampling_budget=60)
            result = explorer.search(group, optimizer=algorithm)
            results.append(SearchResultSummary.from_result(result).to_dict())
        assert results[0] == results[1]
