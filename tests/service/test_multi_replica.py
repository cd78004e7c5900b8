"""Multi-replica service tests: shared stores, lifecycle, and health.

The service tier's scaling story is N :class:`MappingService` replicas
sharing one store through the ``shared`` ``sqlite:`` backend on one host.
The acceptance bar: a fingerprint solved on one replica is answered
*bit-identically* by another replica without running a second search.
Alongside that E2E path this module pins the store-lifecycle contract — a
service closes exactly the store handles it opened itself, on every path
including a constructor that fails halfway.
"""

import pytest

from repro.core.evalconfig import EvalConfig
from repro.exceptions import ConfigurationError
from repro.service import MappingRequest, MappingService, SolutionStore

SCALE = "tiny"


@pytest.fixture(params=["sqlite"])
def shared_store_url(request, tmp_path):
    """A shared-capable store URL per transport."""
    return f"{request.param}:{tmp_path / 'shared.sqlite3'}"


class TestTwoReplicasOneStore:
    def test_second_replica_answers_bit_identically_without_searching(
        self, shared_store_url
    ):
        request = MappingRequest(task="vision", setting="S2", seed=11)
        with MappingService(
            store=shared_store_url, scale=SCALE, workers=1, replica_id="replica-a"
        ) as first, MappingService(
            store=shared_store_url, scale=SCALE, workers=1, replica_id="replica-b"
        ) as second:
            # Both replicas are open *before* the search: the second cannot
            # have indexed the solution at startup, so the hit below must
            # come from consulting the shared backend at submit time.
            job = first.submit(request)
            reference = first.result(job.job_id, timeout=120)
            assert first.stats["searches_run"] == 1

            hit = second.submit(request)
            assert hit.cached and hit.state == "done"
            assert hit.result.to_dict() == reference.to_dict()
            assert second.stats["searches_run"] == 0
            # The consult memoizes: the next identical submit needs no
            # further round trip to the backend and stays identical.
            again = second.submit(request)
            assert again.cached
            assert again.result.to_dict() == reference.to_dict()

    def test_unknown_fingerprint_still_searches_locally(self, shared_store_url):
        with MappingService(store=shared_store_url, scale=SCALE, workers=1) as service:
            job = service.submit(MappingRequest(task="language", setting="S1", seed=5))
            assert service.result(job.job_id, timeout=120) is not None
            assert service.stats["searches_run"] == 1

    def test_replicas_share_one_set_of_records(self, shared_store_url):
        request_a = {"task": "vision", "setting": "S1", "seed": 1}
        request_b = {"task": "mix", "setting": "S1", "seed": 2}
        with MappingService(store=shared_store_url, scale=SCALE, workers=1) as first:
            first.result(first.submit(request_a).job_id, timeout=120)
        with MappingService(store=shared_store_url, scale=SCALE, workers=1) as second:
            second.result(second.submit(request_b).job_id, timeout=120)
            records = second.store.records()
        assert len(records) == 2
        assert len({record["fingerprint"] for record in records}) == 2


class TestHealthz:
    def test_reports_backend_kind_url_and_replica_id(self, tmp_path):
        with MappingService(
            store=f"sqlite:{tmp_path / 'db.sqlite3'}",
            scale=SCALE,
            workers=1,
            replica_id="replica-7",
        ) as service:
            health = service.healthz()
        assert health["replica"] == "replica-7"
        assert health["store_backend"] == "sqlite"
        assert health["store_url"].startswith("sqlite:")

    def test_default_replica_id_identifies_the_process(self, tmp_path):
        import os

        with MappingService(
            store=str(tmp_path / "db.sqlite3"), scale=SCALE, workers=1
        ) as service:
            health = service.healthz()
        assert str(os.getpid()) in health["replica"]
        assert health["store_backend"] == "sqlite"


class TestStoreLifecycle:
    def test_service_closes_a_store_it_opened(self, tmp_path):
        service = MappingService(
            store=f"sqlite:{tmp_path / 'db.sqlite3'}", scale=SCALE, workers=1
        )
        assert service._owns_store
        backend = service.store.backend
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.append_record({"fingerprint": "x"})

    def test_service_leaves_a_caller_owned_store_open(self, tmp_path):
        store = SolutionStore(f"sqlite:{tmp_path / 'db.sqlite3'}")
        try:
            service = MappingService(store=store, scale=SCALE, workers=1)
            assert not service._owns_store
            service.close()
            # Still usable: ownership stayed with the caller.
            assert store.records() == []
        finally:
            store.close()

    @staticmethod
    def _fail_inside_constructor(monkeypatch):
        """Make the service constructor fail after it has opened its stores."""

        def broken_runner(**kwargs):
            raise ConfigurationError("injected: campaign runner rejected its config")

        monkeypatch.setattr("repro.service.service.CampaignRunner", broken_runner)

    def test_failed_constructor_closes_the_stores_it_opened(
        self, tmp_path, monkeypatch
    ):
        closed = []
        original_close = SolutionStore.close

        def recording_close(self):
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(SolutionStore, "close", recording_close)
        self._fail_inside_constructor(monkeypatch)
        with pytest.raises(ConfigurationError):
            MappingService(
                store=f"sqlite:{tmp_path / 'db.sqlite3'}",
                warm_store=str(tmp_path / "warm.sqlite3"),
                scale=SCALE,
                workers=1,
            )
        assert len(closed) == 1  # the solution store the service had opened

    def test_failed_constructor_leaves_caller_owned_store_open(self, tmp_path, monkeypatch):
        store = SolutionStore(str(tmp_path / "db.sqlite3"))
        self._fail_inside_constructor(monkeypatch)
        try:
            with pytest.raises(ConfigurationError):
                MappingService(store=store, scale=SCALE, workers=1)
            assert store.records() == []  # still open: ownership stayed put
        finally:
            store.close()

    def test_eval_config_accepted(self, tmp_path):
        with MappingService(
            store=str(tmp_path / "db.sqlite3"),
            scale=SCALE,
            workers=1,
            eval_config=EvalConfig(backend="scalar"),
        ) as service:
            job = service.submit({"task": "vision", "setting": "S1", "seed": 0})
            assert service.result(job.job_id, timeout=120) is not None
