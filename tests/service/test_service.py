"""End-to-end tests for the mapping service (the PR's acceptance criteria)."""

import json
import sys
import threading
from dataclasses import replace

import pytest

from repro.core.evalconfig import EvalConfig
from repro.exceptions import ServiceError
from repro.experiments.settings import get_scale
from repro.service import MappingRequest, MappingService, SolutionStore, WarmStartLibrary
from repro.service.netstore import NetworkStoreServer
from repro.utils.serialization import SearchResultSummary, payload_fingerprint


SCALE = "tiny"
TOKEN = "service-secret"


@pytest.fixture()
def service(tmp_path):
    svc = MappingService(
        store=str(tmp_path / "solutions.jsonl"),
        warm_store=str(tmp_path / "warm.jsonl"),
        scale=SCALE,
        workers=2,
    )
    yield svc
    svc.close()


class TestRequestValidation:
    def test_unknown_fields_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown request fields"):
            service.submit({"task": "vision", "bogus": 1})

    @pytest.mark.parametrize(
        "request_dict, match",
        [
            ({"setting": "S99"}, "unknown setting"),
            ({"task": "audio"}, "unknown task"),
            ({"objective": "speed"}, "unknown objective"),
            ({"method": "gradient-descent"}, "unknown method"),
            ({"bandwidth_gbps": -1.0}, "bandwidth_gbps"),
            ({"budget": 0}, "budget"),
            ({"setting": "S4", "group_size": 2}, "group_size"),
        ],
    )
    def test_invalid_requests_fail_at_submit(self, service, request_dict, match):
        with pytest.raises(ServiceError, match=match):
            service.submit(request_dict)

    @pytest.mark.parametrize(
        "request_dict",
        [
            {"bandwidth_gbps": "fast"},
            {"seed": "x"},
            {"method": 3},
            {"setting": ["S2"]},
            {"budget": "lots"},
            {"group_size": "big"},
        ],
    )
    def test_wrong_typed_fields_fail_as_service_errors(self, service, request_dict):
        """Type garbage from client JSON must surface as ServiceError (an
        HTTP 400), never as a raw ValueError/AttributeError."""
        with pytest.raises(ServiceError):
            service.submit(request_dict)

    def test_resolution_pins_scale_defaults(self, service):
        payload = MappingRequest(task="vision").resolve(service.scale)
        scale = get_scale(SCALE)
        assert payload["group_size"] == scale.group_size
        assert payload["budget"] == scale.sampling_budget
        assert payload["optimizer_options"] == {"population_size": scale.population_size}


class TestEndToEnd:
    def test_repeat_request_is_bit_identical_store_hit_and_third_warm_starts(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: search, then cache hit, then warm start."""
        import repro.optimizers as optimizers_module

        builds = []
        real_build = optimizers_module.build_optimizer

        def counting_build(name, **kwargs):
            builds.append(name)
            return real_build(name, **kwargs)

        monkeypatch.setattr(optimizers_module, "build_optimizer", counting_build)

        warm_path = str(tmp_path / "warm.jsonl")
        service = MappingService(
            store=str(tmp_path / "solutions.jsonl"),
            warm_store=warm_path,
            scale=SCALE,
            workers=1,
        )
        try:
            request = MappingRequest(task="vision", setting="S2", seed=0)

            # 1) First submission runs a real search.
            first = service.submit(request)
            first_result = service.result(first.job_id, timeout=120)
            assert first.state == "done" and not first.cached
            assert service.stats["searches_run"] == 1
            builds_after_first = len(builds)
            assert builds_after_first >= 1

            # 2) The identical request is a store hit: instant, bit-identical,
            #    and the optimizer is never constructed.
            second = service.submit(request)
            assert second.state == "done" and second.cached
            assert second.result.to_dict() == first_result.to_dict()
            assert service.stats["cache_hits"] == 1
            assert service.stats["searches_run"] == 1
            assert len(builds) == builds_after_first

            # 3) A new same-task-type request (different seed => different
            #    group instance) warm-starts from the stored solution: its
            #    epoch-0 best beats the cold-start epoch-0 best.
            third = service.submit(MappingRequest(task="vision", setting="S2", seed=7))
            warm_result = service.result(third.job_id, timeout=120)
            assert service.stats["searches_run"] == 2
        finally:
            service.close()

        cold_service = MappingService(
            store=str(tmp_path / "cold.jsonl"), warm_store=None, scale=SCALE, workers=1
        )
        try:
            cold = cold_service.submit(MappingRequest(task="vision", setting="S2", seed=7))
            cold_result = cold_service.result(cold.job_id, timeout=120)
        finally:
            cold_service.close()

        population = get_scale(SCALE).population_size
        warm_epoch0 = warm_result.history[population - 1]
        cold_epoch0 = cold_result.history[population - 1]
        assert warm_epoch0 > cold_epoch0

        # The warm start came from the persisted library, and the warm search
        # improved (or matched) the remembered solution in turn.
        library = WarmStartLibrary(warm_path)
        assert "vision/throughput" in library.known_tasks()
        assert library.fitness_of("vision", "throughput") >= first_result.best_fitness

    def test_fresh_service_answers_from_prior_process_store(self, tmp_path):
        store_path = str(tmp_path / "solutions.jsonl")
        request = MappingRequest(task="language", setting="S1", seed=3)
        with MappingService(store=store_path, scale=SCALE, workers=1) as first:
            job = first.submit(request)
            original = first.result(job.job_id, timeout=120)
        with MappingService(store=store_path, scale=SCALE, workers=1) as second:
            hit = second.submit(request)
            assert hit.cached and hit.state == "done"
            assert hit.result.to_dict() == original.to_dict()
            assert second.stats["searches_run"] == 0


class TestEvalBackendParity:
    """The service must be backend-invariant (PR 4 only exercised ``batch``).

    ``repro-magma serve --eval-backend parallel`` drives the same search
    engine through a worker pool; job results, stored solutions, and repeat
    store hits must be bit-identical to the threaded default.
    """

    def _solve(self, tmp_path, eval_config):
        service = MappingService(
            store=str(tmp_path / f"solutions-{eval_config.backend}.jsonl"),
            scale=SCALE,
            eval_config=eval_config,
            workers=2,
        )
        try:
            request = {"task": "vision", "setting": "S2", "seed": 11}
            job = service.submit(request)
            summary = service.result(job.job_id, timeout=120)
            assert not job.cached
            # The repeat request must be a store hit, bit-identical to the
            # freshly computed summary.
            hit = service.submit(request)
            assert hit.cached and hit.state == "done"
            assert hit.result.to_dict() == summary.to_dict()
            assert service.stats["cache_hits"] == 1
            stored = service.store.records()
        finally:
            service.close()
        assert len(stored) == 1
        return summary, stored[0]

    def test_parallel_backend_results_and_store_bit_identical_to_batch(self, tmp_path):
        batch_summary, batch_record = self._solve(tmp_path, EvalConfig(backend="batch"))
        parallel_summary, parallel_record = self._solve(
            tmp_path, EvalConfig(backend="parallel", workers=2)
        )
        assert parallel_summary.to_dict() == batch_summary.to_dict()
        # Whole stored records (request payload, task key, result) match too.
        assert parallel_record == batch_record


def _stub_summary(tag, fitness):
    return SearchResultSummary(
        optimizer_name=tag,
        best_fitness=fitness,
        objective_value=fitness,
        throughput_gflops=fitness,
        makespan_cycles=1.0,
        samples_used=1,
        best_encoding=[0.0],
        history=[fitness],
    )


def _blocking_execute(release: threading.Event, started: threading.Event):
    def execute(self, job):
        started.set()
        release.wait(timeout=30)
        return _stub_summary("stub", 1.0)

    return execute


class TestQueueSemantics:
    def test_identical_inflight_requests_share_one_job(self, tmp_path, monkeypatch):
        release, started = threading.Event(), threading.Event()
        monkeypatch.setattr(MappingService, "_execute", _blocking_execute(release, started))
        service = MappingService(store=str(tmp_path / "s.jsonl"), scale=SCALE, workers=1)
        try:
            request = MappingRequest(task="vision", seed=0)
            first = service.submit(request)
            assert started.wait(timeout=10)
            second = service.submit(request)
            assert second is first
            assert service.stats["deduped"] == 1
            release.set()
            assert service.wait(first.job_id, timeout=10)
            assert first.state == "done"
            # Solved and recorded once.
            assert len(service.store.records()) == 1
        finally:
            release.set()
            service.close()

    def test_worker_failure_marks_job_failed_not_service_dead(self, tmp_path, monkeypatch):
        def boom(self, job):
            raise RuntimeError("simulated engine failure")

        monkeypatch.setattr(MappingService, "_execute", boom)
        service = MappingService(store=str(tmp_path / "s.jsonl"), scale=SCALE, workers=1)
        try:
            job = service.submit(MappingRequest(task="vision", seed=0))
            assert service.wait(job.job_id, timeout=10)
            assert job.state == "failed"
            assert "simulated engine failure" in job.error
            with pytest.raises(ServiceError, match="failed"):
                service.result(job.job_id, timeout=1)
            # The worker survived and the store holds nothing torn.
            assert service.healthz()["failed"] == 1
            assert service.store.records() == []
        finally:
            service.close()

    def test_unknown_job_id(self, service):
        with pytest.raises(ServiceError, match="unknown job id"):
            service.status("job-999999")

    def test_finished_jobs_are_evicted_past_the_retention_bound(self, tmp_path):
        """A long-running service must not grow its job table with every
        cache hit; only the newest finished jobs stay pollable."""
        service = MappingService(
            store=str(tmp_path / "s.jsonl"), scale=SCALE, workers=1, max_finished_jobs=5
        )
        try:
            request = MappingRequest(task="vision", setting="S1", seed=0)
            first = service.submit(request)
            service.result(first.job_id, timeout=120)
            hits = [service.submit(request) for _ in range(20)]
            assert all(job.cached for job in hits)
            assert len(service._jobs) <= 5
            # The newest hit is still pollable; the oldest were evicted.
            assert service.status(hits[-1].job_id)["state"] == "done"
            with pytest.raises(ServiceError, match="unknown job id"):
                service.status(first.job_id)
        finally:
            service.close()


class TestResultText:
    """The memoized canonical text of indexed answers (the hit path)."""

    REQUEST = MappingRequest(task="language", setting="S1", seed=3)

    @pytest.fixture()
    def solved_store(self, tmp_path):
        store_path = str(tmp_path / "solutions.jsonl")
        with MappingService(store=store_path, scale=SCALE, workers=1) as first:
            first.result(first.submit(self.REQUEST).job_id, timeout=120)
        return store_path

    def test_rendered_on_first_hit_not_at_startup(self, solved_store):
        with MappingService(store=solved_store, scale=SCALE, workers=1) as service:
            assert service._result_text == {}
            hit = service.submit(self.REQUEST)
            assert service._result_text == {}
            text = service.result_text(hit)
            assert text == json.dumps(hit.result.to_dict(), sort_keys=True)
            assert service.result_text(service.submit(self.REQUEST)) is text
            assert list(service._result_text) == [hit.fingerprint]

    def test_a_result_that_is_not_the_indexed_answer_is_rendered_afresh(self, solved_store):
        with MappingService(store=solved_store, scale=SCALE, workers=1) as service:
            hit = service.submit(self.REQUEST)
            indexed = service.result_text(hit)
            other = replace(hit, result=replace(hit.result, best_fitness=-1.0))
            text = service.result_text(other)
            assert text == json.dumps(other.result.to_dict(), sort_keys=True) != indexed
            assert service._result_text == {hit.fingerprint: indexed}

    def test_concurrent_first_hits_share_one_text(self, solved_store):
        threads_n, rounds = 8, 20
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MappingService(store=solved_store, scale=SCALE, workers=1) as service:
                hit = service.submit(self.REQUEST)
                for _ in range(rounds):
                    with service._lock:
                        service._result_text.clear()
                    barrier = threading.Barrier(threads_n)
                    texts = []

                    def first_hit():
                        barrier.wait(timeout=10)
                        texts.append(service.result_text(hit))

                    workers = [threading.Thread(target=first_hit) for _ in range(threads_n)]
                    for worker in workers:
                        worker.start()
                    for worker in workers:
                        worker.join(timeout=30)
                        assert not worker.is_alive()
                    # Every racer returns the one text the memo kept.
                    assert len(texts) == threads_n
                    assert all(text is service._result_text[hit.fingerprint] for text in texts)
        finally:
            sys.setswitchinterval(interval)


@pytest.fixture(params=["jsonl", "sqlite", "tcp"])
def store_url(request, tmp_path, monkeypatch):
    """One solution-store URL per transport (tcp served over sqlite)."""
    monkeypatch.delenv("REPRO_RPC_TOKEN", raising=False)
    if request.param == "tcp":
        server = NetworkStoreServer(f"sqlite:{tmp_path / 'backing.sqlite3'}", token=TOKEN).start()
        yield f"{server.url}?token={TOKEN}"
        server.shutdown()
    else:
        yield f"{request.param}:{tmp_path / ('solutions.' + request.param)}"


class TestLazyStartupIndex:
    """Startup lists the stored fingerprints; each answer is read on first hit."""

    REQUESTS = [MappingRequest(task="vision", setting="S1", seed=seed) for seed in range(3)]
    #: Per request, the (tag, fitness) records appended in order: a better
    #: later record, an equal-fitness tie, and a single record.
    RECORDS = [
        [("first", 1.0), ("better-later", 5.0), ("worse", 2.0)],
        [("tie-earliest", 3.0), ("tie-later", 3.0)],
        [("only", 4.0)],
    ]

    def _fill_store(self, store_url):
        scale = get_scale(SCALE)
        fingerprints = []
        with SolutionStore(store_url) as store:
            for request, records in zip(self.REQUESTS, self.RECORDS):
                payload = request.resolve(scale)
                fingerprint = payload_fingerprint(payload)
                for tag, fitness in records:
                    store.append(fingerprint, payload, "vision/throughput", _stub_summary(tag, fitness))
                fingerprints.append(fingerprint)
            best = store.backend.best_records("fingerprint")
        return fingerprints, best

    def test_first_hit_answers_the_backends_best_record(self, store_url):
        fingerprints, best = self._fill_store(store_url)
        with MappingService(store=store_url, scale=SCALE, workers=1) as service:
            # Startup pins nothing but counts every stored fingerprint.
            assert service._index == {}
            assert service.healthz()["solutions"] == len(self.REQUESTS)
            for request, fingerprint in zip(self.REQUESTS, fingerprints):
                hit = service.submit(request)
                assert hit.cached and hit.fingerprint == fingerprint
                assert hit.result.to_dict() == best[fingerprint]["result"]
            tags = [service._index[fingerprint].optimizer_name for fingerprint in fingerprints]
            assert tags == ["better-later", "tie-earliest", "only"]
            assert service.stats["searches_run"] == 0
            assert service.healthz()["solutions"] == len(self.REQUESTS)

    def test_second_hit_returns_the_pinned_object(self, store_url):
        self._fill_store(store_url)
        with MappingService(store=store_url, scale=SCALE, workers=1) as service:
            first = service.submit(self.REQUESTS[0])
            text = service.result_text(first)
            second = service.submit(self.REQUESTS[0])
            assert second.result is first.result
            assert service.result_text(second) is text

    def test_fingerprint_removed_before_its_first_hit_is_searched(self, store_url, monkeypatch):
        monkeypatch.setattr(MappingService, "_execute", lambda self, job: _stub_summary("fresh", 0.5))
        self._fill_store(store_url)
        with MappingService(store=store_url, scale=SCALE, workers=1) as service:
            service.store.truncate()
            job = service.submit(self.REQUESTS[0])
            assert not job.cached
            assert service.result(job.job_id, timeout=30).optimizer_name == "fresh"
            assert service.stats["searches_run"] == 1
            again = service.submit(self.REQUESTS[0])
            assert again.cached and again.result.optimizer_name == "fresh"
            # The re-solved fingerprint was already counted at startup; a
            # fingerprint new to the store adds one solution.
            assert service.healthz()["solutions"] == len(self.REQUESTS)
            new = service.submit(MappingRequest(task="mix", setting="S1", seed=0))
            service.result(new.job_id, timeout=30)
            assert service.healthz()["solutions"] == len(self.REQUESTS) + 1


class TestShutdown:
    def test_graceful_close_drains_queue_and_leaves_store_intact(self, tmp_path):
        service = MappingService(store=str(tmp_path / "s.jsonl"), scale=SCALE, workers=2)
        jobs = [
            service.submit(MappingRequest(task="vision", setting="S1", seed=seed))
            for seed in range(3)
        ]
        service.close(wait=True)
        assert all(job.state == "done" for job in jobs)
        # Every line in the store parses: nothing torn, nothing lost.
        store = SolutionStore(service.store.path)
        assert store.repair() == 3
        assert len(store.records()) == 3

    def test_non_draining_close_cancels_queued_jobs(self, tmp_path, monkeypatch):
        release, started = threading.Event(), threading.Event()
        monkeypatch.setattr(MappingService, "_execute", _blocking_execute(release, started))
        service = MappingService(store=str(tmp_path / "s.jsonl"), scale=SCALE, workers=1)
        running = service.submit(MappingRequest(task="vision", seed=0))
        queued = service.submit(MappingRequest(task="vision", seed=1))
        assert started.wait(timeout=10)

        closer = threading.Thread(target=service.close, kwargs={"wait": False})
        closer.start()
        assert queued.done_event.wait(timeout=10)
        assert queued.state == "failed" and "cancelled" in queued.error
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert running.state == "done"

    def test_submit_after_close_rejected(self, tmp_path):
        service = MappingService(store=str(tmp_path / "s.jsonl"), scale=SCALE, workers=1)
        service.close()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit(MappingRequest(task="vision"))
