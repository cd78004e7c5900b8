"""Tests for the stdlib HTTP JSON frontend."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import MappingService, serve_in_background


@pytest.fixture()
def frontend(tmp_path):
    service = MappingService(
        store=str(tmp_path / "solutions.jsonl"),
        warm_store=str(tmp_path / "warm.jsonl"),
        scale="tiny",
        workers=1,
    )
    server, thread = serve_in_background(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close()


def _call(base: str, path: str, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _raw(base: str, path: str, body=None) -> bytes:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read()


class TestResultReplies:
    """Replies that carry a result splice in the service's memoized text."""

    REQUEST = {"task": "vision", "seed": 0}

    def _solve(self, service):
        job = service.submit(self.REQUEST)
        assert service.wait(job.job_id, timeout=120)
        return service.result(job.job_id)

    def test_hit_reply_bytes_equal_a_full_render(self, frontend):
        service, base = frontend
        summary = self._solve(service)
        body = _raw(base, "/submit", self.REQUEST)
        status = service.status(json.loads(body)["id"])
        assert status["cached"] is True
        expected = json.dumps(dict(status, result=summary.to_dict()), sort_keys=True)
        assert body == expected.encode("utf-8")

    def test_second_hit_does_not_render_the_result_again(self, frontend, monkeypatch):
        from repro.utils.serialization import SearchResultSummary

        service, base = frontend
        self._solve(service)
        calls = []
        to_dict = SearchResultSummary.to_dict

        def counting(self, *args, **kwargs):
            calls.append(1)
            return to_dict(self, *args, **kwargs)

        monkeypatch.setattr(SearchResultSummary, "to_dict", counting)
        first = json.loads(_raw(base, "/submit", self.REQUEST))
        assert len(calls) == 1
        second = json.loads(_raw(base, "/submit", self.REQUEST))
        assert len(calls) == 1
        assert first["result"] == second["result"]
        _raw(base, f"/result/{second['id']}")
        assert len(calls) == 1

    def test_result_of_a_finished_miss_matches_a_later_hit(self, frontend):
        service, base = frontend
        submitted = json.loads(_raw(base, "/submit", self.REQUEST))
        assert submitted["cached"] is False
        assert service.wait(submitted["id"], timeout=120)
        miss = _raw(base, f"/result/{submitted['id']}")
        hit = _raw(base, "/submit", self.REQUEST)
        result = json.loads(miss)["result"]
        assert json.loads(hit)["result"] == result
        spliced = b'"result": ' + json.dumps(result, sort_keys=True).encode("utf-8")
        assert spliced in miss and spliced in hit
        for body in (miss, hit):
            payload = json.loads(body)
            status = {key: value for key, value in payload.items() if key != "result"}
            assert body == json.dumps(dict(status, result=result), sort_keys=True).encode("utf-8")


class TestRoutes:
    def test_healthz(self, frontend):
        _, base = frontend
        code, payload = _call(base, "/healthz")
        assert code == 200
        assert payload["status"] == "ok"
        assert payload["workers"] == 1
        # Load figures are present and registry-sourced (docs/OBSERVABILITY.md).
        assert payload["queue_depth"] == 0
        assert payload["in_flight"] == 0
        assert payload["solutions"] == 0
        assert "warm_tasks" in payload

    def test_metrics_scrape(self, frontend):
        from repro.obs import get_metrics

        service, base = frontend
        # The registry is process-global and other tests submit jobs too, so
        # assert on deltas, not absolute counts.
        registry = get_metrics()
        queued_before = registry.value_of(
            "repro_service_requests_total", {"outcome": "queued"}
        )
        job = service.submit({"task": "vision", "seed": 0})
        assert service.wait(job.job_id, timeout=120)
        assert registry.value_of(
            "repro_service_requests_total", {"outcome": "queued"}
        ) == queued_before + 1

        request = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
        # Prometheus text exposition, not JSON.
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        lines = text.splitlines()
        assert "# TYPE repro_service_requests_total counter" in lines
        assert any(
            line.startswith('repro_service_requests_total{outcome="queued"}')
            for line in lines
        )
        assert "# TYPE repro_service_queue_depth gauge" in lines
        assert "# TYPE repro_service_queue_wait_seconds histogram" in lines
        assert any(line.startswith("repro_service_queue_wait_seconds_count") for line in lines)
        # The search the job ran shows up in the engine-level counters.
        assert any(
            line.startswith("repro_evals_total{") and not line.endswith(" 0")
            for line in lines
        )

    def test_submit_status_result_round_trip(self, frontend):
        service, base = frontend
        code, submitted = _call(base, "/submit", {"task": "vision", "seed": 0})
        assert code == 200
        job_id = submitted["id"]
        assert submitted["state"] in ("queued", "running", "done")

        assert service.wait(job_id, timeout=120)
        code, status = _call(base, f"/status/{job_id}")
        assert code == 200 and status["state"] == "done"

        code, result = _call(base, f"/result/{job_id}")
        assert code == 200
        assert result["result"]["best_fitness"] > 0
        assert result["result"]["samples_used"] > 0

        # Second identical submission returns the cached result inline.
        code, again = _call(base, "/submit", {"task": "vision", "seed": 0})
        assert code == 200 and again["cached"] is True
        assert again["result"] == result["result"]

    def test_pending_result_is_202(self, frontend, monkeypatch):
        import threading

        from repro.service.service import MappingService as ServiceClass
        from repro.utils.serialization import SearchResultSummary

        release = threading.Event()

        def slow_execute(self, job):
            release.wait(timeout=30)
            return SearchResultSummary(
                optimizer_name="stub", best_fitness=1.0, objective_value=1.0,
                throughput_gflops=1.0, makespan_cycles=1.0, samples_used=1,
                best_encoding=[0.0], history=[1.0],
            )

        monkeypatch.setattr(ServiceClass, "_execute", slow_execute)
        service, base = frontend
        _, submitted = _call(base, "/submit", {"task": "vision", "seed": 99})
        try:
            code, payload = _call(base, f"/result/{submitted['id']}")
            assert code == 202
            assert payload["state"] in ("queued", "running")
        finally:
            release.set()
            service.wait(submitted["id"], timeout=10)

    def test_result_poll_answers_when_the_job_finishes(self, frontend, monkeypatch):
        """A poll of a running job waits for it instead of answering 202."""
        import threading
        import time

        from repro.service.httpd import RESULT_WAIT_S
        from repro.service.service import MappingService as ServiceClass
        from repro.utils.serialization import SearchResultSummary

        release = threading.Event()
        started = threading.Event()

        def slow_execute(self, job):
            started.set()
            release.wait(timeout=30)
            return SearchResultSummary(
                optimizer_name="stub", best_fitness=1.0, objective_value=1.0,
                throughput_gflops=1.0, makespan_cycles=1.0, samples_used=1,
                best_encoding=[0.0], history=[1.0],
            )

        monkeypatch.setattr(ServiceClass, "_execute", slow_execute)
        service, base = frontend
        _, submitted = _call(base, "/submit", {"task": "vision", "seed": 98})
        assert started.wait(timeout=10)
        timer = threading.Timer(RESULT_WAIT_S / 5, release.set)
        timer.start()
        try:
            sent = time.monotonic()
            code, payload = _call(base, f"/result/{submitted['id']}")
            elapsed = time.monotonic() - sent
        finally:
            timer.cancel()
            release.set()
            service.wait(submitted["id"], timeout=10)
        assert code == 200
        assert payload["state"] == "done" and payload["result"]["optimizer_name"] == "stub"
        assert elapsed < RESULT_WAIT_S

    def test_bad_request_is_400(self, frontend):
        _, base = frontend
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _call(base, "/submit", {"task": "audio"})
        assert excinfo.value.code == 400
        assert "unknown task" in json.loads(excinfo.value.read().decode())["error"]

    def test_wrong_typed_fields_are_400_not_connection_reset(self, frontend):
        """Regression: a non-numeric bandwidth used to escape the handler as
        a ValueError, killing the connection instead of answering 400."""
        _, base = frontend
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _call(base, "/submit", {"bandwidth_gbps": "fast"})
        assert excinfo.value.code == 400
        assert "bandwidth_gbps" in json.loads(excinfo.value.read().decode())["error"]

    def test_invalid_json_is_400(self, frontend):
        _, base = frontend
        request = urllib.request.Request(
            base + "/submit", data=b"not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_job_and_path_are_404(self, frontend):
        _, base = frontend
        for path in ("/status/job-404404", "/result/job-404404", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _call(base, path)
            assert excinfo.value.code == 404
