"""Stdlib-only localhost HTTP JSON frontend for the mapping service.

Routes (all JSON):

* ``POST /submit`` — body is a :class:`~repro.service.service.MappingRequest`
  object; responds with the job status (plus the result inline when the
  request was answered from the solution store).
* ``GET /status/<job-id>`` — job state (``queued/running/done/failed``).
* ``GET /result/<job-id>`` — ``200`` with the search summary once done,
  ``202`` while queued/running, ``500`` with the error when failed.  A
  poll of an unfinished job waits up to :data:`RESULT_WAIT_S` for it to
  finish, so a polling client gets the answer when the search ends rather
  than at its next poll.
* ``GET /healthz`` — service liveness, queue depth, in-flight count, store
  and warm-library sizes, cache statistics.
* ``GET /metrics`` — the process metrics registry in the Prometheus text
  exposition format (the one non-JSON route; see docs/OBSERVABILITY.md).

The server is a :class:`http.server.ThreadingHTTPServer`, so slow searches
never block status polls; all actual work still runs on the service's own
worker pool.  Nothing here imports beyond the standard library and the repro
package itself.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Tuple

from repro.exceptions import ServiceError
from repro.obs import render_prometheus
from repro.service.service import MappingJob, MappingService

#: Content type of the Prometheus text exposition format we emit.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a ``GET /result/<job-id>`` of a queued or running job waits for
#: it to finish before answering ``202``.  Long enough to cover a small
#: search in one poll, short enough that a poll of a long search still
#: returns promptly.  The wait holds a handler thread, not the GIL.
RESULT_WAIT_S = 1.0


def render_status_with_result(status: Dict[str, Any], result_text: str) -> str:
    """``json.dumps(dict(status, result=result), sort_keys=True)``, byte for byte.

    *result_text* is the result already rendered with
    ``json.dumps(..., sort_keys=True)``.  Each status field is rendered the
    same way and the result is spliced in at its sorted key position, so a
    store hit never re-serializes its (large, unchanging) answer.
    """
    fields = {key: json.dumps(value, sort_keys=True) for key, value in status.items()}
    fields["result"] = result_text
    return "{" + ", ".join(f"{json.dumps(key)}: {fields[key]}" for key in sorted(fields)) + "}"


class MappingServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the :class:`MappingService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: MappingService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server: MappingServiceHTTPServer

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        try:
            self._get()
        except Exception as error:  # noqa: BLE001 — never drop the connection
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        try:
            self._post()
        except Exception as error:  # noqa: BLE001 — never drop the connection
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def _get(self) -> None:
        service = self.server.service
        path = self.path.rstrip("/")
        try:
            if path == "/healthz":
                self._reply(200, service.healthz())
            elif path == "/metrics":
                self._reply_text(200, render_prometheus(), PROMETHEUS_CONTENT_TYPE)
            elif path.startswith("/status/"):
                self._reply(200, service.status(path[len("/status/"):]))
            elif path.startswith("/result/"):
                job = service.job(path[len("/result/"):])
                job.done_event.wait(RESULT_WAIT_S)
                if job.state == "failed":
                    self._reply(500, {"id": job.job_id, "state": job.state, "error": job.error})
                elif job.state != "done":
                    self._reply(202, job.status())
                else:
                    self._reply_with_result(200, job)
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})
        except ServiceError as error:
            self._reply(404, {"error": str(error)})

    def _post(self) -> None:
        if self.path.rstrip("/") != "/submit":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        service = self.server.service
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length) if length else b"{}"
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self._reply(400, {"error": f"invalid JSON body: {error}"})
            return
        try:
            job = service.submit(data)
        except ServiceError as error:
            self._reply(400, {"error": str(error)})
            return
        if job.state == "done" and job.result is not None:
            self._reply_with_result(200, job)
        else:
            self._reply(200, job.status())

    # ------------------------------------------------------------------
    def _reply(self, code: int, payload: Dict[str, Any]) -> None:
        self._reply_text(code, json.dumps(payload, sort_keys=True), "application/json")

    def _reply_with_result(self, code: int, job: MappingJob) -> None:
        """Reply with a done job's status plus its memoized result text."""
        text = render_status_with_result(job.status(), self.server.service.result_text(job))
        self._reply_text(code, text, "application/json")

    def _reply_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)


def create_server(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> MappingServiceHTTPServer:
    """Bind (but do not start) the HTTP frontend; ``port=0`` picks a free port."""
    return MappingServiceHTTPServer((host, port), service, quiet=quiet)


def serve_in_background(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[MappingServiceHTTPServer, threading.Thread]:
    """Start the frontend on a daemon thread (tests and embedded use)."""
    server = create_server(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, name="mapping-httpd", daemon=True)
    thread.start()
    return server, thread
