"""Mapping-as-a-service: typed requests, async workers, content-addressed cache.

:class:`MappingService` turns the search engine into a long-running service:

* A :class:`MappingRequest` is validated, resolved against the service's
  experiment scale (concrete group size / budget / optimizer options), and
  fingerprinted with the same canonical-JSON identity campaign cells use.
* A fingerprint already solved in the :class:`~repro.service.store.SolutionStore`
  is answered from the store — no optimizer runs, and the returned
  :class:`~repro.utils.serialization.SearchResultSummary` is bit-identical to
  the one the original search produced.  Startup only lists the stored
  fingerprints; a fingerprint's first hit reads the store's best record for
  it (one indexed lookup) and pins that answer in memory, so every later hit
  is a dictionary lookup.
* A miss enqueues a search job on a pool of worker threads driving the
  existing evaluation backends; identical in-flight requests are deduplicated
  onto one job.  Jobs move ``queued -> running -> done | failed``.
* Every solved request is appended to the store (crash-safe single-line
  writes) and, via the ``warm_store=`` hook, reported to the persistent
  warm-start library so similar future tasks start from it.
* :meth:`MappingService.close` drains or cancels the queue and joins the
  workers; because store appends are atomic whole-line writes, shutdown at
  any point never corrupts the store.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.accelerator import build_setting, list_settings
from repro.core.analyzer import AnalysisTableCache
from repro.core.evalconfig import EvalConfig
from repro.core.objectives import list_objectives
from repro.exceptions import ReproError, ServiceError
from repro.experiments.campaign import CampaignRunner
from repro.obs import get_metrics, get_tracer
from repro.experiments.scenarios import default_optimizer_options
from repro.experiments.settings import ExperimentScale
from repro.service.store import SolutionStore
from repro.service.warmlib import WarmStartLibrary
from repro.utils.rng import resolve_seed
from repro.utils.serialization import SearchResultSummary, payload_fingerprint
from repro.workloads.benchmark import TaskType

#: Lifecycle of a service job.
JOB_STATES = ("queued", "running", "done", "failed")


def _expect_str(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ServiceError(f"{name} must be a string, got {value!r}")
    return value


def _coerce(name: str, value: Any, converter: Any) -> Any:
    try:
        return converter(value)
    except (TypeError, ValueError) as error:
        raise ServiceError(f"invalid {name}: {value!r} ({error})") from error


@dataclass(frozen=True)
class MappingRequest:
    """One mapping query: "map this task onto this platform, optimally".

    ``group_size`` and ``budget`` default to the service's experiment scale,
    so clients can stay scale-agnostic; everything else mirrors the knobs of
    ``repro-magma search``.
    """

    setting: str = "S2"
    bandwidth_gbps: float = 16.0
    task: str = "mix"
    objective: str = "throughput"
    method: str = "magma"
    seed: Optional[int] = None
    group_size: Optional[int] = None
    budget: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MappingRequest":
        """Build a request from client JSON; unknown keys fail loudly."""
        if not isinstance(data, dict):
            raise ServiceError(f"a mapping request must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ServiceError(
                f"unknown request fields: {sorted(unknown)}; known: {sorted(names)}"
            )
        return cls(**data)

    def resolve(self, scale: ExperimentScale) -> Dict[str, Any]:
        """Validate and pin every free knob against *scale*.

        Returns the fully concrete request payload — the dict that gets
        fingerprinted, stored alongside the solution, and executed.  All
        validation — including wrong-typed client JSON — lives here so bad
        requests fail as :class:`ServiceError` at submit time (an HTTP 400),
        not inside a worker thread.
        """
        from repro.optimizers import list_optimizers

        setting = _expect_str("setting", self.setting)
        task = _expect_str("task", self.task)
        objective = _expect_str("objective", self.objective)
        method = _expect_str("method", self.method).lower()
        bandwidth_gbps = _coerce("bandwidth_gbps", self.bandwidth_gbps, float)
        # Resolve the seed at submit time so the fingerprinted payload always
        # carries a concrete int: explicit request seed wins, then the
        # session policy (CLI --seed / REPRO_SEED), then 0 — which keeps
        # fingerprints of historical seed-less submissions stable and makes
        # replaying a stored payload bit-identical regardless of the
        # replayer's own session seed.
        explicit = None if self.seed is None else _coerce("seed", self.seed, int)
        seed = resolve_seed(explicit, default=0)
        if setting not in list_settings():
            raise ServiceError(
                f"unknown setting {setting!r}; available: {list_settings()}"
            )
        task_values = [t.value for t in TaskType]
        if task not in task_values:
            raise ServiceError(f"unknown task {task!r}; available: {task_values}")
        if objective not in list_objectives():
            raise ServiceError(
                f"unknown objective {objective!r}; available: {list_objectives()}"
            )
        if method not in list_optimizers():
            raise ServiceError(
                f"unknown method {self.method!r}; available: {list_optimizers()}"
            )
        if not bandwidth_gbps > 0:
            raise ServiceError(f"bandwidth_gbps must be positive, got {self.bandwidth_gbps}")
        group_size = (
            _coerce("group_size", self.group_size, int)
            if self.group_size is not None else scale.group_size
        )
        budget = (
            _coerce("budget", self.budget, int)
            if self.budget is not None else scale.sampling_budget
        )
        if budget <= 0:
            raise ServiceError(f"budget must be positive, got {budget}")
        num_cores = _setting_core_count(setting)
        if group_size < num_cores:
            raise ServiceError(
                f"group_size {group_size} is smaller than the {num_cores} "
                f"sub-accelerators of setting {setting}"
            )
        options = default_optimizer_options(method, scale, None)
        return {
            "setting": setting,
            "bandwidth_gbps": bandwidth_gbps,
            "task": task,
            "objective": objective,
            "method": method,
            "seed": seed,
            "group_size": group_size,
            "budget": budget,
            "optimizer_options": options,
        }


@lru_cache(maxsize=None)
def _setting_core_count(setting: str) -> int:
    """Sub-accelerator count of a preset; it does not depend on bandwidth.

    Cached because every request (cache hits included) checks it.  Callers
    validate *setting* first, so the cache holds at most one entry per preset.
    """
    return build_setting(setting).num_sub_accelerators


@dataclass
class MappingJob:
    """One tracked unit of service work (a request on its way to a result)."""

    job_id: str
    fingerprint: str
    request: Dict[str, Any]
    state: str = "queued"
    cached: bool = False
    error: Optional[str] = None
    result: Optional[SearchResultSummary] = None
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Monotonic enqueue timestamp — queue-wait attribution only, never
    #: serialized (status() builds its dict explicitly).
    enqueued_at: float = field(default=0.0, repr=False, compare=False)

    def status(self) -> Dict[str, Any]:
        """JSON-ready job status (without the result payload)."""
        return {
            "id": self.job_id,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "error": self.error,
            "request": dict(self.request),
        }


class MappingService:
    """Long-running mapping service over the search engine.

    Parameters
    ----------
    store:
        :class:`SolutionStore` of solved requests, or anything
        :func:`~repro.utils.storage.parse_store_url` accepts (a bare path,
        a ``jsonl:``/``sqlite:``/``tcp://`` URL, or an open backend).  On a
        shared backend several service replicas answer from — and feed —
        one store.  A store the service opened itself (from a path/URL) is
        closed by :meth:`close`; an already open store/backend stays the
        caller's to close.
    warm_store:
        Optional :class:`~repro.service.warmlib.WarmStartLibrary` (or its
        path/URL).  When present, cache *misses* still benefit from history:
        searches warm-start from the best prior same-task solution.
    scale:
        Experiment scale unresolved request knobs default to.
    eval_config:
        Evaluation-engine configuration
        (:class:`~repro.core.evalconfig.EvalConfig`) for every search the
        service runs.
    replica_id:
        Stable identity this replica reports on ``/healthz`` (default:
        ``<hostname>:<pid>``) — how operators tell the members of a
        shared-store service tier apart.
    workers:
        Worker threads executing queued jobs concurrently.
    max_finished_jobs:
        Finished (done/failed) jobs retained for status polling.  A
        long-running service answers mostly cache hits, and each submit
        creates a tracked job — without a bound the job table would grow
        with total requests served.  The oldest finished jobs are evicted
        FIFO past this limit; in-flight jobs are never evicted.
    """

    def __init__(
        self,
        store: "SolutionStore | str",
        warm_store: "WarmStartLibrary | str | None" = None,
        scale: "ExperimentScale | str | None" = None,
        workers: int = 2,
        table_cache: Optional[AnalysisTableCache] = None,
        max_finished_jobs: int = 10_000,
        eval_config: EvalConfig = EvalConfig(),
        replica_id: Optional[str] = None,
    ):
        if workers <= 0:
            raise ServiceError(f"workers must be positive, got {workers}")
        if max_finished_jobs <= 0:
            raise ServiceError(f"max_finished_jobs must be positive, got {max_finished_jobs}")
        self._owns_store = not isinstance(store, SolutionStore)
        self.store = store if isinstance(store, SolutionStore) else SolutionStore(store)
        self._owns_warm = isinstance(warm_store, str)
        self.warm_store: Optional[WarmStartLibrary] = None
        self.replica_id = replica_id or f"{socket.gethostname()}:{os.getpid()}"
        # Everything below may fail (bad eval config, unreadable store, a
        # dead network store, ...); a half-built service must not leak the
        # store handles it just opened.
        try:
            if isinstance(warm_store, str):
                warm_store = WarmStartLibrary(warm_store)
            self.warm_store = warm_store
            self._runner = CampaignRunner(
                scale=scale,
                eval_config=eval_config,
                table_cache=table_cache if table_cache is not None else AnalysisTableCache(),
                warm_store=warm_store,
            )
            self._lock = threading.Lock()
            self._queue: "queue.Queue[Optional[MappingJob]]" = queue.Queue()
            self._jobs: Dict[str, MappingJob] = {}  # guarded-by: _lock
            self._inflight: Dict[str, MappingJob] = {}  # guarded-by: _lock
            self._finished: "deque[str]" = deque()  # guarded-by: _lock
            self._max_finished_jobs = max_finished_jobs
            self._counter = 0  # guarded-by: _lock
            self._closed = False  # guarded-by: _lock
            self.stats: Dict[str, int] = {  # guarded-by: _lock
                "submitted": 0,
                "cache_hits": 0,
                "deduped": 0,
                "searches_run": 0,
                "failed": 0,
            }
            # Observability (docs/OBSERVABILITY.md): request lifecycle events
            # plus registry-backed gauges the healthz payload reads back.
            self._tracer = get_tracer()
            self._metrics = get_metrics()
            self._g_queue_depth = self._metrics.gauge(
                "repro_service_queue_depth", "Jobs accepted but not yet picked up by a worker."
            )
            self._g_inflight = self._metrics.gauge(
                "repro_service_inflight", "Jobs currently executing on worker threads."
            )
            self._h_queue_wait = self._metrics.histogram(
                "repro_service_queue_wait_seconds", "Time jobs spent queued before a worker ran them."
            )
            self._m_requests = {
                outcome: self._metrics.counter(
                    "repro_service_requests_total",
                    "Submitted requests by outcome (cache-hit, deduped, queued).",
                    labels={"outcome": outcome},
                )
                for outcome in ("cache-hit", "deduped", "queued")
            }
            # Never-corrupt startup: drop a torn trailing line a previous
            # crash may have left, then list the stored fingerprints.  Their
            # answers are read from the store on first hit, not here, so
            # startup parses no record.  A frozenset is immutable, so
            # threads read it without the lock.
            self.store.repair()
            self._stored = frozenset(self.store.fingerprints())
            # Answers pinned on first hit or on a finished search.
            self._index: Dict[str, SearchResultSummary] = {}  # guarded-by: _lock
            # Pinned fingerprints that are not in ``_stored``, so healthz
            # counts answerable fingerprints without a set union.
            self._solved_since_startup = 0  # guarded-by: _lock
            # Canonical JSON text of pinned answers, rendered on a
            # fingerprint's first hit.  ``_index`` entries are never
            # replaced, so a rendered text never goes stale and the memo is
            # bounded by the index.
            self._result_text: Dict[str, str] = {}  # guarded-by: _lock
            self._threads = [
                threading.Thread(target=self._worker, name=f"mapping-worker-{i}", daemon=True)
                for i in range(workers)
            ]
            for thread in self._threads:
                thread.start()
        except BaseException:
            self._close_stores()
            raise

    @property
    def scale(self) -> ExperimentScale:
        """The experiment scale unresolved request knobs default to."""
        return self._runner.scale

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: "MappingRequest | Dict[str, Any]") -> MappingJob:
        """Validate, fingerprint, and answer-or-enqueue one request.

        Returns the job tracking the request: already-solved fingerprints
        come back ``done`` immediately (``cached=True``, result bit-identical
        to the originally stored summary); identical in-flight requests share
        one job; anything else is queued for a worker.
        """
        if isinstance(request, dict):
            request = MappingRequest.from_dict(request)
        payload = request.resolve(self.scale)
        fingerprint = payload_fingerprint(payload)
        stored = None
        if self.store.shared or fingerprint in self._stored:
            # A fingerprint stored at startup is read from the store on its
            # first hit; on a shared store another replica may have solved
            # any fingerprint since startup.  The store is consulted *before*
            # taking the lock (it may be network I/O); racing first hits and
            # a concurrent local solve are harmless: the first answer pinned
            # wins, and duplicate appends resolve to the best record.  A
            # fingerprint removed from the store since startup reads ``None``
            # and is searched as an ordinary miss.
            with self._lock:
                unknown = fingerprint not in self._index and fingerprint not in self._inflight
            if unknown:
                stored = self.store.lookup_result(fingerprint)
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            self.stats["submitted"] += 1
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                self.stats["deduped"] += 1
                self._note_submitted(inflight, "deduped")
                return inflight
            job = MappingJob(job_id=self._next_id(), fingerprint=fingerprint, request=payload)
            self._jobs[job.job_id] = job
            cached = self._index.get(fingerprint)
            if cached is None and stored is not None:
                cached = self._pin(fingerprint, stored)
            if cached is not None:
                self.stats["cache_hits"] += 1
                job.cached = True
                job.result = cached
                job.state = "done"
                job.done_event.set()
                self._retire(job)
                self._note_submitted(job, "cache-hit")
                return job
            job.enqueued_at = time.monotonic()
            self._inflight[fingerprint] = job
            self._queue.put(job)
            self._note_submitted(job, "queued")
            return job

    def _note_submitted(self, job: MappingJob, outcome: str) -> None:  # holds-lock: _lock
        self._m_requests[outcome].inc()
        self._refresh_gauges()
        self._tracer.event(
            "service.submitted", job=job.job_id, outcome=outcome, fingerprint=job.fingerprint
        )

    def _refresh_gauges(self) -> None:  # holds-lock: _lock
        """Republish queue depth / in-flight gauges from the job table."""
        states = [job.state for job in self._inflight.values()]
        self._g_queue_depth.set(sum(1 for state in states if state == "queued"))
        self._g_inflight.set(sum(1 for state in states if state == "running"))

    def _pin(self, fingerprint: str, summary: SearchResultSummary) -> SearchResultSummary:  # holds-lock: _lock
        """Index *summary* as *fingerprint*'s answer unless one is pinned already.

        Returns the pinned answer.  Entries are never replaced, so every hit
        on a fingerprint returns one object and its memoized text.
        """
        pinned = self._index.get(fingerprint)
        if pinned is None:
            pinned = self._index[fingerprint] = summary
            if fingerprint not in self._stored:
                self._solved_since_startup += 1
        return pinned

    def _next_id(self) -> str:  # holds-lock: _lock
        self._counter += 1
        return f"job-{self._counter:06d}"

    def _retire(self, job: MappingJob) -> None:  # holds-lock: _lock
        """Bound the job table: evict the oldest finished jobs (lock held)."""
        self._finished.append(job.job_id)
        while len(self._finished) > self._max_finished_jobs:
            self._jobs.pop(self._finished.popleft(), None)

    # ------------------------------------------------------------------
    # Job access
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> MappingJob:
        """The job for *job_id* (unknown ids fail loudly)."""
        job = self._jobs.get(str(job_id))
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-ready status of one job."""
        return self.job(job_id).status()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until a job finishes (done or failed); ``False`` on timeout."""
        return self.job(job_id).done_event.wait(timeout)

    def result(self, job_id: str, timeout: Optional[float] = None) -> SearchResultSummary:
        """The finished job's search summary (waits; raises on failure/timeout)."""
        job = self.job(job_id)
        if not job.done_event.wait(timeout):
            raise ServiceError(f"job {job_id} still {job.state} after {timeout}s")
        if job.state == "failed":
            raise ServiceError(f"job {job_id} failed: {job.error}")
        assert job.result is not None
        return job.result

    def result_text(self, job: MappingJob) -> str:
        """``json.dumps(job.result.to_dict(), sort_keys=True)`` of a done job.

        The text of an indexed answer is rendered once and then served from
        memory, so a store hit costs a dictionary lookup instead of a
        ~17 KB re-serialization.  A result that is not the indexed answer
        for its fingerprint (a miss that lost a race to another replica's
        answer) is rendered afresh.
        """
        summary = job.result
        assert summary is not None
        fingerprint = job.fingerprint
        with self._lock:
            indexed = self._index.get(fingerprint) is summary
            text = self._result_text.get(fingerprint) if indexed else None
        if text is not None:
            return text
        # Rendered outside the lock; two racing first hits both render and
        # the first to store wins, which is harmless (equal text).
        text = json.dumps(summary.to_dict(), sort_keys=True)
        if indexed:
            with self._lock:
                text = self._result_text.setdefault(fingerprint, text)
        return text

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """Liveness/readiness payload for the HTTP frontend.

        ``queue_depth`` and ``in_flight`` are read back from the metrics
        registry (after a refresh under the lock), so the health answer and
        a ``GET /metrics`` scrape can never disagree about load.
        """
        with self._lock:
            self._refresh_gauges()
            return {
                "status": "closed" if self._closed else "ok",
                "replica": self.replica_id,
                "scale": self.scale.name,
                "eval_backend": self._runner.eval_config.backend,
                "store_backend": self.store.kind,
                "store_url": self.store.url,
                "workers": len(self._threads),
                "queue_depth": int(self._metrics.value_of("repro_service_queue_depth")),
                "in_flight": int(self._metrics.value_of("repro_service_inflight")),
                "jobs": len(self._jobs),
                "solutions": len(self._stored) + self._solved_since_startup,
                "warm_tasks": len(self.warm_store) if self.warm_store is not None else 0,
                "store": self.store.path,
                **{key: int(value) for key, value in self.stats.items()},
            }

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                if job.state != "queued":
                    # Cancelled by a non-draining shutdown.
                    continue
                job.state = "running"
                self._refresh_gauges()
            queue_wait_s = max(0.0, time.monotonic() - job.enqueued_at)
            self._h_queue_wait.observe(queue_wait_s)
            self._tracer.event(
                "service.job-running", job=job.job_id, queue_wait_s=round(queue_wait_s, 6)
            )
            try:
                with self._tracer.span(
                    "service.job",
                    job=job.job_id,
                    fingerprint=job.fingerprint,
                    method=job.request.get("method"),
                ):
                    summary = self._execute(job)
            except ReproError as error:
                self._finish(job, error=str(error))
            except Exception as error:  # noqa: BLE001 — a worker must survive anything
                self._finish(job, error=f"{type(error).__name__}: {error}")
            else:
                self._finish(job, summary=summary)

    def _execute(self, job: MappingJob) -> SearchResultSummary:
        payload = job.request
        platform = build_setting(payload["setting"], payload["bandwidth_gbps"])
        group = self._runner.group_for(
            payload["task"], platform.num_sub_accelerators, payload["seed"], payload["group_size"]
        )
        explorer = self._runner.explorer(
            platform, sampling_budget=payload["budget"], objective=payload["objective"]
        )
        result = explorer.search(
            group,
            optimizer=payload["method"],
            seed=payload["seed"],
            sampling_budget=payload["budget"],
            optimizer_options=dict(payload["optimizer_options"]),
        )
        return SearchResultSummary.from_result(result)

    def _finish(
        self,
        job: MappingJob,
        summary: Optional[SearchResultSummary] = None,
        error: Optional[str] = None,
    ) -> None:
        if summary is not None:
            task_key = WarmStartLibrary.key_for(job.request["task"], job.request["objective"])
            self.store.append(job.fingerprint, job.request, task_key, summary)
        with self._lock:
            self._inflight.pop(job.fingerprint, None)
            if summary is not None:
                self._pin(job.fingerprint, summary)
                self.stats["searches_run"] += 1
                job.result = summary
                job.state = "done"
            else:
                self.stats["failed"] += 1
                job.error = error
                job.state = "failed"
            self._retire(job)
            self._refresh_gauges()
        job.done_event.set()
        if summary is not None:
            self._tracer.event("service.job-done", job=job.job_id, state=job.state)
        else:
            self._tracer.warning("service.job-failed", job=job.job_id, error=str(error))

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop the service.

        ``wait=True`` drains the queue (every accepted job completes);
        ``wait=False`` cancels still-queued jobs (marked ``failed``) and only
        finishes the jobs already running.  Either way the workers are
        joined, and — because store appends are atomic whole-line writes —
        the solution store is left intact.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not wait:
                for job in list(self._inflight.values()):
                    if job.state == "queued":
                        self._inflight.pop(job.fingerprint, None)
                        self.stats["failed"] += 1
                        job.error = "cancelled: service shut down before execution"
                        job.state = "failed"
                        job.done_event.set()
                        self._retire(job)
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        # Only after the last worker has finished its final store append.
        self._close_stores()

    def _close_stores(self) -> None:
        """Close the store handles this service opened itself (idempotent)."""
        if self._owns_warm and self.warm_store is not None:
            self.warm_store.close()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
