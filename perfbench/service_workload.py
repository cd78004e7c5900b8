"""service_mixed: reads beside writes in one mapping server, open loop.

Set-up builds a sqlite solution store through the store's public API: the
solutions of 16 repeat requests plus 20 000 filler records.  ``repro-magma
serve --scale small --workers 2`` then runs in its own process, and one
generator (this process: two threads, so at most two connections) sends
Poisson arrivals at 40 req/s drawn from the seed.  97.5% are repeat requests,
answered from the server's store index; 2.5% carry novel seeds, each a miss
that costs a store lookup, a G=50 / 800-sample search and a sqlite append,
and that the generator polls until its result is available.  Every request
is timed from its due time, so a stall also counts against the requests
queued behind it.
"""

from __future__ import annotations

import heapq
import http.client
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from harness import (
    ErrorLedger, InvalidRun, Outcome, ReferenceSampler, Request, Span, peak_rss_mb_of, percentile,
)
from layers import counter_delta, layer_metrics, load_spans, parse_prometheus, read_counters

SCALE = "small"
RATE_PER_S = 40.0
#: Each miss holds the server's GIL for ~0.2 s, and hits that arrive during
#: one take two to three times as long.  At 5% misses about half the hits
#: did, so hit_p50 sat on the step between the two and moved 2x with the
#: seed; at 2.5% a quarter to a third do.
MISS_SHARE = 0.025
REPEAT_REQUESTS = 16
FILLER_RECORDS = 20_000
#: Fillers are the solution of one tiny problem (G=8, 48 samples) filed
#: under 20 000 distinct requests: a realistic index and database size
#: without 20 000 searches.
FILLER_GROUP_SIZE = 8
FILLER_BUDGET = 48
SERVER_WORKERS = 2
GENERATOR_THREADS = 2
POLL_INTERVAL_S = 0.02
#: Server launches per run; setup_s is their median.
SERVER_LAUNCHES = 3
#: Misses re-run as a direct ``M3E.search`` and compared with the answer.
MISS_CHECKS = 3
#: A generator whose p99 lateness exceeds this fell behind its own schedule:
#: its latencies would describe the generator, not the server.
LATE_LIMIT_S = 0.25
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 90.0
BASE_REQUEST: Dict[str, Any] = {"setting": "S2", "bandwidth_gbps": 16.0, "task": "mix"}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def request_stream(seed: int, count: int) -> Tuple[List[int], List[Request]]:
    """The 16 repeat seeds and *count* requests due at relative times, from *seed*."""
    rng = np.random.default_rng([seed, 0x5E7])
    repeat_seeds = [int(s) for s in rng.choice(2**30, size=REPEAT_REQUESTS, replace=False)]
    offsets = np.cumsum(rng.exponential(1.0 / RATE_PER_S, size=count))
    # One miss in every 1/MISS_SHARE requests, at a seeded slot: Poisson
    # placement would let the number of overlapping searches (two share the
    # GIL and take twice as long) swing miss_p90 by 2x from seed to seed.
    every = round(1 / MISS_SHARE)
    slot = int(rng.integers(every))
    misses = set(range(slot, count, every))
    # Novel seeds come from a range the repeat seeds never use.
    novel = iter(int(s) for s in 2**30 + rng.choice(2**30, size=len(misses), replace=False))
    picks = rng.integers(REPEAT_REQUESTS, size=count)
    requests = []
    for i in range(count):
        kind = "miss" if i in misses else "hit"
        seed_i = next(novel) if kind == "miss" else repeat_seeds[int(picks[i])]
        requests.append(Request(due=float(offsets[i]), kind=kind, payload=dict(BASE_REQUEST, seed=seed_i)))
    return repeat_seeds, requests


def resolve(body: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    """The payload and fingerprint the server resolves *body* to."""
    from repro.experiments.settings import get_scale
    from repro.service import MappingRequest
    from repro.utils.serialization import payload_fingerprint

    payload = MappingRequest.from_dict(body).resolve(get_scale(SCALE))
    return payload, payload_fingerprint(payload)


def direct_summary(payload: Dict[str, Any]) -> Any:
    """A direct ``M3E.search`` of a resolved payload, summarised."""
    from repro.accelerator import build_setting
    from repro.core.framework import M3E
    from repro.utils.serialization import SearchResultSummary
    from repro.workloads.benchmark import TaskType, build_task_workload

    platform = build_setting(payload["setting"], payload["bandwidth_gbps"])
    group = build_task_workload(
        TaskType(payload["task"]),
        group_size=payload["group_size"],
        num_groups=1,
        seed=payload["seed"],
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    result = M3E(platform, objective=payload["objective"], sampling_budget=payload["budget"]).search(
        group,
        optimizer=payload["method"],
        seed=payload["seed"],
        sampling_budget=payload["budget"],
        optimizer_options=dict(payload["optimizer_options"]),
    )
    return SearchResultSummary.from_result(result)


def build_store(path: Path, repeat_seeds: List[int]) -> Dict[int, Dict[str, Any]]:
    """Fill a sqlite store; return each repeat seed's stored summary."""
    from repro.service import SolutionStore, WarmStartLibrary
    from repro.utils.serialization import payload_fingerprint

    expected: Dict[int, Dict[str, Any]] = {}
    with SolutionStore(f"sqlite:{path}") as store:
        filler_payload, _ = resolve(
            dict(BASE_REQUEST, seed=2**31, group_size=FILLER_GROUP_SIZE, budget=FILLER_BUDGET)
        )
        filler = direct_summary(filler_payload).to_dict()
        task_key = WarmStartLibrary.key_for(filler_payload["task"], filler_payload["objective"])
        records = []
        for j in range(FILLER_RECORDS):
            request = dict(filler_payload, seed=2**31 + j)
            records.append({
                "fingerprint": payload_fingerprint(request),
                "request": request,
                "task_key": task_key,
                "result": filler,
            })
        store.backend.append_many(records)
        for seed in repeat_seeds:
            payload, fingerprint = resolve(dict(BASE_REQUEST, seed=seed))
            summary = direct_summary(payload)
            store.append(fingerprint, payload, task_key, summary)
            expected[seed] = summary.to_dict()
    return expected


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def http_call(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """One ``repro-magma serve`` process over the benchmark's store."""

    def __init__(self, root: Path, store_url: str, log_path: Path, spans_out: Optional[Path] = None,
                 cpu: Optional[int] = None):
        self.root = root
        self.store_url = store_url
        self.log_path = log_path
        self.spans_out = spans_out
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch; return seconds until ``/healthz`` answers."""
        args = [
            "serve", "--scale", SCALE, "--workers", str(SERVER_WORKERS),
            "--store", self.store_url, "--host", "127.0.0.1", "--port", "0",
        ]
        if self.spans_out is None:
            command = [sys.executable, "-u", "-m", "repro.cli", *args]
        else:
            command = [sys.executable, "-u", str(self.root / "perfbench" / "server.py"),
                       "--spans-out", str(self.spans_out), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = time.monotonic()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log
            )
        if self.cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        deadline = started + START_TIMEOUT_S
        self.port = self._read_port(deadline)
        while True:
            try:
                if http_call(self.port, "GET", "/healthz")[0] == 200:
                    return time.monotonic() - started
            except (OSError, http.client.HTTPException):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        seen = b""
        while True:
            match = re.search(rb"listening on http://[^:\s]+:(\d+)", seen)
            if match:
                return int(match.group(1))
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                raise RuntimeError(f"server exited or stalled before listening; see {self.log_path}")
            seen += chunk

    def scrape(self) -> Any:
        status, body = http_call(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered HTTP {status}")
        return parse_prometheus(body.decode("utf-8"))

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then reap the process."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
class OpenLoopGenerator:
    """Sends each request at its due time from a shared schedule.

    Submits and the polls of pending misses share one time-ordered queue
    served by :data:`GENERATOR_THREADS` threads, each holding at most one
    connection at a time.
    """

    def __init__(self, port: int, requests: List[Request]):
        self.port = port
        self.requests = requests
        self.http_seconds = 0.0
        self._queue: List[Tuple[float, int, str, Request]] = []
        self._order = 0
        self._open = len(requests)
        self._cv = threading.Condition()

    def _push(self, due: float, action: str, request: Request) -> None:  # holds _cv
        heapq.heappush(self._queue, (due, self._order, action, request))
        self._order += 1
        self._cv.notify()

    def run(self) -> Tuple[float, float]:
        """Send everything, wait for every answer; return the window's bounds."""
        start = time.monotonic() + 0.05
        with self._cv:
            for request in self.requests:
                request.due += start
                self._push(request.due, "submit", request)
        deadline = self.requests[-1].due + DRAIN_TIMEOUT_S
        threads = [
            threading.Thread(target=self._work, args=(deadline,), name=f"perfbench-load-{i}")
            for i in range(GENERATOR_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return start, time.monotonic()

    def _work(self, deadline: float) -> None:
        while True:
            with self._cv:
                while True:
                    now = time.monotonic()
                    if self._open == 0 or now > deadline:
                        return
                    if self._queue and self._queue[0][0] <= now:
                        _, _, action, request = heapq.heappop(self._queue)
                        break
                    wait = self._queue[0][0] - now if self._queue else 0.05
                    self._cv.wait(min(wait, 0.05))
            if self._act(action, request):
                with self._cv:
                    self._open -= 1
                    self._cv.notify_all()

    def _act(self, action: str, request: Request) -> bool:
        """Perform one submit or poll; True once the request is finished."""
        sent = time.monotonic()
        try:
            if action == "submit":
                request.sent = sent
                status, body = http_call(self.port, "POST", "/submit", json.dumps(request.payload).encode())
            else:
                status, body = http_call(self.port, "GET", f"/result/{request.job_id}")
        except (OSError, http.client.HTTPException) as error:
            request.error = f"{action}: {type(error).__name__}: {error}"
            return True
        now = time.monotonic()
        with self._cv:
            self.http_seconds += now - sent
        if action == "submit":
            request.round_trip = now - sent
            request.response_bytes = len(body)
        if status not in (200, 202):
            request.error = f"{action}: HTTP {status}: {body[:200]!r}"
            return True
        reply = json.loads(body)
        if action == "submit":
            request.cached = bool(reply.get("cached"))
            request.job_id = reply.get("id")
        if status == 200 and "result" in reply:
            request.answered = now
            request.result = reply["result"]
            return True
        with self._cv:
            self._push(now + POLL_INTERVAL_S, "poll", request)
        return False


@dataclass
class Window:
    requests: List[Request]
    start: float
    end: float
    before: Dict[str, float]
    after: Dict[str, float]
    http_seconds: float

    def answered(self, kind: str) -> List[Request]:
        return [r for r in self.requests if r.kind == kind and r.answered is not None]

    def latencies(self, kind: str) -> List[float]:
        return [r.latency for r in self.answered(kind)]

    def scaled_latencies(self, kind: str, reference: ReferenceSampler) -> List[float]:
        """Latencies scaled to the reference host over each request's own span."""
        return [r.latency * reference.scale(r.due, r.answered) for r in self.answered(kind)]


def measure(server: Server, requests: List[Request]) -> Window:
    base = requests[0].due
    for request in requests:
        request.due -= base
    before = read_counters(server.scrape())
    generator = OpenLoopGenerator(server.port, requests)
    start, end = generator.run()
    after = read_counters(server.scrape())
    return Window(requests, start, end, before, after, generator.http_seconds)


def check_lateness(window: Window) -> float:
    late = percentile([r.lateness for r in window.requests if r.sent is not None], 99)
    if late.value > LATE_LIMIT_S:
        raise InvalidRun(f"generator fell behind: late {late.describe(1e3, 'ms')}")
    return late.value


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run_service(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="service-", dir=scratch))
    # With two or more CPUs the server gets the last to itself and the
    # reference loop is timed there, so the loop measures the CPU the server
    # runs on; this process's other threads (the generator's) stay off it.
    allowed = sorted(os.sched_getaffinity(0))
    server_cpu = allowed[-1] if len(allowed) > 1 else None
    try:
        if server_cpu is not None:
            os.sched_setaffinity(0, allowed[:-1])
        return _run(seed, seconds, trace, root, work, server_cpu)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)


def _run(seed: int, seconds: float, trace: bool, root: Path, work: Path, server_cpu: Optional[int]) -> Outcome:
    count = max(40, round(RATE_PER_S * seconds))
    repeat_seeds, requests = request_stream(seed, count)
    expected = build_store(work / "solutions.sqlite3", repeat_seeds)
    store_url = f"sqlite:{work / 'solutions.sqlite3'}"
    # A traced run measures the first half untraced and the second traced.
    plain_requests, traced_requests = (requests[: count // 2], requests[count // 2:]) if trace else (requests, [])

    server = Server(root, store_url, work / "server.log", cpu=server_cpu)
    setup, scaled_setup = [], []
    with ReferenceSampler(cpu=server_cpu) as reference:
        try:
            for _ in range(SERVER_LAUNCHES):
                server.stop()
                started = time.monotonic()
                seconds = server.start()
                setup.append(seconds)
                scaled_setup.append(seconds * reference.scale(started, started + seconds))
            plain = measure(server, plain_requests)
            peak_rss = peak_rss_mb_of(server.proc.pid)
        finally:
            server.stop()
    late = [check_lateness(plain)]
    windows = [plain]
    traced: Optional[Window] = None
    if trace:
        spans_out = work / "spans.json"
        traced_server = Server(root, store_url, work / "server.log", spans_out=spans_out, cpu=server_cpu)
        try:
            traced_server.start()
            traced = measure(traced_server, traced_requests)
        finally:
            traced_server.stop()
        late.append(check_lateness(traced))
        windows.append(traced)

    ledger = ErrorLedger()
    check_answers([r for w in windows for r in w.requests], expected, ledger)

    hits, misses = plain.scaled_latencies("hit", reference), plain.scaled_latencies("miss", reference)
    hit_p50, hit_p95 = percentile(hits, 50), percentile(hits, 95)
    miss_p50, miss_p90 = percentile(misses, 50), percentile(misses, 90)
    measured_hit_p50 = percentile(plain.latencies("hit"), 50)
    measured_miss_p50 = percentile(plain.latencies("miss"), 50)
    lines = [
        f"workload service_mixed: {len(plain.requests)} requests at {RATE_PER_S:g}/s "
        f"({len(misses)} misses), {REPEAT_REQUESTS} repeat requests + {FILLER_RECORDS} fillers in sqlite",
        "  times scaled to the reference host unless marked 'measured'",
        f"  hit latency {hit_p50.describe(1e3, 'ms')}, {hit_p95.describe(1e3, 'ms')}; "
        f"measured p50={measured_hit_p50.value * 1e3:.4f}ms",
        f"  miss latency {miss_p50.describe(1e3, 'ms')}, {miss_p90.describe(1e3, 'ms')}; "
        f"measured p50={measured_miss_p50.value * 1e3:.4f}ms",
        f"  late_p99_ms {max(late) * 1e3:.3f} (a run above {LATE_LIMIT_S * 1e3:g} ms is invalid)",
        f"  server launches (s): {', '.join(f'{t:.3f}' for t in scaled_setup)}",
        f"  server launches measured (s): {', '.join(f'{t:.3f}' for t in setup)}",
        f"  error_rate {ledger.error_rate:.4f} ({ledger.failed}/{ledger.attempted})",
        *(f"  error: {reason}" for reason in ledger.reasons),
    ]
    if traced is None:
        answered_misses = plain.answered("miss")
        answers = {r.payload["seed"]: r.result["throughput_gflops"] for r in plain.requests if r.result}
        metrics = {
            # Client-visible search rate of the misses under load.
            "evals_per_s": sum(r.result["samples_used"] for r in answered_misses) / sum(misses),
            "best_gflops_mean": statistics.fmean(answers.values()),
            "hit_p50_ms": hit_p50.value * 1e3,
            "miss_p50_ms": miss_p50.value * 1e3,
            "miss_p90_ms": miss_p90.value * 1e3,
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": peak_rss,
        }
        return Outcome(metrics=metrics, ledger=ledger, lines=lines)

    spans, counts = load_spans(str(work / "spans.json"))
    in_window = [
        s for s in spans if traced.start <= s.start <= traced.end or s.name == "store.index_load"
    ]
    metrics = layer_metrics(in_window, counter_delta(traced.before, traced.after),
                            counts.get("optimizers.operator_calls", 0))
    metrics.update(http_ledger(traced, in_window))
    traced_hit_p50 = percentile(traced.latencies("hit"), 50).value
    metrics["trace.overhead_share"] = traced_hit_p50 / measured_hit_p50.value - 1.0
    metrics["trace.wall_s"] = traced.end - traced.start
    return Outcome(metrics=metrics, ledger=ledger, lines=lines)


def http_ledger(window: Window, spans: List[Span]) -> Dict[str, float]:
    """Client-side HTTP figures of the traced window.

    ``httpd.overhead_ms``: mean client round trip of a hit minus the mean
    server ``submit`` time of a hit (submits without a store-lookup child).
    ``unattributed_share``: the share of client-side HTTP time that no
    server span covers (accept, thread start, parsing, waiting for the GIL
    before the handler runs, the loopback hop).
    """
    with_lookup = {id(s.parent) for s in spans if s.name == "store.lookup"}
    hit_submits = [s.duration for s in spans if s.name == "service.submit" and id(s) not in with_lookup]
    hits = [r for r in window.requests if r.kind == "hit" and r.answered is not None]
    handled = sum(s.duration for s in spans if s.name == "httpd.request")
    return {
        "httpd.overhead_ms": (statistics.fmean(r.round_trip for r in hits)
                              - statistics.fmean(hit_submits)) * 1e3,
        "httpd.response_bytes": statistics.fmean(r.response_bytes for r in hits),
        "unattributed_share": (window.http_seconds - handled) / window.http_seconds,
    }


def check_answers(requests: List[Request], expected: Dict[int, Dict[str, Any]], ledger: ErrorLedger) -> None:
    """One ledger entry per request: failed, wrong, or right.

    A hit must equal the stored summary for its fingerprint; a miss must be
    a fresh search, and the first :data:`MISS_CHECKS` misses must equal a
    direct ``M3E.search`` of the same resolved payload.
    """
    sampled = 0
    for request in requests:
        if request.error is not None or request.result is None:
            ledger.check(False, request.error or f"seed {request.payload['seed']}: never answered")
            continue
        if request.kind == "hit":
            ok = bool(request.cached) and request.result == expected[request.payload["seed"]]
            ledger.check(ok, f"hit for seed {request.payload['seed']} differs from the stored summary")
            continue
        ok = request.cached is False
        if ok and sampled < MISS_CHECKS:
            sampled += 1
            payload, _ = resolve(request.payload)
            ok = request.result == direct_summary(payload).to_dict()
        ledger.check(ok, f"miss for seed {request.payload['seed']} differs from a direct search")
