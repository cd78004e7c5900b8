"""Perf smoke: mapping-service cache-hit latency and request throughput.

The point of the service layer is that repeated queries stop paying for the
GA: the first request runs a real search, every identical request afterwards
is answered from the persistent solution store, pinned in memory on its
first hit.  This benchmark records, to ``BENCH_service.json``:

* ``search_seconds`` — wall time of the initial (cache-miss) search;
* ``cache_hit_latency_ms`` (median + p95) — wall time of an identical
  repeat request, answered without invoking any optimizer;
* ``requests_per_second`` — sustained submit throughput over a burst of
  cached requests;
* ``hit_reply_speedup`` — time to render a hit's HTTP reply from scratch
  (``json.dumps(dict(status, result=summary.to_dict()), sort_keys=True)``)
  over the time of the reply path the frontend uses, which splices in the
  service's memoized result text (best of ``REPLY_ROUNDS`` rounds each).
  The answer is sized like a ``--scale small`` one (G=50, 800 samples, a
  ~17 KB reply) whatever the bench scale, since the result's size sets the
  ratio;
* ``http_hit_round_trip_ms_median`` — that answer's hit round trip through
  the HTTP frontend on localhost (information only, no floor);

and asserts the structural guarantees: hits are bit-identical to the stored
summary, run no further searches, and arrive orders of magnitude faster
than the search itself, and the memoized hit reply is byte-identical to one
rendered from scratch.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import time

from repro.service import MappingRequest, MappingService, serve_in_background
from repro.service.httpd import render_status_with_result

HIT_SAMPLES = 200
BURST = 1000
REPLY_ROUNDS = 15
REPLIES_PER_ROUND = 50
HTTP_HITS = 200
#: A hit sized like the answers a ``--scale small`` service stores.
REPLY_REQUEST = MappingRequest(task="mix", setting="S2", seed=1, group_size=50, budget=800)


def _best_round_seconds(render) -> float:
    """Best per-call time of *render* over ``REPLY_ROUNDS`` rounds."""
    best = float("inf")
    for _ in range(REPLY_ROUNDS):
        start = time.perf_counter()
        for _ in range(REPLIES_PER_ROUND):
            render()
        best = min(best, (time.perf_counter() - start) / REPLIES_PER_ROUND)
    return best


def _http_hit_round_trip_ms(service: MappingService, request: MappingRequest) -> float:
    """Median client round trip of a store hit through the HTTP frontend."""
    server, thread = serve_in_background(service)
    body = json.dumps(dataclasses.asdict(request))
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    try:
        round_trips = []
        for _ in range(HTTP_HITS):
            start = time.perf_counter()
            connection.request("POST", "/submit", body, {"Content-Type": "application/json"})
            response = connection.getresponse()
            reply = json.loads(response.read())
            round_trips.append(time.perf_counter() - start)
            assert response.status == 200 and reply["cached"] is True
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join()
    round_trips.sort()
    return round_trips[len(round_trips) // 2] * 1e3


def test_cache_hits_are_fast_and_bit_identical(scale, tmp_path, report_lines, write_bench_result):
    service = MappingService(
        store=str(tmp_path / "solutions.sqlite3"),
        warm_store=str(tmp_path / "warm.sqlite3"),
        scale=scale,
        workers=2,
    )
    try:
        request = MappingRequest(task="vision", setting="S2", seed=0)

        start = time.perf_counter()
        first = service.submit(request)
        reference = service.result(first.job_id, timeout=600)
        search_seconds = time.perf_counter() - start
        assert service.stats["searches_run"] == 1

        # Repeated identical requests: instant store hits, bit-identical.
        latencies = []
        for _ in range(HIT_SAMPLES):
            start = time.perf_counter()
            job = service.submit(request)
            latencies.append(time.perf_counter() - start)
            assert job.cached and job.state == "done"
            assert job.result.to_dict() == reference.to_dict()
        assert service.stats["searches_run"] == 1  # no optimizer ran again
        latencies.sort()
        median_ms = latencies[len(latencies) // 2] * 1e3
        p95_ms = latencies[int(len(latencies) * 0.95)] * 1e3

        # Sustained submit throughput over a burst of cached requests.
        start = time.perf_counter()
        for _ in range(BURST):
            service.submit(request)
        burst_seconds = time.perf_counter() - start
        requests_per_second = BURST / burst_seconds

        # "Milliseconds instead of a GA run": the median hit must undercut
        # the search by >=100x (in practice it is sub-millisecond), and the
        # service must sustain a healthy request rate single-threaded.
        assert median_ms / 1e3 < search_seconds / 100
        assert requests_per_second > 100

        # A hit's reply: rendered from scratch vs the memoized path.  Both
        # must produce the same bytes.
        solved = service.submit(REPLY_REQUEST)
        service.result(solved.job_id, timeout=600)
        job = service.submit(REPLY_REQUEST)
        assert job.cached
        status = job.status()

        def scratch() -> str:
            return json.dumps(dict(status, result=job.result.to_dict()), sort_keys=True)

        def memoized() -> str:
            return render_status_with_result(status, service.result_text(job))

        assert memoized() == scratch()
        reply_bytes = len(memoized().encode("utf-8"))
        scratch_s = _best_round_seconds(scratch)
        memoized_s = _best_round_seconds(memoized)
        hit_reply_speedup = scratch_s / memoized_s

        http_hit_ms = _http_hit_round_trip_ms(service, REPLY_REQUEST)
    finally:
        service.close()

    payload = {
        "scale": scale.name,
        "search_seconds": search_seconds,
        "cache_hit_latency_ms_median": median_ms,
        "cache_hit_latency_ms_p95": p95_ms,
        "hit_samples": HIT_SAMPLES,
        "burst_requests": BURST,
        "requests_per_second": requests_per_second,
        "speedup_vs_search": search_seconds / (median_ms / 1e3),
        "hit_reply_bytes": reply_bytes,
        "hit_reply_scratch_us": scratch_s * 1e6,
        "hit_reply_memoized_us": memoized_s * 1e6,
        "hit_reply_speedup": hit_reply_speedup,
        "http_hit_round_trip_ms_median": http_hit_ms,
    }
    write_bench_result("BENCH_service.json", payload)

    report_lines.append(
        f"[service] search {search_seconds:.2f}s -> cache hit {median_ms:.3f}ms median "
        f"(p95 {p95_ms:.3f}ms, {search_seconds / (median_ms / 1e3):.0f}x), "
        f"{requests_per_second:.0f} req/s sustained; hit reply {scratch_s * 1e6:.0f}us -> "
        f"{memoized_s * 1e6:.0f}us memoized ({hit_reply_speedup:.1f}x), "
        f"HTTP hit round trip {http_hit_ms:.2f}ms median"
    )
