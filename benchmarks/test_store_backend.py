"""Perf smoke: multi-replica service tier over a shared store backend.

The scaling claim behind the pluggable store backends: two ``repro-magma
serve`` replicas sharing one ``sqlite:`` store stay fast — and bit-identical
— when the store already holds 10⁵ solutions.  This benchmark records, to
``BENCH_store_backend.json``:

* ``seed_records_per_second`` — bulk-load rate for the 10⁵-record seed;
* ``lookup_latency_ms`` (median) — per-fingerprint lookup against the full
  store through the indexed backend;
* ``requests_per_second`` — sustained submit throughput across *two* live
  replicas under concurrent client threads;
* ``startup_index_speedup`` — the eager startup index the service used to
  build (``best_records("fingerprint")`` plus a
  :class:`~repro.utils.serialization.SearchResultSummary` per record) over
  the whole lazy ``MappingService`` constructor, which only lists the
  stored fingerprints (best of :data:`STARTUP_REPEATS` constructions);

and asserts the structural guarantee the tier is built on: the replica that
never ran the search answers the shared fingerprint bit-identically to the
one that did.
"""

from __future__ import annotations

import threading
import time

from repro.service import MappingRequest, MappingService, SolutionStore
from repro.utils.serialization import SearchResultSummary
from repro.utils.sqlite_store import SqliteStoreBackend

SEED_RECORDS = 100_000
LOOKUP_SAMPLES = 500
BURST_PER_CLIENT = 500
CLIENTS_PER_REPLICA = 2
STARTUP_REPEATS = 3


def _seed_record(index: int) -> dict:
    fitness = float(index % 997)
    return {
        "fingerprint": f"seed-{index:08d}",
        "request": {"task": "vision", "seed": index},
        "task_key": f"task{index % 13}/throughput",
        "result": {
            "optimizer_name": "MAGMA",
            "best_fitness": fitness,
            "objective_value": fitness,
            "throughput_gflops": fitness,
            "makespan_cycles": 100.0,
            "samples_used": 48,
            "best_encoding": [0.0, 1.0, 0.5, 0.25],
            "history": [fitness / 2, fitness],
        },
    }


def _service_startup_seconds(store_url: str, scale) -> float:
    start = time.perf_counter()
    service = MappingService(store=store_url, scale=scale, workers=2)
    seconds = time.perf_counter() - start
    try:
        assert service.healthz()["solutions"] == SEED_RECORDS
    finally:
        service.close()
    return seconds


def _eager_index_seconds(store_url: str) -> float:
    with SolutionStore(store_url) as store:
        start = time.perf_counter()
        index = {
            fingerprint: SearchResultSummary.from_dict(record["result"])
            for fingerprint, record in store.backend.best_records("fingerprint").items()
        }
        seconds = time.perf_counter() - start
    assert len(index) == SEED_RECORDS
    return seconds


def test_two_replicas_share_a_hundred_thousand_solution_store(
    scale, tmp_path, report_lines, write_bench_result
):
    store_url = f"sqlite:{tmp_path / 'shared.sqlite3'}"

    # Bulk-seed 10^5 solutions (one transaction batch at a time).
    backend = SqliteStoreBackend(str(tmp_path / "shared.sqlite3"))
    start = time.perf_counter()
    batch = 10_000
    for base in range(0, SEED_RECORDS, batch):
        backend.append_many([_seed_record(i) for i in range(base, base + batch)])
    seed_seconds = time.perf_counter() - start
    assert len(backend) == SEED_RECORDS

    # Indexed lookup latency against the full store.
    latencies = []
    step = SEED_RECORDS // LOOKUP_SAMPLES
    for i in range(0, SEED_RECORDS, step):
        begin = time.perf_counter()
        record = backend.lookup(f"seed-{i:08d}")
        latencies.append(time.perf_counter() - begin)
        assert record is not None
    backend.close()
    latencies.sort()
    lookup_ms = latencies[len(latencies) // 2] * 1e3

    # Service startup over the full store, lazy against eager.
    startup_s = min(_service_startup_seconds(store_url, scale) for _ in range(STARTUP_REPEATS))
    eager_s = _eager_index_seconds(store_url)

    replica_a = MappingService(
        store=store_url, scale=scale, workers=2, replica_id="bench-a"
    )
    replica_b = MappingService(
        store=store_url, scale=scale, workers=2, replica_id="bench-b"
    )
    try:
        request = MappingRequest(task="vision", setting="S2", seed=0)
        job = replica_a.submit(request)
        reference = replica_a.result(job.job_id, timeout=600)

        # The replica that never searched answers bit-identically from the
        # shared backend (the tier's correctness contract, at 10^5 scale).
        hit = replica_b.submit(request)
        assert hit.cached and hit.state == "done"
        assert hit.result.to_dict() == reference.to_dict()
        assert replica_b.stats["searches_run"] == 0

        # Sustained concurrent submit load across both replicas.
        errors = []

        def client(replica):
            try:
                for _ in range(BURST_PER_CLIENT):
                    submitted = replica.submit(request)
                    assert submitted.result.to_dict() == reference.to_dict()
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(replica,))
            for replica in (replica_a, replica_b)
            for _ in range(CLIENTS_PER_REPLICA)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        burst_seconds = time.perf_counter() - start
        assert not errors
        total_requests = BURST_PER_CLIENT * len(threads)
        requests_per_second = total_requests / burst_seconds
        assert requests_per_second > 100
        stored = len(replica_a.store)
    finally:
        replica_b.close()
        replica_a.close()

    assert stored >= SEED_RECORDS + 1  # the seed plus the one real search

    payload = {
        "scale": scale.name,
        "backend": "sqlite",
        "replicas": 2,
        "seed_records": SEED_RECORDS,
        "seed_seconds": seed_seconds,
        "seed_records_per_second": SEED_RECORDS / seed_seconds,
        "lookup_latency_ms_median": lookup_ms,
        "lookup_samples": LOOKUP_SAMPLES,
        "burst_requests": total_requests,
        "requests_per_second": requests_per_second,
        "stored_records": stored,
        "startup_seconds": startup_s,
        "eager_index_seconds": eager_s,
        "startup_index_speedup": eager_s / startup_s,
    }
    write_bench_result("BENCH_store_backend.json", payload)

    report_lines.append(
        f"[store-backend] seeded {SEED_RECORDS} records in {seed_seconds:.2f}s "
        f"({SEED_RECORDS / seed_seconds:.0f}/s), lookup {lookup_ms:.3f}ms median, "
        f"2 replicas sustained {requests_per_second:.0f} req/s, "
        f"startup {startup_s * 1e3:.1f}ms vs eager index {eager_s * 1e3:.0f}ms "
        f"({eager_s / startup_s:.1f}x)"
    )
