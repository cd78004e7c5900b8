"""Perf smoke: per-chunk overhead of the rpc backend's work-stealing dispatch.

The rpc speed bench measures whether a host fleet beats one core — a
property a single-core runner cannot demonstrate, so it skips-with-reason
there.  What *can* be measured anywhere is the coordinator-side cost the
rpc dispatcher adds around each chunk: the steal-queue pop, the per-chunk
bookkeeping, and the row-offset scatter.  This bench drives the real
:meth:`RpcEvaluationPool._dispatch` steal loop with stub clients whose
``evaluate`` returns instantly, so the measured wall time is pure dispatch
machinery, and floors the sustained chunk rate.  If per-chunk overhead ever
grows past the cost of evaluating a small chunk, stealing would stop paying
for itself — that is the regression this gate exists to catch.  (The
``parallel`` backend does not steal: it sends one shard per lane.)
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.core.parallel import EvaluatorSpec
from repro.core.rpc import RpcEvaluationPool, split_chunks
from repro.workloads import TaskType, build_task_workload

#: Minimum accepted sustained dispatch rate (chunks through the steal loop
#: per second, two stub workers).  Dev-box measurement is tens of thousands
#: per second; the floor is ~0.5 ms of coordinator overhead per chunk —
#: the break-even point against evaluating a 16-row chunk locally.
MIN_CHUNKS_PER_SECOND = 2000.0

NUM_ROWS = 4096
CHUNK_ROWS = 16
REPEATS = 5
RESULT_FILE = "BENCH_dispatch_overhead.json"


class _InstantClient:
    """Duck-typed stand-in for a connected worker: replies in zero work."""

    host = "stub"
    port = 0

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        return np.zeros(len(rows))


def test_dispatch_overhead_per_chunk(report_lines):
    platform = build_setting("S2", 16.0)
    group = build_task_workload(
        TaskType.MIX, group_size=10, seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    spec = EvaluatorSpec.capture(
        evaluator.codec, evaluator.batch_allocator, evaluator.table, evaluator.objective
    )
    pool = RpcEvaluationPool(spec, hosts=None, token="bench-token")
    rows = np.zeros((NUM_ROWS, evaluator.codec.encoding_length))
    chunks = split_chunks(NUM_ROWS, CHUNK_ROWS)
    clients = [_InstantClient(), _InstantClient()]

    pool._dispatch(rows, chunks, clients)  # warm-up (thread machinery, caches)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = pool._dispatch(rows, chunks, clients)
        best = min(best, time.perf_counter() - start)
    assert np.array_equal(out, np.zeros(NUM_ROWS))

    chunks_per_second = len(chunks) / best
    per_chunk_overhead_us = best / len(chunks) * 1e6

    record = {
        "num_rows": NUM_ROWS,
        "chunk_rows": CHUNK_ROWS,
        "num_chunks": len(chunks),
        "num_stub_workers": len(clients),
        "seconds": best,
        "chunks_per_second": chunks_per_second,
        "per_chunk_overhead_us": per_chunk_overhead_us,
        "min_chunks_per_second": MIN_CHUNKS_PER_SECOND,
    }
    with open(RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    report_lines.append(
        f"dispatch overhead: {per_chunk_overhead_us:.0f} us/chunk "
        f"({chunks_per_second:.0f} chunks/s through the steal loop, "
        f"{len(chunks)} chunks x {CHUNK_ROWS} rows)"
    )

    assert chunks_per_second >= MIN_CHUNKS_PER_SECOND, (
        f"dispatch machinery only {chunks_per_second:.0f} chunks/s "
        f"({per_chunk_overhead_us:.0f} us per chunk); "
        f"expected >= {MIN_CHUNKS_PER_SECOND:.0f} chunks/s"
    )
