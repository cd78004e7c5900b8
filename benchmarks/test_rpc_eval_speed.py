"""Perf smoke: the multi-host RPC backend vs the single-process batch sweep.

Spawns real ``repro-magma eval-worker`` *subprocesses* on localhost (the same
code path a remote host would run), evaluates the same 200-individual
population through the ``batch`` backend and through ``rpc`` with a warm
fleet, records the wall times and achieved speedup to
``BENCH_rpc_eval.json``, and asserts the sharded path is at least 1.5x
faster.  Mirrors ``test_parallel_eval_speed.py`` / ``BENCH_parallel_eval.json``
(the bar is lower than the process pool's 2x because every shard also pays
pickling + TCP, which on localhost is pure overhead — across real hosts it
buys memory and cores the coordinator does not have).

Like the parallel benchmark, this skips (with a recorded reason) on
single-core runners, where workers would timeshare one core; the rpc
backend's correctness is covered by the machine-agnostic equivalence tests
in ``tests/core/test_rpc_eval.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.workloads import TaskType, build_task_workload

#: Minimum accepted rpc-vs-batch speedup on a 200-individual population.
MIN_SPEEDUP = 1.5

POPULATION_SIZE = 200
GROUP_SIZE = 200
SETTING = "S6"  # 16 cores: wide per-event state, the shard-friendly regime
BANDWIDTH_GBPS = 256.0
RESULT_FILE = "BENCH_rpc_eval.json"
TOKEN = "bench-token"


def _record(payload: dict) -> None:
    with open(RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _best_of(callable_, repeats: int = 3) -> float:
    """Best-of-N wall time, the usual cheap noise guard for smoke perf tests."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _spawn_worker() -> tuple[subprocess.Popen, str]:
    """Start one eval-worker subprocess on an ephemeral port; return its address."""
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "eval-worker",
         "--listen", "127.0.0.1:0", "--token", TOKEN],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        bufsize=1,
    )
    line = process.stdout.readline()
    if "listening on" not in line:
        process.kill()
        stderr = process.stderr.read()
        raise RuntimeError(f"eval-worker failed to start: {line!r}\n{stderr}")
    return process, line.rsplit(" ", 1)[-1].strip()


def test_rpc_backend_at_least_1_5x_faster(report_lines):
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        reason = (
            f"rpc speedup needs >=2 CPU cores, runner has {cpu_count}; "
            "localhost workers would timeshare one core"
        )
        _record({
            "setting": SETTING,
            "bandwidth_gbps": BANDWIDTH_GBPS,
            "group_size": GROUP_SIZE,
            "population_size": POPULATION_SIZE,
            "cpu_count": cpu_count,
            "status": "skipped",
            "skip_reason": reason,
            "min_required_speedup": MIN_SPEEDUP,
        })
        report_lines.append(f"rpc-eval speedup: skipped ({reason})")
        pytest.skip(reason)

    num_workers = min(cpu_count, 4)
    workers = [_spawn_worker() for _ in range(num_workers)]
    try:
        platform = build_setting(SETTING, BANDWIDTH_GBPS)
        group = build_task_workload(
            TaskType.MIX,
            group_size=GROUP_SIZE,
            seed=0,
            num_sub_accelerators=platform.num_sub_accelerators,
        )[0]
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = MappingEvaluator(
            group, platform, analysis_table=batch.table,
            eval_config=EvalConfig(
                backend="rpc", hosts=[address for _, address in workers], rpc_token=TOKEN
            ),
        )
        population = batch.codec.random_population(POPULATION_SIZE, rng=0)

        # Warm both paths (imports, allocator state, worker bootstrap) outside
        # the timed region, and verify bitwise equivalence before timing.
        assert rpc._pool.warm_up() == num_workers
        warm_batch = batch.evaluate_population(population, count_samples=False)
        warm_rpc = rpc.evaluate_population(population, count_samples=False)
        assert np.array_equal(warm_batch, warm_rpc)

        # Clear the memo cache before every timed run so the simulation cost
        # (not a cache hit) is what gets measured; the fleet connections stay
        # warm, exactly as they would across the generations of a real search.
        def run_batch():
            batch._fitness_cache.clear()
            batch.evaluate_population(population, count_samples=False)

        def run_rpc():
            rpc._fitness_cache.clear()
            rpc.evaluate_population(population, count_samples=False)

        batch_seconds = _best_of(run_batch)
        rpc_seconds = _best_of(run_rpc)
        rpc.close()
    finally:
        for process, _ in workers:
            process.kill()
        for process, _ in workers:
            process.wait(timeout=10)
    speedup = batch_seconds / rpc_seconds

    _record({
        "setting": SETTING,
        "bandwidth_gbps": BANDWIDTH_GBPS,
        "group_size": GROUP_SIZE,
        "population_size": POPULATION_SIZE,
        "cpu_count": cpu_count,
        "num_workers": num_workers,
        "status": "measured",
        "batch_seconds": batch_seconds,
        "rpc_seconds": rpc_seconds,
        "speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
    })
    report_lines.append(
        f"rpc-eval speedup: {speedup:.1f}x with {num_workers} localhost workers "
        f"(batch {batch_seconds*1e3:.1f} ms vs rpc {rpc_seconds*1e3:.1f} ms, "
        f"{POPULATION_SIZE} individuals)"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"rpc backend only {speedup:.2f}x faster than batch "
        f"({batch_seconds:.4f}s vs {rpc_seconds:.4f}s) with {num_workers} "
        f"localhost workers; expected >= {MIN_SPEEDUP}x"
    )
