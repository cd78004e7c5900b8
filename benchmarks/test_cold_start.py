"""Perf smoke: a fresh process loads only the modules a batch search runs.

Records, to ``BENCH_cold_start.json``, ``setup_speedup``: the launch-to-ready
time of a process that imports every module the package loaded up front
before the optimizer registry and the pool became lazy (the process pool
with :mod:`multiprocessing`, the baseline and RL optimizers, the warm-start
engine and the tuner), over the time of one that imports what
``perfbench/setup_probe.py`` imports.  Both then do the probe's work (an
S6 platform, an S6/G=200 group and its Job Analysis Table) and print
``ready``; the time is taken from launch to that line.

Launches alternate between the two arms, :data:`PAIRS` times, after one
untimed launch of each; the ratio is the median of the per-pair ratios, so
a change in the host's speed lands on both arms of a pair.  The reported
times are each arm's median.  A host that writes bytecode caches (no
``PYTHONDONTWRITEBYTECODE``) compiles nothing after the untimed launches and
reads a smaller ratio than one that compiles every launch.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

RESULT_FILE = "BENCH_cold_start.json"
PAIRS = 12

#: Floor, from 12 standalone runs on a 2-vCPU host that sets
#: PYTHONDONTWRITEBYTECODE=1, which read 1.12-1.15 (docs/PERFORMANCE.md,
#: "Cold start"); the tree before lazy loading reads 0.98-1.0.
MIN_SETUP_SPEEDUP = 1.06

#: What the set-up probe does after its imports.
PROBE_STEPS = """
platform = build_setting("S6", 256.0)
group = build_task_workload(
    TaskType.MIX, group_size=200, num_groups=1, seed=0,
    num_sub_accelerators=platform.num_sub_accelerators,
)[0]
M3E(platform).analyze(group)
print("ready", flush=True)
"""

LAZY = """
import repro.optimizers
from repro.accelerator import build_setting
from repro.core.framework import M3E
from repro.workloads.benchmark import TaskType, build_task_workload
""" + PROBE_STEPS

#: The modules the package no longer loads before a batch search.
EAGER = """
import repro.core.parallel
import repro.optimizers.heuristics, repro.optimizers.rl
import repro.optimizers.cmaes, repro.optimizers.de, repro.optimizers.pso
import repro.optimizers.random_search, repro.optimizers.stdga, repro.optimizers.tbpsa
import repro.optimizers.hyperparams, repro.optimizers.warmstart
""" + LAZY


def _launch(script: str, env: dict) -> float:
    """Seconds from launching ``python -c script`` to its ``ready`` line."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
    ) as process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        process.communicate(timeout=120)
    assert line.strip() == "ready" and process.returncode == 0, (line, process.returncode)
    return elapsed


def test_cold_start_loads_only_what_a_batch_search_runs(report_lines, write_bench_result):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    _launch(EAGER, env)
    _launch(LAZY, env)
    eager_s, lazy_s, ratios = [], [], []
    for index in range(PAIRS):
        times = {}
        for name, script in (("eager", EAGER), ("lazy", LAZY))[:: 1 if index % 2 else -1]:
            times[name] = _launch(script, env)
        eager_s.append(times["eager"])
        lazy_s.append(times["lazy"])
        ratios.append(times["eager"] / times["lazy"])
    record = {
        "pairs": PAIRS,
        "eager_ms": statistics.median(eager_s) * 1e3,
        "lazy_ms": statistics.median(lazy_s) * 1e3,
        "setup_speedup": statistics.median(ratios),
        "bytecode_cache_writes": not sys.flags.dont_write_bytecode,
        "min_setup_speedup": MIN_SETUP_SPEEDUP,
    }
    write_bench_result(RESULT_FILE, record)
    report_lines.append(
        f"S6 G=200 set-up probe, launch to ready: eager imports {record['eager_ms']:.0f} ms, "
        f"batch-search imports {record['lazy_ms']:.0f} ms ({record['setup_speedup']:.3f}x, "
        f"median of {PAIRS} alternating pairs)"
    )
    assert record["setup_speedup"] >= MIN_SETUP_SPEEDUP, record
