"""Profile the batched bandwidth event-sweep kernel (docs/PERFORMANCE.md).

Runs the hot loop of :class:`~repro.core.bw_allocator.BatchBandwidthAllocator`
under ``cProfile`` plus a wall-clock sweep over population sizes and settings,
printing a per-setting measurement table and (optionally) dumping the raw
profile stats for the CI artifact::

    PYTHONPATH=src python benchmarks/profile_kernel.py --out kernel_profile.txt

This is the measurement half of the ROADMAP item-3 raw-speed pass: measure
the kernel first, then apply targeted fixes, then measure again — the
before/after table lives in docs/PERFORMANCE.md and the step-rate floor is
gated by ``benchmarks/test_kernel_sweep.py`` -> ``BENCH_kernel_sweep.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import time
from typing import List, Tuple

import numpy as np

from repro.accelerator import build_setting
from repro.core.bw_allocator import BatchBandwidthAllocator
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.workloads import TaskType, build_task_workload

#: (setting, bandwidth GB/s, group size) grid of kernel measurement points.
SWEEP_POINTS: List[Tuple[str, float, int]] = [
    ("S2", 16.0, 20),
    ("S6", 256.0, 64),
    ("S6", 256.0, 200),  # perfbench search_large's problem
]

#: 80 is the search shape: MAGMA scores 80 children per generation.
POPULATION_SIZES = (32, 80, 128, 512)


def build_problem(setting: str, bandwidth: float, group_size: int):
    """One (platform, codec, allocator, table, repaired population builder)."""
    platform = build_setting(setting, bandwidth)
    group = build_task_workload(
        TaskType.MIX,
        group_size=group_size,
        seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    return platform, evaluator


def measure_point(setting: str, bandwidth: float, group_size: int, pop: int,
                  repeats: int = 5) -> dict:
    """Best-of-N kernel wall time and derived rates for one sweep point."""
    platform, evaluator = build_problem(setting, bandwidth, group_size)
    allocator = BatchBandwidthAllocator(
        system_bandwidth_gbps=platform.system_bandwidth_gbps,
        frequency_hz=platform.sub_accelerators[0].frequency_hz,
    )
    rows = evaluator.codec.repair_batch(evaluator.codec.random_population(pop, rng=0))
    batch = evaluator.codec.decode_batch(rows)
    allocator.makespan_cycles(batch, evaluator.table)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        allocator.makespan_cycles(batch, evaluator.table)
        best = min(best, time.perf_counter() - start)
    # Every individual sees ~group_size completion events, so row-events is
    # the natural unit of kernel work (each event is one vectorized step).
    row_events = pop * group_size
    return {
        "setting": setting,
        "bandwidth_gbps": bandwidth,
        "group_size": group_size,
        "population": pop,
        "cores": platform.num_sub_accelerators,
        "seconds": best,
        "row_events_per_second": row_events / best,
        "rows_per_second": pop / best,
    }


def run_sweep() -> List[dict]:
    results = []
    for setting, bandwidth, group_size in SWEEP_POINTS:
        for pop in POPULATION_SIZES:
            results.append(measure_point(setting, bandwidth, group_size, pop))
    return results


def profile_kernel(setting: str = "S2", bandwidth: float = 16.0,
                   group_size: int = 20, pop: int = 512) -> str:
    """cProfile the kernel sweep; returns the cumulative-time stats text."""
    platform, evaluator = build_problem(setting, bandwidth, group_size)
    allocator = BatchBandwidthAllocator(
        system_bandwidth_gbps=platform.system_bandwidth_gbps,
        frequency_hz=platform.sub_accelerators[0].frequency_hz,
    )
    rows = evaluator.codec.repair_batch(evaluator.codec.random_population(pop, rng=0))
    batch = evaluator.codec.decode_batch(rows)
    allocator.makespan_cycles(batch, evaluator.table)  # warm-up
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(5):
        allocator.makespan_cycles(batch, evaluator.table)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    return buffer.getvalue()


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the table + cProfile stats to FILE")
    args = parser.parse_args(argv)

    lines = []
    header = (f"{'setting':>8} {'cores':>6} {'G':>4} {'pop':>6} "
              f"{'ms':>9} {'rows/s':>12} {'row-events/s':>14}")
    lines.append(header)
    lines.append("-" * len(header))
    for point in run_sweep():
        lines.append(
            f"{point['setting']:>8} {point['cores']:>6} {point['group_size']:>4} "
            f"{point['population']:>6} {point['seconds'] * 1e3:>9.2f} "
            f"{point['rows_per_second']:>12.0f} {point['row_events_per_second']:>14.0f}"
        )
    table = "\n".join(lines)
    print(table)
    profile_text = profile_kernel()
    print("\ncProfile (S2, pop=512, 5 sweeps, top 25 by cumulative time):")
    print(profile_text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table + "\n\n" + profile_text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
