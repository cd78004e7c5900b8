"""Profile the batched bandwidth-allocation kernel (docs/PERFORMANCE.md).

Runs :meth:`~repro.core.bw_allocator.BatchBandwidthAllocator.makespan_cycles`
under ``cProfile`` plus a wall-clock sweep over population sizes and settings,
printing a per-setting measurement table and (optionally) dumping the raw
profile stats for the CI artifact::

    PYTHONPATH=src python benchmarks/profile_kernel.py --out kernel_profile.txt

This is the measurement half of the ROADMAP item-3 raw-speed pass: measure
the kernel first, then apply targeted fixes, then measure again — the
before/after table lives in docs/PERFORMANCE.md and the rate floors are
gated by ``benchmarks/test_kernel_sweep.py`` -> ``BENCH_kernel_sweep.json``.

It also splits one MAGMA generation (population 100, 80 children) into
breed / repair / decode / kernel / score at the two perfbench search
shapes; the five parts add up to the generation's wall time.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.accelerator import build_setting
from repro.core.bw_allocator import BatchBandwidthAllocator
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.optimizers.magma import MagmaOptimizer
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
    # Every individual has group_size completion events, so row-events is
    # the natural unit of kernel work.
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


#: (setting, bandwidth GB/s, group size) of the per-generation split:
#: perfbench's search_small and search_large problems.
GENERATION_POINTS: List[Tuple[str, float, int]] = [
    ("S2", 16.0, 20),
    ("S6", 256.0, 200),
]

#: The parts of one generation, in the order they run.
GENERATION_PARTS = ("breed", "repair", "decode", "kernel", "score")


def generation_split(setting: str, bandwidth: float, group_size: int,
                     generations: int = 40, blocks: int = 7) -> Dict[str, float]:
    """Per-generation microseconds of each part of a MAGMA generation.

    Runs *blocks* searches of *generations* timed generations each (after 3
    warm-up ones) and keeps the block with the least wall time.  ``breed``
    is ``_next_generation`` minus ``evaluate_population``; ``repair``,
    ``decode`` and ``kernel`` are the codec's and the batch allocator's
    calls inside it, and ``score`` is the rest of ``evaluate_population``
    (objective, budget and history bookkeeping), so the parts add up to
    ``total``.
    """
    _, evaluator = build_problem(setting, bandwidth, group_size)
    seconds: Dict[str, float] = {}

    def timed(owner: object, attr: str, part: str) -> None:
        original: Callable = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[part] = seconds.get(part, 0.0) + time.perf_counter() - start

        setattr(owner, attr, wrapper)

    timed(evaluator.codec, "repair_batch", "repair")
    timed(evaluator.codec, "decode_batch", "decode")
    timed(evaluator.batch_allocator, "makespan_cycles", "kernel")
    timed(evaluator, "evaluate_population", "evaluate")
    best: Dict[str, float] = {}
    for block in range(blocks):
        optimizer = MagmaOptimizer(seed=block)
        population = optimizer._initial_population(evaluator, optimizer.config.population_size, None)
        fitnesses = evaluator.evaluate_population(population)
        for _ in range(3):
            population, fitnesses = optimizer._next_generation(evaluator, population, fitnesses)
        seconds.clear()
        start = time.perf_counter()
        for _ in range(generations):
            population, fitnesses = optimizer._next_generation(evaluator, population, fitnesses)
        total = time.perf_counter() - start
        if not best or total < best["total"]:
            simulate = seconds["repair"] + seconds["decode"] + seconds["kernel"]
            best = {
                "breed": total - seconds["evaluate"],
                "repair": seconds["repair"],
                "decode": seconds["decode"],
                "kernel": seconds["kernel"],
                "score": seconds["evaluate"] - simulate,
                "total": total,
            }
    return {part: value / generations * 1e6 for part, value in best.items()}


def generation_table() -> str:
    """The per-generation split at every :data:`GENERATION_POINTS` problem."""
    header = f"{'setting':>8} {'G':>4} " + " ".join(f"{part:>8}" for part in GENERATION_PARTS)
    header += f" {'total':>8}  (us per generation)"
    lines = [header, "-" * len(header)]
    for setting, bandwidth, group_size in GENERATION_POINTS:
        split = generation_split(setting, bandwidth, group_size)
        lines.append(
            f"{setting:>8} {group_size:>4} "
            + " ".join(f"{split[part]:>8.1f}" for part in GENERATION_PARTS)
            + f" {split['total']:>8.1f}"
        )
    return "\n".join(lines)


def profile_kernel(setting: str = "S2", bandwidth: float = 16.0,
                   group_size: int = 20, pop: int = 512) -> str:
    """cProfile the kernel; returns the cumulative-time stats text."""
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
    table = "\n".join(lines) + "\n\nMAGMA generation, population 100:\n" + generation_table()
    print(table)
    profile_text = profile_kernel()
    print("\ncProfile (S2, pop=512, 5 calls, top 25 by cumulative time):")
    print(profile_text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table + "\n\n" + profile_text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
