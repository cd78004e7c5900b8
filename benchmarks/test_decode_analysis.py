"""Perf smoke: the two-sort batch decode and the process-wide profile memo.

Records, to ``BENCH_decode_analysis.json``:

* ``decode_speedup`` — the three-sort batch decode the codec used before
  (copied below as :func:`three_sort_decode`: a stable priority argsort,
  which on rows longer than 32 is an argsort plus a tie-repair sort, then a
  sort of ``(core, rank)`` keys) over :meth:`MappingCodec.decode_batch`,
  which ranks the priorities densely and needs one sort of ``(core, rank,
  job)`` keys after the argsort.  Both decode the same pop-80 S6/G=200
  rows, the shape a ``search_large`` generation decodes, and must agree.
* ``reanalyze_speedup`` — the process's first analysis of an S6/G=200 group
  (the layer-profile memo emptied first) over analysing a permutation of
  that group in a fresh :class:`~repro.core.framework.M3E`, which finds
  every (layer, hardware) profile in the memo and builds the table by fancy
  indexing.

Each ratio is the median of per-pair ratios: the two arms run back to
back, in alternating order, :data:`DECODE_PAIRS` and :data:`ANALYSIS_PAIRS`
times.  The reported times are each arm's median.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.accelerator import build_setting
from repro.core import analyzer as analyzer_module
from repro.core.encoding import MappingBatch, MappingCodec
from repro.core.framework import M3E
from repro.workloads import TaskType, build_task_workload
from repro.workloads.groups import JobGroup

RESULT_FILE = "BENCH_decode_analysis.json"
GROUP_SIZE = 200
POPULATION_SIZE = 80
DECODE_PAIRS = 600
ANALYSIS_PAIRS = 15

#: Floors, from 12 standalone runs on a 2-vCPU host (docs/PERFORMANCE.md):
#: ``decode_speedup`` read 1.30-1.36, where the three-sort decode itself
#: reads 1.0; ``reanalyze_speedup`` read 7.7-8.9, where analyzers that each
#: profile every (job, core) pair read ~1.0 (14-20 ms against 15-16 ms).
MIN_DECODE_SPEEDUP = 1.15
MIN_REANALYZE_SPEEDUP = 3.0


def three_sort_decode(codec: MappingCodec, repaired: np.ndarray) -> MappingBatch:
    """The batch decode as it was before dense ranks: three sorts per call."""
    pop = repaired.shape[0]
    num_jobs, num_cores = codec.num_jobs, codec.num_sub_accelerators
    row_base = np.arange(pop)[:, None] * num_jobs
    priority = repaired[:, num_jobs:]
    order = np.argsort(priority, axis=1)
    ranked = np.take_along_axis(priority, order, axis=1)
    column_bits = (num_jobs - 1).bit_length()
    runs = np.zeros(order.shape, dtype=np.int32)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=runs[:, 1:])
    np.cumsum(runs, axis=1, out=runs)
    runs <<= column_bits
    runs |= order
    runs.sort(axis=1)
    runs &= (1 << column_bits) - 1
    order = runs.astype(np.intp)
    flat_order = order + row_base
    rank_bits = (num_jobs - 1).bit_length()
    cores = repaired[:, :num_jobs].astype(np.int32)
    keys = cores.take(flat_order) << rank_bits
    keys |= np.arange(num_jobs, dtype=np.int32)
    keys.sort(axis=1)
    lane_cores = keys >> rank_bits
    keys &= (1 << rank_bits) - 1
    lane_order = order.take(keys + row_base)
    queue_lengths = np.bincount(
        (cores + np.arange(pop)[:, None] * num_cores).reshape(-1), minlength=pop * num_cores
    ).reshape(pop, num_cores)
    return MappingBatch(
        lane_order=lane_order, lane_cores=lane_cores, queue_lengths=queue_lengths, num_jobs=num_jobs
    )


def _paired(slow, fast, pairs: int) -> tuple:
    """Median times of two arms and the median of their per-pair ratios.

    Each arm is called with the pair's index.  The arms run back to back in
    alternating order, so a change in the host's speed lands on both arms
    of a pair and cancels in its ratio.
    """
    slow_s, fast_s, ratios = [], [], []
    for index in range(pairs):
        times = {}
        for arm in ((slow, fast) if index % 2 else (fast, slow)):
            start = time.perf_counter()
            arm(index)
            times[arm] = time.perf_counter() - start
        slow_s.append(times[slow])
        fast_s.append(times[fast])
        ratios.append(times[slow] / times[fast])
    return statistics.median(slow_s), statistics.median(fast_s), statistics.median(ratios)


def _decode_times(platform, group) -> tuple:
    codec = MappingCodec(num_jobs=group.size, num_sub_accelerators=platform.num_sub_accelerators)
    populations = [
        codec.repair_batch(codec.random_population(POPULATION_SIZE, rng=seed)) for seed in range(8)
    ]
    for rows in populations:
        old, new = three_sort_decode(codec, rows), codec.decode_batch(rows)
        assert np.array_equal(old.lane_order, new.lane_order)
        assert np.array_equal(old.lane_cores, new.lane_cores)
        assert np.array_equal(old.queue_lengths, new.queue_lengths)
    return _paired(
        lambda index: three_sort_decode(codec, populations[index % len(populations)]),
        lambda index: codec.decode_batch(populations[index % len(populations)]),
        DECODE_PAIRS,
    )


def _analysis_times(platform, group, monkeypatch) -> tuple:
    permuted = JobGroup(group_id=group.group_id, jobs=tuple(reversed(group.jobs)))
    cold = M3E(platform).analyze(group)
    warm = M3E(platform).analyze(permuted)
    assert warm.latency_cycles.tobytes() == cold.latency_cycles[::-1].tobytes()

    def first_analyze(index):
        with monkeypatch.context() as patch:
            patch.setattr(analyzer_module, "_LAYER_PROFILES", {})
            M3E(platform).analyze(group)

    return _paired(first_analyze, lambda index: M3E(platform).analyze(permuted), ANALYSIS_PAIRS)


def test_decode_and_reanalysis_speedups(report_lines, write_bench_result, monkeypatch):
    platform = build_setting("S6", 256.0)
    group = build_task_workload(
        TaskType.MIX, group_size=GROUP_SIZE, seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    three_sort_s, two_sort_s, decode_speedup = _decode_times(platform, group)
    first_s, reanalyze_s, reanalyze_speedup = _analysis_times(platform, group, monkeypatch)
    record = {
        "group_size": GROUP_SIZE,
        "population_size": POPULATION_SIZE,
        "three_sort_decode_us": three_sort_s * 1e6,
        "decode_us": two_sort_s * 1e6,
        "decode_speedup": decode_speedup,
        "first_analyze_ms": first_s * 1e3,
        "reanalyze_ms": reanalyze_s * 1e3,
        "reanalyze_speedup": reanalyze_speedup,
        "min_decode_speedup": MIN_DECODE_SPEEDUP,
        "min_reanalyze_speedup": MIN_REANALYZE_SPEEDUP,
    }
    write_bench_result(RESULT_FILE, record)
    report_lines.append(
        f"S6 G={GROUP_SIZE} pop-{POPULATION_SIZE} decode: three sorts "
        f"{record['three_sort_decode_us']:.0f} us, two sorts {record['decode_us']:.0f} us "
        f"({record['decode_speedup']:.2f}x)"
    )
    report_lines.append(
        f"S6 G={GROUP_SIZE} analysis: first {record['first_analyze_ms']:.1f} ms, "
        f"permuted group in a fresh M3E {record['reanalyze_ms']:.2f} ms "
        f"({record['reanalyze_speedup']:.1f}x)"
    )
    assert record["decode_speedup"] >= MIN_DECODE_SPEEDUP, record
    assert record["reanalyze_speedup"] >= MIN_REANALYZE_SPEEDUP, record
