"""Perf smoke: telemetry must be (almost) free on the batch hot path.

Runs the same population sweep untraced and traced (tracer enabled with a
JSONL sink, flight recorder riding the span hooks) and records the ratio to
``BENCH_obs_overhead.json``.  The ISSUE's contract is <5% overhead on the
batch hot path; the gated floor is ``traced_ratio >= 0.95`` (traced runs at
no less than 95% of untraced speed).  Metrics are always on in both arms —
the measured delta is the *tracing* machinery (span allocation, ring
appends, sink writes), which is exactly what ``--trace`` adds.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.obs import configure_tracing, get_tracer
from repro.workloads import TaskType, build_task_workload
from test_parallel_eval_speed import _best_of

#: Traced must run at >= this fraction of untraced speed (0.95 == <5% overhead).
MIN_TRACED_RATIO = 0.95

#: Sized so one sweep takes tens of milliseconds: scheduler jitter on shared
#: runners is ~1 ms, which must stay well under the 5% band being asserted.
POPULATION_SIZE = 500
GROUP_SIZE = 20
SETTING = "S2"
BANDWIDTH_GBPS = 16.0
SWEEPS = 8
REPEATS = 5

#: Each arm's time is its best sweep over at least this many seconds (and
#: at least 3 sweeps), so one stall of the host cannot decide a pair.
MIN_ARM_SECONDS = 0.5


def test_tracing_overhead_under_five_percent(report_lines, tmp_path, write_bench_result):
    platform = build_setting(SETTING, BANDWIDTH_GBPS)
    group = build_task_workload(
        TaskType.MIX,
        group_size=GROUP_SIZE,
        seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    rng = np.random.default_rng(0)
    populations = [
        evaluator.codec.random_population(POPULATION_SIZE, rng=rng) for _ in range(SWEEPS)
    ]

    def sweep():
        for population in populations:
            evaluator.evaluate_population(population, count_samples=False)

    sweep()  # warm-up (imports, allocator state) outside the timed region

    # Measure the arms back-to-back in pairs, alternating which goes first,
    # and score each pair by its own ratio: CPU frequency / cache drift then
    # cancels within the pair instead of being baked into the ratio as a
    # phantom overhead.  The best pair is the cleanest look at the true cost.
    def timed_sweep():
        return _best_of(sweep, min_seconds=MIN_ARM_SECONDS)

    def traced_sweep():
        configure_tracing(enabled=True, sink_path=str(tmp_path / "bench_trace.jsonl"))
        try:
            return timed_sweep()
        finally:
            configure_tracing(enabled=False, sink_path=None)

    traced_ratio = 0.0
    untraced_seconds = traced_seconds = float("nan")
    try:
        for repeat in range(REPEATS):
            if repeat % 2 == 0:
                traced = traced_sweep()
                untraced = timed_sweep()
            else:
                untraced = timed_sweep()
                traced = traced_sweep()
            if untraced / traced > traced_ratio:
                traced_ratio = untraced / traced
                untraced_seconds, traced_seconds = untraced, traced
    finally:
        configure_tracing(enabled=False, sink_path=None)
        get_tracer().clear()

    record = {
        "setting": SETTING,
        "bandwidth_gbps": BANDWIDTH_GBPS,
        "group_size": GROUP_SIZE,
        "population_size": POPULATION_SIZE,
        "sweeps": SWEEPS,
        "repeats": REPEATS,
        "min_arm_seconds": MIN_ARM_SECONDS,
        "untraced_seconds": untraced_seconds,
        "traced_seconds": traced_seconds,
        "traced_ratio": traced_ratio,
        "min_required_ratio": MIN_TRACED_RATIO,
    }
    write_bench_result("BENCH_obs_overhead.json", record)
    report_lines.append(
        f"obs overhead: traced at {traced_ratio:.3f}x untraced speed "
        f"(untraced {untraced_seconds*1e3:.1f} ms vs traced {traced_seconds*1e3:.1f} ms, "
        f"{SWEEPS}x{POPULATION_SIZE} rows)"
    )

    assert traced_ratio >= MIN_TRACED_RATIO, (
        f"tracing costs more than its budget: traced runs at {traced_ratio:.3f}x "
        f"untraced speed ({traced_seconds:.4f}s vs {untraced_seconds:.4f}s); "
        f"expected >= {MIN_TRACED_RATIO}"
    )
