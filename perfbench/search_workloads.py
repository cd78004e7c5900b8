"""search_small, search_large and fleet_large: closed loops of MAGMA searches.

Every search runs MAGMA with its default config (population 100) at the
paper's 10 000-sample budget on the workload's Mix job group, one search at
a time in this process.  Search *i* takes its job order and optimizer seed
from ``(workload seed, i)``, so search_large and fleet_large see identical
inputs: per seed their results must be equal, and the ratio of their
evals_per_s is the fleet speedup.
"""

from __future__ import annotations

import functools
import gc
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    ErrorLedger, Outcome, SpanRecorder, host_scale, own_peak_rss_mb, percentile, reference_seconds,
)
from layers import (
    COUNTERS, attributed_seconds, counter_delta, installed, layer_metrics, read_counters, traced_layers,
)


@dataclass(frozen=True)
class SearchWorkload:
    setting: str
    bandwidth_gbps: float
    group_size: int
    backend: str
    workers: Optional[int] = None


WORKLOADS: Dict[str, SearchWorkload] = {
    # Few kernel events per row: the Python operator loop and memo dominate.
    "search_small": SearchWorkload("S2", 16.0, 20, "batch"),
    # The event-sweep kernel and decode dominate; memo hits are ~0%.
    "search_large": SearchWorkload("S6", 256.0, 200, "batch"),
    # search_large's inputs through the 2-worker process pool.
    "fleet_large": SearchWorkload("S6", 256.0, 200, "parallel", workers=2),
}

#: The paper's sampling budget per search (Section VI-B).
BUDGET = 10_000

#: Every search of a workload maps the same multiset of jobs (the first Mix
#: group the generator gives for this seed); the run's seed draws their
#: order and the optimizer seed.  Two G=200 Mix groups drawn from different
#: seeds differ by up to 1.8x in best throughput and 1.3x in search time,
#: which would drown any change in the seed-to-seed spread.
BASE_GROUP_SEED = 0

#: best_gflops_mean averages the first this-many searches of a run: a fixed
#: set, so the figure is deterministic for a seed however fast the host is.
QUALITY_SEARCHES = 3

#: The tail of one search's ~124 generations: the highest percentile with
#: ten or more generations beyond it.  The printed generation tail is the
#: median of this over the run's searches, so one host stall (they hit 1-2%
#: of generations on a shared host) cannot move it.
TAIL_PCT = 90

#: Fresh processes timed from launch to "a search could start"; the median
#: is reported.
SETUP_PROBES = 7

#: Reference-loop timings taken before each set-up probe.
REFERENCE_REPEATS = 5

#: Stands in for ``evaluate_population`` while generations are being timed.
GENERATION_TARGET = (("repro.core.evaluator", "MappingEvaluator", "evaluate_population", "generation"),)


def search_seeds(seed: int, index: int) -> Tuple[int, int]:
    """Job-order seed and optimizer seed of search *index* of a run."""
    group_seed, optimizer_seed = np.random.SeedSequence([seed, index]).generate_state(2)
    return int(group_seed), int(optimizer_seed)


def _spin_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for step in range(100_000):
            total += step
        best = min(best, time.perf_counter() - started)
    return best


class CpuPicker:
    """Moves this process (and the probes it starts) to its fastest CPU.

    On shared virtual machines a CPU can run a third slower than its
    neighbour for tens of seconds (a busy hyperthread sibling on the host),
    and whichever CPU the scheduler happened to choose then splits runs into
    a fast and a slow mode.  :meth:`pin` times a short spin loop on each CPU
    and pins to the fastest; it runs before each search, outside the timing.
    """

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self.picks: Dict[int, int] = {}

    def pin(self) -> None:
        if len(self.allowed) < 2:
            return
        speed = {}
        for cpu in self.allowed:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _spin_seconds()
        fastest = min(speed, key=speed.get)
        os.sched_setaffinity(0, {fastest})
        self.picks[fastest] = self.picks.get(fastest, 0) + 1


def measure_setup(root: Path, workload: SearchWorkload, group_seed: int) -> Tuple[List[float], float]:
    """Launch-to-ready seconds of :data:`SETUP_PROBES` fresh processes, and their host scale.

    The probes inherit this process's CPU, where the reference loop is timed
    before each of them; the few seconds of probing share one scale.
    """
    command = [
        sys.executable, str(root / "perfbench" / "setup_probe.py"),
        workload.setting, repr(workload.bandwidth_gbps), str(workload.group_size), str(group_seed),
    ]
    times, reference = [], []
    for _ in range(SETUP_PROBES):
        reference += [reference_seconds() for _ in range(REFERENCE_REPEATS)]
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - started)
            probe.communicate(timeout=120)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode}): {line!r}")
    return times, host_scale(reference)


@dataclass(frozen=True)
class SearchTiming:
    """One search's wall and generation seconds, measured and scaled to the reference host."""

    wall: float
    scaled_wall: float
    generations: List[float]
    scaled_generations: List[float]


class GenerationClock:
    """Stands in for ``evaluate_population``: notes when each generation's
    evaluation returns, and while :attr:`reference` is set times the
    reference loop just before it.  The pause that takes is left out of
    every interval; the loop's time scales the intervals around it to the
    reference host.

    With *cpus* (a fleet, whose workers run on every CPU) the loop is timed
    on each of them in turn and their mean speed counts: the coordinator's
    own CPU alone tracked a fleet search worse than no scaling at all.
    """

    def __init__(self, cpus: Sequence[int] = ()) -> None:
        self.cpus = list(cpus)
        self.marks: List[float] = []
        self.references: List[float] = []
        self.pauses: List[float] = []
        self.reference = True

    def _reference(self) -> float:
        if not self.cpus:
            return reference_seconds()
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append(reference_seconds())
        os.sched_setaffinity(0, self.cpus)
        return len(timings) / sum(1.0 / t for t in timings)

    def wrapper(self, _name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = self

        @functools.wraps(fn)
        def stamped(*args: Any, **kwargs: Any) -> Any:
            if clock.reference:
                began = time.perf_counter()
                clock.references.append(clock._reference())
                clock.pauses.append(time.perf_counter() - began)
            try:
                return fn(*args, **kwargs)
            finally:
                clock.marks.append(time.perf_counter())

        return stamped

    def start(self) -> float:
        self.marks.clear()
        self.references.clear()
        self.pauses.clear()
        started = time.perf_counter()
        self.marks.append(started)
        return started

    def timing(self, ended: float) -> SearchTiming:
        """Intervals since :meth:`start`, ending with the search's return at *ended*."""
        intervals = [later - earlier for earlier, later in zip(self.marks, self.marks[1:])]
        if self.references:
            intervals = [t - pause for t, pause in zip(intervals, self.pauses)]
            # Each interval is scaled by the median of the five loop timings
            # around it, so one interrupted timing cannot skew it.
            scales = [
                host_scale(self.references[max(0, k - 2): k + 3]) for k in range(len(intervals))
            ]
        else:
            scales = [1.0] * len(intervals)
        tail = ended - self.marks[-1]
        # The first interval (analysis table, initial population, a fleet's
        # pool start) is the search's own set-up, not a generation.
        return SearchTiming(
            wall=sum(intervals) + tail,
            scaled_wall=sum(t * s for t, s in zip(intervals, scales)) + tail * (scales[-1] if scales else 1.0),
            generations=intervals[1:],
            scaled_generations=[t * s for t, s in zip(intervals[1:], scales[1:])],
        )


class SearchRunner:
    """Builds each search's inputs and runs it, timing the ``M3E.search`` call."""

    def __init__(self, workload: SearchWorkload, seed: int):
        from repro.accelerator import build_setting
        from repro.core.evalconfig import EvalConfig

        self.workload = workload
        self.seed = seed
        self.platform = build_setting(workload.setting, workload.bandwidth_gbps)
        self.config = EvalConfig(backend=workload.backend, workers=workload.workers)
        self.clock = GenerationClock(cpus=sorted(os.sched_getaffinity(0)) if workload.backend != "batch" else ())

    def group(self, index: int) -> Any:
        """The workload's job group, in the job order search *index* draws."""
        from repro.workloads import benchmark
        from repro.workloads.groups import JobGroup

        base = benchmark.build_task_workload(
            benchmark.TaskType.MIX,
            group_size=self.workload.group_size,
            num_groups=1,
            seed=BASE_GROUP_SEED,
            num_sub_accelerators=self.platform.num_sub_accelerators,
        )[0]
        group_seed, _ = search_seeds(self.seed, index)
        order = np.random.default_rng(group_seed).permutation(len(base.jobs))
        return JobGroup(group_id=base.group_id, jobs=tuple(base.jobs[k] for k in order))

    def search(self, index: int, group: Any, config: Any = None) -> Tuple[Any, Any, SearchTiming]:
        """``(explorer, result, timing)`` of one search."""
        from repro.core.framework import M3E

        _, optimizer_seed = search_seeds(self.seed, index)
        explorer = M3E(self.platform, sampling_budget=BUDGET, eval_config=config or self.config)
        self.clock.start()
        result = explorer.search(group, optimizer="magma", seed=optimizer_seed)
        return explorer, result, self.clock.timing(time.perf_counter())


def check_search(runner: SearchRunner, index: int, group: Any, explorer: Any, result: Any) -> List[str]:
    """Reasons this search's output is wrong (empty when it is right)."""
    from repro.core.evalconfig import EvalConfig
    from repro.core.evaluator import MappingEvaluator
    from repro.utils.serialization import SearchResultSummary

    problems = []
    if result.best_fitness != result.history[-1]:
        problems.append(f"search {index}: best_fitness != history[-1]")
    oracle = MappingEvaluator(
        group=group,
        platform=runner.platform,
        analysis_table=explorer.analyze(group),
        eval_config=EvalConfig(backend="scalar"),
    )
    if oracle.evaluate(result.best_encoding, count_sample=False) != result.best_fitness:
        problems.append(f"search {index}: best encoding scores differently under the scalar oracle")
    if runner.workload.backend != "batch" and index == 0:
        # One batch twin per run (per workload seed) keeps the run short.
        _, twin, _ = runner.search(index, group, config=EvalConfig(backend="batch"))
        if SearchResultSummary.from_result(twin) != SearchResultSummary.from_result(result):
            problems.append(f"search {index}: {runner.workload.backend} result differs from batch")
    return problems


def run_search(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    workload = WORKLOADS[name]
    # The fleet needs every CPU for its workers (they inherit the affinity).
    picker = CpuPicker() if workload.backend == "batch" else None

    def settle() -> None:
        """Between timed stretches: collect garbage, move to the fastest CPU."""
        gc.collect()
        if picker is not None:
            picker.pin()

    settle()
    setup, setup_scale = measure_setup(root, workload, BASE_GROUP_SEED)

    from repro.obs import get_metrics
    from repro.utils.serialization import SearchResultSummary

    runner = SearchRunner(workload, seed)
    registry = get_metrics()
    recorder = SpanRecorder()
    ledger = ErrorLedger()
    timings: List[SearchTiming] = []
    gflops: List[float] = []
    samples = 0
    traced_walls: List[float] = []
    traced_window = 0.0
    counts = dict.fromkeys(COUNTERS, 0.0)
    spent = 0.0
    index = 0
    with installed(GENERATION_TARGET, runner.clock.wrapper):
        while index < (1 if trace else QUALITY_SEARCHES) or spent < seconds:
            settle()
            group = runner.group(index)
            explorer, result, timing = runner.search(index, group)
            spent += timing.wall
            timings.append(timing)
            gflops.append(result.throughput_gflops)
            samples += result.samples_used
            problems = check_search(runner, index, group, explorer, result)
            if trace:
                # The same search again, traced and without the reference
                # loop: the pair gives the tracing overhead and checks that
                # tracing never changes a result.
                settle()
                before = read_counters(registry.value_of)
                runner.clock.reference = False
                with traced_layers(recorder):
                    started = time.perf_counter()
                    _, traced, traced_timing = runner.search(index, runner.group(index))
                    traced_window += time.perf_counter() - started
                runner.clock.reference = True
                after = read_counters(registry.value_of)
                for key, value in counter_delta(before, after).items():
                    counts[key] += value
                traced_walls.append(traced_timing.wall)
                spent += traced_timing.wall
                if SearchResultSummary.from_result(traced) != SearchResultSummary.from_result(result):
                    problems.append(f"search {index}: traced result differs from untraced")
            ledger.check(not problems, "; ".join(problems))
            index += 1
    peak_rss = own_peak_rss_mb()

    walls = [t.wall for t in timings]
    scaled_walls = [t.scaled_wall for t in timings]
    hit_p50 = percentile([g for t in timings for g in t.scaled_generations], 50)
    hit_tail = statistics.median(percentile(t.scaled_generations, TAIL_PCT).value for t in timings)
    miss_p50, miss_p90 = percentile(scaled_walls, 50), percentile(scaled_walls, 90)
    measured_p50 = percentile([g for t in timings for g in t.generations], 50)
    lines = [
        f"workload {name}: {len(walls)} searches x {BUDGET} samples, {workload.setting} "
        f"@ {workload.bandwidth_gbps:g} GB/s, G={workload.group_size}, backend {workload.backend}",
        "  times scaled to the reference host unless marked 'measured'",
        f"  generation latency {hit_p50.describe(1e3, 'ms')} (measured {measured_p50.value * 1e3:.4f}ms); "
        f"median per-search p{TAIL_PCT:g} {hit_tail * 1e3:.4f}ms over {len(timings)} searches",
        f"  search latency {miss_p50.describe(1e3, 'ms')}, {miss_p90.describe(1e3, 'ms')}",
        f"  search walls (s): {', '.join(f'{t:.3f}' for t in scaled_walls)}",
        f"  search walls measured (s): {', '.join(f'{t:.3f}' for t in walls)}",
        f"  setup probes measured (s): {', '.join(f'{t:.3f}' for t in setup)}; host scale {setup_scale:.4f}",
        f"  searches per cpu: {picker.picks}" if picker is not None else "  not pinned",
        f"  error_rate {ledger.error_rate:.4f} ({ledger.failed}/{ledger.attempted})",
        *(f"  error: {reason}" for reason in ledger.reasons),
    ]
    if not trace:
        metrics = {
            "evals_per_s": samples / sum(scaled_walls),
            "best_gflops_mean": statistics.fmean(gflops[:QUALITY_SEARCHES]),
            "hit_p50_ms": hit_p50.value * 1e3,
            "miss_p50_ms": miss_p50.value * 1e3,
            "miss_p90_ms": miss_p90.value * 1e3,
            "setup_s": statistics.median(setup) * setup_scale,
            "peak_rss_mb": peak_rss,
        }
        return Outcome(metrics=metrics, ledger=ledger, lines=lines)

    metrics = layer_metrics(recorder.spans, counts, recorder.counts.get("optimizers.operator_calls", 0))
    metrics.update({
        "httpd.overhead_ms": 0.0,
        "httpd.response_bytes": 0.0,
        "unattributed_share": (traced_window - attributed_seconds(recorder.spans)) / traced_window,
        "trace.overhead_share": sum(traced_walls) / sum(walls) - 1.0,
        "trace.wall_s": traced_window,
    })
    lines.append(f"  traced {len(traced_walls)} searches in {traced_window:.3f}s")
    return Outcome(metrics=metrics, ledger=ledger, lines=lines)
