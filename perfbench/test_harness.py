"""Self-tests of the benchmark harness (no program code runs here).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import threading
import types
from multiprocessing import resource_tracker, shared_memory

import pytest

from harness import (
    REFERENCE_S, ErrorLedger, InvalidRun, ReferenceSampler, Request, SpanRecorder, host_scale, join_children,
    percentile, self_times, total_times,
)
from layers import installed, parse_prometheus, read_counters
from search_workloads import GenerationClock


class FakeClock:
    """Returns the listed instants in order, one per call."""

    def __init__(self, *instants: float):
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_percentile_reports_value_and_sample_counts():
    values = list(range(1, 101))
    p50 = percentile(values, 50)
    p99 = percentile(values, 99)
    assert (p50.value, p50.count, p50.beyond) == (50.5, 100, 50)
    assert p99.value == pytest.approx(99.01)
    assert (p99.count, p99.beyond) == (100, 1)
    assert percentile([7.0], 99).value == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_subtracts_only_direct_children():
    # outer [0, 10] holds inner [2, 5], which holds leaf [3, 4]; sibling [6, 7].
    recorder = SpanRecorder(clock=FakeClock(0, 2, 3, 4, 5, 6, 7, 10))
    leaf = recorder.wrap("leaf", lambda: None)
    inner = recorder.wrap("inner", leaf)
    sibling = recorder.wrap("sibling", lambda: None)

    def body():
        inner()
        sibling()

    recorder.wrap("outer", body)()
    own = self_times(recorder.spans)
    assert own == {"outer": 6.0, "inner": 2.0, "leaf": 1.0, "sibling": 1.0}
    assert total_times(recorder.spans)["inner"] == 3.0
    # Self times partition the root's duration: nothing counted twice.
    assert sum(own.values()) == 10.0


def test_spans_on_other_threads_do_not_nest_under_this_one():
    recorder = SpanRecorder()
    gate = threading.Event()

    def other():
        recorder.wrap("other", gate.wait)()

    def outer():
        thread = threading.Thread(target=other)
        thread.start()
        gate.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

    recorder.wrap("outer", outer)()
    parents = {span.name: span.parent for span in recorder.spans}
    assert parents == {"other": None, "outer": None}


def test_counting_wrapper_counts_calls_and_passes_results():
    recorder = SpanRecorder()
    double = recorder.counting("calls", lambda x: 2 * x)
    assert [double(i) for i in range(3)] == [0, 2, 4]
    assert recorder.counts == {"calls": 3}


def test_latency_is_timed_from_the_due_time():
    request = Request(due=10.0, kind="hit", payload={}, sent=10.5, answered=11.25)
    assert request.latency == pytest.approx(1.25)
    assert request.lateness == pytest.approx(0.5)
    early = Request(due=10.0, kind="hit", payload={}, sent=9.9, answered=10.1)
    assert early.lateness == 0.0
    with pytest.raises(ValueError):
        _ = Request(due=1.0, kind="miss", payload={}).latency


def test_error_ledger_counts_failures_against_attempts():
    ledger = ErrorLedger()
    assert ledger.error_rate == 0.0
    ledger.check(True, "fine")
    ledger.check(False, "wrong answer")
    ledger.check(True, "fine")
    assert (ledger.attempted, ledger.failed, ledger.reasons) == (3, 1, ["wrong answer"])
    assert ledger.error_rate == pytest.approx(1 / 3)


def test_installed_wraps_then_restores_module_and_class_attributes(monkeypatch):
    module = types.ModuleType("perfbench_fake_module")

    def work():
        return "done"

    class Base:
        def inherited(self):
            return "base"

    class Owner(Base):
        def method(self):
            return "method"

    module.work, module.Owner = work, Owner
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = SpanRecorder()
    targets = [
        (module.__name__, None, "work", "fake.work"),
        (module.__name__, "Owner", "method", "fake.method"),
        (module.__name__, "Owner", "inherited", "fake.inherited"),
    ]
    with installed(targets, recorder.wrap):
        assert (module.work(), Owner().method(), Owner().inherited()) == ("done", "method", "base")
    assert [span.name for span in recorder.spans] == ["fake.work", "fake.method", "fake.inherited"]
    assert module.work is work
    assert Owner.method is vars(Owner)["method"] and "inherited" not in vars(Owner)


def test_host_scale_is_the_median_reference_speed():
    assert host_scale([2 * REFERENCE_S] * 3) == pytest.approx(0.5)
    # One interrupted timing does not move it.
    assert host_scale([REFERENCE_S, REFERENCE_S, 100 * REFERENCE_S]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        host_scale([])


def test_reference_sampler_scales_from_the_timings_inside_the_window():
    sampler = ReferenceSampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0]
    sampler.timings = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    assert sampler.scale(1.0, 2.0, pad_s=0.25) == pytest.approx(0.5)
    assert sampler.scale(0.0, 3.0, pad_s=0.0) == pytest.approx(2 / 3)
    with pytest.raises(InvalidRun):
        sampler.scale(5.0, 6.0)
    with sampler:
        while not sampler.timings[4:]:
            threading.Event().wait(0.01)
    assert sampler.times == sorted(sampler.times)


def test_generation_clock_leaves_out_and_scales_by_the_reference_loop():
    clock = GenerationClock()
    stamped = clock.wrapper("evaluate", lambda: 7)
    clock.start()
    assert stamped() == 7
    assert (len(clock.marks), len(clock.references), len(clock.pauses)) == (2, 1, 1)

    # The host ran at half the reference speed throughout.
    ref = 2 * REFERENCE_S
    clock.marks, clock.references, clock.pauses = [0.0, 1.0, 2.5, 4.0], [ref] * 3, [ref] * 3
    timing = clock.timing(ended=4.5)
    assert timing.wall == pytest.approx(4.5 - 3 * ref)
    assert timing.scaled_wall == pytest.approx(timing.wall / 2)
    assert timing.generations == pytest.approx([1.5 - ref] * 2)
    assert timing.scaled_generations == pytest.approx([(1.5 - ref) / 2] * 2)

    clock.references = []
    unscaled = clock.timing(ended=4.5)
    assert unscaled.wall == unscaled.scaled_wall == pytest.approx(4.5)


def test_generation_clock_times_the_loop_on_every_cpu_of_a_fleet():
    cpus = sorted(os.sched_getaffinity(0))
    clock = GenerationClock(cpus=cpus)
    clock.start()
    clock.wrapper("evaluate", lambda: None)()
    assert clock.references[0] > 0 and clock.pauses[0] >= clock.references[0] / len(cpus)
    assert sorted(os.sched_getaffinity(0)) == cpus


def test_join_children_stops_and_reaps_the_resource_tracker():
    # Creating shared memory starts the tracker, which would outlive this process.
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker_pid = resource_tracker._resource_tracker._pid
    join_children()
    assert resource_tracker._resource_tracker._fd is None
    if tracker_pid is not None:
        with pytest.raises(ChildProcessError):
            os.waitpid(tracker_pid, os.WNOHANG)


def test_prometheus_scrape_reads_labelled_and_plain_series():
    text = "\n".join([
        "# HELP repro_memo_hits_total hits",
        "# TYPE repro_memo_hits_total counter",
        "repro_memo_hits_total 12",
        'repro_store_ops_total{backend="sqlite",op="lookup"} 3',
        'repro_store_ops_total{backend="sqlite",op="append"} 4.5',
        "repro_service_queue_wait_seconds_sum 0.25",
    ])
    counts = read_counters(parse_prometheus(text))
    assert counts["memo.hits"] == 12.0
    assert counts["store.ops.lookup"] == 3.0
    assert counts["store.ops.append"] == 4.5
    assert counts["service.queue_wait_s"] == 0.25
    assert counts["fleet.chunks"] == 0.0
