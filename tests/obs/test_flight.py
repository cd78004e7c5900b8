"""Flight recorder and the ``trace summarize`` analyzer."""

import pytest

from repro.obs import FlightRecorder, render_trace_summary, summarize_trace
from repro.obs.flight import null_phase
from repro.obs.trace import Tracer


class TestFlightRecorder:
    def test_phases_accumulate_wall_cpu_and_count(self):
        recorder = FlightRecorder()
        with recorder.phase("optimize"):
            pass
        with recorder.phase("optimize"):
            pass
        block = recorder.to_dict()
        phase = block["phases"]["optimize"]
        assert phase["count"] == 2
        assert phase["wall_s"] >= 0.0
        assert phase["cpu_s"] >= 0.0

    def test_counters_accumulate_into_the_block(self):
        recorder = FlightRecorder()
        recorder.count("generations", 2)
        recorder.count("generations")
        assert recorder.to_dict() == {"phases": {}, "counters": {"generations": 3.0}}

    def test_null_phase_is_reusable_and_inert(self):
        phase = null_phase()
        assert phase is null_phase()
        with phase:
            pass


class TestSummarizeTrace:
    def _traced_records(self):
        tracer = Tracer(enabled=True)
        with tracer.span("m3e.search"):
            with tracer.span("evaluator.generation"):
                pass
            with tracer.span("evaluator.generation"):
                pass
            tracer.warning("parallel.pool-abandoned", timeout_s=1)
        return tracer.records()

    def test_aggregates_per_span_family(self):
        summary = summarize_trace(self._traced_records())
        assert summary["records"] == 4
        search = summary["spans"]["m3e.search"]
        generation = summary["spans"]["evaluator.generation"]
        assert search["count"] == 1
        assert generation["count"] == 2
        # Parentless spans define the share denominator; nested families are
        # scored against it (their fraction of the traced run).
        assert search["share"] == pytest.approx(1.0)
        assert 0.0 < generation["share"] <= 1.0
        assert generation["share"] == pytest.approx(
            generation["total_s"] / search["total_s"]
        )
        assert generation["total_s"] <= search["total_s"]
        assert summary["events"]["parallel.pool-abandoned"]["level"] == "warning"

    def test_reads_a_trace_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True, sink_path=path)
        with tracer.span("m3e.search"):
            pass
        tracer.close()
        summary = summarize_trace(path)
        assert summary["spans"]["m3e.search"]["count"] == 1
        assert summary["wall_s"] >= 0.0

    def test_render_is_a_table_sorted_by_total_time(self):
        text = render_trace_summary(summarize_trace(self._traced_records()))
        lines = text.splitlines()
        assert lines[0].startswith("trace: 4 records")
        body = [line for line in lines if line.startswith(("m3e", "evaluator"))]
        assert body[0].startswith("m3e.search")
        assert "parallel.pool-abandoned (warning): 1" in text
