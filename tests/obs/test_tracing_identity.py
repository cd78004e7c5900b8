"""The inertness contract: tracing on vs off is bit-identical — everywhere.

docs/OBSERVABILITY.md promises that telemetry observes and never steers: the
same seed must produce a byte-identical durable record whether or not the
search (or service) was traced, through every evaluation backend.  These
property tests are the contract's enforcement — they run the same search
twice, once untraced and once traced into a JSONL sink, and compare the
``to_dict()`` forms (which exclude the diagnostic ``telemetry`` block by
design).
"""

import pytest

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.framework import M3E
from repro.obs import configure_tracing, get_tracer
from repro.service import MappingService
from repro.utils.serialization import SearchResultSummary, jsonable
from repro.workloads import TaskType, build_task_workload

BACKENDS = ("scalar", "batch", "parallel")

SEED = 1234


def _problem(group_size: int = 10):
    platform = build_setting("S1", 16.0)
    group = build_task_workload(
        TaskType.MIX,
        group_size=group_size,
        seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    return platform, group


def _search(backend: str, seed):
    platform, group = _problem()
    config = EvalConfig(backend=backend, workers=2 if backend == "parallel" else None)
    explorer = M3E(platform, sampling_budget=120, eval_config=config)
    return explorer.search(
        group,
        optimizer="magma",
        seed=seed,
        optimizer_options={"population_size": 8},
    )


class TestTracingIsInert:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_traced_and_untraced_results_are_bit_identical(self, backend, tmp_path):
        configure_tracing(enabled=False, sink_path=None)
        untraced = SearchResultSummary.from_result(_search(backend, SEED))
        configure_tracing(enabled=True, sink_path=str(tmp_path / "trace.jsonl"))
        traced = SearchResultSummary.from_result(_search(backend, SEED))
        assert traced.to_dict() == untraced.to_dict()

    def test_traced_search_recorded_spans_and_telemetry(self, tmp_path):
        configure_tracing(enabled=True, sink_path=str(tmp_path / "trace.jsonl"))
        result = _search("batch", SEED)
        spans = get_tracer().records(kind="span", name="m3e.search")
        assert spans, "an enabled tracer must record the search span"
        assert result.telemetry is not None
        assert result.telemetry["backend"] == "batch"
        assert "optimize" in result.telemetry["phases"]
        assert result.telemetry["counters"]["generations"] >= 1

    def test_untraced_search_carries_no_telemetry(self):
        result = _search("batch", SEED)
        assert result.telemetry is None

    def test_telemetry_never_reaches_the_durable_record(self, tmp_path):
        configure_tracing(enabled=True, sink_path=str(tmp_path / "trace.jsonl"))
        summary = SearchResultSummary.from_result(_search("batch", SEED))
        assert summary.telemetry is not None
        assert "telemetry" not in summary.to_dict()
        assert "telemetry" not in jsonable(summary)
        included = summary.to_dict(include_telemetry=True)
        assert included["telemetry"]["backend"] == "batch"

    def test_service_submit_is_bit_identical_traced_vs_untraced(self, tmp_path):
        request = {"setting": "S1", "task": "mix", "group_size": 10, "budget": 120, "seed": 7}

        def run(store_name: str):
            with MappingService(store=str(tmp_path / store_name), scale="smoke") as service:
                job = service.submit(dict(request))
                return service.result(job.job_id, timeout=120).to_dict()

        configure_tracing(enabled=False, sink_path=None)
        untraced = run("untraced.jsonl")
        configure_tracing(enabled=True, sink_path=str(tmp_path / "trace.jsonl"))
        traced = run("traced.jsonl")
        assert traced == untraced
