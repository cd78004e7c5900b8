"""Tests for the shared JSON serialization helpers."""

import copy
import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import build_setting
from repro.core.framework import M3E
from repro.utils.serialization import SearchResultSummary, jsonable
from repro.workloads import TaskType, build_task_workload


class Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    label: str


class Slotted:
    """No ``__dict__`` at all — the old ``vars()`` fallback crashed here."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 1

    def __str__(self):
        return "slotted"


class TestJsonable:
    def test_passthrough_scalars(self):
        assert jsonable(1) == 1
        assert jsonable(1.5) == 1.5
        assert jsonable("x") == "x"
        assert jsonable(None) is None
        assert jsonable(True) is True

    def test_numpy_values(self):
        assert jsonable(np.float64(2.5)) == 2.5
        assert jsonable(np.int32(3)) == 3
        assert jsonable(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]

    def test_enums_by_value_including_keys(self):
        assert jsonable(Color.RED) == "red"
        assert jsonable({TaskType.MIX: 1}) == {"mix": 1}

    def test_dataclasses_by_field(self):
        assert jsonable(Point(1.0, "a")) == {"x": 1.0, "label": "a"}

    def test_tuples_and_sets_become_lists(self):
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable({3}) == [3]

    def test_float_dict_keys_are_stringified(self):
        assert jsonable({1.0: "a"}) == {"1.0": "a"}

    def test_unknown_objects_fall_back_to_str(self):
        assert jsonable(Slotted()) == "slotted"

    def test_output_is_json_dumpable(self):
        payload = jsonable({"p": Point(1.0, "a"), "c": Color.RED, "a": np.arange(3)})
        assert json.loads(json.dumps(payload)) == {"p": {"x": 1.0, "label": "a"}, "c": "red", "a": [0, 1, 2]}


@pytest.fixture(scope="module")
def tiny_result():
    platform = build_setting("S1", 16.0)
    group = build_task_workload(
        TaskType.VISION, group_size=8, seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    return M3E(platform, sampling_budget=40).search(
        group, optimizer="stdga", seed=0, optimizer_options={"population_size": 8}
    )


class TestSearchResultSummary:
    def test_summary_captures_the_result(self, tiny_result):
        summary = SearchResultSummary.from_result(tiny_result)
        assert summary.optimizer_name == tiny_result.optimizer_name
        assert summary.best_fitness == tiny_result.best_fitness
        assert summary.throughput_gflops == tiny_result.throughput_gflops
        assert summary.samples_used == tiny_result.samples_used
        assert summary.history == list(tiny_result.history)
        assert summary.best_encoding == list(map(float, tiny_result.best_encoding))

    def test_round_trip_through_json(self, tiny_result):
        summary = SearchResultSummary.from_result(tiny_result)
        restored = SearchResultSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
        assert restored == summary

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            SearchResultSummary.from_dict({"optimizer_name": "x", "bogus": 1})

    def test_jsonable_uses_the_summary_for_results(self, tiny_result):
        payload = jsonable(tiny_result)
        assert payload["optimizer_name"] == tiny_result.optimizer_name
        json.dumps(payload)


# Arbitrary JSON-safe blocks, as from_result's ``jsonable`` produces them.
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
json_blocks = st.dictionaries(st.text(max_size=8), json_values, max_size=5)

summaries = st.builds(
    SearchResultSummary,
    optimizer_name=st.text(max_size=12),
    best_fitness=finite_floats,
    objective_value=finite_floats,
    throughput_gflops=finite_floats,
    makespan_cycles=finite_floats,
    samples_used=st.integers(min_value=0, max_value=10**9),
    best_encoding=st.lists(finite_floats, max_size=40),
    history=st.lists(finite_floats, max_size=40),
    metadata=json_blocks,
    telemetry=st.none() | json_blocks,
)


class TestToDictContract:
    """``to_dict`` is ``dataclasses.asdict`` without the telemetry block."""

    @settings(max_examples=200, deadline=None)
    @given(summaries)
    def test_equals_asdict_minus_telemetry(self, summary):
        expected = dataclasses.asdict(summary)
        expected.pop("telemetry")
        data = summary.to_dict()
        assert data == expected
        assert list(data) == list(expected)
        assert json.dumps(data, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(summaries)
    def test_returned_containers_are_the_callers(self, summary):
        before = copy.deepcopy(summary)
        data = summary.to_dict(include_telemetry=True)
        data["best_encoding"].append(1.0)
        data["history"].clear()
        data["metadata"]["added"] = 1
        for value in data["metadata"].values():
            if isinstance(value, (list, dict)):
                value.clear()
        if "telemetry" in data:
            data["telemetry"]["added"] = 1
        assert summary == before
        assert summary.telemetry == before.telemetry

    @settings(max_examples=100, deadline=None)
    @given(summaries)
    def test_telemetry_only_when_requested_and_present(self, summary):
        assert "telemetry" not in summary.to_dict()
        with_block = summary.to_dict(include_telemetry=True)
        if summary.telemetry is None:
            assert "telemetry" not in with_block
        else:
            assert with_block["telemetry"] == summary.telemetry
            assert with_block["telemetry"] is not summary.telemetry
