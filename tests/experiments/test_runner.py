"""Smoke tests for the paper's figure/table scenarios (at the smoke scale).

These tests confirm that every experiment runs end to end through
:func:`~repro.experiments.run_scenario` and that the key qualitative
relationships the paper reports hold at reduced scale.  The benchmark
harness runs the same scenarios at a larger scale.
"""

from dataclasses import replace

import pytest

from repro.core.evalconfig import EvalConfig
from repro.experiments import Panel, ScenarioSpec, get_scale, get_scenario, run_scenario
from repro.experiments.scenarios import ScenarioRun

SMOKE = get_scale("smoke")


def compare(setting, bandwidth, task, methods, eval_config=EvalConfig()):
    """Per-method results of a one-panel comparison scenario (``repro compare``)."""
    spec = ScenarioSpec(
        name="compare",
        description="methods on one problem",
        settings=(setting,),
        bandwidths=(bandwidth,),
        tasks=(task,),
        methods=tuple(methods),
        post_process=ScenarioRun.by_panel,
    )
    (results,) = run_scenario(spec, scale=SMOKE, seed=0, eval_config=eval_config).values()
    return results


def fig13_at_1gbps_on_s3_s4():
    """Fig. 13 restricted to the S3/S4 panels at 1 GB/s."""
    spec = get_scenario("fig13")
    panels = tuple(p for p in spec.panels if p.setting in ("S3", "S4") and p.bandwidth_gbps == 1.0)
    return run_scenario(replace(spec, panels=panels), scale=SMOKE)


class TestFig7:
    def test_characteristics_match_paper_ordering(self):
        result = run_scenario("fig7")
        per_task = result["per_task"]
        # Recommendation jobs are the most bandwidth-hungry; vision the most
        # compute-heavy (Fig. 7 of the paper).
        assert per_task["recommendation"]["hb_required_bw_gbps"] > per_task["vision"]["hb_required_bw_gbps"]
        assert per_task["vision"]["hb_latency_cycles"] > per_task["recommendation"]["hb_latency_cycles"]
        for task in per_task.values():
            # The LB style always trades latency for bandwidth.
            assert task["lb_latency_cycles"] > task["hb_latency_cycles"]
            assert task["lb_required_bw_gbps"] < task["hb_required_bw_gbps"]

    def test_per_model_rows_cover_requested_models(self):
        result = run_scenario("fig7")
        assert {"resnet50", "gpt2", "dlrm"} <= set(result["per_model"])


class TestFig13:
    def test_structure_and_normalisation(self):
        result = fig13_at_1gbps_on_s3_s4()
        assert set(result["job_analysis"]) == {"S3", "S4"}
        normalized = result["normalized"][1.0]
        assert max(normalized.values()) == pytest.approx(1.0)

    def test_heterogeneous_requires_less_bandwidth(self):
        result = fig13_at_1gbps_on_s3_s4()
        s3_bw = result["job_analysis"]["S3"]["mix"]["avg_required_bw_gbps"]
        s4_bw = result["job_analysis"]["S4"]["mix"]["avg_required_bw_gbps"]
        assert s4_bw < s3_bw


class TestFig15:
    def test_magma_finishes_no_later_than_herald(self):
        result = run_scenario("fig15", scale=SMOKE, seed=0)
        finish = result["finish_time_cycles"]
        assert finish["MAGMA"] <= finish["Herald-like"] * 1.05
        assert set(result["gantt"]) == {"Herald-like", "MAGMA"}


class TestFig16:
    def test_all_three_variants_present(self):
        result = run_scenario("fig16", scale=SMOKE, seed=0)
        for panel in result["final_values"].values():
            assert set(panel) == {"MAGMA-mut", "MAGMA-mut+gen", "MAGMA"}
            assert all(value > 0 for value in panel.values())


class TestMethodComparison:
    def test_magma_beats_aimt_on_heterogeneous_platform(self):
        results = compare("S2", 16.0, "mix", ["ai-mt-like", "magma"])
        assert results["MAGMA"].throughput_gflops > results["AI-MT-like"].throughput_gflops

    def test_all_requested_methods_present(self):
        results = compare("S1", 16.0, "vision", ["herald-like", "stdga", "magma"])
        assert set(results) == {"Herald-like", "stdGA", "MAGMA"}

    def test_duplicate_methods_are_suffixed_not_overwritten(self):
        """Regression: requesting the same method twice silently dropped one
        result from the comparison dict (and from the CLI report)."""
        results = compare("S2", 16.0, "mix", ("magma", "magma"))
        assert set(results) == {"MAGMA", "MAGMA#2"}

    def test_eval_backends_agree_end_to_end(self):
        per_backend = {
            backend: compare(
                "S2", 16.0, "mix", ("magma", "random"), eval_config=EvalConfig(backend=backend)
            )
            for backend in ("scalar", "batch")
        }
        for name in per_backend["scalar"]:
            assert (
                per_backend["scalar"][name].best_fitness
                == per_backend["batch"][name].best_fitness
            )


class TestFig17:
    def test_group_size_sweep_normalised(self):
        panels = tuple(
            Panel(label=str(size), setting="S2", bandwidth_gbps=16.0, task="mix", group_size=size)
            for size in (4, 8, 16)
        )
        result = run_scenario(replace(get_scenario("fig17"), panels=panels), scale=SMOKE, seed=0)
        assert set(result["throughput"]) == {4, 8, 16}
        assert result["normalized"][16] == pytest.approx(1.0)


class TestTable5:
    def test_warm_start_ordering(self):
        result = run_scenario("table5", scale=SMOKE, seed=0, options={"num_instances": 1})
        average = result["average"]
        # Warm-started runs recover at least as much performance as raw random
        # initialisation, and the full run defines the reference value of 1.
        assert average["trf_full"] == pytest.approx(1.0)
        assert average["trf_30_ep"] <= 1.5
        assert average["trf_1_ep"] >= average["raw"] * 0.5


class TestSeedReplicatedFigures:
    """Multi-seed runs of the figure scenarios report uncertainty; single-
    seed runs carry no replicate keys."""

    def _fig9_small(self, seeds):
        from repro.experiments.scenarios import with_seed_replicates

        spec = replace(get_scenario("fig9"), methods=("herald-like", "magma"))
        if seeds > 1:
            spec = with_seed_replicates(spec, seeds)
        return run_scenario(spec, scale=get_scale("tiny"), seed=0)

    def test_single_seed_output_has_no_replicate_keys(self):
        output = self._fig9_small(seeds=1)
        assert "replicates" not in output and "seeds" not in output
        assert "cross_seed_agreement" not in output

    def test_multi_seed_output_aggregates_with_uncertainty(self):
        output = self._fig9_small(seeds=2)
        assert output["seeds"] == [0, 1]
        for label, per_method in output["replicates"].items():
            for method, stats in per_method.items():
                assert stats["count"] == 2
                assert stats["min"] <= stats["mean"] <= stats["max"]
                # The normalised table is built from the cross-seed means.
                expected = stats["mean"] / output["absolute"][label][
                    output["normalized_reference"][label]
                ]
                assert output["normalized"][label][method] == pytest.approx(expected)
        assert output["cross_seed_agreement"]
        for info in output["cross_seed_agreement"].values():
            assert info["num_seeds"] == 2
            assert 0.0 < info["agreement"] <= 1.0

    def test_seed_replicates_scenario_reports_uncertainty_table(self):
        output = run_scenario("seed-replicates", scale=get_scale("tiny"), seed=0)
        assert output["seeds"] == [0, 1, 2]
        assert len(output["replicates"]) == 3  # one group per method
        for group in output["replicates"]:
            assert group["seeds"] == [0, 1, 2]
            assert group["metrics"]["throughput_gflops"]["count"] == 3
        assert "mean" in output["table"] and "std" in output["table"]
        assert output["cross_seed_agreement"]
