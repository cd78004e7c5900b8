"""Tests for the declarative scenario specs and the scenario registry."""

from dataclasses import replace

import pytest

import repro.experiments
from repro.exceptions import ExperimentError
from repro.experiments import get_scale
from repro.experiments.scenarios import (
    BudgetPolicy,
    Panel,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    run_scenario,
    spec_from_grid,
)

TINY = get_scale("tiny")
SMOKE = get_scale("smoke")

PAPER_SCENARIOS = [
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "table5",
]


class TestBudgetPolicy:
    def test_non_rl_methods_get_full_budget(self):
        policy = BudgetPolicy()
        assert policy.budget_for("magma", SMOKE) == SMOKE.sampling_budget
        assert policy.budget_for("stdga", SMOKE) == SMOKE.sampling_budget

    @pytest.mark.parametrize("method", ["a2c", "ppo2", "rl-a2c", "rl-ppo2", "PPO2"])
    def test_rl_methods_and_aliases_get_reduced_budget(self, method):
        """Regression: RL-ness used to be a hard-coded name set in the fig
        runners, so a new alias of an RL optimizer silently received the full
        budget.  The policy now resolves through the optimizer registry."""
        assert BudgetPolicy().budget_for(method, SMOKE) == SMOKE.rl_sampling_budget

    def test_convergence_base(self):
        policy = BudgetPolicy(base="convergence")
        assert policy.budget_for("magma", SMOKE) == SMOKE.convergence_budget

    def test_rl_reduction_can_be_disabled(self):
        policy = BudgetPolicy(rl_reduction=False)
        assert policy.budget_for("a2c", SMOKE) == SMOKE.sampling_budget

    def test_unknown_base_rejected(self):
        with pytest.raises(ExperimentError):
            BudgetPolicy(base="galactic")


class TestSpecExpansion:
    def spec(self, **overrides):
        fields = dict(
            name="grid",
            description="test grid",
            settings=("S1", "S2"),
            bandwidths=(8.0, 16.0),
            tasks=("vision", "mix"),
            methods=("magma", "stdga"),
        )
        fields.update(overrides)
        return ScenarioSpec(**fields)

    def test_cross_product_size_and_order(self):
        cells = self.spec().expand(TINY)
        assert len(cells) == 2 * 2 * 2 * 2
        # Methods are the innermost axis (panel -> seed -> objective -> method).
        assert [c.method for c in cells[:2]] == ["magma", "stdga"]
        assert cells[0].setting == cells[1].setting == "S1"
        assert cells[0].method_index == 0 and cells[1].method_index == 1
        assert all(c.num_methods == 2 for c in cells)

    def test_budget_and_group_size_resolved_against_scale(self):
        cells = self.spec().expand(TINY)
        assert all(c.budget == TINY.sampling_budget for c in cells)
        assert all(c.group_size == TINY.group_size for c in cells)

    def test_panel_group_size_beats_spec_and_scale(self):
        spec = self.spec(
            panels=(Panel(label="p", setting="S1", bandwidth_gbps=8.0, task="mix", group_size=5),),
        )
        cells = spec.expand(TINY)
        assert all(c.group_size == 5 for c in cells)

    def test_seeds_offset_the_base_seed(self):
        cells = self.spec(seeds=(0, 1)).expand(TINY, base_seed=10)
        assert sorted({c.seed for c in cells}) == [10, 11]

    def test_objective_axis(self):
        cells = self.spec(objectives=("throughput", "edp")).expand(TINY)
        assert {c.objective for c in cells} == {"throughput", "edp"}

    def test_custom_scenarios_have_no_grid(self):
        with pytest.raises(ExperimentError):
            get_scenario("fig15").expand(TINY)

    def test_duplicate_explicit_panel_labels_rejected(self):
        """Regression: a repeated bandwidth point in the fig12 sweep reported
        phantom ``Herald-like#2``/``MAGMA#2`` methods in its panel."""
        spec = get_scenario("fig12")
        small_16 = next(p for p in spec.panels if p.label == "small_s2@16")
        with pytest.raises(ExperimentError, match="small_s2@16"):
            replace(spec, panels=(small_16, small_16)).expand(TINY)

    def test_duplicate_computed_panel_labels_rejected(self):
        """Regression: a repeated fig17 group size ran the search twice and
        kept one result."""
        size_8 = Panel(label="8", setting="S2", bandwidth_gbps=16.0, task="mix", group_size=8)
        spec = replace(get_scenario("fig17"), panels_fn=lambda scale: (size_8, size_8))
        with pytest.raises(ExperimentError, match="'8'"):
            spec.expand(TINY)


class TestCellFingerprints:
    def test_deterministic_across_expansions(self):
        spec = TestSpecExpansion().spec()
        first = [c.fingerprint() for c in spec.expand(TINY)]
        second = [c.fingerprint() for c in spec.expand(TINY)]
        assert first == second

    def test_distinct_across_cells(self):
        cells = TestSpecExpansion().spec(seeds=(0, 1)).expand(TINY)
        fingerprints = {c.fingerprint() for c in cells}
        assert len(fingerprints) == len(cells)

    def test_seed_changes_the_fingerprint(self):
        spec = TestSpecExpansion().spec()
        base = spec.expand(TINY, base_seed=0)
        shifted = spec.expand(TINY, base_seed=1)
        assert all(a.fingerprint() != b.fingerprint() for a, b in zip(base, shifted))


class TestPublicSurface:
    def test_run_scenario_is_the_only_experiment_entry_point(self):
        """The per-figure wrappers and the direct comparison loop are gone:
        every experiment runs through ``run_scenario``."""
        exported = repro.experiments.__all__
        assert [name for name in exported if name.startswith("run_")] == ["run_scenario"]
        for name in exported:
            assert hasattr(repro.experiments, name), name


class TestRegistry:
    def test_every_paper_figure_is_registered(self):
        names = list_scenarios()
        for name in PAPER_SCENARIOS:
            assert name in names

    def test_extra_scenarios_beyond_the_paper(self):
        names = list_scenarios()
        assert "objective-sweep" in names and "seed-replicates" in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError):
            get_scenario("fig99")

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("FIG8").name == "fig8"


class TestNormalizationFallback:
    def test_fig8_without_magma_records_fallback_reference(self):
        """Regression: ``methods=`` without MAGMA used to break normalization
        (the reference method was missing from the results)."""
        spec = replace(get_scenario("fig8"), methods=("herald-like", "stdga"))
        result = run_scenario(spec, scale=TINY, seed=0)
        for task, reference in result["normalized_reference"].items():
            assert reference in {"Herald-like", "stdGA"}
            assert result["normalized"][task][reference] == pytest.approx(1.0)
            # The fallback reference is the best method of the panel.
            assert max(result["normalized"][task].values()) == pytest.approx(1.0)

    def test_fig8_with_magma_still_normalises_against_magma(self):
        spec = replace(get_scenario("fig8"), methods=("herald-like", "magma"))
        result = run_scenario(spec, scale=TINY, seed=0)
        assert set(result["normalized_reference"].values()) == {"MAGMA"}


class TestGridSpecFromDict:
    def test_round_trip_fields(self):
        spec = spec_from_grid({
            "name": "demo",
            "settings": ["S1"],
            "tasks": ["mix"],
            "methods": ["magma"],
            "seeds": [0, 1],
            "group_size": 12,
            "budget": "convergence",
        })
        assert spec.name == "demo"
        assert spec.seeds == (0, 1)
        assert spec.group_size == 12
        assert spec.budget_policy.base == "convergence"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ExperimentError):
            spec_from_grid({"setings": ["S1"]})

    def test_scalar_axes_are_wrapped_not_character_split(self):
        """Regression: tuple("S1") is ('S', '1') — a bare string axis must
        become a one-element axis, not a grid of bogus panels."""
        spec = spec_from_grid({"settings": "S1", "tasks": "vision", "seeds": "2"})
        assert spec.settings == ("S1",)
        assert spec.tasks == ("vision",)
        assert spec.seeds == (2,)

    @pytest.mark.parametrize("group_size", [0, -3, "8", 2.5, True, False, [8]])
    def test_malformed_group_size_rejected(self, group_size):
        """Regression: 0 silently ran at the scale's group size, "8" and True
        were accepted, and 2.5 was truncated and failed deep in the workload
        builder."""
        with pytest.raises(ExperimentError, match="group_size"):
            spec_from_grid({"group_size": group_size})
