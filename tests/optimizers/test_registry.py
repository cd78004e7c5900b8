"""Tests for the optimizer registry."""

import pytest

from repro.exceptions import OptimizationError
from repro.optimizers import build_optimizer, list_optimizers
from repro.optimizers.base import BaseOptimizer
from repro.optimizers.magma import MagmaOptimizer
from repro.optimizers.registry import OPTIMIZER_REGISTRY, PAPER_COMPARISON_METHODS, is_rl_method

#: Every registered name and alias: the class it builds, and whether it is RL.
EXPECTED = {
    "herald": ("repro.optimizers.heuristics.herald.HeraldLikeMapper", False),
    "herald-like": ("repro.optimizers.heuristics.herald.HeraldLikeMapper", False),
    "aimt": ("repro.optimizers.heuristics.aimt.AIMTLikeMapper", False),
    "ai-mt-like": ("repro.optimizers.heuristics.aimt.AIMTLikeMapper", False),
    "stdga": ("repro.optimizers.stdga.StandardGAOptimizer", False),
    "de": ("repro.optimizers.de.DifferentialEvolutionOptimizer", False),
    "cma": ("repro.optimizers.cmaes.CMAESOptimizer", False),
    "cma-es": ("repro.optimizers.cmaes.CMAESOptimizer", False),
    "pso": ("repro.optimizers.pso.PSOOptimizer", False),
    "tbpsa": ("repro.optimizers.tbpsa.TBPSAOptimizer", False),
    "random": ("repro.optimizers.random_search.RandomSearchOptimizer", False),
    "a2c": ("repro.optimizers.rl.a2c.A2COptimizer", True),
    "rl-a2c": ("repro.optimizers.rl.a2c.A2COptimizer", True),
    "ppo2": ("repro.optimizers.rl.ppo.PPOOptimizer", True),
    "rl-ppo2": ("repro.optimizers.rl.ppo.PPOOptimizer", True),
    "magma": ("repro.optimizers.magma.MagmaOptimizer", False),
    "magma-mut": ("repro.optimizers.magma.MagmaOptimizer", False),
    "magma-mut-gen": ("repro.optimizers.magma.MagmaOptimizer", False),
}


class TestRegistry:
    def test_every_registered_name_builds(self):
        for name in OPTIMIZER_REGISTRY:
            optimizer = build_optimizer(name, seed=0)
            assert isinstance(optimizer, BaseOptimizer)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_each_name_builds_its_class_and_knows_if_it_is_rl(self, name):
        """Names resolve on first use; each builds the same class as when
        every optimizer was imported up front, upper case included."""
        class_path, rl = EXPECTED[name]
        for spelling in (name, name.upper()):
            optimizer = build_optimizer(spelling, seed=0)
            assert f"{type(optimizer).__module__}.{type(optimizer).__qualname__}" == class_path
            assert is_rl_method(spelling) is rl

    def test_registry_lists_exactly_the_expected_names(self):
        assert sorted(OPTIMIZER_REGISTRY) == sorted(EXPECTED)
        assert len(OPTIMIZER_REGISTRY) == len(EXPECTED)
        assert "simulated-annealing" not in OPTIMIZER_REGISTRY
        assert OPTIMIZER_REGISTRY.get("simulated-annealing") is None
        assert not is_rl_method("simulated-annealing")

    def test_lookup_is_case_insensitive(self):
        assert isinstance(build_optimizer("MAGMA", seed=0), MagmaOptimizer)

    def test_unknown_name_rejected(self):
        with pytest.raises(OptimizationError):
            build_optimizer("simulated-annealing")

    def test_options_are_forwarded(self):
        optimizer = build_optimizer("magma", seed=0, population_size=17)
        assert optimizer.config.population_size == 17

    def test_list_optimizers_contains_paper_methods(self):
        available = set(list_optimizers())
        assert {"magma", "stdga", "de", "cma", "pso", "tbpsa", "a2c", "ppo2",
                "herald-like", "ai-mt-like"} <= available

    def test_paper_comparison_list_matches_figure_order(self):
        assert PAPER_COMPARISON_METHODS[0] == "herald-like"
        assert PAPER_COMPARISON_METHODS[-1] == "magma"
        assert len(PAPER_COMPARISON_METHODS) == 10

    def test_each_paper_method_is_registered(self):
        for name in PAPER_COMPARISON_METHODS:
            assert name in OPTIMIZER_REGISTRY

    def test_display_names_are_distinct(self):
        names = {build_optimizer(name, seed=0).name for name in PAPER_COMPARISON_METHODS}
        assert len(names) == len(PAPER_COMPARISON_METHODS)
