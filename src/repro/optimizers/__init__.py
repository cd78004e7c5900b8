"""Optimization algorithms supported by M3E (Table IV of the paper).

The package contains MAGMA (the paper's contribution), the black-box
optimization baselines (stdGA, DE, CMA-ES, PSO, TBPSA, random search), the
reinforcement-learning baselines (A2C, PPO2), the manual mappers
(Herald-like, AI-MT-like), the warm-start engine, and the hyper-parameter
tuner.
"""

from repro.optimizers.base import BaseOptimizer
from repro.optimizers.magma import MagmaConfig, MagmaOptimizer, magma_mutation_only, magma_mutation_crossover_gen
from repro.optimizers.registry import (
    OPTIMIZER_REGISTRY,
    PAPER_COMPARISON_METHODS,
    build_optimizer,
    is_rl_method,
    list_optimizers,
)
from repro.optimizers import operators
from repro._lazy import lazy_exports

# MAGMA loads with the package; every other optimizer, the warm-start engine
# and the tuner load on first use (the registry looks its names up here).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "StandardGAOptimizer": "repro.optimizers.stdga",
    "DifferentialEvolutionOptimizer": "repro.optimizers.de",
    "CMAESOptimizer": "repro.optimizers.cmaes",
    "PSOOptimizer": "repro.optimizers.pso",
    "TBPSAOptimizer": "repro.optimizers.tbpsa",
    "RandomSearchOptimizer": "repro.optimizers.random_search",
    "HeraldLikeMapper": "repro.optimizers.heuristics.herald",
    "AIMTLikeMapper": "repro.optimizers.heuristics.aimt",
    "A2COptimizer": "repro.optimizers.rl.a2c",
    "PPOOptimizer": "repro.optimizers.rl.ppo",
    "WarmStartEngine": "repro.optimizers.warmstart",
    "HyperParameterSpace": "repro.optimizers.hyperparams",
    "MagmaHyperParameterTuner": "repro.optimizers.hyperparams",
})

__all__ = [
    "BaseOptimizer",
    "MagmaConfig",
    "MagmaOptimizer",
    "magma_mutation_only",
    "magma_mutation_crossover_gen",
    "StandardGAOptimizer",
    "DifferentialEvolutionOptimizer",
    "CMAESOptimizer",
    "PSOOptimizer",
    "TBPSAOptimizer",
    "RandomSearchOptimizer",
    "HeraldLikeMapper",
    "AIMTLikeMapper",
    "A2COptimizer",
    "PPOOptimizer",
    "WarmStartEngine",
    "HyperParameterSpace",
    "MagmaHyperParameterTuner",
    "OPTIMIZER_REGISTRY",
    "PAPER_COMPARISON_METHODS",
    "build_optimizer",
    "is_rl_method",
    "list_optimizers",
    "operators",
]
