"""Optimizer registry: name -> constructor, mirroring Table IV of the paper."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Union

from repro.exceptions import OptimizationError
from repro.optimizers.base import BaseOptimizer
from repro.optimizers.magma import (
    MagmaOptimizer,
    magma_mutation_crossover_gen,
    magma_mutation_only,
)
from repro.utils.rng import SeedLike

#: Factory signature: ``factory(seed=..., **options) -> BaseOptimizer``.
OptimizerFactory = Callable[..., BaseOptimizer]


class OptimizerRegistry(Mapping[str, OptimizerFactory]):
    """Name -> factory, loading each baseline on its first lookup.

    A factory is either loaded already or given by its public name in
    :mod:`repro.optimizers`, whose first lookup imports its module; the
    factory is then kept.  Iterating, ``in`` and ``len`` import nothing, so
    a process that only runs MAGMA never loads the baselines or the RL
    agents.
    """

    def __init__(self, entries: Dict[str, Union[OptimizerFactory, str]]):
        self._entries = dict(entries)

    def __getitem__(self, name: str) -> OptimizerFactory:
        entry = self._entries[name]
        if isinstance(entry, str):
            import repro.optimizers

            entry = getattr(repro.optimizers, entry)
            self._entries[name] = entry
        return entry

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


OPTIMIZER_REGISTRY = OptimizerRegistry({
    # Manual baselines
    "herald": "HeraldLikeMapper",
    "herald-like": "HeraldLikeMapper",
    "aimt": "AIMTLikeMapper",
    "ai-mt-like": "AIMTLikeMapper",
    # Black-box optimization baselines
    "stdga": "StandardGAOptimizer",
    "de": "DifferentialEvolutionOptimizer",
    "cma": "CMAESOptimizer",
    "cma-es": "CMAESOptimizer",
    "pso": "PSOOptimizer",
    "tbpsa": "TBPSAOptimizer",
    "random": "RandomSearchOptimizer",
    # Reinforcement learning baselines
    "a2c": "A2COptimizer",
    "rl-a2c": "A2COptimizer",
    "ppo2": "PPOOptimizer",
    "rl-ppo2": "PPOOptimizer",
    # This work
    "magma": MagmaOptimizer,
    "magma-mut": magma_mutation_only,
    "magma-mut-gen": magma_mutation_crossover_gen,
})


def build_optimizer(name: str, seed: SeedLike = None, **options: object) -> BaseOptimizer:
    """Construct a registered optimizer by (case-insensitive) name."""
    key = str(name).lower()
    if key not in OPTIMIZER_REGISTRY:
        raise OptimizationError(
            f"unknown optimizer {name!r}; available: {sorted(set(OPTIMIZER_REGISTRY))}"
        )
    return OPTIMIZER_REGISTRY[key](seed=seed, **options)


def is_rl_method(name: str) -> bool:
    """Whether *name* resolves to a reinforcement-learning optimizer.

    Budget policies use this to apply the reduced RL sampling budget.  The
    check resolves the (case-insensitive) name or alias through the registry
    and inspects the factory's ``is_rl`` flag, so a newly registered RL
    optimizer — or a new alias of an existing one — is picked up without
    updating any hard-coded name list.  Unknown names are simply "not RL";
    they fail later, at construction time, with a proper error.
    """
    factory = OPTIMIZER_REGISTRY.get(str(name).lower())
    return bool(getattr(factory, "is_rl", False))


def list_optimizers() -> List[str]:
    """Canonical optimizer names (without aliases)."""
    canonical = {
        "herald-like",
        "ai-mt-like",
        "stdga",
        "de",
        "cma",
        "pso",
        "tbpsa",
        "random",
        "a2c",
        "ppo2",
        "magma",
        "magma-mut",
        "magma-mut-gen",
    }
    return sorted(canonical)


#: The ten methods compared in the paper's main figures (Fig. 8 and Fig. 9),
#: in the order the figures list them.
PAPER_COMPARISON_METHODS: List[str] = [
    "herald-like",
    "ai-mt-like",
    "pso",
    "cma",
    "de",
    "tbpsa",
    "stdga",
    "a2c",
    "ppo2",
    "magma",
]
