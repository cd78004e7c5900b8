"""Warm-start engine for MAGMA (Section V-C of the paper).

Warm-start re-uses solutions from previously solved tasks: when a new group
of jobs belongs to the same task type (Vision, Language, Recommendation, or
Mix) as an already-optimized group, the stored solution initialises the new
search instead of a random population.  The paper's Table V shows this gives
7.4x-152x better starting points and reaches ~93-99% of the fully optimized
performance within a single epoch of further optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.encoding import MappingCodec
from repro.exceptions import OptimizationError
from repro.optimizers import operators
from repro.utils.rng import SeedLike


@dataclass
class _StoredSolution:
    """One remembered solution: the encoding and the problem shape it solved."""

    encoding: np.ndarray
    num_jobs: int
    num_sub_accelerators: int
    fitness: float


class WarmStartEngine:
    """Remembers the best mapping per task type and adapts it to new groups.

    The engine recognises a task by its task-type key (the string attached to
    the jobs, e.g. ``"vision"`` or ``"mix"``).  When asked for a warm start on
    a new problem it adapts the remembered encoding to the new group size by
    tiling/truncating the two genomes, and to a new core count by clamping
    the selection genes — both are cheap, structure-preserving projections.
    """

    def __init__(self) -> None:
        self._memory: Dict[str, _StoredSolution] = {}

    # ------------------------------------------------------------------
    def record(
        self,
        task_key: str,
        encoding: np.ndarray,
        codec: MappingCodec,
        fitness: float,
    ) -> bool:
        """Store (or replace) the remembered solution for *task_key*.

        Only a better-fitness solution replaces an existing entry for the same
        task type.  Returns whether the memory changed — the persistent
        library uses this to decide whether a solution is worth writing to
        disk.
        """
        if not task_key:
            raise OptimizationError("task_key must be a non-empty string")
        encoding = codec.repair(np.asarray(encoding, dtype=float))
        existing = self._memory.get(task_key)
        if existing is None or fitness > existing.fitness:
            self._memory[task_key] = _StoredSolution(
                encoding=encoding.copy(),
                num_jobs=codec.num_jobs,
                num_sub_accelerators=codec.num_sub_accelerators,
                fitness=fitness,
            )
            return True
        return False

    def knows(self, task_key: str) -> bool:
        """Whether a solution for this task type has been recorded."""
        return task_key in self._memory

    def known_tasks(self) -> List[str]:
        """Task types with remembered solutions."""
        return sorted(self._memory)

    def clear(self) -> None:
        """Forget all remembered solutions."""
        self._memory.clear()

    def fitness_of(self, task_key: str) -> Optional[float]:
        """Fitness of the remembered solution for *task_key*, if any."""
        stored = self._memory.get(task_key)
        return None if stored is None else stored.fitness

    # ------------------------------------------------------------------
    # State round-trip (used by the persistent warm-start library)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Dict]:
        """JSON-safe dict snapshot of the remembered solutions.

        The inverse of :meth:`from_state`: a round-tripped engine produces
        bit-identical suggestions for every known task.
        """
        return {
            task_key: {
                "encoding": [float(v) for v in stored.encoding],
                "num_jobs": int(stored.num_jobs),
                "num_sub_accelerators": int(stored.num_sub_accelerators),
                "fitness": float(stored.fitness),
            }
            for task_key, stored in sorted(self._memory.items())
        }

    @classmethod
    def from_state(cls, state: Dict[str, Dict]) -> "WarmStartEngine":
        """Rebuild an engine from a :meth:`to_state` snapshot."""
        engine = cls()
        for task_key, entry in state.items():
            if not task_key:
                raise OptimizationError("task_key must be a non-empty string")
            try:
                stored = _StoredSolution(
                    encoding=np.asarray(entry["encoding"], dtype=float),
                    num_jobs=int(entry["num_jobs"]),
                    num_sub_accelerators=int(entry["num_sub_accelerators"]),
                    fitness=float(entry["fitness"]),
                )
            except (KeyError, TypeError, ValueError) as error:
                raise OptimizationError(
                    f"malformed warm-start state for task {task_key!r}: {error}"
                ) from error
            if stored.encoding.shape != (2 * stored.num_jobs,):
                raise OptimizationError(
                    f"warm-start state for task {task_key!r} has encoding length "
                    f"{stored.encoding.shape[0]}, expected {2 * stored.num_jobs}"
                )
            engine._memory[task_key] = stored
        return engine

    # ------------------------------------------------------------------
    def suggest(
        self,
        task_key: str,
        codec: MappingCodec,
        count: int = 1,
        rng: SeedLike = None,
        perturbation: float = 0.05,
    ) -> Optional[np.ndarray]:
        """Return *count* warm-start encodings for a new problem, or ``None``.

        The first suggestion is the adapted remembered solution verbatim; the
        remaining ones are copies mutated with
        :func:`~repro.optimizers.operators.mutate` at rate *perturbation*,
        so the seeded population still carries diversity.
        """
        if task_key not in self._memory:
            return None
        base = self._adapt(self._memory[task_key], codec)
        if count <= 1:
            # The verbatim suggestion needs no randomness; only resolve a
            # generator (and thus the seed policy) when mutated copies are
            # asked for — see docs/DETERMINISM.md.
            return base[None, :]
        copies = operators.mutate(
            np.tile(base, (count - 1, 1)), codec, rng=rng, mutation_rate=perturbation
        )
        return np.vstack([base, copies])

    # ------------------------------------------------------------------
    @staticmethod
    def _adapt(stored: _StoredSolution, codec: MappingCodec) -> np.ndarray:
        """Project a stored solution onto a (possibly different) problem shape."""
        old_jobs = stored.num_jobs
        new_jobs = codec.num_jobs
        old_selection = stored.encoding[:old_jobs]
        old_priority = stored.encoding[old_jobs:]

        if new_jobs <= old_jobs:
            selection = old_selection[:new_jobs].copy()
            priority = old_priority[:new_jobs].copy()
        else:
            repeats = -(-new_jobs // old_jobs)
            selection = np.tile(old_selection, repeats)[:new_jobs]
            priority = np.tile(old_priority, repeats)[:new_jobs]

        selection = np.clip(selection, 0, codec.num_sub_accelerators - 1)
        return codec.repair(np.concatenate([selection, priority]))
