"""Random search / exhaustive sampling.

Uniform random sampling of the mapping space.  With a very large budget this
is the "exhaustively sampled" best-effort optimum the paper uses as the
reference point in Fig. 10; with the standard budget it is the weakest
sensible baseline and a useful sanity check for every other algorithm.

Samples are proposed in batches so the evaluator's ``batch`` backend
simulates each batch in one vectorized sweep; the evaluator truncates the
final batch at the remaining sampling budget.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.optimizers.base import BaseOptimizer
from repro.utils.rng import SeedLike


class RandomSearchOptimizer(BaseOptimizer):
    """Uniform random sampling of encoded mappings until the budget runs out."""

    default_name = "Random"

    def __init__(self, seed: SeedLike = None, batch_size: int = 64, name: Optional[str] = None):
        super().__init__(seed=seed, name=name)
        self.batch_size = max(1, batch_size)

    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        self._require_budget(evaluator)
        if initial_encodings is not None:
            evaluator.evaluate_population(np.atleast_2d(np.asarray(initial_encodings, dtype=float)))
        samples = 0
        while not evaluator.budget_exhausted:
            batch = evaluator.codec.random_population(self.batch_size, self.rng)
            evaluator.evaluate_population(batch)
            samples += len(batch)
        self.metadata["samples_proposed"] = samples
        return evaluator.best_encoding
