"""Covariance Matrix Adaptation Evolution Strategy baseline (CMA-ES, Table IV).

A standard (mu/mu_w, lambda)-CMA-ES implementation following Hansen's
tutorial formulation, operating on the real-valued mapping encoding.  The
paper's configuration keeps the best-performing half of each generation as
the elite (parent) group, which corresponds to ``mu = lambda / 2`` here.

For the large group sizes used in the paper the full covariance matrix would
be 200x200; to keep each generation cheap the implementation supports a
diagonal-covariance mode (the default for dimensions above a threshold),
which is the standard large-scale variant (sep-CMA-ES).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.base import BaseOptimizer, ranked_finite
from repro.utils.rng import SeedLike


class CMAESOptimizer(BaseOptimizer):
    """(mu/mu_w, lambda)-CMA-ES on the encoded mapping space."""

    default_name = "CMA"

    def __init__(
        self,
        seed: SeedLike = None,
        population_size: int = 100,
        initial_sigma: float = 0.3,
        diagonal_threshold: int = 64,
        name: Optional[str] = None,
    ):
        super().__init__(seed=seed, name=name)
        if population_size < 4:
            raise OptimizationError("CMA-ES needs a population of at least 4 individuals")
        if initial_sigma <= 0:
            raise OptimizationError(f"initial_sigma must be positive, got {initial_sigma}")
        self.population_size = population_size
        self.initial_sigma = initial_sigma
        self.diagonal_threshold = diagonal_threshold

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        self._require_budget(evaluator)
        codec = evaluator.codec
        dimension = codec.encoding_length
        lam = self.population_size
        mu = lam // 2
        use_diagonal = dimension > self.diagonal_threshold

        # Normalised search space: every coordinate lives in [0, 1]; the
        # selection genes are scaled back to [0, A) before evaluation.
        scale = np.concatenate(
            [
                np.full(codec.genome_length, max(1, codec.num_sub_accelerators - 1)),
                np.ones(codec.genome_length),
            ]
        )

        # Recombination weights (log-rank weighting).
        raw_weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        weights = raw_weights / raw_weights.sum()
        mu_eff = 1.0 / np.sum(weights**2)

        # Strategy parameter defaults (Hansen's tutorial).
        c_sigma = (mu_eff + 2) / (dimension + mu_eff + 5)
        d_sigma = 1 + 2 * max(0.0, np.sqrt((mu_eff - 1) / (dimension + 1)) - 1) + c_sigma
        c_c = (4 + mu_eff / dimension) / (dimension + 4 + 2 * mu_eff / dimension)
        c_1 = 2 / ((dimension + 1.3) ** 2 + mu_eff)
        c_mu = min(1 - c_1, 2 * (mu_eff - 2 + 1 / mu_eff) / ((dimension + 2) ** 2 + mu_eff))
        chi_n = np.sqrt(dimension) * (1 - 1 / (4 * dimension) + 1 / (21 * dimension**2))

        if initial_encodings is not None:
            seed_encoding = codec.repair(np.atleast_2d(np.asarray(initial_encodings, dtype=float))[0])
            mean = seed_encoding / scale
        else:
            mean = self.rng.random(dimension)
        sigma = self.initial_sigma
        p_sigma = np.zeros(dimension)
        p_c = np.zeros(dimension)
        diag_c = np.ones(dimension)
        cov = np.eye(dimension) if not use_diagonal else None

        generations = 0
        while not evaluator.budget_exhausted:
            if use_diagonal:
                std = np.sqrt(diag_c)
                z = self.rng.standard_normal((lam, dimension))
                y = z * std
            else:
                eigvals, eigvecs = np.linalg.eigh(cov)
                eigvals = np.maximum(eigvals, 1e-12)
                sqrt_cov = eigvecs @ np.diag(np.sqrt(eigvals))
                z = self.rng.standard_normal((lam, dimension))
                y = z @ sqrt_cov.T
            samples = mean + sigma * y

            encodings = np.clip(samples, 0.0, 1.0) * scale
            fitnesses = evaluator.evaluate_population(encodings)
            # A generation truncated by budget exhaustion leaves -inf
            # placeholder rows; recombining the mean from those (unevaluated)
            # samples would adapt the distribution towards arbitrary noise.
            order = ranked_finite(fitnesses)
            if order.size == 0:
                break
            top = order[:mu]
            top_weights = weights[: top.size]
            if top.size < mu:
                top_weights = top_weights / top_weights.sum()

            y_w = np.sum(top_weights[:, None] * y[top], axis=0)
            mean = mean + sigma * y_w
            mean = np.clip(mean, 0.0, 1.0)

            # Step-size control.
            if use_diagonal:
                c_inv_sqrt_y = y_w / np.sqrt(diag_c)
            else:
                c_inv_sqrt_y = eigvecs @ ((eigvecs.T @ y_w) / np.sqrt(eigvals))
            p_sigma = (1 - c_sigma) * p_sigma + np.sqrt(c_sigma * (2 - c_sigma) * mu_eff) * c_inv_sqrt_y
            sigma = sigma * np.exp((c_sigma / d_sigma) * (np.linalg.norm(p_sigma) / chi_n - 1))
            sigma = float(np.clip(sigma, 1e-6, 2.0))

            # Covariance adaptation.
            h_sigma = float(
                np.linalg.norm(p_sigma) / np.sqrt(1 - (1 - c_sigma) ** (2 * (generations + 1)))
                < (1.4 + 2 / (dimension + 1)) * chi_n
            )
            p_c = (1 - c_c) * p_c + h_sigma * np.sqrt(c_c * (2 - c_c) * mu_eff) * y_w
            if use_diagonal:
                rank_mu = np.sum(top_weights[:, None] * (y[top] ** 2), axis=0)
                diag_c = (1 - c_1 - c_mu) * diag_c + c_1 * (p_c**2) + c_mu * rank_mu
                diag_c = np.maximum(diag_c, 1e-12)
            else:
                rank_one = np.outer(p_c, p_c)
                rank_mu = sum(w * np.outer(y_i, y_i) for w, y_i in zip(top_weights, y[top]))
                cov = (1 - c_1 - c_mu) * cov + c_1 * rank_one + c_mu * rank_mu
                cov = (cov + cov.T) / 2
            generations += 1

        self.metadata.update({"generations": generations, "final_sigma": float(sigma), "diagonal": use_diagonal})
        return evaluator.best_encoding
