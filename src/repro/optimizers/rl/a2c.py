"""Advantage Actor-Critic (A2C) mapper — the "RL A2C" baseline of Table IV.

The agent builds mappings job-by-job in the :class:`MappingEnv`.  Its
``num_parallel_envs`` episodes are stepped in lock-step so the policy/critic
forward and backward passes are batched, matching the synchronous
multi-worker formulation of A2C.  Hyper-parameters follow Table IV: 3-layer
MLPs with 128 units, discount 0.99, learning rate 7e-4, RMSProp.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.base import BaseOptimizer
from repro.optimizers.rl.env import MappingEnv, RunningNormalizer, rollout
from repro.optimizers.rl.nn import MLP, RMSPropOptimizer, clip_gradients, softmax
from repro.utils.rng import SeedLike


class A2COptimizer(BaseOptimizer):
    """Synchronous advantage actor-critic over the lock-step mapping environment."""

    default_name = "RL A2C"
    is_rl = True

    def __init__(
        self,
        seed: SeedLike = None,
        hidden_size: int = 128,
        num_hidden_layers: int = 3,
        discount: float = 0.99,
        learning_rate: float = 7e-4,
        entropy_coefficient: float = 0.01,
        num_parallel_envs: int = 8,
        num_priority_buckets: int = 4,
        max_grad_norm: float = 5.0,
        name: Optional[str] = None,
    ):
        super().__init__(seed=seed, name=name)
        if not (0.0 < discount <= 1.0):
            raise OptimizationError(f"discount must be in (0, 1], got {discount}")
        self.hidden_size = hidden_size
        self.num_hidden_layers = num_hidden_layers
        self.discount = discount
        self.learning_rate = learning_rate
        self.entropy_coefficient = entropy_coefficient
        self.num_parallel_envs = max(1, num_parallel_envs)
        self.num_priority_buckets = num_priority_buckets
        self.max_grad_norm = max_grad_norm

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        env = MappingEnv(evaluator, self.num_priority_buckets)
        hidden = [self.hidden_size] * self.num_hidden_layers
        # Network init comes from named substreams, not draws of self.rng:
        # reseed() then rebuilds them exactly, and the action-sampling stream
        # is insensitive to how many weights the networks have.
        policy = MLP([env.observation_size, *hidden, env.num_actions], rng=self.stream("policy-init"))
        critic = MLP([env.observation_size, *hidden, 1], rng=self.stream("critic-init"))
        policy_opt = RMSPropOptimizer(learning_rate=self.learning_rate)
        critic_opt = RMSPropOptimizer(learning_rate=self.learning_rate)
        normalizer = RunningNormalizer()

        episodes = 0
        updates = 0
        best_return = -np.inf

        while not evaluator.budget_exhausted:
            batch = rollout(env, policy, self.rng, self.num_parallel_envs)
            if not len(batch.returns):
                break
            episodes += len(batch.returns)
            best_return = max(best_return, float(batch.returns.max()))
            targets = normalizer.discounted_targets(batch.returns, env.num_jobs, self.discount)
            self._update(policy, critic, policy_opt, critic_opt, batch.states, batch.actions, targets)
            updates += 1

        self.metadata.update({"episodes": episodes, "updates": updates, "best_return": float(best_return)})
        return evaluator.best_encoding

    # ------------------------------------------------------------------
    def _update(
        self,
        policy: MLP,
        critic: MLP,
        policy_opt: RMSPropOptimizer,
        critic_opt: RMSPropOptimizer,
        states: np.ndarray,
        actions: np.ndarray,
        returns: np.ndarray,
    ) -> None:
        """One synchronous actor-critic gradient step on the collected batch."""
        batch = len(states)
        values, critic_cache = critic.forward(states)
        values = values[:, 0]
        advantages = returns - values

        # Critic: mean-squared error towards the (normalised) returns.
        critic_grad_out = (2.0 / batch) * (values - returns)[:, None]
        critic_grads = clip_gradients(critic.backward(critic_grad_out, critic_cache), self.max_grad_norm)
        critic_opt.step(critic.params, critic_grads)

        # Policy: advantage-weighted log-likelihood plus entropy bonus.
        logits, policy_cache = policy.forward(states)
        probabilities = softmax(logits)
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(batch), actions] = 1.0
        log_probs = np.log(probabilities + 1e-12)
        entropy = -np.sum(probabilities * log_probs, axis=1, keepdims=True)
        policy_grad_out = (probabilities - one_hot) * advantages[:, None] / batch
        entropy_grad = self.entropy_coefficient * probabilities * (log_probs + entropy) / batch
        policy_grads = clip_gradients(
            policy.backward(policy_grad_out + entropy_grad, policy_cache), self.max_grad_norm
        )
        policy_opt.step(policy.params, policy_grads)
