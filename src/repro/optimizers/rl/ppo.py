"""Proximal Policy Optimization (PPO2) mapper — the "RL PPO2" baseline of Table IV.

PPO collects a rollout of ``episodes_per_rollout`` complete episodes, run in
lock-step in the :class:`MappingEnv`, then performs several epochs of
clipped-surrogate updates over minibatches of the collected (state, action,
advantage) samples.  Hyper-parameters follow Table IV: 3-layer MLPs with
128 units, discount 0.99, clipping range 0.2, learning rate 2.5e-4, Adam.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.base import BaseOptimizer
from repro.optimizers.rl.env import MappingEnv, RunningNormalizer, rollout
from repro.optimizers.rl.nn import MLP, AdamOptimizer, clip_gradients, softmax
from repro.utils.rng import SeedLike


class PPOOptimizer(BaseOptimizer):
    """Clipped-surrogate PPO over the lock-step mapping environment."""

    default_name = "RL PPO2"
    is_rl = True

    def __init__(
        self,
        seed: SeedLike = None,
        hidden_size: int = 128,
        num_hidden_layers: int = 3,
        discount: float = 0.99,
        learning_rate: float = 2.5e-4,
        clip_range: float = 0.2,
        entropy_coefficient: float = 0.01,
        episodes_per_rollout: int = 8,
        update_epochs: int = 4,
        minibatch_size: int = 256,
        num_priority_buckets: int = 4,
        max_grad_norm: float = 5.0,
        name: Optional[str] = None,
    ):
        super().__init__(seed=seed, name=name)
        if not (0.0 < discount <= 1.0):
            raise OptimizationError(f"discount must be in (0, 1], got {discount}")
        if clip_range <= 0:
            raise OptimizationError(f"clip_range must be positive, got {clip_range}")
        self.hidden_size = hidden_size
        self.num_hidden_layers = num_hidden_layers
        self.discount = discount
        self.learning_rate = learning_rate
        self.clip_range = clip_range
        self.entropy_coefficient = entropy_coefficient
        self.episodes_per_rollout = max(1, episodes_per_rollout)
        self.update_epochs = max(1, update_epochs)
        self.minibatch_size = max(8, minibatch_size)
        self.num_priority_buckets = num_priority_buckets
        self.max_grad_norm = max_grad_norm

    # ------------------------------------------------------------------
    def optimize(
        self,
        evaluator: MappingEvaluator,
        initial_encodings: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        self._require_budget(evaluator)
        env = MappingEnv(evaluator, self.num_priority_buckets)
        hidden = [self.hidden_size] * self.num_hidden_layers
        # Named substreams (not self.rng draws) so reseed() rebuilds the
        # exact same networks and action sampling is layout-insensitive.
        policy = MLP([env.observation_size, *hidden, env.num_actions], rng=self.stream("policy-init"))
        critic = MLP([env.observation_size, *hidden, 1], rng=self.stream("critic-init"))
        policy_opt = AdamOptimizer(learning_rate=self.learning_rate)
        critic_opt = AdamOptimizer(learning_rate=self.learning_rate)
        normalizer = RunningNormalizer()

        episodes = 0
        rollouts = 0
        best_return = -np.inf

        while not evaluator.budget_exhausted:
            batch = rollout(env, policy, self.rng, self.episodes_per_rollout)
            if not len(batch.returns):
                break
            episodes += len(batch.returns)
            rollouts += 1
            best_return = max(best_return, float(batch.returns.max()))
            targets = normalizer.discounted_targets(batch.returns, env.num_jobs, self.discount)
            self._update(policy, critic, policy_opt, critic_opt, batch.states, batch.actions, batch.log_probs, targets)

        self.metadata.update({"episodes": episodes, "rollouts": rollouts, "best_return": float(best_return)})
        return evaluator.best_encoding

    # ------------------------------------------------------------------
    def _update(
        self,
        policy: MLP,
        critic: MLP,
        policy_opt: AdamOptimizer,
        critic_opt: AdamOptimizer,
        states: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        returns: np.ndarray,
    ) -> None:
        """Several epochs of clipped-surrogate minibatch updates."""
        values, _ = critic.forward(states)
        advantages = returns - values[:, 0]
        if advantages.std() > 0:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        num_samples = len(states)
        for _ in range(self.update_epochs):
            order = self.rng.permutation(num_samples)
            for start in range(0, num_samples, self.minibatch_size):
                batch = order[start:start + self.minibatch_size]
                if batch.size == 0:
                    continue
                self._minibatch_step(
                    policy, critic, policy_opt, critic_opt,
                    states[batch], actions[batch], old_log_probs[batch],
                    returns[batch], advantages[batch],
                )

    def _minibatch_step(
        self,
        policy: MLP,
        critic: MLP,
        policy_opt: AdamOptimizer,
        critic_opt: AdamOptimizer,
        states: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        returns: np.ndarray,
        advantages: np.ndarray,
    ) -> None:
        batch = len(states)

        # Critic regression towards the discounted returns.
        values, critic_cache = critic.forward(states)
        critic_grad_out = (2.0 / batch) * (values[:, 0] - returns)[:, None]
        critic_grads = clip_gradients(critic.backward(critic_grad_out, critic_cache), self.max_grad_norm)
        critic_opt.step(critic.params, critic_grads)

        # Clipped surrogate policy update.
        logits, policy_cache = policy.forward(states)
        probabilities = softmax(logits)
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(batch), actions] = 1.0
        log_probs_all = np.log(probabilities + 1e-12)
        new_log_probs = log_probs_all[np.arange(batch), actions]
        ratios = np.exp(new_log_probs - old_log_probs)

        # The gradient of the clipped objective only flows through samples
        # where the unclipped term is the active (minimum) branch.
        upper_clipped = (ratios > 1.0 + self.clip_range) & (advantages > 0)
        lower_clipped = (ratios < 1.0 - self.clip_range) & (advantages < 0)
        active = ~(upper_clipped | lower_clipped)
        d_logp = np.where(active, -ratios * advantages, 0.0) / batch

        entropy = -np.sum(probabilities * log_probs_all, axis=1, keepdims=True)
        entropy_grad = self.entropy_coefficient * probabilities * (log_probs_all + entropy) / batch
        policy_grad_out = d_logp[:, None] * (one_hot - probabilities) + entropy_grad
        policy_grads = clip_gradients(policy.backward(policy_grad_out, policy_cache), self.max_grad_norm)
        policy_opt.step(policy.params, policy_grads)
