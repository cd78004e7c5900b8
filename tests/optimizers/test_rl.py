"""Tests for the RL components: NumPy MLP, environment, A2C, PPO2."""

import numpy as np
import pytest

from repro.core.evaluator import MappingEvaluator
from repro.core.framework import M3E
from repro.exceptions import OptimizationError
from repro.optimizers.rl.a2c import A2COptimizer
from repro.optimizers.rl.env import MappingEnv, rollout, sample_actions
from repro.optimizers.rl.nn import MLP, AdamOptimizer, RMSPropOptimizer, clip_gradients, softmax
from repro.optimizers.rl.ppo import PPOOptimizer
from repro.utils.serialization import SearchResultSummary


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP([6, 16, 16, 4], rng=0)
        out, _ = mlp.forward(np.zeros((5, 6)))
        assert out.shape == (5, 4)

    def test_requires_two_layer_sizes(self):
        with pytest.raises(OptimizationError):
            MLP([4], rng=0)

    def test_gradient_matches_finite_differences(self):
        """The analytical backward pass agrees with numerical differentiation."""
        rng = np.random.default_rng(0)
        mlp = MLP([3, 5, 2], rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss_for(params):
            original = mlp.params
            mlp.params = params
            out, _ = mlp.forward(x)
            mlp.params = original
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = mlp.forward(x)
        grads = mlp.backward(out - target, cache)
        epsilon = 1e-6
        for key in ("W0", "b1"):
            index = (0,) * mlp.params[key].ndim
            perturbed = {k: v.copy() for k, v in mlp.params.items()}
            perturbed[key][index] += epsilon
            numerical = (loss_for(perturbed) - loss_for(mlp.params)) / epsilon
            assert grads[key][index] == pytest.approx(numerical, rel=1e-3, abs=1e-5)

    def test_softmax_sums_to_one(self):
        probabilities = softmax(np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]]))
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert np.all(probabilities > 0)

    def test_gradient_clipping_bounds_norm(self):
        grads = {"W0": np.full((4, 4), 10.0)}
        clipped = clip_gradients(grads, max_norm=1.0)
        total = np.sqrt(sum(np.sum(g**2) for g in clipped.values()))
        assert total == pytest.approx(1.0)

    def test_rmsprop_and_adam_reduce_quadratic_loss(self):
        for optimizer in (RMSPropOptimizer(learning_rate=0.05), AdamOptimizer(learning_rate=0.05)):
            params = {"w": np.array([5.0])}
            for _ in range(200):
                grads = {"w": 2 * params["w"]}
                optimizer.step(params, grads)
            assert abs(params["w"][0]) < 1.0


class TestEnvironment:
    def test_episode_length_equals_group_size(self, evaluator):
        env = MappingEnv(evaluator, num_priority_buckets=3)
        observations = env.reset(4)
        assert observations.shape == (4, env.observation_size)
        done = False
        steps = 0
        while not done:
            _, rewards, done = env.step(np.zeros(4, dtype=int))
            steps += 1
        assert steps == evaluator.codec.num_jobs
        assert rewards.shape == (4,)
        assert np.all(rewards > 0)  # final rewards are the mapping fitnesses

    def test_invalid_action_rejected(self, evaluator):
        env = MappingEnv(evaluator)
        env.reset(2)
        with pytest.raises(OptimizationError):
            env.step(np.array([0, env.num_actions]))
        with pytest.raises(OptimizationError):
            env.step(np.array([-1, 0]))
        with pytest.raises(OptimizationError):
            env.step(np.zeros(3, dtype=int))  # one action per episode

    def test_step_after_done_rejected(self, evaluator):
        env = MappingEnv(evaluator)
        with pytest.raises(OptimizationError):
            env.step(np.zeros(1, dtype=int))  # before the first reset
        env.reset(2)
        for _ in range(evaluator.codec.num_jobs):
            env.step(np.zeros(2, dtype=int))
        with pytest.raises(OptimizationError):
            env.step(np.zeros(2, dtype=int))

    def test_encoding_reflects_actions(self, evaluator):
        env = MappingEnv(evaluator, num_priority_buckets=2)
        env.reset(2)
        num_jobs = evaluator.codec.num_jobs
        # Episode 0: core 1, bucket 0.  Episode 1: core 0, bucket 1.
        for _ in range(num_jobs):
            env.step(np.array([1 * 2 + 0, 0 * 2 + 1]))
        encodings = env.encodings()
        assert encodings.shape == (2, 2 * num_jobs)
        assert np.all(encodings[0, :num_jobs] == 1)
        assert np.all(encodings[1, :num_jobs] == 0)
        # Bucket 1 outranks bucket 0 on every job.
        assert np.all(encodings[1, num_jobs:] > encodings[0, num_jobs:])
        evaluator.codec.validate(encodings[0])

    def test_each_episode_consumes_one_sample(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=5)
        env = MappingEnv(evaluator)
        env.reset(3)
        done = False
        while not done:
            _, rewards, done = env.step(np.zeros(3, dtype=int))
        assert evaluator.samples_used == 3
        assert np.all(np.isfinite(rewards))

    def test_budget_cut_episodes_are_not_evaluated(self, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=5)
        env = MappingEnv(evaluator)
        policy = MLP([env.observation_size, 8, env.num_actions], rng=0)
        batch = rollout(env, policy, np.random.default_rng(0), 8)
        assert evaluator.samples_used == 5
        assert len(batch.returns) == 5 and np.all(np.isfinite(batch.returns))
        assert batch.states.shape == (5 * env.num_jobs, env.observation_size)
        assert batch.actions.shape == batch.log_probs.shape == (5 * env.num_jobs,)
        assert batch.returns.max() == evaluator.best_fitness

    def test_rewards_match_the_scalar_oracle(self, evaluator):
        env = MappingEnv(evaluator)
        env.reset(3)
        actions = np.random.default_rng(1).integers(0, env.num_actions, size=(evaluator.codec.num_jobs, 3))
        for step_actions in actions:
            _, rewards, _ = env.step(step_actions)
        oracle = [evaluator.evaluate(row, count_sample=False) for row in env.encodings()]
        assert rewards.tolist() == oracle


class TestSampleActions:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_row_by_row_choice(self, seed):
        """One draw equals ``rng.choice(A, p=row)`` per row, stream state included."""
        rng = np.random.default_rng(seed)
        num_rows, num_actions = int(rng.integers(1, 12)), int(rng.integers(2, 40))
        probabilities = softmax(rng.normal(size=(num_rows, num_actions)) * rng.choice([0.1, 3.0, 30.0]))
        reference, batched = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        expected = [int(reference.choice(num_actions, p=row)) for row in probabilities]
        assert sample_actions(probabilities, batched).tolist() == expected
        assert batched.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("factory", [
    lambda seed: A2COptimizer(seed=seed, hidden_size=16, num_hidden_layers=2, num_parallel_envs=2),
    lambda seed: PPOOptimizer(seed=seed, hidden_size=16, num_hidden_layers=2, episodes_per_rollout=2,
                              update_epochs=1, minibatch_size=32),
], ids=["A2C", "PPO2"])
class TestAgents:
    def test_respects_budget_and_returns_solution(self, factory, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=20)
        best = factory(0).optimize(evaluator)
        assert best is not None
        assert evaluator.samples_used <= 20
        evaluator.codec.validate(best)

    def test_metadata_reports_episodes(self, factory, small_platform, mix_group):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=16)
        optimizer = factory(1)
        optimizer.optimize(evaluator)
        assert optimizer.metadata["episodes"] >= 1

    def test_episodes_are_scored_through_the_eval_backend(self, factory, small_platform, mix_group, monkeypatch):
        evaluator = MappingEvaluator(mix_group, small_platform, sampling_budget=20)
        monkeypatch.setattr(evaluator, "evaluate", None)  # no per-episode scalar call
        factory(0).optimize(evaluator)
        assert evaluator.generations == 10  # one evaluate_population per 2-episode rollout
        assert evaluator.samples_used == 20

    def test_budget_cut_episodes_are_not_counted(self, factory, small_platform, mix_group):
        """The last 2-episode rollout has budget for one episode only.

        Under ``latency`` (fitness < 0) a made-up 0.0 return for the cut
        episode would also win ``best_return``.
        """
        evaluator = MappingEvaluator(mix_group, small_platform, objective="latency", sampling_budget=19)
        optimizer = factory(0)
        optimizer.optimize(evaluator)
        assert optimizer.metadata["episodes"] == evaluator.samples_used == 19
        assert optimizer.metadata["best_return"] == evaluator.best_fitness < 0

    def test_deterministic_given_seed(self, factory, small_platform, mix_group):
        summaries = []
        for _ in range(2):
            explorer = M3E(small_platform, sampling_budget=12)
            result = explorer.search(mix_group, optimizer=factory(7))
            summaries.append(SearchResultSummary.from_result(result).to_dict())
        assert summaries[0] == summaries[1]
