"""Lock-step mapping environment and the rollout both RL agents share.

The RL agents (A2C and PPO2 in Table IV) formulate the mapping problem as a
sequential decision process: jobs are visited one at a time and the agent
chooses, for the current job, which sub-accelerator to run it on and which
priority bucket to give it.  After the last job the complete encoded mapping
is evaluated by M3E's fitness function, and that fitness is the episode
return (the reward is zero at intermediate steps).

The observation exposes what a scheduler would look at: the current job's
normalised latency and bandwidth profile on each core, the load already
accumulated on each core, the bandwidth demand already committed to each
core, and the episode progress.

:class:`MappingEnv` runs E episodes side by side as ``(E, ...)`` arrays.
Episodes within a rollout share one fixed policy, so stepping them in
lock-step is the same computation as running them one after another: one
``(E, obs)`` forward and one ``(E,)`` action draw per job, and one
:meth:`~repro.core.evaluator.MappingEvaluator.evaluate_population` call on
the E finished encodings, through whichever eval backend the search uses.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.exceptions import OptimizationError
from repro.optimizers.rl.nn import MLP, softmax


class MappingEnv:
    """Job-by-job mapping construction, E episodes at a time."""

    def __init__(self, evaluator: MappingEvaluator, num_priority_buckets: int = 4):
        if num_priority_buckets <= 0:
            raise OptimizationError(
                f"num_priority_buckets must be positive, got {num_priority_buckets}"
            )
        self.evaluator = evaluator
        self.num_priority_buckets = num_priority_buckets
        self.num_cores = evaluator.codec.num_sub_accelerators
        self.num_jobs = evaluator.codec.num_jobs
        self.observation_size = 4 * self.num_cores + 2
        self.num_actions = self.num_cores * num_priority_buckets

        table = evaluator.table
        self._latency = table.latency_cycles[:, : self.num_cores]
        self._bandwidth = table.required_bw_gbps[:, : self.num_cores]
        # Log-scale then normalise: latencies span orders of magnitude.
        self._latency_features = _min_max(np.log1p(self._latency))
        self._bandwidth_features = _min_max(np.log1p(self._bandwidth))
        self.reset(0)
        self._step = self.num_jobs  # nothing to step until reset()

    def reset(self, num_episodes: int) -> np.ndarray:
        """Start *num_episodes* episodes; returns their ``(E, obs)`` observations."""
        self._assignment = np.zeros((num_episodes, self.num_jobs), dtype=np.int64)
        self._priority = np.zeros((num_episodes, self.num_jobs))
        self._core_load = np.zeros((num_episodes, self.num_cores))
        self._core_bw = np.zeros((num_episodes, self.num_cores))
        self._step = 0
        return self._observations()

    def step(self, actions: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray, bool]:
        """Apply ``actions[i]`` to the current job of episode *i*.

        Returns ``(next_observations, rewards, done)``.  Rewards are zero
        until the last job; then they are the E mapping fitnesses from one
        ``evaluate_population`` call, with ``-inf`` on the rows the sampling
        budget cut off (those episodes were not evaluated), and the next
        observations are ``None``.
        """
        if self._step >= self.num_jobs:
            raise OptimizationError("episodes already finished; call reset()")
        actions = np.asarray(actions)
        episodes = len(self._core_load)
        if actions.shape != (episodes,):
            raise OptimizationError(f"expected {episodes} actions, got shape {actions.shape}")
        if actions.min() < 0 or actions.max() >= self.num_actions:
            raise OptimizationError(f"actions out of range [0, {self.num_actions})")
        core, bucket = np.divmod(actions, self.num_priority_buckets)
        job = self._step
        rows = np.arange(episodes)
        self._assignment[:, job] = core
        # Bucket sets the coarse priority; the per-job offset keeps decoding
        # deterministic and preserves the visit order within a bucket.
        self._priority[:, job] = (bucket + (job + 1) / (self.num_jobs + 2)) / self.num_priority_buckets
        self._core_load[rows, core] += self._latency[job, core]
        self._core_bw[rows, core] += self._bandwidth[job, core]
        self._step += 1

        if self._step == self.num_jobs:
            return None, self.evaluator.evaluate_population(self.encodings()), True
        return self._observations(), np.zeros(episodes), False

    def encodings(self) -> np.ndarray:
        """The ``(E, 2G)`` encoded mappings built so far (complete once done)."""
        return np.concatenate([self._assignment.astype(float), self._priority], axis=1)

    def _observations(self) -> np.ndarray:
        episodes = len(self._core_load)
        job = self._step
        progress = job / self.num_jobs
        return np.concatenate(
            [
                np.broadcast_to(self._latency_features[job], (episodes, self.num_cores)),
                np.broadcast_to(self._bandwidth_features[job], (episodes, self.num_cores)),
                _peak_scaled(self._core_load),
                _peak_scaled(self._core_bw),
                np.full((episodes, 1), progress),
                np.full((episodes, 1), 1.0 - progress),
            ],
            axis=1,
        )


def _min_max(values: np.ndarray) -> np.ndarray:
    span = values.max() - values.min()
    if span <= 0:
        return np.zeros_like(values)
    return (values - values.min()) / span


def _peak_scaled(values: np.ndarray) -> np.ndarray:
    """Each row divided by its maximum (an all-zero row stays zero)."""
    peak = values.max(axis=1, keepdims=True)
    return values / np.where(peak > 0, peak, 1.0)


def sample_actions(probabilities: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One action per row of an ``(E, A)`` probability array.

    Draws exactly what ``rng.choice(A, p=probabilities[i])`` for ``i = 0..E-1``
    would, and leaves *rng* in the same state: ``choice`` normalises the
    row's cumulative sum by its last entry and counts the entries at or
    below one ``rng.random()`` uniform.
    """
    cdf = np.cumsum(probabilities, axis=1)
    cdf /= cdf[:, -1:]
    uniforms = rng.random(len(cdf))
    return (cdf <= uniforms[:, None]).sum(axis=1)


class Rollout(NamedTuple):
    """The evaluated episodes of one rollout; per-step arrays are episode-major."""

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    #: Final fitness of each evaluated episode.
    returns: np.ndarray


def rollout(env: MappingEnv, policy: MLP, rng: np.random.Generator, num_episodes: int) -> Rollout:
    """Run *num_episodes* episodes in lock-step under *policy*.

    Episodes the sampling budget cut off are dropped: they have no return.
    """
    states = np.empty((num_episodes, env.num_jobs, env.observation_size))
    actions = np.empty((num_episodes, env.num_jobs), dtype=np.int64)
    log_probs = np.empty((num_episodes, env.num_jobs))
    rows = np.arange(num_episodes)
    observations = env.reset(num_episodes)
    for t in range(env.num_jobs):
        logits, _ = policy.forward(observations)
        probabilities = softmax(logits)
        picked = sample_actions(probabilities, rng)
        states[:, t] = observations
        actions[:, t] = picked
        log_probs[:, t] = np.log(probabilities[rows, picked] + 1e-12)
        next_observations, rewards, _ = env.step(picked)
        if next_observations is not None:
            observations = next_observations
    evaluated = np.isfinite(rewards)
    return Rollout(
        states=states[evaluated].reshape(-1, env.observation_size),
        actions=actions[evaluated].ravel(),
        log_probs=log_probs[evaluated].ravel(),
        returns=rewards[evaluated],
    )


class RunningNormalizer:
    """Running mean/std used to normalise episode returns into stable advantages."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 1.0
        return float(np.sqrt(self.m2 / (self.count - 1))) or 1.0

    def normalise(self, value: float) -> float:
        return (value - self.mean) / (self.std + 1e-8)

    def discounted_targets(self, returns: np.ndarray, horizon: int, discount: float) -> np.ndarray:
        """Per-step regression targets of a rollout, episode-major.

        Each episode's return is folded into the running statistics, then
        normalised by them, in episode order; step ``t`` of an episode gets
        ``discount ** (horizon - 1 - t)`` times that value.
        """
        normalised = np.empty(len(returns))
        for i, value in enumerate(returns.tolist()):
            self.update(value)
            normalised[i] = self.normalise(value)
        # Python's ``**``: NumPy's array power can round a factor 1 ulp off.
        factors = np.array([discount ** (horizon - 1 - t) for t in range(horizon)])
        return (factors * normalised[:, None]).ravel()
