"""Mapping encoding scheme (Fig. 5(a) of the paper).

A mapping for a group of ``G`` jobs on ``A`` sub-accelerators is encoded as a
flat vector of length ``2 * G`` split into two genomes:

* the **sub-accelerator selection** genome — ``G`` integers in ``[0, A)``
  stating which core each job runs on, and
* the **job prioritizing** genome — ``G`` floats in ``[0, 1)`` whose ordering
  (0 = highest priority) determines the execution order of the jobs assigned
  to the same core.

:class:`MappingCodec` owns the encode/decode/validate/repair logic;
:class:`Mapping` is a decoded mapping description (per-core ordered job
lists), i.e. the "mapping description" consumed by the BW allocator.

The codec also offers a batched API — :meth:`MappingCodec.repair_batch` and
:meth:`MappingCodec.decode_batch` — that repairs/decodes a whole ``(pop, 2G)``
population in vectorized NumPy and yields a :class:`MappingBatch`, the
lane-major array form consumed by the batched bandwidth allocator
(:class:`~repro.core.bw_allocator.BatchBandwidthAllocator`): each row's jobs
sorted by (core, priority, job index), so every core's execution queue is one
contiguous run.  Two stable argsorts and one ``bincount`` build it, with no
``(pop, G, A)`` intermediate.  The batch decode is bit-identical to decoding
each row with :meth:`MappingCodec.decode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import EncodingError
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Mapping:
    """Decoded mapping description: ordered job indices per sub-accelerator.

    ``assignments[a]`` is the execution order (list of job indices into the
    group) for sub-accelerator ``a``.  Every job index in ``range(num_jobs)``
    appears exactly once across all cores.
    """

    assignments: Tuple[Tuple[int, ...], ...]
    num_jobs: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for core_jobs in self.assignments:
            for job_index in core_jobs:
                if job_index < 0 or job_index >= self.num_jobs:
                    raise EncodingError(f"job index {job_index} out of range [0, {self.num_jobs})")
                if job_index in seen:
                    raise EncodingError(f"job index {job_index} assigned to more than one core")
                seen.add(job_index)
        if len(seen) != self.num_jobs:
            missing = sorted(set(range(self.num_jobs)) - seen)
            raise EncodingError(f"mapping does not cover all jobs; missing {missing[:10]}")

    @property
    def num_sub_accelerators(self) -> int:
        """Number of cores the mapping targets."""
        return len(self.assignments)

    def core_of(self, job_index: int) -> int:
        """Return the core a job is assigned to."""
        for core, core_jobs in enumerate(self.assignments):
            if job_index in core_jobs:
                return core
        raise EncodingError(f"job index {job_index} not present in mapping")

    def jobs_per_core(self) -> List[int]:
        """Number of jobs assigned to each core."""
        return [len(core_jobs) for core_jobs in self.assignments]

    def describe(self) -> str:
        """Short human-readable description of the assignment."""
        parts = [
            f"core{core}: [{', '.join(str(j) for j in core_jobs)}]"
            for core, core_jobs in enumerate(self.assignments)
        ]
        return "; ".join(parts)


@dataclass(frozen=True)
class MappingBatch:
    """Lane-major array form of a decoded population of mappings.

    ``lane_order[p]`` lists individual ``p``'s jobs sorted by (core,
    priority, job index): core ``a``'s execution order is the run of
    ``queue_lengths[p, a]`` entries that follows the first
    ``queue_lengths[p, :a].sum()``.  ``selection[p, j]`` is the core job ``j``
    runs on.  This is the representation the batched bandwidth allocator
    lays out as one flat sequence per (individual, core) lane.
    """

    selection: np.ndarray  # (pop, G) int
    lane_order: np.ndarray  # (pop, G) int, jobs sorted by (core, priority, index)
    queue_lengths: np.ndarray  # (pop, A) int
    num_jobs: int

    @property
    def pop_size(self) -> int:
        """Number of individuals in the batch."""
        return self.queue_lengths.shape[0]

    @property
    def num_sub_accelerators(self) -> int:
        """Number of cores each mapping targets."""
        return self.queue_lengths.shape[1]

    def mapping(self, index: int) -> Mapping:
        """Materialise one individual as a :class:`Mapping` description."""
        queues = np.split(self.lane_order[index], np.cumsum(self.queue_lengths[index])[:-1])
        return Mapping(
            assignments=tuple(tuple(int(j) for j in queue) for queue in queues),
            num_jobs=self.num_jobs,
        )


class MappingCodec:
    """Encode, decode, sample, and repair mapping vectors.

    Parameters
    ----------
    num_jobs:
        Group size ``G``.
    num_sub_accelerators:
        Number of cores ``A``.
    """

    def __init__(self, num_jobs: int, num_sub_accelerators: int):
        if num_jobs <= 0:
            raise EncodingError(f"num_jobs must be positive, got {num_jobs}")
        if num_sub_accelerators <= 0:
            raise EncodingError(f"num_sub_accelerators must be positive, got {num_sub_accelerators}")
        self.num_jobs = num_jobs
        self.num_sub_accelerators = num_sub_accelerators

    # ------------------------------------------------------------------
    @property
    def genome_length(self) -> int:
        """Length of one genome (equal to the group size)."""
        return self.num_jobs

    @property
    def encoding_length(self) -> int:
        """Total length of an encoded mapping (two genomes)."""
        return 2 * self.num_jobs

    def selection_genome(self, encoding: np.ndarray) -> np.ndarray:
        """View of the sub-accelerator selection genome."""
        return encoding[: self.num_jobs]

    def priority_genome(self, encoding: np.ndarray) -> np.ndarray:
        """View of the job prioritizing genome."""
        return encoding[self.num_jobs:]

    # ------------------------------------------------------------------
    def random_encoding(self, rng: SeedLike = None) -> np.ndarray:
        """Sample a uniformly random, valid encoded mapping."""
        generator = ensure_rng(rng)
        selection = generator.integers(0, self.num_sub_accelerators, size=self.num_jobs)
        priority = generator.random(self.num_jobs)
        return np.concatenate([selection.astype(float), priority])

    def random_population(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Sample *size* random encodings as a ``(size, 2G)`` array."""
        generator = ensure_rng(rng)
        return np.stack([self.random_encoding(generator) for _ in range(size)])

    # ------------------------------------------------------------------
    def validate(self, encoding: np.ndarray) -> None:
        """Raise :class:`EncodingError` if *encoding* has the wrong shape."""
        array = np.asarray(encoding, dtype=float)
        if array.ndim != 1 or array.shape[0] != self.encoding_length:
            raise EncodingError(
                f"encoding must be a flat vector of length {self.encoding_length}, "
                f"got shape {array.shape}"
            )
        if not np.all(np.isfinite(array)):
            raise EncodingError("encoding contains non-finite values")

    def repair(self, encoding: np.ndarray) -> np.ndarray:
        """Clamp an arbitrary real vector into the valid encoding domain.

        Continuous optimizers (DE, CMA-ES, PSO, ...) operate on unconstrained
        real vectors; this projects their candidates back into the search
        space: selection genes are rounded and clipped to ``[0, A)``,
        priority genes are clipped to ``[0, 1)``.
        """
        self.validate(encoding)
        repaired = np.asarray(encoding, dtype=float).copy()
        selection = np.rint(repaired[: self.num_jobs])
        selection = np.clip(selection, 0, self.num_sub_accelerators - 1)
        priority = np.clip(repaired[self.num_jobs:], 0.0, 1.0 - 1e-12)
        repaired[: self.num_jobs] = selection
        repaired[self.num_jobs:] = priority
        return repaired

    def repair_batch(self, population: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`repair` of a whole ``(pop, 2G)`` population.

        Applies the exact same element-wise rint/clip projection as the scalar
        repair, so ``repair_batch(pop)[i]`` is bit-identical to
        ``repair(pop[i])``.
        """
        array = np.atleast_2d(np.asarray(population, dtype=float))
        if array.ndim != 2 or array.shape[1] != self.encoding_length:
            raise EncodingError(
                f"population must be a (pop, {self.encoding_length}) array, "
                f"got shape {np.asarray(population).shape}"
            )
        if not np.all(np.isfinite(array)):
            raise EncodingError("population contains non-finite values")
        repaired = array.copy()
        repaired[:, : self.num_jobs] = np.clip(
            np.rint(repaired[:, : self.num_jobs]), 0, self.num_sub_accelerators - 1
        )
        repaired[:, self.num_jobs:] = np.clip(repaired[:, self.num_jobs:], 0.0, 1.0 - 1e-12)
        return repaired

    # ------------------------------------------------------------------
    def decode(self, encoding: np.ndarray) -> Mapping:
        """Decode an encoded vector into a :class:`Mapping` description.

        Jobs assigned to the same core are ordered by ascending priority
        value (0 is the highest priority); ties break on job index so the
        decode is deterministic.
        """
        repaired = self.repair(encoding)
        selection = repaired[: self.num_jobs].astype(int)
        priority = repaired[self.num_jobs:]
        assignments: List[List[int]] = [[] for _ in range(self.num_sub_accelerators)]
        # Sort all jobs by (priority, job index) once, then bucket by core to
        # keep the decode O(G log G).
        order = np.lexsort((np.arange(self.num_jobs), priority))
        for job_index in order:
            assignments[selection[job_index]].append(int(job_index))
        return Mapping(
            assignments=tuple(tuple(core_jobs) for core_jobs in assignments),
            num_jobs=self.num_jobs,
        )

    def decode_batch(self, population: np.ndarray) -> MappingBatch:
        """Decode a ``(pop, 2G)`` population into a :class:`MappingBatch`.

        Per-row this performs the same repair, stable priority sort (ties
        break on job index), and per-core bucketing as :meth:`decode`, but
        fully vectorized: a stable argsort of the priority-sorted core column
        groups the jobs by core without disturbing their priority order.
        """
        repaired = self.repair_batch(population)
        pop = repaired.shape[0]
        num_jobs = self.num_jobs
        num_cores = self.num_sub_accelerators
        selection = repaired[:, :num_jobs].astype(int)
        # Stable argsort by priority == lexsort((arange, priority)) per row.
        order = np.argsort(repaired[:, num_jobs:], axis=1, kind="stable")
        # Narrow core ids (uint8 up to 256 cores) let the stable argsort run
        # as a radix sort.
        core_of_pos = np.take_along_axis(selection, order, axis=1).astype(
            np.min_scalar_type(num_cores - 1)
        )
        by_core = np.argsort(core_of_pos, axis=1, kind="stable")
        lane_order = np.take_along_axis(order, by_core, axis=1)
        row_offsets = np.arange(pop)[:, None] * num_cores
        queue_lengths = np.bincount(
            (selection + row_offsets).ravel(), minlength=pop * num_cores
        ).reshape(pop, num_cores)
        return MappingBatch(
            selection=selection,
            lane_order=lane_order,
            queue_lengths=queue_lengths,
            num_jobs=num_jobs,
        )

    def encode(self, mapping: Mapping) -> np.ndarray:
        """Encode a :class:`Mapping` back into a vector.

        Priorities are assigned evenly spaced in ``[0, 1)`` following each
        core's execution order, so ``decode(encode(m))`` reproduces ``m``.
        """
        if mapping.num_jobs != self.num_jobs:
            raise EncodingError(
                f"mapping covers {mapping.num_jobs} jobs but codec expects {self.num_jobs}"
            )
        if mapping.num_sub_accelerators > self.num_sub_accelerators:
            raise EncodingError(
                f"mapping uses {mapping.num_sub_accelerators} cores but codec allows "
                f"{self.num_sub_accelerators}"
            )
        selection = np.zeros(self.num_jobs)
        priority = np.zeros(self.num_jobs)
        step = 1.0 / (self.num_jobs + 1)
        for core, core_jobs in enumerate(mapping.assignments):
            for position, job_index in enumerate(core_jobs):
                selection[job_index] = core
                # Rank within the core determines priority; scale by overall
                # position so ordering is preserved exactly after decode.
                priority[job_index] = (position + 1) * step
        return np.concatenate([selection, priority])
