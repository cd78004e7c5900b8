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

The codec also offers a batched API in vectorized NumPy:
:meth:`MappingCodec.repair_batch` repairs a whole ``(pop, 2G)`` population
and :meth:`MappingCodec.decode_batch` decodes the repaired rows into a
:class:`MappingBatch`, the lane-major array form consumed by the batched
bandwidth allocator (:class:`~repro.core.bw_allocator.BatchBandwidthAllocator`):
each row's jobs sorted by (core, priority, job index), so every core's
execution queue is one contiguous run.  Two sorts and one ``bincount``
build it, with no ``(pop, G, A)`` intermediate: an argsort of the
priorities yields each job's dense priority rank (equal priorities share
one), and one sort of the unique integer keys ``(core, rank, job)`` orders
the row, ties broken on job index as the scalar decode's ``lexsort`` does.
The batch decode is bit-identical to decoding each row with
:meth:`MappingCodec.decode`.

:func:`stable_argsort_rows`, a fast row-wise stable argsort, lives here too;
the batched bandwidth allocator sorts its events with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import EncodingError
from repro.utils.rng import SeedLike, ensure_rng

#: NumPy's stable argsort (a timsort for floats) merges the ascending runs a
#: row is made of, so its cost grows with the number of runs; the default
#: (SIMD) argsort plus a tie repair costs about the same whatever the order,
#: but more per call.  Rows of at most this many runs, or of at most this
#: many columns, take the stable sort (probe table: docs/PERFORMANCE.md,
#: "Event sort: runs, not only row length").
_STABLE_ARGSORT_MAX_RUNS = 4
_STABLE_ARGSORT_MAX_COLUMNS = 32


def stable_argsort_rows(values: np.ndarray, runs: int) -> np.ndarray:
    """``np.argsort(values, axis=1, kind="stable")`` of a finite 2-D array.

    Equal values keep their column order.  *runs* bounds the number of
    ascending runs each row is made of (the batched bandwidth allocator's
    rows are one run per core; unordered rows have one per column).  Rows
    of few runs or few columns use NumPy's stable argsort, which merges
    runs.  Longer rows of many runs use the default argsort, about 2.3x
    faster than the stable one on unordered data, and then put each group
    of equal values back in column order with one plain sort of the unique
    integer keys ``(group, column)``.  The result is the same either way.
    """
    num_rows, num_columns = values.shape
    if runs <= _STABLE_ARGSORT_MAX_RUNS or num_columns <= _STABLE_ARGSORT_MAX_COLUMNS:
        return np.argsort(values, axis=1, kind="stable")
    order = np.argsort(values, axis=1)
    ranked = values.take(order + np.arange(0, num_rows * num_columns, num_columns)[:, None])
    column_bits = (num_columns - 1).bit_length()
    key_type = np.int32 if num_columns << column_bits < 2**31 else np.int64
    keys = np.zeros(order.shape, dtype=key_type)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=keys[:, 1:])
    np.cumsum(keys, axis=1, out=keys)
    keys <<= column_bits
    keys |= order
    keys.sort(axis=1)
    keys &= (1 << column_bits) - 1
    return keys.astype(np.intp)


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
    ``queue_lengths[p, :a].sum()``, and ``lane_cores[p, i]`` is the core
    that runs ``lane_order[p, i]``.  This is the representation the batched
    bandwidth allocator lays out as one padded queue per (individual, core)
    lane.
    """

    lane_order: np.ndarray  # (pop, G) int, jobs sorted by (core, priority, index)
    lane_cores: np.ndarray  # (pop, G) int, the core of each lane_order entry
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

    def decode_batch(self, repaired: np.ndarray) -> MappingBatch:
        """Decode a ``(pop, 2G)`` population of repaired rows into a :class:`MappingBatch`.

        The rows must already be in the encoding domain — the output of
        :meth:`repair_batch`, which every batched evaluation path applies
        once before simulating or dispatching rows.  Per row this produces
        the same order as :meth:`decode` — by core, then priority, then job
        index — with two sorts: one argsort of the priorities gives each job
        its dense priority rank (equal priorities share a rank), and one
        sort of the unique integer keys ``(core, rank, job)`` groups the
        jobs by core in (priority, job index) order.
        """
        pop = repaired.shape[0]
        num_jobs = self.num_jobs
        num_cores = self.num_sub_accelerators
        job_bits = (num_jobs - 1).bit_length()
        key_type = np.int32 if num_cores << 2 * job_bits <= 2**31 else np.int64
        priority = repaired[:, num_jobs:]
        order = np.argsort(priority, axis=1)
        flat_order = order + np.arange(0, pop * num_jobs, num_jobs)[:, None]
        # Dense ranks of the sorted priorities: a run of equal values shares
        # one rank, so ties fall to the job field of the key below.  With no
        # tie in any row, every rank is its sorted position.
        ranked = priority.take(flat_order)
        keys = np.zeros((pop, num_jobs), dtype=key_type)
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=keys[:, 1:])
        if np.count_nonzero(keys) == keys.size - pop:
            keys[:] = np.arange(num_jobs, dtype=key_type)
        else:
            np.cumsum(keys, axis=1, out=keys)
        # keys = (core, rank, job), unique per row, so a plain (SIMD) sort
        # orders each row's jobs by core, then priority, then job index.
        cores = repaired[:, :num_jobs].astype(key_type)
        keys |= cores.take(flat_order) << job_bits
        keys <<= job_bits
        keys |= order
        keys.sort(axis=1)
        lane_cores = keys >> 2 * job_bits
        lane_order = keys & (1 << job_bits) - 1
        queue_lengths = np.bincount(
            (cores + np.arange(pop)[:, None] * num_cores).reshape(-1), minlength=pop * num_cores
        ).reshape(pop, num_cores)
        return MappingBatch(
            lane_order=lane_order,
            lane_cores=lane_cores,
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
