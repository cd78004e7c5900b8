"""MAGMA's genetic operators (Section V-B2 and Fig. 5 of the paper).

MAGMA keeps the standard GA mutation and adds three specialised crossover
operators, each designed to preserve a different kind of structure in the
mapping while exploring:

* **crossover-gen** — genome-wise crossover: perturbs one genome (either the
  sub-accelerator selection or the job prioritisation) while leaving the
  other genome untouched.
* **crossover-rg** — range crossover: exchanges a contiguous range of *jobs*
  across both genomes simultaneously, preserving the cross-genome dependency
  between a job's core selection and its priority.
* **crossover-accel** — per-core crossover: copies the full scheduling
  decision (selection + priority) of one sub-accelerator from one parent to
  the other, preserving the job ordering within that core.

All operators work directly on encoded mapping vectors and never invalidate
them (every output is a valid encoding), which keeps the search structured
and sample-efficient.  Each operator takes a whole ``(n, 2G)`` batch of
encodings (row ``k`` of *dad* pairs with row ``k`` of *mom*), draws every
per-row choice as one array, and applies it with index arithmetic; a 1-D
encoding is the ``n = 1`` case and comes back 1-D.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.encoding import MappingCodec
from repro.utils.rng import SeedLike, ensure_rng


def _rows(encodings: np.ndarray, codec: MappingCodec) -> np.ndarray:
    """*encodings* as a float ``(n, L)`` array (a 1-D vector becomes one row)."""
    return np.asarray(encodings, dtype=float).reshape(-1, codec.encoding_length)


def _like(batch: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """*batch* in the shape of the caller's *reference* input (1-D stays 1-D)."""
    return batch.reshape(np.shape(reference))


def _integers(generator: np.random.Generator, high, size: int) -> np.ndarray:
    """*size* uniform integers in ``[0, high)`` (*high* may be a per-row array).

    Scales a single ``random`` draw: ``Generator.integers`` carries ~8 us of
    fixed cost per call, several times the cost of the draw itself at
    generation-sized batches.
    """
    return (generator.random(size) * high).astype(np.intp)


def draw_parent_pairs(pool_size: int, num_pairs: int, rng: SeedLike = None) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i != j``, each pair uniform over a pool of *pool_size* >= 2."""
    generator = ensure_rng(rng)
    i = _integers(generator, pool_size, num_pairs)
    j = _integers(generator, pool_size - 1, num_pairs)
    return i, j + (j >= i)


def mutate(
    encoding: np.ndarray,
    codec: MappingCodec,
    rng: SeedLike = None,
    mutation_rate: float = 0.05,
) -> np.ndarray:
    """Standard mutation: each gene is re-randomised with probability *mutation_rate*.

    Selection genes mutate to a random core; priority genes mutate to a
    random value in ``[0, 1)`` (Fig. 5(b)).
    """
    generator = ensure_rng(rng)
    children = _rows(encoding, codec).copy()
    genome = codec.genome_length
    mask = generator.random(children.shape) < mutation_rate
    selection, priority = children[:, :genome], children[:, genome:]
    selection[mask[:, :genome]] = _integers(
        generator, codec.num_sub_accelerators, np.count_nonzero(mask[:, :genome])
    )
    priority[mask[:, genome:]] = generator.random(np.count_nonzero(mask[:, genome:]))
    return _like(children, encoding)


def crossover_gen(
    dad: np.ndarray,
    mom: np.ndarray,
    codec: MappingCodec,
    rng: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Genome-wise single-point crossover (Fig. 5(c)).

    Per pair, one genome (selection or priority) is sampled, a pivot point
    within it is sampled, and the genes after the pivot are exchanged between
    the parents.  The untouched genome keeps its characteristics, so the
    perturbation is contained to one aspect of the schedule.
    """
    generator = ensure_rng(rng)
    genome = codec.genome_length
    fathers, mothers = _rows(dad, codec), _rows(mom, codec)
    n = len(fathers)
    offset = _integers(generator, 2, n) * genome
    pivot = 1 + _integers(generator, genome - 1, n) if genome > 1 else np.zeros(n, dtype=int)
    column = np.arange(codec.encoding_length)
    swap = (column >= (offset + pivot)[:, None]) & (column < (offset + genome)[:, None])
    son, daughter = np.where(swap, mothers, fathers), np.where(swap, fathers, mothers)
    return _like(son, dad), _like(daughter, mom)


def crossover_rg(
    dad: np.ndarray,
    mom: np.ndarray,
    codec: MappingCodec,
    rng: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Range crossover across both genomes (Fig. 5(d)).

    Per pair, a contiguous range of job positions is sampled and, for the
    jobs in that range, *both* their selection and their priority genes are
    exchanged between the parents.  The dependency between a job's core
    assignment and its priority is therefore preserved through the exchange.
    """
    generator = ensure_rng(rng)
    genome = codec.genome_length
    fathers, mothers = _rows(dad, codec), _rows(mom, codec)
    start = _integers(generator, max(genome - 1, 1), len(fathers))
    stop = start + 1 + _integers(generator, genome - start, len(fathers))
    job = np.arange(codec.encoding_length) % genome
    swap = (job >= start[:, None]) & (job < stop[:, None])
    son, daughter = np.where(swap, mothers, fathers), np.where(swap, fathers, mothers)
    return _like(son, dad), _like(daughter, mom)


def crossover_accel(
    dad: np.ndarray,
    mom: np.ndarray,
    codec: MappingCodec,
    rng: SeedLike = None,
    rebalance_mutation_rate: float = 0.5,
) -> np.ndarray:
    """Per-sub-accelerator crossover (Fig. 5(e)).

    Per pair, a core is sampled; the jobs that *mom* assigns to that core are
    copied — selection and priority genes — into a copy of *dad*, preserving
    mom's job ordering on that core.  Dad's own jobs that were previously on
    that core (and were not copied) are randomly re-assigned/re-prioritised
    to restore load balance, as described in the paper.
    """
    generator = ensure_rng(rng)
    genome = codec.genome_length
    son, mothers = _rows(dad, codec).copy(), _rows(mom, codec)
    core = _integers(generator, codec.num_sub_accelerators, len(son))[:, None]
    moms_jobs = mothers[:, :genome].astype(int) == core
    dads_leftovers = (son[:, :genome].astype(int) == core) & ~moms_jobs

    # Copy mom's full decision (both genomes) for her jobs on the chosen core.
    np.copyto(son, mothers, where=np.concatenate([moms_jobs, moms_jobs], axis=1))

    # Dad's leftover jobs on that core get randomly perturbed to rebalance load.
    rebalance = dads_leftovers & (generator.random(dads_leftovers.shape) < rebalance_mutation_rate)
    count = np.count_nonzero(rebalance)
    son[:, :genome][rebalance] = _integers(generator, codec.num_sub_accelerators, count)
    son[:, genome:][rebalance] = generator.random(count)
    return _like(son, dad)
