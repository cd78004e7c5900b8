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

Each rule is written once, as a helper that turns uniform draws into the
operator's choices (:func:`crossover_gen_bounds`, :func:`crossover_rg_bounds`,
:func:`parent_pairs`) or that applies the operator in place
(:func:`crossover_accel_into`, :func:`mutate_into`).  The public operators
are thin wrappers over them; MAGMA's generation step calls the helpers on
one buffer per generation and merges consecutive draws (:func:`draw`).
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from repro.core.encoding import MappingCodec
from repro.utils.rng import SeedLike, ensure_rng


#: Crossover-accel's chance to re-randomise each of dad's jobs displaced from
#: the chosen core.
REBALANCE_MUTATION_RATE = 0.5


def _rows(encodings: np.ndarray, codec: MappingCodec) -> np.ndarray:
    """*encodings* as a float ``(n, L)`` array (a 1-D vector becomes one row)."""
    return np.asarray(encodings, dtype=float).reshape(-1, codec.encoding_length)


def _like(batch: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """*batch* in the shape of the caller's *reference* input (1-D stays 1-D)."""
    return batch.reshape(np.shape(reference))


def _integers(uniform: np.ndarray, high) -> np.ndarray:
    """Uniform integers in ``[0, high)`` scaled from ``[0, 1)`` draws (*high* may be per row).

    ``Generator.integers`` carries ~8 us of fixed cost per call, several
    times the cost of the draw itself at generation-sized batches.
    """
    return (uniform * high).astype(np.intp)


def draw(generator: np.random.Generator, *sizes: int) -> List[np.ndarray]:
    """Consecutive pieces of one ``generator.random(sum(sizes))`` draw.

    Drawing ``a`` doubles and then ``b`` leaves the same values and the same
    generator state as drawing ``a + b`` at once, so merging draws whose
    sizes are known together changes no stream.
    """
    uniform = generator.random(sum(sizes))
    pieces, start = [], 0
    for size in sizes:
        pieces.append(uniform[start:start + size])
        start += size
    return pieces


@functools.lru_cache(maxsize=16)
def _suffix_masks(length: int) -> np.ndarray:
    """Read-only ``(length + 1, length)`` table: row ``k`` marks the columns ``>= k``.

    Row ``lo`` XOR row ``hi`` marks the column range ``[lo, hi)``, and two
    swaps in a row are one swap by the XOR of their masks, so a whole stack
    of ranges becomes one mask with one gather and one XOR reduction.
    """
    table = np.arange(length) >= np.arange(length + 1)[:, None]
    table.setflags(write=False)
    return table


def swap_mask(bounds: np.ndarray, length: int) -> np.ndarray:
    """``(n, length)`` mask of the columns inside an odd number of the ranges in *bounds*.

    *bounds* is ``(2m, n)``: rows ``2i`` and ``2i + 1`` are the ``[lo, hi)``
    bounds of each of the *n* rows' ``i``-th range.
    """
    return np.bitwise_xor.reduce(_suffix_masks(length).take(bounds, axis=0), axis=0)


def parent_pairs(u_first: np.ndarray, u_second: np.ndarray, pool_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i != j``, each uniform over a pool of *pool_size* >= 2."""
    i = _integers(u_first, pool_size)
    j = _integers(u_second, pool_size - 1)
    return i, j + (j >= i)


def crossover_gen_bounds(u_genome: np.ndarray, u_pivot: np.ndarray, genome: int) -> np.ndarray:
    """Crossover-gen's swapped columns as ``(2, n)`` ``[lo, hi)`` bounds.

    Per row, *u_genome* picks the genome and *u_pivot* a pivot inside it
    (empty when ``genome == 1``: the pivot is then 0); the genes after the
    pivot are swapped.
    """
    offset = _integers(u_genome, 2) * genome
    pivot = 1 + _integers(u_pivot, genome - 1) if genome > 1 else 0
    return np.array((offset + pivot, offset + genome))


def crossover_rg_bounds(u_start: np.ndarray, u_stop: np.ndarray, genome: int) -> np.ndarray:
    """Crossover-rg's swapped columns as ``(4, n)`` bounds: one job range in both genomes."""
    start = _integers(u_start, max(genome - 1, 1))
    stop = start + 1 + _integers(u_stop, genome - start)
    return np.array((start, stop, start + genome, stop + genome))


def _redraw(
    rows: np.ndarray,
    selection_mask: np.ndarray,
    priority_mask: np.ndarray,
    generator: np.random.Generator,
    num_cores: int,
) -> None:
    """Re-randomise the masked genes of *rows* in place.

    Selection genes move to a random core and priority genes to a random
    value in ``[0, 1)``; the selection draws come first, row-major.
    """
    genome = selection_mask.shape[1]
    u_selection, u_priority = draw(
        generator, np.count_nonzero(selection_mask), np.count_nonzero(priority_mask)
    )
    rows[:, :genome][selection_mask] = _integers(u_selection, num_cores)
    rows[:, genome:][priority_mask] = u_priority


def mutate_into(rows: np.ndarray, generator: np.random.Generator, num_cores: int, mutation_rate: float) -> None:
    """Mutate the ``(n, 2G)`` *rows* in place (see :func:`mutate`)."""
    genome = rows.shape[1] // 2
    mask = generator.random(rows.shape) < mutation_rate
    _redraw(rows, mask[:, :genome], mask[:, genome:], generator, num_cores)


def crossover_accel_into(
    son: np.ndarray,
    mothers: np.ndarray,
    generator: np.random.Generator,
    num_cores: int,
    rebalance_mutation_rate: float = REBALANCE_MUTATION_RATE,
) -> None:
    """Cross each row of *mothers* into the same row of *son* in place (see :func:`crossover_accel`)."""
    num_rows, genome = son.shape[0], son.shape[1] // 2
    u_core, u_rebalance = draw(generator, num_rows, num_rows * genome)
    core = _integers(u_core, num_cores)[:, None]
    moms_jobs = mothers[:, :genome].astype(int) == core
    dads_leftovers = (son[:, :genome].astype(int) == core) & ~moms_jobs

    # Copy mom's full decision (both genomes) for her jobs on the chosen core.
    np.copyto(son, mothers, where=np.concatenate([moms_jobs, moms_jobs], axis=1))

    # Dad's leftover jobs on that core get randomly perturbed to rebalance load.
    rebalance = dads_leftovers & (u_rebalance.reshape(num_rows, genome) < rebalance_mutation_rate)
    _redraw(son, rebalance, rebalance, generator, num_cores)


def draw_parent_pairs(pool_size: int, num_pairs: int, rng: SeedLike = None) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i != j``, each pair uniform over a pool of *pool_size* >= 2."""
    return parent_pairs(*draw(ensure_rng(rng), num_pairs, num_pairs), pool_size)


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
    children = _rows(encoding, codec).copy()
    mutate_into(children, ensure_rng(rng), codec.num_sub_accelerators, mutation_rate)
    return _like(children, encoding)


def _swap(fathers: np.ndarray, mothers: np.ndarray, bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    swap = swap_mask(bounds, fathers.shape[1])
    return np.where(swap, mothers, fathers), np.where(swap, fathers, mothers)


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
    genome = codec.genome_length
    fathers, mothers = _rows(dad, codec), _rows(mom, codec)
    n = len(fathers)
    u_genome, u_pivot = draw(ensure_rng(rng), n, n if genome > 1 else 0)
    son, daughter = _swap(fathers, mothers, crossover_gen_bounds(u_genome, u_pivot, genome))
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
    fathers, mothers = _rows(dad, codec), _rows(mom, codec)
    n = len(fathers)
    u_start, u_stop = draw(ensure_rng(rng), n, n)
    son, daughter = _swap(fathers, mothers, crossover_rg_bounds(u_start, u_stop, codec.genome_length))
    return _like(son, dad), _like(daughter, mom)


def crossover_accel(
    dad: np.ndarray,
    mom: np.ndarray,
    codec: MappingCodec,
    rng: SeedLike = None,
    rebalance_mutation_rate: float = REBALANCE_MUTATION_RATE,
) -> np.ndarray:
    """Per-sub-accelerator crossover (Fig. 5(e)).

    Per pair, a core is sampled; the jobs that *mom* assigns to that core are
    copied — selection and priority genes — into a copy of *dad*, preserving
    mom's job ordering on that core.  Dad's own jobs that were previously on
    that core (and were not copied) are randomly re-assigned/re-prioritised
    to restore load balance, as described in the paper.
    """
    son = _rows(dad, codec).copy()
    crossover_accel_into(
        son, _rows(mom, codec), ensure_rng(rng), codec.num_sub_accelerators, rebalance_mutation_rate
    )
    return _like(son, dad)
