"""The kernel's freed temporaries stay in the heap between generations.

Each generation frees its kernel temporaries when it ends.  Unless glibc
keeps free space above the top of the heap (``M_TOP_PAD``, which
:mod:`repro.core.bw_allocator` sets once at import), it returns that memory
to the OS, and the next generation faults it back in page by page.  Setting
the pad freezes glibc's mmap threshold, so the module raises that too
(``M_MMAP_THRESHOLD``); otherwise the largest arrays of a large call are
mmapped and faulted in on every call.
"""

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.bw_allocator import _HEAP_TOP_PADDED
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import MappingEvaluator
from repro.workloads import TaskType, build_task_workload

resource = pytest.importorskip("resource")

#: Generations run before counting, and generations counted.
WARM_UP_GENERATIONS = 10
COUNTED_GENERATIONS = 90
ROWS_PER_GENERATION = 64

#: On a 2-vCPU Linux host this reads ~7 minor faults per generation with
#: the pad and ~530 without it.
MAX_MINOR_FAULTS_PER_GENERATION = 50

#: Rows per large kernel call, and its bound: on a 2-vCPU Linux host a
#: 400-row call here reads ~900 minor faults with the raised mmap threshold
#: and ~4,400 with the pad alone.
LARGE_CALL_ROWS = 400
LARGE_CALLS = 12
MAX_MINOR_FAULTS_PER_LARGE_CALL = 2000


def _s6_evaluator() -> MappingEvaluator:
    platform = build_setting("S6", 256.0)
    group = build_task_workload(
        TaskType.MIX, group_size=200, seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    return MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))


def _faults_per_call(simulate, populations) -> float:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for population in populations:
        simulate(population)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(populations)


@pytest.mark.skipif(not _HEAP_TOP_PADDED, reason="the C library has no mallopt")
def test_generations_reuse_freed_heap_instead_of_faulting_it_in():
    evaluator = _s6_evaluator()
    rng = np.random.default_rng(0)
    for _ in range(WARM_UP_GENERATIONS):
        evaluator.evaluate_population(evaluator.codec.random_population(ROWS_PER_GENERATION, rng=rng))
    populations = [
        evaluator.codec.random_population(ROWS_PER_GENERATION, rng=rng)
        for _ in range(COUNTED_GENERATIONS)
    ]
    faults = _faults_per_call(evaluator.evaluate_population, populations)
    assert faults < MAX_MINOR_FAULTS_PER_GENERATION, (
        f"{faults:.0f} minor faults per generation: freed kernel "
        "temporaries went back to the OS between generations"
    )


@pytest.mark.skipif(not _HEAP_TOP_PADDED, reason="the C library has no mallopt")
def test_large_kernel_calls_keep_their_arrays_in_the_heap():
    evaluator = _s6_evaluator()
    rng = np.random.default_rng(1)
    populations = [
        evaluator.codec.repair_batch(evaluator.codec.random_population(LARGE_CALL_ROWS, rng=rng))
        for _ in range(LARGE_CALLS)
    ]
    simulate = evaluator._rig.fitnesses_for_rows
    _faults_per_call(simulate, populations[:2])
    faults = _faults_per_call(simulate, populations[2:])
    assert faults < MAX_MINOR_FAULTS_PER_LARGE_CALL, (
        f"{faults:.0f} minor faults per {LARGE_CALL_ROWS}-row call: the kernel's "
        "largest arrays were mmapped and faulted in on every call"
    )
