"""The kernel's freed temporaries stay in the heap between generations.

Each generation frees its kernel temporaries when it ends.  Unless glibc
keeps free space above the top of the heap (``M_TOP_PAD``, which
:mod:`repro.core.bw_allocator` sets once at import), it returns that memory
to the OS, and the next generation faults it back in page by page.
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


@pytest.mark.skipif(not _HEAP_TOP_PADDED, reason="the C library has no mallopt")
def test_generations_reuse_freed_heap_instead_of_faulting_it_in():
    platform = build_setting("S6", 256.0)
    group = build_task_workload(
        TaskType.MIX, group_size=200, seed=0,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
    rng = np.random.default_rng(0)
    for _ in range(WARM_UP_GENERATIONS):
        evaluator.evaluate_population(evaluator.codec.random_population(ROWS_PER_GENERATION, rng=rng))
    populations = [
        evaluator.codec.random_population(ROWS_PER_GENERATION, rng=rng)
        for _ in range(COUNTED_GENERATIONS)
    ]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for population in populations:
        evaluator.evaluate_population(population)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / COUNTED_GENERATIONS < MAX_MINOR_FAULTS_PER_GENERATION, (
        f"{faults / COUNTED_GENERATIONS:.0f} minor faults per generation: freed kernel "
        "temporaries went back to the OS between generations"
    )
