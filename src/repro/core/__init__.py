"""M3E — Multi-workload Multi-accelerator Mapping Explorer (the paper's framework).

The core package contains the encoding scheme, the Job Analyzer and Job
Analysis Table, the bandwidth allocator (Algorithm 1), the decoded schedule
representation, the objectives, the fitness evaluator, and the top-level
:class:`M3E` search driver.
"""

from repro.core.encoding import Mapping, MappingBatch, MappingCodec
from repro.core.analyzer import JobAnalyzer, JobAnalysisTable, JobProfile
from repro.core.bw_allocator import BandwidthAllocator, BatchBandwidthAllocator
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.objectives import (
    Objective,
    ThroughputObjective,
    LatencyObjective,
    EnergyObjective,
    EDPObjective,
    get_objective,
)
from repro.core.evalconfig import DEFAULT_EVAL_BACKEND, EVAL_BACKENDS, EvalConfig
from repro.core.evaluator import MappingEvaluator, EvaluationResult, SimulationRig
from repro.core.framework import M3E, SearchResult
from repro._lazy import lazy_exports

# The process pool (and with it multiprocessing) loads on first use: only
# the ``parallel`` backend runs it.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "ParallelEvaluationPool": "repro.core.parallel",
})

__all__ = [
    "Mapping",
    "MappingBatch",
    "MappingCodec",
    "BatchBandwidthAllocator",
    "DEFAULT_EVAL_BACKEND",
    "EVAL_BACKENDS",
    "EvalConfig",
    "JobAnalyzer",
    "JobAnalysisTable",
    "JobProfile",
    "BandwidthAllocator",
    "Schedule",
    "ScheduledJob",
    "Objective",
    "ThroughputObjective",
    "LatencyObjective",
    "EnergyObjective",
    "EDPObjective",
    "get_objective",
    "MappingEvaluator",
    "EvaluationResult",
    "ParallelEvaluationPool",
    "SimulationRig",
    "M3E",
    "SearchResult",
]
