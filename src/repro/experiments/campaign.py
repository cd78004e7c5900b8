"""Resumable campaign engine for the experiments layer.

A *campaign* executes one or more declarative scenarios
(:mod:`repro.experiments.scenarios`) as a flat stream of search cells:

* **Shared-work dedup** — every explorer the engine builds shares one
  process-wide ``(group fingerprint, platform fingerprint) ->
  JobAnalysisTable`` cache (:class:`~repro.core.analyzer.AnalysisTableCache`),
  so a grid that revisits a (group, platform) pair — different methods,
  objectives, seeds, or bandwidth points of one setting — builds each
  analysis table exactly once.  Identical cells appearing in several
  scenarios run once per campaign.
* **Uniform backend threading** — one ``eval_config``
  (:class:`~repro.core.evalconfig.EvalConfig`) applies to every cell (and to
  the custom scenario runners via :meth:`CampaignRunner.explorer`).
* **Resumable results store** — each finished cell is appended to a
  ``sqlite:`` store keyed by the cell's deterministic fingerprint;
  re-running with ``resume=True`` skips every fingerprint already on disk,
  so an interrupted campaign continues where it stopped and converges to the
  records of an uninterrupted run, record for record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.accelerator import AcceleratorPlatform, build_setting
from repro.core.analyzer import AnalysisTableCache, JobAnalysisTable, shared_table_cache
from repro.core.evalconfig import EvalConfig
from repro.core.framework import M3E, SearchResult
from repro.exceptions import ExperimentError
from repro.experiments.scenarios import (
    ScenarioSpec,
    SearchCell,
    _fingerprint,
    get_scenario,
    run_scenario,
    with_seed_replicates,
)
from repro.experiments.settings import ExperimentScale, get_scale
from repro.obs import get_tracer
from repro.utils.rng import spawn_rngs
from repro.utils.storage import BackedStore
from repro.utils.serialization import SearchResultSummary, jsonable
from repro.workloads.benchmark import TaskType, build_task_workload
from repro.workloads.groups import JobGroup


class CampaignResultsStore(BackedStore):
    """Append-only store of per-cell campaign results.

    One record per completed cell: ``{"fingerprint", "scenario", "cell",
    "result"}``.  The fingerprint is the cell's deterministic identity
    (:meth:`~repro.experiments.scenarios.SearchCell.fingerprint`), which is
    what makes interrupted campaigns resumable.  Append/fingerprint
    mechanics live with :class:`~repro.utils.storage.StoreBackend` (shared
    with the mapping service's solution store), so several campaign
    processes on one host can feed one store.  ``fingerprints()`` reads the
    indexed fingerprint column, so resuming a large campaign does not pay
    for re-reading every stored convergence history.
    """

    def append(self, fingerprint: str, scenario: str, cell: Dict[str, Any], result: Dict[str, Any]) -> None:
        """Append one completed cell (flushed immediately, crash-safe)."""
        self.append_record(
            {"fingerprint": fingerprint, "scenario": scenario, "cell": cell, "result": result}
        )


@dataclass
class CampaignReport:
    """What a campaign did: cell counts and shared-work statistics."""

    store_path: Optional[str]
    scale: str
    scenarios: List[str]
    cells_total: int = 0
    cells_run: int = 0
    cells_skipped: int = 0
    cells_deduped: int = 0
    table_builds: int = 0
    table_hits: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (printed by the CLI)."""
        return jsonable(self.__dict__)


class CampaignRunner:
    """Executes search cells (and whole campaigns) with shared caches.

    Parameters
    ----------
    scale:
        Experiment scale (name, instance, or ``None`` for the environment
        default) every cell resolves budgets/group sizes against.
    eval_config:
        Evaluation-engine configuration
        (:class:`~repro.core.evalconfig.EvalConfig`) threaded into every
        explorer the engine builds — one knob for every cell of every
        scenario.
    table_cache:
        Analysis-table cache to share; defaults to the process-wide cache so
        independent runners in one process still dedup table builds.
    warm_store:
        Optional warm-start hook (e.g.
        :class:`~repro.service.warmlib.WarmStartLibrary`) handed to every
        explorer the engine builds: searches seed their initial populations
        from remembered same-task solutions and report their winners back.
    """

    def __init__(
        self,
        scale: "ExperimentScale | str | None" = None,
        table_cache: Optional[AnalysisTableCache] = None,
        warm_store: Optional[Any] = None,
        eval_config: EvalConfig = EvalConfig(),
    ):
        self.scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
        self.eval_config = eval_config
        self.table_cache = table_cache if table_cache is not None else shared_table_cache()
        self.warm_store = warm_store
        self._groups: Dict[Tuple[str, int, int, int], JobGroup] = {}  # guarded-by: _groups_lock
        # The mapping service drives one runner from several worker threads;
        # the group memo is the only mutable state they all write.
        self._groups_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Building blocks (also used by custom scenario runners)
    # ------------------------------------------------------------------
    def explorer(
        self,
        platform: AcceleratorPlatform,
        sampling_budget: Optional[int] = None,
        objective: str = "throughput",
    ) -> M3E:
        """An :class:`M3E` wired with the campaign's backend and caches."""
        return M3E(
            platform,
            objective=objective,
            sampling_budget=sampling_budget if sampling_budget is not None else self.scale.sampling_budget,
            eval_config=self.eval_config,
            table_cache=self.table_cache,
            warm_store=self.warm_store,
        )

    def group_for(
        self,
        task: "TaskType | str",
        num_sub_accelerators: int,
        seed: int,
        group_size: Optional[int] = None,
    ) -> JobGroup:
        """Build (and memoise) the first dependency-free group of a workload."""
        task = TaskType(task)
        size = group_size if group_size is not None else self.scale.group_size
        key = (task.value, int(size), int(seed), int(num_sub_accelerators))
        with self._groups_lock:
            group = self._groups.get(key)
        if group is None:
            groups = build_task_workload(
                task,
                group_size=size,
                num_groups=1,
                seed=seed,
                num_sub_accelerators=num_sub_accelerators,
            )
            if not groups:
                raise ExperimentError(f"workload for task {task} produced no groups")
            group = groups[0]
            with self._groups_lock:
                group = self._groups.setdefault(key, group)
        return group

    def analysis_table(self, platform: AcceleratorPlatform, group: JobGroup) -> JobAnalysisTable:
        """The (shared, cached) Job Analysis Table for one (platform, group)."""
        return self.table_cache.get_or_build(platform, group)

    # ------------------------------------------------------------------
    # Cell execution
    # ------------------------------------------------------------------
    def run_cell(self, cell: SearchCell) -> SearchResult:
        """Execute one search cell and return the full search result.

        Reproduces the historical per-figure code paths bit-for-bit: the
        cell's seed builds the group, and the optimizer's stream is either
        spawned (multi-method comparisons) or the seed itself (single-method
        figures), per ``cell.seed_strategy``.
        """
        from repro.optimizers import build_optimizer

        with get_tracer().span(
            "campaign.cell",
            setting=cell.setting,
            task=cell.task,
            method=cell.method,
            objective=cell.objective,
            seed=cell.seed,
        ):
            platform = build_setting(cell.setting, cell.bandwidth_gbps)
            group = self.group_for(
                cell.task, platform.num_sub_accelerators, cell.seed, cell.group_size
            )
            explorer = self.explorer(
                platform, sampling_budget=cell.budget, objective=cell.objective
            )
            if cell.seed_strategy == "spawn":
                rng = spawn_rngs(cell.seed, cell.num_methods)[cell.method_index]
            else:
                rng = cell.seed
            optimizer = build_optimizer(cell.method, seed=rng, **dict(cell.optimizer_options))
            return explorer.search(group, optimizer=optimizer, sampling_budget=cell.budget)

    # ------------------------------------------------------------------
    # Campaign driver
    # ------------------------------------------------------------------
    def run(
        self,
        scenarios: Sequence["str | ScenarioSpec"],
        store: "CampaignResultsStore | str | None" = None,
        resume: bool = False,
        base_seed: int = 0,
        seed_replicates: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> CampaignReport:
        """Run scenarios as one flat, deduplicated, resumable cell stream.

        Grid scenarios expand into cells; custom scenarios run as a single
        unit keyed by a ``(scenario, scale, seed)`` fingerprint.  With
        ``resume=True`` the store's existing fingerprints are skipped;
        otherwise the store is truncated first.  ``seed_replicates=N``
        replicates every grid scenario across seeds ``0..N-1`` (shifted by
        ``base_seed``), feeding the seed-replicate statistics layer
        (:mod:`repro.experiments.stats`); replication happens *before*
        fingerprinting, so an interrupted multi-seed campaign resumes to the
        same records an uninterrupted one writes.
        """
        specs = [get_scenario(s) if isinstance(s, str) else s for s in scenarios]
        if seed_replicates is not None:
            specs = [with_seed_replicates(spec, seed_replicates) for spec in specs]
        owns_store = isinstance(store, str)
        if isinstance(store, str):
            # Any store address, resolved by the one parser.
            store = CampaignResultsStore(store)
        try:
            return self._run(specs, store, resume, base_seed, progress)
        finally:
            if owns_store and store is not None:
                store.close()

    def _run(
        self,
        specs: Sequence[ScenarioSpec],
        store: Optional[CampaignResultsStore],
        resume: bool,
        base_seed: int,
        progress: Optional[Callable[[str], None]],
    ) -> CampaignReport:
        stored: Set[str] = set()
        if store is not None:
            if resume:
                stored = store.fingerprints()
            else:
                if store.records():
                    raise ExperimentError(
                        f"results store {store.path!r} already holds completed cells; "
                        f"pass resume=True (--resume) to continue it, or point at a "
                        f"fresh path / delete it to start over"
                    )
                store.truncate()
        done: Set[str] = set(stored)

        report = CampaignReport(
            store_path=store.path if store is not None else None,
            scale=self.scale.name,
            scenarios=[spec.name for spec in specs],
        )
        builds_before, hits_before = self.table_cache.builds, self.table_cache.hits
        say = progress or (lambda message: None)

        for spec in specs:
            if spec.is_custom:
                payload = {
                    "scenario": spec.name,
                    "custom": True,
                    "scale": self.scale.name,
                    "seed": base_seed,
                }
                fingerprint = _fingerprint(payload)
                report.cells_total += 1
                if fingerprint in done:
                    report.cells_skipped += 1
                    say(f"[{spec.name}] complete in store, skipped")
                    continue
                say(f"[{spec.name}] running custom scenario")
                output = run_scenario(spec, engine=self, seed=base_seed)
                done.add(fingerprint)
                report.cells_run += 1
                if store is not None:
                    store.append(fingerprint, spec.name, payload, {"output": jsonable(output)})
                continue

            cells = spec.expand(self.scale, base_seed=base_seed)
            report.cells_total += len(cells)
            for index, cell in enumerate(cells):
                fingerprint = cell.fingerprint()
                if fingerprint in done:
                    # Completed in a previous (interrupted) run, or an
                    # identical cell shared by another scenario of this
                    # campaign — either way the work is not repeated.
                    if fingerprint in stored:
                        report.cells_skipped += 1
                    else:
                        report.cells_deduped += 1
                    continue
                say(f"[{spec.name}] cell {index + 1}/{len(cells)}: "
                    f"{cell.panel} {cell.method} seed={cell.seed}")
                result = self.run_cell(cell)
                done.add(fingerprint)
                report.cells_run += 1
                if store is not None:
                    store.append(
                        fingerprint,
                        spec.name,
                        cell.to_dict(),
                        SearchResultSummary.from_result(result).to_dict(),
                    )

        report.table_builds = self.table_cache.builds - builds_before
        report.table_hits = self.table_cache.hits - hits_before
        return report
