"""Declarative scenario specs and the scenario registry.

The paper's whole evaluation (Figs. 7-17, Table V) is one parametric grid:
``(platform setting x bandwidth x task x objective x method x seed)``.  A
:class:`ScenarioSpec` describes one slice of that grid as *data* — axes (or
explicit panels), methods, objective(s), seeds, and a budget policy — plus a
small post-processing hook that shapes raw per-cell search results into the
figure's output dict.  Scenarios that do not decompose into independent
search cells (sample recording, warm-start transfer, pure job analysis)
register a ``custom_runner`` instead and still plug into the same registry,
CLI, and campaign engine.

:mod:`repro.experiments.runner` registers one spec per figure/table, and
:func:`run_scenario` runs any spec — registered, or a registered one
customised with :func:`dataclasses.replace` (``methods=``, ``panels=``).
:mod:`repro.experiments.campaign` executes expanded cells with shared-work
dedup, a results store, and ``--resume``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.evalconfig import EvalConfig
from repro.exceptions import ExperimentError
from repro.experiments.settings import ExperimentScale, get_scale
from repro.optimizers.registry import is_rl_method
from repro.utils.serialization import payload_fingerprint
from repro.utils.tables import unique_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.framework import SearchResult
    from repro.experiments.campaign import CampaignRunner


# ----------------------------------------------------------------------
# Budget policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BudgetPolicy:
    """How a scenario turns (method, scale) into a sampling budget.

    ``base`` selects the scale's budget family (``"sampling"`` for the
    paper's standard 10K-sample searches, ``"convergence"`` for the extended
    Fig. 11/16-style studies).  Reinforcement-learning methods are capped at
    the scale's reduced RL budget — RL-ness is resolved through the
    optimizer registry (:func:`repro.optimizers.registry.is_rl_method`), not
    a hard-coded name set, so new RL aliases are never silently missed.
    """

    base: str = "sampling"

    _BASES = ("sampling", "convergence")

    def __post_init__(self) -> None:
        if self.base not in self._BASES:
            raise ExperimentError(
                f"unknown budget base {self.base!r}; available: {list(self._BASES)}"
            )

    def base_budget(self, scale: ExperimentScale) -> int:
        """The non-RL budget for *scale*."""
        return scale.convergence_budget if self.base == "convergence" else scale.sampling_budget

    def budget_for(self, method: str, scale: ExperimentScale) -> int:
        """Sampling budget for one method at one scale."""
        budget = self.base_budget(scale)
        if is_rl_method(method):
            return min(budget, scale.rl_sampling_budget)
        return budget


# ----------------------------------------------------------------------
# Grid cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Panel:
    """One (setting, bandwidth, task) problem instance of a scenario grid.

    ``tag`` is a free-form grouping key for post-processing hooks (e.g. the
    sweep a bandwidth point belongs to); ``group_size`` overrides the
    scale's default group size (Fig. 17's sweep axis).
    """

    label: str
    setting: str
    bandwidth_gbps: float
    task: str
    group_size: Optional[int] = None
    tag: Optional[str] = None


@dataclass(frozen=True)
class SearchCell:
    """One fully resolved unit of campaign work: a single mapping search.

    Every field is a concrete value (budgets and group sizes already
    resolved against the scale), so a cell is self-describing: the campaign
    engine can execute it in isolation, and :meth:`fingerprint` identifies
    it deterministically across runs for the ``--resume`` results store.

    ``seed_strategy`` fixes how the optimizer's random stream derives from
    ``seed``: ``"spawn"`` reproduces the multi-method comparison runners
    (``spawn_rngs(seed, num_methods)[method_index]``) and ``"direct"``
    reproduces the single-method figure runners (the seed is passed to the
    optimizer as-is).  Both are kept bit-compatible with the historical
    per-figure code paths.
    """

    scenario: str
    panel: str
    setting: str
    bandwidth_gbps: float
    task: str
    method: str
    objective: str
    seed: int
    method_index: int
    num_methods: int
    seed_strategy: str
    group_size: int
    budget: int
    optimizer_options: Tuple[Tuple[str, Any], ...] = ()
    tag: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (used by the results store and the fingerprint)."""
        return {
            "scenario": self.scenario,
            "panel": self.panel,
            "tag": self.tag,
            "setting": self.setting,
            "bandwidth_gbps": self.bandwidth_gbps,
            "task": self.task,
            "method": self.method,
            "objective": self.objective,
            "seed": self.seed,
            "method_index": self.method_index,
            "num_methods": self.num_methods,
            "seed_strategy": self.seed_strategy,
            "group_size": self.group_size,
            "budget": self.budget,
            "optimizer_options": dict(self.optimizer_options),
        }

    def fingerprint(self) -> str:
        """Deterministic identity of the cell's *work* (backend-independent).

        Everything that influences the search result is included — platform,
        problem, method, objective, seed derivation, budget, optimizer
        options.  Labels that do not (``scenario``, ``panel``, ``tag``) are
        excluded, so an identical cell appearing in two scenarios of one
        campaign runs once; the evaluation backend is excluded too (all
        backends are bit-identical), so a campaign interrupted under one
        backend can resume under another.
        """
        payload = self.to_dict()
        for label_only in ("scenario", "panel", "tag"):
            payload.pop(label_only)
        return _fingerprint(payload)


#: Cell identity = canonical-JSON SHA-256 (shared with the mapping service's
#: request fingerprints via :func:`repro.utils.serialization.payload_fingerprint`).
_fingerprint = payload_fingerprint


#: GA-family methods that accept a population size (mirrors the historical
#: per-figure runners).
_POPULATION_METHODS = {"magma", "magma-mut", "magma-mut-gen", "stdga", "de", "cma", "pso"}


def default_optimizer_options(method: str, scale: ExperimentScale, panel: Panel) -> Dict[str, Any]:
    """Per-method construction options derived from the scale."""
    if method.lower() in _POPULATION_METHODS:
        return {"population_size": scale.population_size}
    return {}


# ----------------------------------------------------------------------
# Scenario spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative description of one experiment scenario.

    Grid scenarios list axes (``settings x bandwidths x tasks``) or explicit
    ``panels`` (when bandwidth is tied to the setting, as in Fig. 9/12), and
    expand into flat :class:`SearchCell` lists via :meth:`expand`.
    ``panels_fn`` computes panels from the scale at expansion time (Fig. 17's
    scale-dependent group sizes).  ``post_process`` shapes the executed cells
    into the scenario's output dict; ``custom_runner`` replaces cell
    expansion entirely for scenarios that are not grids of independent
    searches.
    """

    name: str
    description: str
    settings: Tuple[str, ...] = ("S2",)
    bandwidths: Tuple[float, ...] = (16.0,)
    tasks: Tuple[str, ...] = ("mix",)
    methods: Tuple[str, ...] = ("magma",)
    objectives: Tuple[str, ...] = ("throughput",)
    seeds: Tuple[int, ...] = (0,)
    group_size: Optional[int] = None
    seed_strategy: str = "spawn"
    budget_policy: BudgetPolicy = BudgetPolicy()
    panels: Optional[Tuple[Panel, ...]] = None
    panels_fn: Optional[Callable[[ExperimentScale], Tuple[Panel, ...]]] = None
    optimizer_options: Callable[[str, ExperimentScale, Panel], Dict[str, Any]] = default_optimizer_options
    post_process: Optional[Callable[["ScenarioRun"], Dict[str, Any]]] = None
    custom_runner: Optional[Callable[["ScenarioContext"], Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("a scenario needs a name")
        if self.seed_strategy not in ("spawn", "direct"):
            raise ExperimentError(
                f"unknown seed strategy {self.seed_strategy!r}; use 'spawn' or 'direct'"
            )
        if self.custom_runner is None and (not self.methods or not self.objectives or not self.seeds):
            raise ExperimentError(f"scenario {self.name!r} expands to an empty grid")

    @property
    def is_custom(self) -> bool:
        """Whether the scenario runs through a custom runner instead of cells."""
        return self.custom_runner is not None

    def resolved_panels(self, scale: ExperimentScale) -> Tuple[Panel, ...]:
        """The scenario's panels at one scale (explicit, computed, or axis product).

        Panel labels key every post-processing hook's output, so a repeated
        label is rejected: its results would otherwise merge silently.
        """
        if self.panels is not None:
            panels = self.panels
        elif self.panels_fn is not None:
            panels = tuple(self.panels_fn(scale))
        else:
            panels = tuple(
                Panel(label=f"{setting}@{bandwidth:g}/{task}", setting=setting,
                      bandwidth_gbps=bandwidth, task=task)
                for setting in self.settings
                for bandwidth in self.bandwidths
                for task in self.tasks
            )
        seen = set()
        for panel in panels:
            if panel.label in seen:
                raise ExperimentError(
                    f"scenario {self.name!r} has more than one panel labelled {panel.label!r}"
                )
            seen.add(panel.label)
        return panels

    def expand(self, scale: ExperimentScale, base_seed: int = 0) -> List[SearchCell]:
        """Flatten the scenario into fully resolved search cells.

        Expansion order — panels, then seeds, then objectives, then methods —
        is part of the contract: post-processing hooks and the resumable
        results store both rely on it being deterministic.
        """
        if self.is_custom:
            raise ExperimentError(f"scenario {self.name!r} is custom and has no cell grid")
        cells: List[SearchCell] = []
        for panel in self.resolved_panels(scale):
            group_size = panel.group_size or self.group_size or scale.group_size
            for offset in self.seeds:
                for objective in self.objectives:
                    for index, method in enumerate(self.methods):
                        options = self.optimizer_options(method, scale, panel)
                        cells.append(
                            SearchCell(
                                scenario=self.name,
                                panel=panel.label,
                                tag=panel.tag,
                                setting=panel.setting,
                                bandwidth_gbps=float(panel.bandwidth_gbps),
                                task=panel.task,
                                method=method,
                                objective=objective,
                                seed=base_seed + offset,
                                method_index=index,
                                num_methods=len(self.methods),
                                seed_strategy=self.seed_strategy,
                                group_size=int(group_size),
                                budget=int(self.budget_policy.budget_for(method, scale)),
                                optimizer_options=tuple(sorted(options.items())),
                            )
                        )
        return cells


# ----------------------------------------------------------------------
# Execution context / results
# ----------------------------------------------------------------------
@dataclass
class ScenarioContext:
    """Everything a custom runner or post-processing hook may need.

    ``engine`` is the :class:`~repro.experiments.campaign.CampaignRunner`
    executing the scenario: it carries the scale, the evaluation backend
    configuration, and the shared analysis-table/group caches, and builds
    properly wired :class:`~repro.core.framework.M3E` explorers.
    ``options`` holds a custom runner's knobs, passed as
    ``run_scenario(..., options={...})`` (e.g. Table V's ``num_instances``).
    """

    spec: ScenarioSpec
    engine: "CampaignRunner"
    base_seed: int = 0
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def scale(self) -> ExperimentScale:
        """The experiment scale the scenario runs at."""
        return self.engine.scale


@dataclass
class ScenarioRun:
    """The executed cells of a grid scenario, handed to post-processing."""

    spec: ScenarioSpec
    context: ScenarioContext
    cells: List[SearchCell]
    results: List["SearchResult"]

    @property
    def scale(self) -> ExperimentScale:
        return self.context.scale

    @property
    def base_seed(self) -> int:
        return self.context.base_seed

    def panel_map(self) -> "OrderedDict[str, Panel]":
        """Panel label -> panel, in expansion order."""
        panels = OrderedDict()
        for panel in self.spec.resolved_panels(self.scale):
            panels[panel.label] = panel
        return panels

    def by_panel(self) -> "OrderedDict[str, Dict[str, SearchResult]]":
        """Per-panel results keyed by (collision-suffixed) optimizer name.

        Results appear in cell order and same-named methods are suffixed
        ``#2``/``#3`` rather than overwritten.  As a ``post_process`` hook it
        makes :func:`run_scenario` return these per-panel results (the CLI's
        ``compare`` command does this).
        """
        grouped: "OrderedDict[str, Dict[str, SearchResult]]" = OrderedDict()
        for cell, result in zip(self.cells, self.results):
            bucket = grouped.setdefault(cell.panel, {})
            bucket[unique_key(result.optimizer_name, bucket)] = result
        return grouped

    def seeds(self) -> List[int]:
        """Distinct cell seeds, in expansion order (one entry per replicate)."""
        return list(dict.fromkeys(cell.seed for cell in self.cells))

    def by_panel_and_seed(self) -> "OrderedDict[Tuple[str, int], Dict[str, SearchResult]]":
        """Like :meth:`by_panel`, but seed replicates stay separate.

        Post-processing hooks that aggregate across seed replicates
        (mean ± std, cross-seed agreement) need per-seed method maps;
        :meth:`by_panel` would suffix same-named methods from different
        seeds as collisions instead.
        """
        grouped: "OrderedDict[Tuple[str, int], Dict[str, SearchResult]]" = OrderedDict()
        for cell, result in zip(self.cells, self.results):
            bucket = grouped.setdefault((cell.panel, cell.seed), {})
            bucket[unique_key(result.optimizer_name, bucket)] = result
        return grouped


def default_post_process(run: ScenarioRun) -> Dict[str, Any]:
    """Generic scenario output: one summary row per executed cell."""
    rows = []
    for cell, result in zip(run.cells, run.results):
        row = cell.to_dict()
        row.update(
            optimizer_name=result.optimizer_name,
            best_fitness=float(result.best_fitness),
            objective_value=float(result.objective_value),
            throughput_gflops=float(result.throughput_gflops),
            samples_used=int(result.samples_used),
        )
        rows.append(row)
    return {"scenario": run.spec.name, "scale": run.scale.name, "cells": rows}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (and return it, for aliasing)."""
    key = spec.name.lower()
    if key in SCENARIO_REGISTRY and not overwrite:
        raise ExperimentError(f"scenario {spec.name!r} is already registered")
    SCENARIO_REGISTRY[key] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by (case-insensitive) name."""
    # The per-figure specs register on import of the runner module.
    import repro.experiments.runner  # noqa: F401

    key = str(name).lower()
    if key not in SCENARIO_REGISTRY:
        raise ExperimentError(
            f"unknown scenario {name!r}; available: {list_scenarios()}"
        )
    return SCENARIO_REGISTRY[key]


def list_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    import repro.experiments.runner  # noqa: F401

    return sorted(SCENARIO_REGISTRY)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: "str | ScenarioSpec",
    scale: "ExperimentScale | str | None" = None,
    seed: int = 0,
    engine: Optional["CampaignRunner"] = None,
    options: Optional[Dict[str, Any]] = None,
    warm_store: Optional[Any] = None,
    eval_config: EvalConfig = EvalConfig(),
) -> Dict[str, Any]:
    """Run one scenario end to end and return its post-processed output.

    This is the single entry point behind ``repro experiment <name>``,
    ``repro compare``, and the benchmark harness.  ``engine`` reuses an existing
    campaign runner (sharing its caches and backend settings); otherwise one
    is built from ``scale``/``eval_config``/``warm_store`` (the latter a
    persistent warm-start provider such as
    :class:`~repro.service.warmlib.WarmStartLibrary`, threaded into every
    explorer the scenario builds).
    """
    from repro.experiments.campaign import CampaignRunner

    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if engine is None:
        resolved = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
        engine = CampaignRunner(
            scale=resolved,
            eval_config=eval_config,
            warm_store=warm_store,
        )
    context = ScenarioContext(spec=spec, engine=engine, base_seed=seed, options=dict(options or {}))
    if spec.is_custom:
        return spec.custom_runner(context)
    cells = spec.expand(engine.scale, base_seed=seed)
    results = [engine.run_cell(cell) for cell in cells]
    run = ScenarioRun(spec=spec, context=context, cells=cells, results=results)
    post = spec.post_process or default_post_process
    return post(run)


def with_seed_replicates(spec: ScenarioSpec, count: int) -> ScenarioSpec:
    """The spec, replicated across seeds ``0..count-1``.

    This is the axis behind ``repro-magma campaign --seeds N``: every grid
    cell runs once per seed offset (the campaign's ``base_seed`` still
    shifts all of them), feeding the seed-replicate statistics layer
    (:mod:`repro.experiments.stats`).  Custom scenarios have no cell grid to
    replicate and are returned unchanged.
    """
    if count <= 0:
        raise ExperimentError(f"seed replicate count must be positive, got {count}")
    if spec.is_custom:
        return spec
    from dataclasses import replace

    seeds = tuple(range(count))
    return spec if spec.seeds == seeds else replace(spec, seeds=seeds)


def spec_from_grid(grid: Dict[str, Any]) -> ScenarioSpec:
    """Build an ad-hoc grid scenario from a plain dict (``--grid`` JSON).

    Recognised keys: ``name``, ``description``, ``settings``, ``bandwidths``,
    ``tasks``, ``methods``, ``objectives``, ``seeds``, ``group_size`` (a
    positive integer), ``budget`` (``"sampling"``/``"convergence"``).
    Unknown keys and malformed values are rejected so typos fail loudly
    instead of silently shrinking the grid.
    """
    known = {
        "name", "description", "settings", "bandwidths", "tasks", "methods",
        "objectives", "seeds", "group_size", "budget",
    }
    unknown = set(grid) - known
    if unknown:
        raise ExperimentError(f"unknown grid keys: {sorted(unknown)}; known: {sorted(known)}")

    def axis(key: str, default: Tuple, convert: Callable[[Any], Any]) -> Tuple:
        # A bare scalar is a one-element axis; tuple("S1") splitting into
        # ('S', '1') would otherwise expand a silently bogus grid.
        value = grid.get(key, default)
        if isinstance(value, (str, int, float)):
            value = (value,)
        return tuple(convert(v) for v in value)

    group_size = grid.get("group_size")
    if group_size is not None and (
        isinstance(group_size, bool) or not isinstance(group_size, int) or group_size <= 0
    ):
        raise ExperimentError(f"grid group_size must be a positive integer, got {group_size!r}")

    return ScenarioSpec(
        name=str(grid.get("name", "custom-grid")),
        description=str(grid.get("description", "ad-hoc campaign grid")),
        settings=axis("settings", ("S2",), str),
        bandwidths=axis("bandwidths", (16.0,), float),
        tasks=axis("tasks", ("mix",), str),
        methods=axis("methods", ("magma",), str),
        objectives=axis("objectives", ("throughput",), str),
        seeds=axis("seeds", (0,), int),
        group_size=group_size,
        budget_policy=BudgetPolicy(base=str(grid.get("budget", "sampling"))),
    )
