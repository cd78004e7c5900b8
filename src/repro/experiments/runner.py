"""The paper's tables/figures, registered as declarative scenarios.

Every figure/table of the paper's evaluation is registered here as a
:class:`~repro.experiments.scenarios.ScenarioSpec` — a declarative grid
(setting x bandwidth x task x objective x method x seed) plus a small
post-processing hook that shapes the raw per-cell search results into the
figure's output dict.  Scenarios that are not grids of independent searches
(Fig. 7's job analysis, Fig. 10's sample recording, Fig. 14's
fixed-vs-flexible study, Fig. 15's schedule visualisation, Table V's
warm-start transfer) register a ``custom_runner`` instead.

:func:`~repro.experiments.scenarios.run_scenario` is the one way to run
them: ``repro experiment <name>``, the benchmark harness, and the resumable
``repro campaign`` engine all go through it.  A caller that needs a
different grid than the paper's passes
``dataclasses.replace(get_scenario(name), methods=..., panels=...)``; a
custom runner's knobs (Fig. 7's ``sample_models``, Fig. 10's ``methods``,
Table V's ``setting``/``bandwidth_gbps``/``task``/``num_instances``) go in
``run_scenario(..., options={...})``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.accelerator import build_setting
from repro.analysis.convergence import ConvergenceCurve, convergence_from_history
from repro.analysis.gantt import schedule_to_bandwidth_series, schedule_to_gantt
from repro.analysis.pca import project_encodings
from repro.analysis.reporting import normalized_values_with_reference
from repro.core.analyzer import JobAnalyzer
from repro.core.framework import SearchResult
from repro.experiments.scenarios import (
    BudgetPolicy,
    Panel,
    ScenarioContext,
    ScenarioRun,
    ScenarioSpec,
    default_optimizer_options,
    default_post_process,
    register_scenario,
)
from repro.experiments.stats import (
    MetricStats,
    aggregate_cells,
    cross_seed_agreement,
    replicate_table,
    rows_from_run,
)
from repro.experiments.settings import ExperimentScale
from repro.optimizers import build_optimizer
from repro.optimizers.registry import PAPER_COMPARISON_METHODS
from repro.optimizers.warmstart import WarmStartEngine
from repro.utils.rng import spawn_rngs
from repro.workloads.benchmark import DEFAULT_BATCH_SIZES, TaskType
from repro.workloads.models import MODEL_REGISTRY

#: Default bandwidths per accelerator class (Section VI-A3).
SMALL_DEFAULT_BW = 16.0
LARGE_DEFAULT_BW = 256.0

#: The default budget policy: the scale's sampling budget, with the reduced
#: RL budget applied to any method the optimizer registry marks as RL.
DEFAULT_BUDGET_POLICY = BudgetPolicy()


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _throughputs(results: Dict[str, SearchResult]) -> Dict[str, float]:
    return {name: result.throughput_gflops for name, result in results.items()}


# ----------------------------------------------------------------------
# Fig. 7 — Latency/BW characteristics of the DNN models (custom)
# ----------------------------------------------------------------------
def _fig7_runner(ctx: ScenarioContext) -> Dict[str, Any]:
    """Per-model and per-task average no-stall latency / required BW on HB and LB.

    Mirrors Fig. 7: each model is profiled on a 64-row HB-style core and a
    64-row LB-style core.
    """
    sample_models = ctx.options.get("sample_models")
    platform = build_setting("S5", LARGE_DEFAULT_BW)  # contains 64-row HB and LB cores
    analyzer = JobAnalyzer(platform)
    hb_index = next(i for i, sub in enumerate(platform) if sub.dataflow.value == "HB" and sub.pe_rows == 64)
    lb_index = next(i for i, sub in enumerate(platform) if sub.dataflow.value == "LB" and sub.pe_rows == 64)

    if sample_models is None:
        sample_models = {
            "vision": ["mobilenet_v2", "resnet50", "shufflenet"],
            "language": ["gpt2", "mobilebert", "transformer_xl"],
            "recommendation": ["dlrm", "wide_and_deep", "ncf"],
        }

    per_model: Dict[str, Dict[str, float]] = {}
    per_task: Dict[str, Dict[str, float]] = {}
    for task_name, model_names in sample_models.items():
        task_rows = []
        for model_name in model_names:
            spec = MODEL_REGISTRY[model_name]
            batch = DEFAULT_BATCH_SIZES[spec.family]
            rows = []
            for layer in spec.build(batch):
                hb_lat, hb_bw, _, _ = analyzer.profile_layer(layer, hb_index)
                lb_lat, lb_bw, _, _ = analyzer.profile_layer(layer, lb_index)
                rows.append([hb_lat, hb_bw, lb_lat, lb_bw])
            mean = np.mean(rows, axis=0)
            per_model[model_name] = {
                "hb_latency_cycles": float(mean[0]),
                "hb_required_bw_gbps": float(mean[1]),
                "lb_latency_cycles": float(mean[2]),
                "lb_required_bw_gbps": float(mean[3]),
            }
            task_rows.append(list(mean))
        task_mean = np.mean(task_rows, axis=0)
        per_task[task_name] = {
            "hb_latency_cycles": float(task_mean[0]),
            "hb_required_bw_gbps": float(task_mean[1]),
            "lb_latency_cycles": float(task_mean[2]),
            "lb_required_bw_gbps": float(task_mean[3]),
        }
    return {"per_model": per_model, "per_task": per_task}


# ----------------------------------------------------------------------
# Figs. 8 and 9 — every method on one problem per panel, normalised to MAGMA
# ----------------------------------------------------------------------
def _comparison_post(
    run: ScenarioRun, key: Callable[[Panel], str], header: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-panel method throughputs under ``key(panel)``, normalised to MAGMA.

    Each method's throughput is its mean over the run's seed replicates (a
    single seed is the n=1 case).  With several seeds the output also
    carries the per-method uncertainty and the cross-seed winner agreement.
    """
    seeds = run.seeds()
    by_panel_seed = run.by_panel_and_seed()
    absolute: Dict[str, Dict[str, float]] = {}
    normalized: Dict[str, Dict[str, float]] = {}
    references: Dict[str, str] = {}
    replicates: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label, panel in run.panel_map().items():
        per_method: Dict[str, List[float]] = {}
        for seed in seeds:
            for name, result in by_panel_seed.get((label, seed), {}).items():
                per_method.setdefault(name, []).append(float(result.throughput_gflops))
        stats = {name: MetricStats.from_values(values) for name, values in per_method.items()}
        panel_key = key(panel)
        absolute[panel_key] = {name: s.mean for name, s in stats.items()}
        normalized[panel_key], references[panel_key] = normalized_values_with_reference(
            absolute[panel_key], "MAGMA"
        )
        replicates[panel_key] = {name: s.to_dict() for name, s in stats.items()}
    output = {
        **header,
        "absolute": absolute,
        "normalized": normalized,
        "normalized_reference": references,
    }
    if len(seeds) > 1:
        output["seeds"] = seeds
        output["replicates"] = replicates
        output["cross_seed_agreement"] = cross_seed_agreement(rows_from_run(run.cells, run.results))
    return output


def _fig8_post(run: ScenarioRun) -> Dict[str, Any]:
    """Homogeneous small accelerator (S1, BW=16): panels keyed by task."""
    first = next(iter(run.panel_map().values()))
    header = {"setting": first.setting, "bandwidth_gbps": first.bandwidth_gbps}
    return _comparison_post(run, lambda panel: panel.task, header)


def _fig9_post(run: ScenarioRun) -> Dict[str, Any]:
    """Heterogeneous small (S2) and large (S4) accelerators: panels keyed by label."""
    header = {
        "panels": {
            label: (panel.setting, panel.bandwidth_gbps, TaskType(panel.task))
            for label, panel in run.panel_map().items()
        }
    }
    return _comparison_post(run, lambda panel: panel.label, header)


# ----------------------------------------------------------------------
# Fig. 10 — Exploration behaviour (PCA of sampled mappings) (custom)
# ----------------------------------------------------------------------
def _fig10_runner(ctx: ScenarioContext) -> Dict[str, Any]:
    """Record every sampled mapping per method and project them with PCA."""
    scale = ctx.scale
    seed = ctx.base_seed
    methods = tuple(ctx.options.get("methods") or ("magma", "ppo2", "stdga", "pso", "cma"))
    platform = build_setting("S2", SMALL_DEFAULT_BW)
    group = ctx.engine.group_for(TaskType.MIX, platform.num_sub_accelerators, seed)
    explorer = ctx.engine.explorer(platform)

    encodings_by_method: Dict[str, np.ndarray] = {}
    reached: Dict[str, float] = {}
    rngs = spawn_rngs(seed, len(methods) + 1)
    for method, rng in zip(methods, rngs):
        evaluator = explorer.build_evaluator(
            group, sampling_budget=DEFAULT_BUDGET_POLICY.budget_for(method, scale)
        )
        evaluator.record_samples = True
        optimizer = build_optimizer(method, seed=rng, **default_optimizer_options(method, scale, None))
        best = optimizer.optimize(evaluator)
        if best is None:
            best = evaluator.best_encoding
        detail = evaluator.detailed_evaluation(best)
        encodings_by_method[optimizer.name] = evaluator.sampled_encodings
        reached[optimizer.name] = detail.objective_value

    # Best-effort reference optimum from plain random sampling with the
    # larger "exhaustive" budget.
    exhaustive_evaluator = explorer.build_evaluator(group, sampling_budget=scale.exhaustive_samples)
    random_optimizer = build_optimizer("random", seed=rngs[-1])
    random_optimizer.optimize(exhaustive_evaluator)
    reached["Exhaustively Sampled"] = float(exhaustive_evaluator.best_fitness)

    projections = project_encodings(encodings_by_method)
    return {"reached_gflops": reached, "projections": projections}


# ----------------------------------------------------------------------
# Fig. 11 — Convergence over an extended sampling budget
# ----------------------------------------------------------------------
def _fig11_post(run: ScenarioRun) -> Dict[str, Any]:
    curves: Dict[str, Dict[str, ConvergenceCurve]] = {}
    for label, results in run.by_panel().items():
        curves[label] = {
            name: convergence_from_history(name, result.history)
            for name, result in results.items()
        }
    return {"curves": curves}


# ----------------------------------------------------------------------
# Fig. 12 — Bandwidth sweep on the heterogeneous accelerators
# ----------------------------------------------------------------------
def _fig12_panels(
    small_bandwidths: Sequence[float], large_bandwidths: Sequence[float]
) -> tuple:
    sweeps = {"small_s2": ("S2", small_bandwidths), "large_s4": ("S4", large_bandwidths)}
    return tuple(
        Panel(label=f"{tag}@{bw:g}", setting=setting, bandwidth_gbps=float(bw),
              task="mix", tag=tag)
        for tag, (setting, bandwidths) in sweeps.items()
        for bw in bandwidths
    )


def _fig12_post(run: ScenarioRun) -> Dict[str, Any]:
    panels = run.panel_map()
    absolute: Dict[str, Dict[float, Dict[str, float]]] = {}
    normalized: Dict[str, Dict[float, Dict[str, float]]] = {}
    references: Dict[str, Dict[float, str]] = {}
    for label, results in run.by_panel().items():
        panel = panels[label]
        absolute.setdefault(panel.tag, {})[panel.bandwidth_gbps] = _throughputs(results)
        norm, ref = normalized_values_with_reference(_throughputs(results), "MAGMA")
        normalized.setdefault(panel.tag, {})[panel.bandwidth_gbps] = norm
        references.setdefault(panel.tag, {})[panel.bandwidth_gbps] = ref
    return {"absolute": absolute, "normalized": normalized, "normalized_reference": references}


# ----------------------------------------------------------------------
# Fig. 13 — Sub-accelerator combinations (S3 vs S4 vs S5)
# ----------------------------------------------------------------------
def _fig13_panels(settings: Sequence[str], bandwidths: Sequence[float]) -> tuple:
    return tuple(
        Panel(label=f"{setting}@{bw:g}", setting=setting, bandwidth_gbps=float(bw),
              task="mix", tag=setting)
        for setting in settings
        for bw in bandwidths
    )


def _fig13_post(run: ScenarioRun) -> Dict[str, Any]:
    """Job analysis per setting plus normalised MAGMA throughput per bandwidth."""
    engine = run.context.engine
    scale = run.scale
    seed = run.base_seed
    panels = run.panel_map()
    settings = list(dict.fromkeys(panel.tag for panel in panels.values()))

    tasks = [TaskType.VISION, TaskType.LANGUAGE, TaskType.RECOMMENDATION, TaskType.MIX]
    job_analysis: Dict[str, Dict[str, Dict[str, float]]] = {}
    for setting in settings:
        platform = build_setting(setting, LARGE_DEFAULT_BW)
        per_task: Dict[str, Dict[str, float]] = {}
        for task in tasks:
            group = engine.group_for(task, platform.num_sub_accelerators, seed)
            table = engine.analysis_table(platform, group)
            per_task[task.value] = {
                "avg_no_stall_latency_cycles": float(table.latency_cycles.mean()),
                "avg_required_bw_gbps": float(table.required_bw_gbps.mean()),
            }
        job_analysis[setting] = per_task

    throughput: Dict[float, Dict[str, float]] = {}
    for cell, result in zip(run.cells, run.results):
        throughput.setdefault(cell.bandwidth_gbps, {})[cell.tag] = result.throughput_gflops

    normalized: Dict[float, Dict[str, float]] = {}
    for bw, per_setting in throughput.items():
        reference = max(per_setting.values())
        normalized[bw] = {s: v / reference for s, v in per_setting.items()}
    return {"job_analysis": job_analysis, "throughput": throughput, "normalized": normalized}


# ----------------------------------------------------------------------
# Fig. 14 — Fixed versus flexible PE arrays (custom)
# ----------------------------------------------------------------------
def _fig14_runner(ctx: ScenarioContext) -> Dict[str, Any]:
    """Fixed vs flexible PE arrays on the Small (S1) and Large (S3) accelerators."""
    scale = ctx.scale
    seed = ctx.base_seed
    panels = {
        "small_vision": ("S1", TaskType.VISION, (1.0, SMALL_DEFAULT_BW)),
        "small_mix": ("S1", TaskType.MIX, (1.0, SMALL_DEFAULT_BW)),
        "large_vision": ("S3", TaskType.VISION, (1.0, LARGE_DEFAULT_BW)),
        "large_mix": ("S3", TaskType.MIX, (1.0, LARGE_DEFAULT_BW)),
    }
    job_analysis: Dict[str, Dict[str, float]] = {}
    throughput: Dict[str, Dict[str, Dict[str, float]]] = {}
    for panel, (setting, task, bandwidths) in panels.items():
        fixed_platform = build_setting(setting, bandwidths[-1])
        flexible_platform = fixed_platform.with_flexible_arrays(True)
        group = ctx.engine.group_for(task, fixed_platform.num_sub_accelerators, seed)

        fixed_table = ctx.engine.analysis_table(fixed_platform, group)
        flexible_table = ctx.engine.analysis_table(flexible_platform, group)
        job_analysis[panel] = {
            "fixed_avg_latency": float(fixed_table.latency_cycles.mean()),
            "flexible_avg_latency": float(flexible_table.latency_cycles.mean()),
            "fixed_avg_bw": float(fixed_table.required_bw_gbps.mean()),
            "flexible_avg_bw": float(flexible_table.required_bw_gbps.mean()),
        }

        throughput[panel] = {}
        for bw in bandwidths:
            row: Dict[str, float] = {}
            for label, platform in (("fixed", build_setting(setting, bw)),
                                    ("flexible", build_setting(setting, bw).with_flexible_arrays(True))):
                explorer = ctx.engine.explorer(platform, sampling_budget=scale.sampling_budget)
                optimizer = build_optimizer("magma", seed=seed, **default_optimizer_options("magma", scale, None))
                result = explorer.search(group, optimizer=optimizer)
                row[label] = result.throughput_gflops
            throughput[panel][f"bw_{bw:g}"] = row
    return {"job_analysis": job_analysis, "throughput": throughput}


# ----------------------------------------------------------------------
# Fig. 15 — Visualisation of found schedules (Herald-like vs MAGMA) (custom)
# ----------------------------------------------------------------------
def _fig15_runner(ctx: ScenarioContext) -> Dict[str, Any]:
    """Schedules and bandwidth allocations of Herald-like vs MAGMA (Mix, S5, BW=1)."""
    scale = ctx.scale
    seed = ctx.base_seed
    platform = build_setting("S5", 1.0)
    group = ctx.engine.group_for(TaskType.MIX, platform.num_sub_accelerators, seed)
    explorer = ctx.engine.explorer(platform, sampling_budget=scale.sampling_budget)

    output: Dict[str, Any] = {"finish_time_cycles": {}, "gantt": {}, "bandwidth_series": {}}
    for method in ("herald-like", "magma"):
        optimizer = build_optimizer(method, seed=seed, **default_optimizer_options(method, scale, None))
        result = explorer.search(group, optimizer=optimizer)
        output["finish_time_cycles"][result.optimizer_name] = result.schedule.makespan_cycles
        output["gantt"][result.optimizer_name] = schedule_to_gantt(result.schedule, group)
        output["bandwidth_series"][result.optimizer_name] = schedule_to_bandwidth_series(result.schedule)
    return output


# ----------------------------------------------------------------------
# Fig. 16 — Ablation of MAGMA's genetic operators
# ----------------------------------------------------------------------
def _fig16_post(run: ScenarioRun) -> Dict[str, Any]:
    curves: Dict[str, Dict[str, ConvergenceCurve]] = {}
    final_values: Dict[str, Dict[str, float]] = {}
    for label, results in run.by_panel().items():
        curves[label] = {
            name: convergence_from_history(name, result.history)
            for name, result in results.items()
        }
        final_values[label] = _throughputs(results)
    return {"curves": curves, "final_values": final_values}


# ----------------------------------------------------------------------
# Fig. 17 — Group-size sweep
# ----------------------------------------------------------------------
def _fig17_panels_for_sizes(group_sizes: Sequence[int]) -> tuple:
    return tuple(
        Panel(label=str(size), setting="S2", bandwidth_gbps=SMALL_DEFAULT_BW,
              task="mix", group_size=int(size))
        for size in group_sizes
    )


def _fig17_default_panels(scale: ExperimentScale) -> tuple:
    if scale.name == "paper":
        sizes: Sequence[int] = (4, 10, 20, 40, 50, 100, 200, 500, 1000)
    else:
        sizes = (4, 10, 20, scale.group_size, 2 * scale.group_size)
    return _fig17_panels_for_sizes(list(dict.fromkeys(sizes)))


def _fig17_options(method: str, scale: ExperimentScale, panel: Optional[Panel]) -> Dict[str, Any]:
    size = panel.group_size if panel is not None and panel.group_size else scale.group_size
    return {"population_size": min(scale.population_size, max(4, size))}


def _fig17_post(run: ScenarioRun) -> Dict[str, Any]:
    throughput: Dict[int, float] = {}
    for cell, result in zip(run.cells, run.results):
        throughput[cell.group_size] = result.throughput_gflops
    reference = throughput[max(throughput)]
    normalized = {size: value / reference for size, value in throughput.items()}
    return {"throughput": throughput, "normalized": normalized}


# ----------------------------------------------------------------------
# Table V — Warm-start transfer (custom)
# ----------------------------------------------------------------------
def _table5_runner(ctx: ScenarioContext) -> Dict[str, Any]:
    """Warm-start study: optimize one instance, transfer to new instances.

    Reproduces the structure of Table V: ``raw`` is the best of a random
    initial population, ``trf_0_ep`` is the transferred solution before any
    further optimization, ``trf_1_ep`` after one generation, and
    ``trf_full`` after the full budget; all values are normalised by
    ``trf_full``.
    """
    scale = ctx.scale
    seed = ctx.base_seed
    setting = ctx.options.get("setting", "S4")
    bandwidth_gbps = ctx.options.get("bandwidth_gbps", 1.0)
    task = TaskType(ctx.options.get("task", TaskType.MIX))
    num_instances = int(ctx.options.get("num_instances", 3))

    platform = build_setting(setting, bandwidth_gbps)
    explorer = ctx.engine.explorer(platform, sampling_budget=scale.sampling_budget)
    engine = WarmStartEngine()

    # Optimize the source instance and remember its solution.
    source_group = ctx.engine.group_for(task, platform.num_sub_accelerators, seed)
    source_result = explorer.search(
        source_group,
        optimizer=build_optimizer("magma", seed=seed, **default_optimizer_options("magma", scale, None)),
    )
    source_evaluator = explorer.build_evaluator(source_group)
    engine.record(task.value, source_result.best_encoding, source_evaluator.codec, source_result.best_fitness)

    one_epoch = scale.population_size
    thirty_epochs = min(scale.sampling_budget, 30 * scale.population_size)
    rows: Dict[str, Dict[str, float]] = {}
    for instance in range(1, num_instances + 1):
        group = ctx.engine.group_for(
            task, platform.num_sub_accelerators, seed + 1000 * instance
        )
        evaluator = explorer.build_evaluator(group)
        codec = evaluator.codec
        warm = engine.suggest(task.value, codec, count=scale.population_size, rng=seed + instance)

        # Raw: best of a random initial population (no optimization).
        random_population = codec.random_population(scale.population_size, rng=seed + instance)
        raw = float(np.max(evaluator.evaluate_population(random_population, count_samples=False)))

        # Transferred solution before further optimization.
        trf_0 = float(evaluator.evaluate(warm[0], count_sample=False))

        def _optimize_with_budget(budget: int) -> float:
            local_explorer = ctx.engine.explorer(platform, sampling_budget=budget)
            optimizer = build_optimizer(
                "magma", seed=seed + instance, **default_optimizer_options("magma", scale, None)
            )
            result = local_explorer.search(
                group, optimizer=optimizer, sampling_budget=budget, initial_encodings=warm
            )
            return result.throughput_gflops

        trf_1 = _optimize_with_budget(max(one_epoch * 2, one_epoch + 1))
        trf_30 = _optimize_with_budget(thirty_epochs)
        trf_full = _optimize_with_budget(scale.sampling_budget)

        rows[f"instance{instance}"] = {
            "raw": raw / trf_full if trf_full > 0 else 0.0,
            "trf_0_ep": trf_0 / trf_full if trf_full > 0 else 0.0,
            "trf_1_ep": trf_1 / trf_full if trf_full > 0 else 0.0,
            "trf_30_ep": trf_30 / trf_full if trf_full > 0 else 0.0,
            "trf_full": 1.0,
        }
    average = {
        key: float(np.mean([rows[inst][key] for inst in rows]))
        for key in ("raw", "trf_0_ep", "trf_1_ep", "trf_30_ep", "trf_full")
    }
    return {"instances": rows, "average": average, "source_throughput": source_result.throughput_gflops}


# ----------------------------------------------------------------------
# Registry: the paper's figures/tables ...
# ----------------------------------------------------------------------
FIG7 = register_scenario(ScenarioSpec(
    name="fig7",
    description="Fig. 7: per-model/per-task latency and bandwidth characteristics",
    custom_runner=_fig7_runner,
), overwrite=True)

FIG8 = register_scenario(ScenarioSpec(
    name="fig8",
    description="Fig. 8: all methods on the homogeneous small accelerator (S1), four tasks",
    settings=("S1",),
    bandwidths=(SMALL_DEFAULT_BW,),
    tasks=("vision", "language", "recommendation", "mix"),
    methods=tuple(PAPER_COMPARISON_METHODS),
    post_process=_fig8_post,
), overwrite=True)

FIG9 = register_scenario(ScenarioSpec(
    name="fig9",
    description="Fig. 9: all methods on the heterogeneous S2/S4 accelerators",
    panels=(
        Panel(label="vision_small", setting="S2", bandwidth_gbps=SMALL_DEFAULT_BW, task="vision"),
        Panel(label="mix_small", setting="S2", bandwidth_gbps=SMALL_DEFAULT_BW, task="mix"),
        Panel(label="vision_large", setting="S4", bandwidth_gbps=LARGE_DEFAULT_BW, task="vision"),
        Panel(label="mix_large", setting="S4", bandwidth_gbps=LARGE_DEFAULT_BW, task="mix"),
    ),
    methods=tuple(PAPER_COMPARISON_METHODS),
    post_process=_fig9_post,
), overwrite=True)

FIG10 = register_scenario(ScenarioSpec(
    name="fig10",
    description="Fig. 10: PCA projection of each method's sampled mappings",
    custom_runner=_fig10_runner,
), overwrite=True)

FIG11 = register_scenario(ScenarioSpec(
    name="fig11",
    description="Fig. 11: convergence over the extended sampling budget",
    panels=(
        Panel(label="vision_s2", setting="S2", bandwidth_gbps=SMALL_DEFAULT_BW, task="vision"),
        Panel(label="mix_s3", setting="S3", bandwidth_gbps=SMALL_DEFAULT_BW, task="mix"),
    ),
    methods=("magma", "stdga", "de", "pso", "cma", "tbpsa"),
    budget_policy=BudgetPolicy(base="convergence"),
    post_process=_fig11_post,
), overwrite=True)

FIG12 = register_scenario(ScenarioSpec(
    name="fig12",
    description="Fig. 12: bandwidth sweep on the heterogeneous accelerators",
    panels=_fig12_panels((1.0, 4.0, 8.0, 16.0), (1.0, 16.0, 64.0, 256.0)),
    methods=("herald-like", "a2c", "ppo2", "magma"),
    post_process=_fig12_post,
), overwrite=True)

FIG13 = register_scenario(ScenarioSpec(
    name="fig13",
    description="Fig. 13: sub-accelerator combinations of the Large settings",
    panels=_fig13_panels(("S3", "S4", "S5"), (1.0, 64.0)),
    methods=("magma",),
    seed_strategy="direct",
    post_process=_fig13_post,
), overwrite=True)

FIG14 = register_scenario(ScenarioSpec(
    name="fig14",
    description="Fig. 14: fixed versus flexible PE arrays",
    custom_runner=_fig14_runner,
), overwrite=True)

FIG15 = register_scenario(ScenarioSpec(
    name="fig15",
    description="Fig. 15: schedule visualisation, Herald-like vs MAGMA",
    custom_runner=_fig15_runner,
), overwrite=True)

FIG16 = register_scenario(ScenarioSpec(
    name="fig16",
    description="Fig. 16: ablation of MAGMA's genetic operators",
    panels=(
        Panel(label="vision_s2", setting="S2", bandwidth_gbps=SMALL_DEFAULT_BW, task="vision"),
        Panel(label="mix_s3", setting="S3", bandwidth_gbps=SMALL_DEFAULT_BW, task="mix"),
    ),
    methods=("magma-mut", "magma-mut-gen", "magma"),
    post_process=_fig16_post,
), overwrite=True)

FIG17 = register_scenario(ScenarioSpec(
    name="fig17",
    description="Fig. 17: group-size sweep on (Mix, S2, BW=16)",
    panels_fn=_fig17_default_panels,
    methods=("magma",),
    seed_strategy="direct",
    optimizer_options=_fig17_options,
    post_process=_fig17_post,
), overwrite=True)

TABLE5 = register_scenario(ScenarioSpec(
    name="table5",
    description="Table V: warm-start transfer across workload instances",
    custom_runner=_table5_runner,
), overwrite=True)


# ----------------------------------------------------------------------
# ... and cross-product scenarios the paper never ran.
# ----------------------------------------------------------------------
OBJECTIVE_SWEEP = register_scenario(ScenarioSpec(
    name="objective-sweep",
    description="MAGMA across objectives (throughput/EDP/energy/perf-per-watt) on S1-S4",
    panels=(
        Panel(label="S1", setting="S1", bandwidth_gbps=SMALL_DEFAULT_BW, task="mix"),
        Panel(label="S2", setting="S2", bandwidth_gbps=SMALL_DEFAULT_BW, task="mix"),
        Panel(label="S3", setting="S3", bandwidth_gbps=LARGE_DEFAULT_BW, task="mix"),
        Panel(label="S4", setting="S4", bandwidth_gbps=LARGE_DEFAULT_BW, task="mix"),
    ),
    methods=("magma",),
    objectives=("throughput", "latency", "energy", "edp", "performance_per_watt"),
), overwrite=True)

def _seed_replicates_post(run: ScenarioRun) -> Dict[str, Any]:
    """Per-cell rows plus cross-seed uncertainty statistics.

    On top of the generic per-cell summary this reports mean ± std (and
    min/max) of every result metric per replicate group, the cross-seed
    winner agreement per comparison, and a rendered uncertainty table.
    """
    output = default_post_process(run)
    rows = rows_from_run(run.cells, run.results)
    aggregates = aggregate_cells(rows)
    output["seeds"] = run.seeds()
    output["replicates"] = [aggregate.to_dict() for aggregate in aggregates]
    output["cross_seed_agreement"] = cross_seed_agreement(rows)
    output["table"] = replicate_table(
        aggregates,
        title="throughput_gflops across seed replicates (mean ± std)",
    )
    return output


SEED_REPLICATES = register_scenario(ScenarioSpec(
    name="seed-replicates",
    description="Seed-replicated method comparison on (Mix, S2, BW=16)",
    settings=("S2",),
    bandwidths=(SMALL_DEFAULT_BW,),
    tasks=("mix",),
    methods=("herald-like", "stdga", "magma"),
    seeds=(0, 1, 2),
    post_process=_seed_replicates_post,
), overwrite=True)
