"""Perf smoke: shared-work dedup and resume behaviour of the campaign engine.

Runs a 2-setting x 2-task grid (two methods per problem, so every analysis
table is needed twice) through :class:`CampaignRunner`, records the
shared-cache statistics and wall times to ``BENCH_campaign.json``, and
asserts the two structural guarantees of the campaign engine:

* the Job Analysis Table is built once per unique (group, platform) pair —
  not once per cell;
* resuming a completed campaign re-runs zero cells (and an interrupted one
  re-runs only the missing cells, converging to an identical store).
"""

from __future__ import annotations

import time

from repro.core.analyzer import AnalysisTableCache
from repro.experiments.campaign import CampaignResultsStore, CampaignRunner
from repro.experiments.scenarios import ScenarioSpec

SETTINGS = ("S1", "S2")
TASKS = ("vision", "mix")
METHODS = ("herald-like", "magma")


def _grid() -> ScenarioSpec:
    return ScenarioSpec(
        name="campaign-reuse",
        description="2-setting x 2-task x 2-method reuse grid",
        settings=SETTINGS,
        bandwidths=(16.0,),
        tasks=TASKS,
        methods=METHODS,
    )


def test_campaign_reuses_tables_and_resumes_for_free(scale, tmp_path, report_lines, write_bench_result):
    spec = _grid()
    num_cells = len(SETTINGS) * len(TASKS) * len(METHODS)
    unique_problems = len(SETTINGS) * len(TASKS)
    store_path = str(tmp_path / "campaign.sqlite3")

    engine = CampaignRunner(scale=scale, table_cache=AnalysisTableCache())
    start = time.perf_counter()
    report = engine.run([spec], store=store_path)
    fresh_seconds = time.perf_counter() - start

    assert report.cells_run == num_cells
    # The shared cache builds one table per unique (group, platform) pair;
    # every other cell is a hit.  Without the campaign-level cache this grid
    # would build a table per cell.
    assert report.table_builds == unique_problems
    assert report.table_hits == num_cells - unique_problems

    # Resuming the completed campaign re-runs zero cells...
    start = time.perf_counter()
    resumed = CampaignRunner(scale=scale, table_cache=AnalysisTableCache()).run(
        [spec], store=store_path, resume=True
    )
    resume_seconds = time.perf_counter() - start
    assert resumed.cells_run == 0
    assert resumed.cells_skipped == num_cells

    # ... and an interrupted campaign converges to identical records.
    with CampaignResultsStore(store_path) as store:
        full_records = store.records()
    truncated = str(tmp_path / "interrupted.sqlite3")
    with CampaignResultsStore(truncated) as store:
        store.backend.append_many(full_records[: num_cells // 2])
    resumed_half = CampaignRunner(scale=scale, table_cache=AnalysisTableCache()).run(
        [spec], store=truncated, resume=True
    )
    assert resumed_half.cells_run == num_cells - num_cells // 2
    with CampaignResultsStore(truncated) as store:
        assert store.records() == full_records

    payload = {
        "scale": scale.name,
        "cells": num_cells,
        "unique_problems": unique_problems,
        "table_builds": report.table_builds,
        "table_hits": report.table_hits,
        "fresh_seconds": fresh_seconds,
        "resume_seconds": resume_seconds,
        "resume_cells_rerun": resumed.cells_run,
    }
    write_bench_result("BENCH_campaign.json", payload)

    report_lines.append(
        f"[campaign] {num_cells} cells, {report.table_builds} table builds "
        f"({report.table_hits} cache hits); fresh {fresh_seconds:.2f}s, "
        f"resume {resume_seconds:.3f}s with 0 cells re-run"
    )
