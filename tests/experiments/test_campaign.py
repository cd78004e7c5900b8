"""Tests for the resumable campaign engine and its results store."""

import pytest

from repro.core.analyzer import AnalysisTableCache
from repro.experiments import get_scale
from repro.experiments.campaign import CampaignResultsStore, CampaignRunner
from repro.experiments.scenarios import ScenarioSpec
from repro.utils.serialization import SearchResultSummary

TINY = get_scale("tiny")


@pytest.fixture()
def grid_spec():
    """A 2-setting x 2-task x 2-method grid (8 cells, 4 unique problems)."""
    return ScenarioSpec(
        name="grid",
        description="campaign test grid",
        settings=("S1", "S2"),
        bandwidths=(16.0,),
        tasks=("vision", "mix"),
        methods=("herald-like", "magma"),
    )


def fresh_engine():
    return CampaignRunner(scale=TINY, table_cache=AnalysisTableCache())


def _stored(path):
    """The records of the campaign store at *path*, in append order."""
    with CampaignResultsStore(str(path)) as store:
        return store.records()


def _records_of(spec, path, **run_options):
    """Run *spec* uninterrupted into a fresh store at *path*; its records."""
    fresh_engine().run([spec], store=str(path), **run_options)
    return _stored(path)


class TestSharedAnalysisTables:
    def test_table_built_once_per_unique_group_platform(self, grid_spec, tmp_path):
        engine = fresh_engine()
        report = engine.run([grid_spec], store=str(tmp_path / "out.sqlite3"))
        assert report.cells_run == 8
        # 2 settings x 2 tasks = 4 unique (group, platform) pairs; the other
        # 4 cells (second method) hit the shared cache.
        assert report.table_builds == 4
        assert report.table_hits == 4

    def test_bandwidth_sweep_shares_one_table(self):
        """The analysis table is bandwidth-independent, so sweeping the system
        bandwidth of one setting must not rebuild it."""
        spec = ScenarioSpec(
            name="bw-sweep",
            description="one setting, several bandwidths",
            settings=("S2",),
            bandwidths=(1.0, 4.0, 16.0),
            tasks=("mix",),
            methods=("magma",),
        )
        engine = fresh_engine()
        report = engine.run([spec])
        assert report.cells_run == 3
        assert report.table_builds == 1
        assert report.table_hits == 2

    def test_identical_cells_run_once_per_campaign(self, grid_spec):
        engine = fresh_engine()
        report = engine.run([grid_spec, grid_spec])
        assert report.cells_run == 8
        assert report.cells_deduped == 8

    def test_identical_work_dedups_across_scenarios(self, grid_spec):
        """Cell fingerprints describe the work, not the scenario it belongs
        to: an overlapping grid registered under another name must not
        re-run the shared cells."""
        import dataclasses

        overlapping = dataclasses.replace(grid_spec, name="other", settings=("S1",))
        report = fresh_engine().run([grid_spec, overlapping])
        # 'other' expands to 4 cells (1 setting x 2 tasks x 2 methods), all
        # already covered by the first scenario.
        assert report.cells_total == 12
        assert report.cells_run == 8
        assert report.cells_deduped == 4


class TestResultsStore:
    def test_records_are_loadable_summaries(self, grid_spec, tmp_path):
        store = CampaignResultsStore(str(tmp_path / "out.sqlite3"))
        fresh_engine().run([grid_spec], store=store)
        records = store.records()
        assert len(records) == 8
        for record in records:
            assert set(record) == {"fingerprint", "scenario", "cell", "result"}
            summary = SearchResultSummary.from_dict(record["result"])
            assert summary.throughput_gflops > 0
            assert summary.samples_used <= record["cell"]["budget"]

    def test_resume_skips_completed_cells_and_matches_uninterrupted_store(
        self, grid_spec, tmp_path
    ):
        full = _records_of(grid_spec, tmp_path / "full.sqlite3")

        # Simulate an interruption after 3 completed cells.
        partial_path = str(tmp_path / "partial.sqlite3")
        with CampaignResultsStore(partial_path) as partial:
            partial.backend.append_many(full[:3])
        report = fresh_engine().run([grid_spec], store=partial_path, resume=True)
        assert report.cells_skipped == 3
        assert report.cells_run == 5
        assert _stored(partial_path) == full

        # A second resume has nothing left to do and changes nothing.
        rerun = fresh_engine().run([grid_spec], store=partial_path, resume=True)
        assert rerun.cells_run == 0
        assert rerun.cells_skipped == 8
        assert _stored(partial_path) == full

    def test_a_bare_path_and_its_sqlite_url_resume_one_store(self, grid_spec, tmp_path):
        """A campaign started as ``--out PATH`` resumes as ``--out sqlite:PATH``."""
        full = _records_of(grid_spec, tmp_path / "full.sqlite3")
        path = tmp_path / "partial.sqlite3"
        with CampaignResultsStore(str(path)) as partial:
            partial.backend.append_many(full[:4])
        report = fresh_engine().run([grid_spec], store=f"sqlite:{path}", resume=True)
        assert (report.cells_skipped, report.cells_run) == (4, 4)
        assert _stored(path) == full

    def test_store_rows_are_canonical_json(self, grid_spec, tmp_path):
        """Each record is one row of canonical JSON, readable without this
        package (for example by the ``sqlite3`` shell)."""
        import json
        import sqlite3

        from repro.utils.storage import render_record

        path = tmp_path / "out.sqlite3"
        records = _records_of(grid_spec, path)
        with sqlite3.connect(str(path)) as conn:
            rows = conn.execute("SELECT fingerprint, record FROM records ORDER BY seq").fetchall()
        conn.close()
        assert [json.loads(text) for _, text in rows] == records
        assert [text for _, text in rows] == [render_record(record) for record in records]
        assert [fingerprint for fingerprint, _ in rows] == [r["fingerprint"] for r in records]

    def test_fingerprint_scan_matches_full_parse_on_large_store(self, tmp_path):
        """``fingerprints()`` reads the indexed column, not whole records —
        on a large store it must agree exactly with the full JSON parse."""
        store = CampaignResultsStore(str(tmp_path / "large.sqlite3"))
        expected = set()
        for i in range(3000):
            fingerprint = f"{i:032x}"
            store.append(
                fingerprint,
                "large-scenario",
                {"seed": i, "method": "magma", "budget": 10_000},
                {"best_fitness": float(i), "history": [float(j) for j in range(40)]},
            )
            expected.add(fingerprint)
        assert store.fingerprints() == expected
        assert store.fingerprints() == {
            record["fingerprint"] for record in store.records()
        }

    def test_non_resume_refuses_to_wipe_a_populated_store(self, grid_spec, tmp_path):
        """Hours of campaign results must not be silently truncated because
        --resume was omitted; starting over requires a fresh path."""
        from repro.exceptions import ExperimentError

        path = tmp_path / "out.sqlite3"
        before = _records_of(grid_spec, path)
        with pytest.raises(ExperimentError):
            fresh_engine().run([grid_spec], store=str(path), resume=False)
        assert _stored(path) == before

    def test_non_resume_overwrites_an_empty_store_file(self, grid_spec, tmp_path):
        path = tmp_path / "out.sqlite3"
        path.write_text("")
        report = fresh_engine().run([grid_spec], store=str(path))
        assert report.cells_run == 8

    def test_resume_into_a_fresh_nested_path(self, grid_spec, tmp_path):
        """--resume against a store that does not exist yet (including its
        directory) behaves like a fresh run instead of crashing mid-append."""
        path = tmp_path / "sub" / "dir" / "out.sqlite3"
        report = fresh_engine().run([grid_spec], store=str(path), resume=True)
        assert report.cells_run == 8
        assert len(_stored(path)) == 8

    def test_custom_scenarios_store_their_output(self, tmp_path):
        store = CampaignResultsStore(str(tmp_path / "out.sqlite3"))
        report = fresh_engine().run(["fig15"], store=store)
        assert report.cells_total == report.cells_run == 1
        (record,) = store.records()
        assert record["cell"]["custom"] is True
        assert "finish_time_cycles" in record["result"]["output"]
        # Resuming skips the completed custom scenario too.
        rerun = fresh_engine().run(["fig15"], store=store, resume=True)
        assert rerun.cells_run == 0 and rerun.cells_skipped == 1

class TestEngineByName:
    def test_registered_scenarios_run_by_name(self, tmp_path):
        report = fresh_engine().run(
            ["seed-replicates"], store=str(tmp_path / "out.sqlite3"), base_seed=0
        )
        # 3 methods x 3 seeds on one panel.
        assert report.cells_total == 9
        assert report.cells_run == 9


class TestSeedReplicates:
    """The --seeds axis: replication before fingerprinting, stats after."""

    def test_seed_replicates_expand_every_grid_cell(self, grid_spec, tmp_path):
        report = fresh_engine().run(
            [grid_spec], store=str(tmp_path / "out.sqlite3"), seed_replicates=2
        )
        assert report.cells_total == report.cells_run == 16

    def test_interrupted_multi_seed_campaign_resumes_to_identical_records(
        self, grid_spec, tmp_path
    ):
        """Acceptance: an interrupted --seeds campaign resumed to completion
        holds the records of an uninterrupted one, record for record, with
        identical aggregate statistics."""
        from repro.experiments.stats import replicate_summary, rows_from_store

        full_path = tmp_path / "full.sqlite3"
        full = _records_of(grid_spec, full_path, seed_replicates=2)
        assert len(full) == 16

        # Simulate an interruption after 5 completed cells (mid-replicate).
        partial_path = tmp_path / "partial.sqlite3"
        with CampaignResultsStore(str(partial_path)) as partial:
            partial.backend.append_many(full[:5])
        report = fresh_engine().run(
            [grid_spec], store=str(partial_path), resume=True, seed_replicates=2
        )
        assert report.cells_skipped == 5
        assert report.cells_run == 11
        assert _stored(partial_path) == full

        full_stats = replicate_summary(rows_from_store(str(full_path)))
        resumed_stats = replicate_summary(rows_from_store(str(partial_path)))
        assert resumed_stats == full_stats

    def test_replicated_store_aggregates_with_uncertainty(self, grid_spec, tmp_path):
        from repro.experiments.stats import replicate_summary, rows_from_store

        path = tmp_path / "out.sqlite3"
        fresh_engine().run([grid_spec], store=str(path), seed_replicates=3)
        summary = replicate_summary(rows_from_store(str(path)))
        assert summary["num_cells"] == 24
        assert summary["num_groups"] == 8
        for group in summary["replicates"]:
            assert group["seeds"] == [0, 1, 2]
            stats = group["metrics"]["throughput_gflops"]
            assert stats["count"] == 3
            assert stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["std"] >= 0.0
        agreement = summary["cross_seed_agreement"]
        assert agreement
        for info in agreement.values():
            assert info["num_seeds"] == 3
            assert 0.0 < info["agreement"] <= 1.0
            assert info["winner"] in {"herald-like", "magma"}

    def test_replication_happens_before_fingerprinting(self, grid_spec, tmp_path):
        """A single-seed store is a strict prefix-compatible subset of the
        replicated one: seed 0 cells share fingerprints across both runs."""
        single = _records_of(grid_spec, tmp_path / "single.sqlite3")
        multi = _records_of(grid_spec, tmp_path / "multi.sqlite3", seed_replicates=2)
        single_fps = {record["fingerprint"] for record in single}
        multi_fps = {record["fingerprint"] for record in multi}
        assert single_fps < multi_fps

    def test_non_positive_replicate_count_rejected(self, grid_spec):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="positive"):
            fresh_engine().run([grid_spec], seed_replicates=0)
