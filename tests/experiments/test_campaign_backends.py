"""Campaign store-backend tests: resume convergence beyond ``jsonl:``.

The campaign engine's resume guarantee — an interrupted campaign resumed to
completion holds exactly the records an uninterrupted run would — was
proven byte-for-byte on the JSONL store.  These tests extend it to the
``sqlite:`` backend at *record* granularity (it is not a text file), and
pin that both backends converge to the same records.
"""

import pytest

from repro.core.analyzer import AnalysisTableCache
from repro.exceptions import ExperimentError
from repro.experiments import get_scale
from repro.experiments.campaign import CampaignResultsStore, CampaignRunner
from repro.experiments.scenarios import ScenarioSpec

TINY = get_scale("tiny")


@pytest.fixture()
def grid_spec():
    """A 1-setting x 2-task x 2-method grid (4 cells)."""
    return ScenarioSpec(
        name="grid",
        description="campaign backend test grid",
        settings=("S1",),
        bandwidths=(16.0,),
        tasks=("vision", "mix"),
        methods=("herald-like", "magma"),
    )


def fresh_engine():
    return CampaignRunner(scale=TINY, table_cache=AnalysisTableCache())


@pytest.fixture(params=["sqlite"])
def store_url(request, tmp_path):
    return f"{request.param}:{tmp_path / 'campaign.sqlite3'}"


class TestResumeOnSharedBackends:
    def _reference_records(self, grid_spec, tmp_path):
        """The records an uninterrupted jsonl-store campaign produces."""
        path = tmp_path / "reference.jsonl"
        fresh_engine().run([grid_spec], store=str(path), resume=False)
        with CampaignResultsStore(str(path)) as store:
            return store.records()

    def test_interrupted_campaign_resumes_to_identical_records(
        self, grid_spec, tmp_path, store_url
    ):
        reference = self._reference_records(grid_spec, tmp_path)

        # Simulate an interruption after 2 completed cells: seed the store
        # with a prefix of the reference records, then resume.
        with CampaignResultsStore(store_url) as partial:
            for record in reference[:2]:
                partial.append_record(record)
        report = fresh_engine().run([grid_spec], store=store_url, resume=True)
        assert report.cells_skipped == 2
        assert report.cells_run == 2

        with CampaignResultsStore(store_url) as store:
            assert store.records() == reference

        # A second resume has nothing left to do and changes nothing.
        rerun = fresh_engine().run([grid_spec], store=store_url, resume=True)
        assert rerun.cells_run == 0
        assert rerun.cells_skipped == 4
        with CampaignResultsStore(store_url) as store:
            assert store.records() == reference

    def test_fresh_campaign_matches_jsonl_reference(
        self, grid_spec, tmp_path, store_url
    ):
        reference = self._reference_records(grid_spec, tmp_path)
        fresh_engine().run([grid_spec], store=store_url, resume=False)
        with CampaignResultsStore(store_url) as store:
            assert store.records() == reference

    def test_non_resume_refuses_to_wipe_a_populated_shared_store(
        self, grid_spec, store_url
    ):
        with CampaignResultsStore(store_url) as store:
            store.append_record({"fingerprint": "prior", "result": {}})
        with pytest.raises(ExperimentError, match="resume"):
            fresh_engine().run([grid_spec], store=store_url, resume=False)
