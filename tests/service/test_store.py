"""Tests for the solution store and the domain stores' ownership of the
backend they open."""

import threading

import pytest

from repro.experiments.campaign import CampaignResultsStore
from repro.service.store import SolutionStore
from repro.service.warmlib import WarmStartLibrary
from repro.utils.serialization import SearchResultSummary
from repro.utils.storage import StoreBackend, open_store_backend


def _summary(fitness: float, encoding=None) -> SearchResultSummary:
    return SearchResultSummary(
        optimizer_name="MAGMA",
        best_fitness=fitness,
        objective_value=fitness,
        throughput_gflops=fitness,
        makespan_cycles=100.0,
        samples_used=48,
        best_encoding=list(encoding or [0.0, 1.0, 0.5, 0.25]),
        history=[fitness / 2, fitness],
    )


@pytest.fixture()
def store(tmp_path):
    return SolutionStore(str(tmp_path / "solutions.sqlite3"))


class TestSolutionStore:
    def test_append_and_lookup_round_trip(self, store):
        summary = _summary(10.0)
        store.append("fp-a", {"task": "vision"}, "vision/throughput", summary)
        record = store.lookup("fp-a")
        assert record["request"] == {"task": "vision"}
        assert record["task_key"] == "vision/throughput"
        assert store.lookup_result("fp-a").to_dict() == summary.to_dict()

    def test_lookup_unknown_fingerprint(self, store):
        assert store.lookup("missing") is None
        assert store.lookup_result("missing") is None

    def test_duplicate_fingerprints_resolve_to_best_fitness(self, store):
        store.append("fp", {}, "k", _summary(5.0))
        store.append("fp", {}, "k", _summary(9.0))
        store.append("fp", {}, "k", _summary(7.0))
        assert store.lookup_result("fp").best_fitness == 9.0
        assert store.best_by_fingerprint()["fp"]["result"]["best_fitness"] == 9.0

    def test_best_by_task_keeps_best_per_key(self, store):
        store.append("fp1", {}, "vision/throughput", _summary(5.0))
        store.append("fp2", {}, "vision/throughput", _summary(8.0))
        store.append("fp3", {}, "mix/throughput", _summary(3.0))
        best = store.best_by_task()
        assert set(best) == {"vision/throughput", "mix/throughput"}
        assert best["vision/throughput"]["fingerprint"] == "fp2"

    def test_missing_file_is_empty(self, store):
        assert store.records() == []
        assert store.fingerprints() == set()
        assert len(store) == 0


class TestFingerprintScan:
    def test_scan_matches_full_parse_on_large_store(self, tmp_path):
        """The indexed fingerprint column and a full JSON parse agree."""
        store = SolutionStore(str(tmp_path / "large.sqlite3"))
        expected = set()
        for i in range(2000):
            fingerprint = f"{i:032x}"
            # Realistic records: non-trivial encodings and histories, plus
            # request values that *contain* the fingerprint key as data.
            store.append(
                fingerprint,
                {"note": 'contains "fingerprint": "deadbeef" as data', "seed": i},
                f"task{i % 7}/throughput",
                _summary(float(i), encoding=[float(j) for j in range(32)]),
            )
            expected.add(fingerprint)
        assert store.fingerprints() == expected
        assert store.fingerprints() == {
            record["fingerprint"] for record in store.records()
        }


def _fill_dupes(store, records=60, fingerprints=9):
    """Append *records* records cycling over *fingerprints* fingerprints, the
    later of each fingerprint's records scoring higher."""
    for i in range(records):
        store.append_record(
            {"fingerprint": f"fp-{i % fingerprints}", "request": {"i": i},
             "result": {"best_fitness": float(i)}}
        )


def _reference_lookup(store, fingerprint):
    """What a lookup must answer: the best of a full parse, ties earliest."""
    return store.best_records().get(fingerprint)


class TestLookup:
    """A per-fingerprint lookup answers what a full parse of the store does,
    whatever has been written to the store since the handle opened."""

    def test_matches_the_full_parse_lookup(self, tmp_path):
        store = StoreBackend(str(tmp_path / "dupes.sqlite3"))
        for i in range(300):
            fingerprint = f"{i % 40:032x}"
            # Some records mention another record's fingerprint as data.
            note = f"{(i + 1) % 40:032x}" if i % 3 == 0 else "plain"
            store.append_record(
                {"fingerprint": fingerprint, "request": {"note": note, "i": i},
                 "result": {"best_fitness": float(i % 7)}}
            )
        for i in range(41):
            fingerprint = f"{i:032x}"
            assert store.lookup(fingerprint) == _reference_lookup(store, fingerprint)
        assert store.lookup(f"{40:032x}") is None

    def test_a_fresh_store_reads_none(self, tmp_path):
        with StoreBackend(str(tmp_path / "absent.sqlite3")) as store:
            assert store.lookup("aaa") is None

    def test_sees_records_appended_by_another_handle(self, tmp_path):
        path = str(tmp_path / "grow.sqlite3")
        store, other = StoreBackend(path), StoreBackend(path)
        store.append_record({"fingerprint": "aaa", "result": {"best_fitness": 1.0}})
        assert store.fingerprints() == {"aaa"}
        other.append_record({"fingerprint": "aaa", "result": {"best_fitness": 2.0}})
        other.append_record({"fingerprint": "bbb", "result": {"best_fitness": 3.0}})
        assert store.lookup("aaa")["result"]["best_fitness"] == 2.0
        assert store.lookup("bbb")["result"]["best_fitness"] == 3.0
        assert store.fingerprints() == {"aaa", "bbb"}

    @pytest.mark.parametrize("rewrite", ["compact", "truncate", "other-compact", "other-truncate"])
    def test_follows_a_rewritten_store(self, tmp_path, rewrite):
        path = str(tmp_path / "rewrite.sqlite3")
        store = StoreBackend(path)
        _fill_dupes(store)
        assert store.lookup("fp-1")["request"]["i"] == 55
        # The rewriter refills the store past its old size, so nothing a
        # reader remembered of the old contents can pass for the new.
        rewriter = store if not rewrite.startswith("other") else StoreBackend(path)
        if rewrite.endswith("compact"):
            rewriter.compact()
        else:
            rewriter.truncate()
        _fill_dupes(rewriter, records=90, fingerprints=7)
        expected = {record["fingerprint"] for record in store.records()}
        for fingerprint in sorted(expected | {f"fp-{i}" for i in range(9)}):
            assert store.lookup(fingerprint) == _reference_lookup(store, fingerprint)
        assert store.fingerprints() == expected

class TestConcurrentWrites:
    def test_parallel_appends_never_tear_or_drop_records(self, tmp_path):
        """Two workers appending simultaneously leave only intact records."""
        store = SolutionStore(str(tmp_path / "concurrent.sqlite3"))
        per_worker, workers = 200, 4
        errors = []

        def writer(worker: int) -> None:
            try:
                for i in range(per_worker):
                    store.append(
                        f"w{worker}-{i:04d}",
                        {"worker": worker, "i": i},
                        f"task{worker}/throughput",
                        _summary(float(i)),
                    )
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # Every record parses, and none was dropped or duplicated.
        records = store.records()
        assert len(records) == per_worker * workers
        fingerprints = [record["fingerprint"] for record in records]
        assert len(set(fingerprints)) == per_worker * workers
        assert store.fingerprints() == set(fingerprints)


DOMAIN_STORES = [SolutionStore, CampaignResultsStore, WarmStartLibrary]


@pytest.mark.parametrize("prefix", ["sqlite:", ""], ids=["sqlite", "bare"])
@pytest.mark.parametrize("store_cls", DOMAIN_STORES, ids=lambda cls: cls.__name__)
class TestDomainStoreOwnership:
    """Every domain store opens its store from either address form, and
    leaves a backend it was handed open when it closes."""

    def test_opened_from_a_url_reports_its_url_and_path(self, tmp_path, store_cls, prefix):
        path = str(tmp_path / "store.sqlite3")
        store = store_cls(f"{prefix}{path}")
        try:
            assert store.url == f"sqlite:{path}"
            assert store.path == path
        finally:
            store.close()

    def test_closing_leaves_a_backend_it_was_handed_open(self, tmp_path, store_cls, prefix):
        backend = open_store_backend(f"{prefix}{tmp_path / 'store.sqlite3'}")
        try:
            store_cls(backend).close()
            backend.append_record({"fingerprint": "after-close", "result": {"best_fitness": 1.0}})
            assert backend.fingerprints() == {"after-close"}
        finally:
            backend.close()
