"""Tests for the solution store and the shared append-only JSONL base."""

import json
import threading

import pytest

from repro.service.store import SolutionStore
from repro.utils.jsonl_store import AppendOnlyJsonlStore
from repro.utils.serialization import SearchResultSummary
from repro.utils.storage import StoreBackend


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
    return SolutionStore(str(tmp_path / "solutions.jsonl"))


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


class TestFastFingerprintScan:
    def test_scan_matches_full_parse_on_large_store(self, tmp_path):
        """The regex scan and a full JSON parse agree on a large store."""
        store = SolutionStore(str(tmp_path / "large.jsonl"))
        expected = set()
        for i in range(2000):
            fingerprint = f"{i:032x}"
            # Realistic records: non-trivial encodings and histories, plus
            # adversarial request values that *contain* the scanned key.
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

    def test_scan_ignores_torn_trailing_line(self, tmp_path):
        store = AppendOnlyJsonlStore(str(tmp_path / "torn.jsonl"))
        store.append_record({"fingerprint": "aaa", "x": 1})
        store.append_record({"fingerprint": "bbb", "x": 2})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "ccc", "x"')
        # The torn record was never durably written; it must not be trusted.
        assert store.fingerprints() == {"aaa", "bbb"}
        assert store.repair() == 2
        assert store.fingerprints() == {"aaa", "bbb"}

    def test_scan_falls_back_to_json_for_odd_layouts(self, tmp_path):
        store = AppendOnlyJsonlStore(str(tmp_path / "odd.jsonl"))
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fingerprint": 123}) + "\n")
            handle.write(json.dumps({"other": "no fingerprint here"}) + "\n")
        assert store.fingerprints() == {"123"}


def _fill_dupes(store, records=60, fingerprints=6):
    for i in range(records):
        store.append_record(
            {"fingerprint": f"fp-{i % fingerprints}", "request": {"i": i},
             "result": {"best_fitness": float(i % 5)}}
        )


class TestSelectiveLookup:
    """The jsonl lookup seeks to and parses only the fingerprint's own lines."""

    def test_matches_the_full_parse_lookup(self, tmp_path):
        store = AppendOnlyJsonlStore(str(tmp_path / "dupes.jsonl"))
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
            assert store.lookup(fingerprint) == StoreBackend.lookup(store, fingerprint)
        assert store.lookup(f"{40:032x}") is None

    def test_a_mention_as_data_is_not_a_match(self, tmp_path):
        store = AppendOnlyJsonlStore(str(tmp_path / "mention.jsonl"))
        store.append_record({"fingerprint": "other", "request": {"note": "aaa"},
                             "result": {"best_fitness": 9.0}})
        assert store.lookup("aaa") is None
        store.append_record({"fingerprint": "aaa", "result": {"best_fitness": 1.0}})
        assert store.lookup("aaa")["result"]["best_fitness"] == 1.0
        # A nested key that sorts first is what the scan indexes the line
        # under, but it is not the record's fingerprint.
        store.append_record({"fingerprint": "ccc", "config": {"fingerprint": "bbb"},
                             "result": {"best_fitness": 2.0}})
        assert "bbb" in store.fingerprints()
        assert store.lookup("bbb") is None

    def test_missing_file_reads_none(self, tmp_path):
        assert AppendOnlyJsonlStore(str(tmp_path / "absent.jsonl")).lookup("aaa") is None

    def test_malformed_line_with_the_fingerprint_raises(self, tmp_path):
        store = AppendOnlyJsonlStore(str(tmp_path / "bad.jsonl"))
        store.append_record({"fingerprint": "aaa", "result": {"best_fitness": 1.0}})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "bbb", "result": \n')
        assert store.lookup("aaa")["result"]["best_fitness"] == 1.0
        with pytest.raises(json.JSONDecodeError):
            store.lookup("bbb")

    def test_parses_only_its_own_records(self, tmp_path, monkeypatch):
        store = AppendOnlyJsonlStore(str(tmp_path / "own.jsonl"))
        _fill_dupes(store, records=120, fingerprints=40)
        store.fingerprints()
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
        assert store.lookup("fp-7")["request"]["i"] == 7
        assert len(parsed) == 3
        # Records appended since the scan are indexed, not parsed.
        _fill_dupes(store, records=40, fingerprints=40)
        assert store.lookup("fp-7")["request"]["i"] == 7
        assert len(parsed) == 7

    def test_sees_records_appended_since_the_scan(self, tmp_path):
        store = AppendOnlyJsonlStore(str(tmp_path / "grow.jsonl"))
        store.append_record({"fingerprint": "aaa", "result": {"best_fitness": 1.0}})
        assert store.fingerprints() == {"aaa"}
        store.append_record({"fingerprint": "aaa", "result": {"best_fitness": 2.0}})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"fingerprint": "bbb", "result": {"best_fitness": 3.0}}) + "\n")
            handle.write('{"fingerprint": "ccc", "result": {"best_fi')
        assert store.lookup("aaa")["result"]["best_fitness"] == 2.0
        assert store.lookup("bbb")["result"]["best_fitness"] == 3.0
        # A torn trailing line is not indexed until it is complete.
        assert store.lookup("ccc") is None
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('tness": 4.0}}\n')
        assert store.lookup("ccc")["result"]["best_fitness"] == 4.0
        assert store.fingerprints() == {"aaa", "bbb", "ccc"}

    @pytest.mark.parametrize(
        "rewrite", ["compact", "truncate", "repair", "other-compact", "in-place-shrink"]
    )
    def test_index_follows_a_rewritten_file(self, tmp_path, rewrite):
        path = str(tmp_path / "rewrite.jsonl")
        store = AppendOnlyJsonlStore(path)
        _fill_dupes(store)
        assert store.lookup("fp-1")["request"]["i"] == 19
        if rewrite == "compact":
            store.compact()
        elif rewrite == "truncate":
            # Refilled past its old size, so only the reset catches it.
            store.truncate()
            _fill_dupes(store, records=90, fingerprints=9)
        elif rewrite == "repair":
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"fingerprint": "fp-torn"')
            store.repair()
        elif rewrite == "other-compact":
            # Another object replaces the file and grows it past its old
            # size, so only the changed inode tells.
            other = AppendOnlyJsonlStore(path)
            other.compact()
            _fill_dupes(other, records=90, fingerprints=9)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"fingerprint": "fp-1", "result": {"best_fitness": 0.5}}) + "\n")
        expected = {record["fingerprint"] for record in store.records()}
        for fingerprint in sorted(expected | {f"fp-{i}" for i in range(9)}):
            assert store.lookup(fingerprint) == StoreBackend.lookup(store, fingerprint)
        assert store.fingerprints() == expected


class TestConcurrentWrites:
    def test_parallel_appends_never_tear_or_drop_records(self, tmp_path):
        """Two workers appending simultaneously leave only intact records."""
        store = SolutionStore(str(tmp_path / "concurrent.jsonl"))
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
        # The repair path (shared with the campaign store) finds nothing torn,
        # every line parses, and no record was dropped or duplicated.
        assert store.repair() == per_worker * workers
        records = store.records()
        assert len(records) == per_worker * workers
        fingerprints = [record["fingerprint"] for record in records]
        assert len(set(fingerprints)) == per_worker * workers
        assert store.fingerprints() == set(fingerprints)
