"""Backend-conformance suite for the pluggable store backends.

Every test in :class:`TestBackendConformance` runs against both
transports — ``jsonl:`` and ``sqlite:`` — so a behavioural divergence
between backends fails the same test both ways instead of hiding behind
whichever backend a feature test happened to use.  Each transport also runs
as a ``-peer`` arm: writes go through one handle and reads through a second
handle on the same file, the view another replica (or another process's
``repro-magma store`` command) has of the store.
:class:`TestSqliteAcrossProcesses` checks the sharing claim the ``sqlite:``
backend makes: replicas in separate OS processes share one store.  The URL
grammar and compaction policy get their own unit classes since they are
backend-independent.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.jsonl_store import AppendOnlyJsonlStore
from repro.utils.sqlite_store import SqliteStoreBackend
from repro.utils.storage import (
    CompactionPolicy,
    StoreBackend,
    StoreUrl,
    open_store_backend,
    parse_store_url,
    record_fitness,
    render_record,
)


def _record(fingerprint, fitness, **extra):
    record = {"fingerprint": fingerprint, "result": {"best_fitness": fitness}}
    record.update(extra)
    return record


class _PeerView(StoreBackend):
    """Writes through one handle and reads through a second on the same file.

    Every read answers from a handle that never made the writes, so any
    per-handle state (the JSONL offset index, a SQLite connection's view)
    that went stale would surface as a conformance failure.
    """

    def __init__(self, writer: StoreBackend, reader: StoreBackend) -> None:
        self.kind, self.shared, self.path = writer.kind, writer.shared, writer.path
        super().__init__()
        self._writer, self._reader = writer, reader

    def append_record(self, record):
        self._writer.append_record(record)

    def iter_records(self):
        return self._reader.iter_records()

    def __len__(self):
        return len(self._reader)

    def fingerprints(self):
        return self._reader.fingerprints()

    def lookup(self, fingerprint):
        return self._reader.lookup(fingerprint)

    def repair(self):
        return self._writer.repair()

    def truncate(self):
        self._writer.truncate()

    def _replace_records(self, records):
        self._writer._replace_records(records)

    def close(self):
        self._writer.close()
        self._reader.close()


_BACKEND_CLASSES = {"jsonl": AppendOnlyJsonlStore, "sqlite": SqliteStoreBackend}


@pytest.fixture(params=["jsonl", "sqlite", "jsonl-peer", "sqlite-peer"])
def backend(request, tmp_path):
    """One open store backend per transport; torn down after the test."""
    kind, _, peer = request.param.partition("-")
    cls = _BACKEND_CLASSES[kind]
    path = str(tmp_path / f"store.{kind}")
    store = _PeerView(cls(path), cls(path)) if peer else cls(path)
    yield store
    store.close()


class TestBackendConformance:
    def test_append_iter_round_trip_preserves_order_and_content(self, backend):
        records = [_record(f"fp-{i}", float(i), payload={"i": i}) for i in range(10)]
        for record in records:
            backend.append_record(record)
        assert backend.records() == records
        assert len(backend) == 10

    def test_empty_store_reads_empty(self, backend):
        assert backend.records() == []
        assert backend.fingerprints() == set()
        assert len(backend) == 0
        assert backend.repair() == 0

    def test_fingerprints_match_full_parse(self, backend):
        for i in range(25):
            backend.append_record(_record(f"{i:032x}", float(i)))
        backend.append_record({"task_key": "no-fingerprint", "x": 1})
        assert backend.fingerprints() == {f"{i:032x}" for i in range(25)}

    def test_lookup_resolves_duplicates_to_best_fitness_ties_earliest(self, backend):
        backend.append_record(_record("fp", 5.0, tag="first"))
        backend.append_record(_record("fp", 9.0, tag="winner"))
        backend.append_record(_record("fp", 9.0, tag="late-tie"))
        backend.append_record(_record("fp", 7.0, tag="worse"))
        best = backend.lookup("fp")
        assert best["tag"] == "winner"
        assert backend.lookup("missing") is None

    def test_best_records_by_alternate_key(self, backend):
        backend.append_record({"task_key": "a", "result": {"best_fitness": 1.0}})
        backend.append_record({"task_key": "a", "result": {"best_fitness": 3.0}})
        backend.append_record({"task_key": "b", "result": {"best_fitness": 2.0}})
        best = backend.best_records(key="task_key")
        assert set(best) == {"a", "b"}
        assert record_fitness(best["a"]) == 3.0

    def test_truncate_empties_the_store(self, backend):
        backend.append_record(_record("fp", 1.0))
        backend.truncate()
        assert backend.records() == []
        assert len(backend) == 0

    def test_an_indexed_reader_sees_a_truncate_and_a_longer_record(self, backend):
        """On the peer arms the reader indexes the file, then the writer
        truncates it and appends a longer record: the reader must answer
        from the new file, not from its old offsets."""
        backend.append_record(_record("fp-old", 1.0))
        assert backend.lookup("fp-old") is not None
        backend.truncate()
        longer = _record("fp-new", 2.0, payload="x" * 200)
        backend.append_record(longer)
        assert backend.lookup("fp-old") is None
        assert backend.lookup("fp-new") == longer
        assert backend.fingerprints() == {"fp-new"}

    def test_lookup_answers_fingerprints_json_escapes(self, backend):
        """A fingerprint that JSON writes with an escape (non-ASCII, an
        embedded quote) is indexed and answered under its own value."""
        fingerprints = ["fp-ü", 'fp-"quoted"']
        for fitness, fingerprint in enumerate(fingerprints):
            backend.append_record(_record(fingerprint, float(fitness)))
        assert backend.fingerprints() == set(fingerprints)
        for fitness, fingerprint in enumerate(fingerprints):
            assert backend.lookup(fingerprint) == _record(fingerprint, float(fitness))

    def test_repair_reports_intact_count(self, backend):
        for i in range(7):
            backend.append_record(_record(f"fp-{i}", float(i)))
        assert backend.repair() == 7
        assert len(backend) == 7

    def test_records_survive_close_and_reopen(self, backend, tmp_path):
        for i in range(5):
            backend.append_record(_record(f"fp-{i}", float(i)))
        expected = backend.records()
        backend.close()
        with open_store_backend(backend.url) as reopened:
            assert reopened.kind == backend.kind
            assert reopened.records() == expected

    def test_concurrent_appends_never_tear_or_drop(self, backend):
        per_worker, workers = 50, 4
        errors = []

        def writer(worker):
            try:
                for i in range(per_worker):
                    backend.append_record(
                        _record(f"w{worker}-{i:04d}", float(i), worker=worker)
                    )
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert backend.repair() == per_worker * workers
        fingerprints = [record["fingerprint"] for record in backend.records()]
        assert len(fingerprints) == per_worker * workers
        assert len(set(fingerprints)) == per_worker * workers

    def test_compaction_keeps_best_per_fingerprint_and_is_idempotent(self, backend):
        for i in range(4):
            backend.append_record(_record("fp-a", float(i)))
            backend.append_record(_record("fp-b", float(10 - i)))
        backend.append_record({"task_key": "keyless", "x": 1})
        kept, dropped = backend.compact(CompactionPolicy(keep_best_per_fingerprint=True))
        assert (kept, dropped) == (3, 6)
        assert record_fitness(backend.lookup("fp-a")) == 3.0
        assert record_fitness(backend.lookup("fp-b")) == 10.0
        # Idempotent: compacting an already-compacted store drops nothing.
        assert backend.compact(CompactionPolicy(keep_best_per_fingerprint=True)) == (3, 0)

    def test_compaction_max_records_keeps_newest(self, backend):
        for i in range(10):
            backend.append_record(_record(f"fp-{i}", float(i)))
        policy = CompactionPolicy(keep_best_per_fingerprint=False, max_records=3)
        assert backend.compact(policy) == (3, 7)
        assert [r["fingerprint"] for r in backend.records()] == ["fp-7", "fp-8", "fp-9"]

    def test_describe_reports_kind_url_and_counts(self, backend):
        backend.append_record(_record("fp", 1.0))
        info = backend.describe()
        assert info["kind"] == backend.kind
        assert info["records"] == 1
        assert info["fingerprints"] == 1
        assert info["url"]

    def test_store_ops_counters_increment(self, backend):
        from repro.obs.metrics import get_metrics

        registry = get_metrics()
        labels = {"backend": backend.kind, "op": "append"}
        before = registry.value_of("repro_store_ops_total", labels)
        backend.append_record(_record("fp", 1.0))
        assert registry.value_of("repro_store_ops_total", labels) == before + 1

    def test_close_is_idempotent_and_keeps_the_records(self, backend):
        backend.append_record(_record("fp", 1.0))
        backend.close()
        backend.close()
        with open_store_backend(backend.url) as reopened:
            assert reopened.fingerprints() == {"fp"}

    def test_compaction_max_bytes_keeps_the_newest_records_that_fit(self, backend):
        records = [_record(f"fp-{i}", float(i)) for i in range(6)]
        for record in records:
            backend.append_record(record)
        budget = sum(len(render_record(record).encode("utf-8")) + 1 for record in records[4:])
        policy = CompactionPolicy(keep_best_per_fingerprint=False, max_bytes=budget)
        assert backend.compact(policy) == (2, 4)
        assert backend.records() == records[4:]

    def test_compaction_by_alternate_key_keeps_the_best_per_key(self, backend):
        backend.append_record({"task_key": "a", "result": {"best_fitness": 1.0}, "n": 0})
        backend.append_record({"task_key": "b", "result": {"best_fitness": 2.0}, "n": 1})
        backend.append_record({"task_key": "a", "result": {"best_fitness": 3.0}, "n": 2})
        assert backend.compact(CompactionPolicy(key="task_key")) == (2, 1)
        assert [record["n"] for record in backend.records()] == [1, 2]

    def test_appends_after_compaction_follow_the_survivors(self, backend):
        for fitness in (1.0, 4.0, 2.0):
            backend.append_record(_record("fp-a", fitness))
        assert record_fitness(backend.lookup("fp-a")) == 4.0
        assert backend.compact() == (1, 2)
        backend.append_record(_record("fp-b", 0.5))
        backend.append_record(_record("fp-a", 9.0, tag="newer"))
        survivors = [(r["fingerprint"], record_fitness(r)) for r in backend.records()]
        assert survivors == [("fp-a", 4.0), ("fp-b", 0.5), ("fp-a", 9.0)]
        assert backend.lookup("fp-a")["tag"] == "newer"
        assert backend.fingerprints() == {"fp-a", "fp-b"}

    def test_nested_and_unicode_payloads_round_trip(self, backend):
        record = _record(
            "fp-payload",
            0.1,
            payload={"name": "π ≈ 3.14 ✓", "nested": [[1, 2.5], {"k": None}], "flag": True},
            big=2**53 + 1,
        )
        backend.append_record(record)
        assert backend.records() == [record]
        assert backend.lookup("fp-payload") == record


class TestCrossBackendMigration:
    def test_records_migrate_byte_identically_between_jsonl_and_sqlite(self, tmp_path):
        """The canonical rendering is shared, so a sqlite round trip of a
        JSONL store reproduces the original file byte for byte."""
        source = AppendOnlyJsonlStore(str(tmp_path / "source.jsonl"))
        for i in range(20):
            source.append_record(_record(f"fp-{i}", float(i), note=f"n{i}"))
        with open(source.path, "rb") as handle:
            original_bytes = handle.read()

        middle = SqliteStoreBackend(str(tmp_path / "middle.sqlite3"))
        for record in source.records():
            middle.append_record(record)
        final = AppendOnlyJsonlStore(str(tmp_path / "final.jsonl"))
        for record in middle.records():
            final.append_record(record)
        middle.close()
        with open(final.path, "rb") as handle:
            assert handle.read() == original_bytes

    def test_render_record_is_canonical_json(self):
        rendered = render_record({"b": 1, "a": [1.0, 2]})
        assert rendered == json.dumps({"b": 1, "a": [1.0, 2]}, sort_keys=True)
        assert json.loads(rendered) == {"b": 1, "a": [1.0, 2]}


_APPEND_SCRIPT = """
import sys
from repro.utils.sqlite_store import SqliteStoreBackend

path, worker, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
with SqliteStoreBackend(path) as store:
    print("ready", flush=True)
    sys.stdin.readline()
    for i in range(count):
        store.append_record(
            {"fingerprint": f"{worker}-{i:04d}", "worker": worker, "result": {"best_fitness": float(i)}}
        )
"""

_TRUNCATE_SCRIPT = """
import sys
from repro.utils.sqlite_store import SqliteStoreBackend

with SqliteStoreBackend(sys.argv[1]) as store:
    store.truncate()
"""


def _python(*args, **kwargs):
    """Run ``python *args`` with this interpreter's import path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.Popen(
        [sys.executable, *args],
        env=env,
        text=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        **kwargs,
    )


def _finish(process):
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 0, stderr
    return stdout


class TestSqliteAcrossProcesses:
    """Replicas in separate OS processes share one ``sqlite:`` store."""

    def test_concurrent_appends_from_two_processes_never_tear_or_drop(self, tmp_path):
        path, count = str(tmp_path / "shared.sqlite3"), 150
        writers = [_python("-c", _APPEND_SCRIPT, path, worker, str(count), stdin=subprocess.PIPE) for worker in "ab"]
        try:
            for writer in writers:
                assert writer.stdout.readline().strip() == "ready"
            for writer in writers:  # both hold the store open before either writes
                writer.stdin.write("go\n")
                writer.stdin.flush()
        finally:
            for writer in writers:
                _finish(writer)
        with SqliteStoreBackend(path) as store:
            records = store.records()
        assert len(records) == 2 * count
        for worker in "ab":
            own = [r["fingerprint"] for r in records if r["worker"] == worker]
            assert own == [f"{worker}-{i:04d}" for i in range(count)]

    def test_an_open_handle_sees_another_processs_appends(self, tmp_path):
        path = str(tmp_path / "shared.sqlite3")
        with SqliteStoreBackend(path) as store:
            assert len(store) == 0
            writer = _python("-c", _APPEND_SCRIPT, path, "peer", "3", stdin=subprocess.PIPE)
            writer.stdin.write("go\n")
            writer.stdin.flush()
            _finish(writer)
            assert len(store) == 3
            assert store.fingerprints() == {f"peer-{i:04d}" for i in range(3)}
            assert record_fitness(store.lookup("peer-0002")) == 2.0

    def test_an_open_handle_sees_a_store_compact_run_in_another_process(self, tmp_path):
        path = str(tmp_path / "shared.sqlite3")
        with SqliteStoreBackend(path) as store:
            for i in range(6):
                store.append_record(_record("fp-a" if i % 2 else "fp-b", float(i)))
            assert len(store) == 6
            report = json.loads(_finish(_python("-m", "repro.cli", "store", "compact", f"sqlite:{path}")))
            assert (report["kept"], report["dropped"]) == (2, 4)
            assert [record_fitness(r) for r in store.records()] == [4.0, 5.0]
            assert record_fitness(store.lookup("fp-a")) == 5.0

    def test_an_open_handle_sees_another_processs_truncate(self, tmp_path):
        path = str(tmp_path / "shared.sqlite3")
        with SqliteStoreBackend(path) as store:
            store.append_record(_record("fp-old", 1.0))
            assert store.fingerprints() == {"fp-old"}
            _finish(_python("-c", _TRUNCATE_SCRIPT, path))
            assert store.records() == [] and store.lookup("fp-old") is None
            store.append_record(_record("fp-new", 2.0))
            assert store.fingerprints() == {"fp-new"}


class TestParseStoreUrl:
    @pytest.mark.parametrize(
        "spec, kind, path",
        [
            ("store.jsonl", "jsonl", "store.jsonl"),
            ("/abs/dir/store.jsonl", "jsonl", "/abs/dir/store.jsonl"),
            ("./rel/a:b.jsonl", "jsonl", "./rel/a:b.jsonl"),  # a colon after a slash is path
            ("D:store.jsonl", "jsonl", "D:store.jsonl"),  # a one-letter scheme is a drive
            ("jsonl:store.jsonl", "jsonl", "store.jsonl"),
            ("jsonl://store.jsonl", "jsonl", "store.jsonl"),
            ("jsonl:///abs/store.jsonl", "jsonl", "/abs/store.jsonl"),
            ("sqlite:db.sqlite3", "sqlite", "db.sqlite3"),
            ("sqlite:///abs/db.sqlite3", "sqlite", "/abs/db.sqlite3"),
            ("sqlite:dir/with:colon.db", "sqlite", "dir/with:colon.db"),
        ],
    )
    def test_grammar_and_render_round_trip(self, spec, kind, path):
        url = parse_store_url(spec)
        assert url == StoreUrl(kind=kind, path=path)
        assert parse_store_url(url.render()) == url

    def test_bare_path_means_jsonl(self):
        assert parse_store_url("results/run.jsonl") == StoreUrl(
            kind="jsonl", path="results/run.jsonl"
        )

    def test_explicit_jsonl_and_sqlite_schemes(self):
        assert parse_store_url("jsonl:store.jsonl").kind == "jsonl"
        assert parse_store_url("sqlite:store.sqlite3") == StoreUrl(
            kind="sqlite", path="store.sqlite3"
        )

    def test_url_style_double_slash_is_tolerated(self):
        assert parse_store_url("sqlite://db.sqlite3").path == "db.sqlite3"
        assert parse_store_url("sqlite:///abs/db.sqlite3").path == "/abs/db.sqlite3"

    def test_render_round_trips(self):
        assert parse_store_url("sqlite:db").render() == "sqlite:db"
        assert parse_store_url("jsonl://db.jsonl").render() == "jsonl:db.jsonl"

    @pytest.mark.parametrize(
        "spec",
        ["sqlit:typo.db", "sqlite3:typo.db", "tcp://127.0.0.1:9917", "s3://bucket/key", "SQLITE:db"],
    )
    def test_unknown_scheme_fails_loudly(self, spec):
        with pytest.raises(ConfigurationError, match="unknown store scheme.*jsonl, sqlite"):
            parse_store_url(spec)

    def test_windows_drive_letter_is_a_path_not_a_scheme(self):
        assert parse_store_url(r"C:\stores\x.jsonl").kind == "jsonl"

    def test_empty_urls_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_store_url("")
        with pytest.raises(ConfigurationError):
            parse_store_url("sqlite:")

    @pytest.mark.parametrize("spec", ["redis:whatever", "tcp://127.0.0.1:9917"])
    def test_open_store_backend_rejects_unknown_scheme(self, spec):
        with pytest.raises(ConfigurationError, match="unknown store scheme.*jsonl, sqlite"):
            open_store_backend(spec)


class TestCompactionPolicy:
    def test_survivors_keep_best_per_fingerprint_ties_earliest(self):
        records = [
            _record("fp", 1.0, tag="a"),
            _record("fp", 2.0, tag="b"),
            _record("fp", 2.0, tag="c"),
        ]
        kept = CompactionPolicy().survivors(records)
        assert [r["tag"] for r in kept] == ["b"]

    def test_keyless_records_always_survive(self):
        records = [{"task_key": "x"}, _record("fp", 1.0), _record("fp", 2.0)]
        kept = CompactionPolicy().survivors(records)
        assert {"task_key": "x"} in kept and len(kept) == 2

    def test_max_bytes_drops_oldest_first(self):
        records = [_record(f"fp-{i}", float(i)) for i in range(5)]
        size_of_last_two = sum(
            len(render_record(r).encode()) + 1 for r in records[3:]
        )
        policy = CompactionPolicy(
            keep_best_per_fingerprint=False, max_bytes=size_of_last_two
        )
        kept = policy.survivors(records)
        assert [r["fingerprint"] for r in kept] == ["fp-3", "fp-4"]

    def test_to_dict_round_trips_through_the_constructor(self):
        policy = CompactionPolicy(keep_best_per_fingerprint=False, max_records=5, max_bytes=64, key="task_key")
        assert json.loads(json.dumps(policy.to_dict())) == policy.to_dict()
        assert CompactionPolicy(**policy.to_dict()) == policy

    def test_negative_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            CompactionPolicy(max_records=-1)
        with pytest.raises(ConfigurationError):
            CompactionPolicy(max_bytes=-1)
