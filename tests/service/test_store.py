"""Tests for the solution store, the shared append-only JSONL base, and the
``tcp://`` store transport's framing and token handshake."""

import json
import socket
import threading

import pytest

from repro.exceptions import ConfigurationError, RpcError, WorkerDiedError
from repro.obs import get_metrics
from repro.service import netstore
from repro.service.netstore import (
    NetworkStoreBackend,
    NetworkStoreServer,
    authenticate_outbound,
    is_loopback_host,
    parse_listen_address,
    recv_frame,
    resolve_token,
    send_frame,
    serve_store,
)
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


TOKEN = "transport-secret"


@pytest.fixture()
def server(tmp_path, monkeypatch):
    """A live token-protected store server on a localhost ephemeral port."""
    monkeypatch.delenv("REPRO_RPC_TOKEN", raising=False)
    server = NetworkStoreServer(f"sqlite:{tmp_path / 'backing.sqlite3'}", token=TOKEN).start()
    yield server
    server.shutdown()


def _assert_serves_good_clients(server) -> None:
    client = NetworkStoreBackend(server.host, server.port, token=TOKEN)
    try:
        client.append_record({"fingerprint": "fp", "result": {"best_fitness": 1.0}})
        assert client.fingerprints() == {"fp"}
    finally:
        client.close()


class TestStoreTransport:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            payload = b"x" * 100_000
            send_frame(left, payload)
            assert recv_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_closed_peer_raises_worker_died(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(WorkerDiedError):
                recv_frame(right)
        finally:
            right.close()

    def test_frame_over_the_limit_raises(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, b"x" * 100)
            with pytest.raises(RpcError, match="exceeds the 10-byte limit"):
                recv_frame(right, limit=10)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        "listen, expected",
        [
            ("127.0.0.1:9123", ("127.0.0.1", 9123)),
            (" localhost:1 ", ("localhost", 1)),
            ("127.0.0.1:0", ("127.0.0.1", 0)),  # ephemeral
            ("::1:65535", ("::1", 65535)),
        ],
    )
    def test_listen_address_forms(self, listen, expected):
        assert parse_listen_address(listen) == expected

    @pytest.mark.parametrize("bad", ["nocolon", ":9", "h:", "h:notaport", "h:-1", "h:70000"])
    def test_listen_address_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_listen_address(bad)

    def test_wrong_token_rejected_without_killing_the_server(self, server):
        bad = NetworkStoreBackend(server.host, server.port, token="wrong")
        try:
            with pytest.raises(RpcError, match="rejected the authentication token"):
                len(bad)
        finally:
            bad.close()
        _assert_serves_good_clients(server)

    def test_oversized_auth_frame_dropped_without_buffering(self, server):
        """An unauthenticated peer cannot make the server buffer a huge
        'token': the connection dies at the length prefix."""
        conn = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            send_frame(conn, b"x" * 100_000)  # far above MAX_AUTH_FRAME_BYTES
            # Closed without an auth reply: clean EOF or a reset (the server
            # drops the connection with our unread bytes still in flight).
            try:
                assert conn.recv(1) == b""
            except ConnectionResetError:
                pass
        finally:
            conn.close()
        _assert_serves_good_clients(server)

    def test_empty_token_refused_on_non_loopback_listen(self, tmp_path, monkeypatch):
        """An open 0.0.0.0 listener with no token would let anyone who can
        reach the port read and poison the store every replica trusts."""
        monkeypatch.delenv("REPRO_RPC_TOKEN", raising=False)
        backing = f"sqlite:{tmp_path / 'backing.sqlite3'}"
        with pytest.raises(ConfigurationError, match="non-loopback"):
            NetworkStoreServer(backing, host="0.0.0.0", token="")
        # Loopback with an empty token stays fine (local development).
        NetworkStoreServer(backing, host="127.0.0.1", token="").shutdown()


class TestTransportHelpers:
    @pytest.mark.parametrize("host", ["127.0.0.1", "127.8.9.10", "localhost", "::1"])
    def test_loopback_addresses(self, host):
        assert is_loopback_host(host)

    @pytest.mark.parametrize(
        "host", ["0.0.0.0", "::", "", "10.0.0.1", "::ffff:10.0.0.1", "store.example.org", "127.example.org"]
    )
    def test_addresses_that_leave_the_machine(self, host):
        # A name that merely starts with "127." resolves wherever DNS says.
        assert not is_loopback_host(host)

    def test_explicit_token_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RPC_TOKEN", "from-env")
        assert resolve_token("explicit") == "explicit"
        assert resolve_token("") == ""

    def test_token_falls_back_to_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RPC_TOKEN", "from-env")
        assert resolve_token(None) == "from-env"
        monkeypatch.delenv("REPRO_RPC_TOKEN")
        assert resolve_token(None) == ""


def _send_in_thread(sock, payload):
    """Send *payload* from a thread: a frame larger than the socket buffer
    blocks ``sendall`` until the other end reads."""
    sender = threading.Thread(target=send_frame, args=(sock, payload))
    sender.start()
    return sender


class TestFraming:
    @pytest.mark.parametrize("size", [0, 1, 4096, (1 << 20) + 7])
    def test_frames_of_every_size_round_trip(self, size):
        # (1 << 20) + 7 bytes outgrows a socket buffer: it arrives in many reads.
        payload = bytes(index % 251 for index in range(size))
        left, right = socket.socketpair()
        try:
            sender = _send_in_thread(left, payload)
            assert recv_frame(right) == payload
            sender.join(timeout=10.0)
        finally:
            left.close()
            right.close()

    def test_frame_exactly_at_the_limit_is_accepted(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, b"x" * 10)
            assert recv_frame(right, limit=10) == b"x" * 10
        finally:
            left.close()
            right.close()

    def test_peer_closing_mid_body_raises_worker_died(self):
        left, right = socket.socketpair()
        try:
            left.sendall(netstore._LENGTH_PREFIX.pack(100) + b"only ten b")
            left.close()
            with pytest.raises(WorkerDiedError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_byte_counters_count_prefix_and_payload(self):
        # The counter names are part of the /metrics surface.
        sent = get_metrics().counter("repro_rpc_bytes_sent_total")
        received = get_metrics().counter("repro_rpc_bytes_received_total")
        sent_before, received_before = sent.value, received.value
        left, right = socket.socketpair()
        try:
            send_frame(left, b"y" * 50)
            recv_frame(right)
        finally:
            left.close()
            right.close()
        assert sent.value - sent_before == 8 + 50
        assert received.value - received_before == 8 + 50


def _raw_authenticated_connection(server) -> socket.socket:
    conn = socket.create_connection((server.host, server.port), timeout=5.0)
    authenticate_outbound(conn, TOKEN, "test server")
    return conn


def _raw_request(conn, message: dict) -> dict:
    send_frame(conn, json.dumps(message).encode("utf-8"))
    return json.loads(recv_frame(conn).decode("utf-8"))


def _assert_dropped(conn) -> None:
    """The server closed *conn* without replying (EOF or reset)."""
    try:
        assert conn.recv(1) == b""
    except ConnectionResetError:
        pass


class TestStoreServerProtocol:
    def test_unknown_op_is_an_error_reply_and_the_connection_lives(self, server):
        conn = _raw_authenticated_connection(server)
        try:
            reply = _raw_request(conn, {"op": "explode"})
            assert reply["ok"] is False and "unknown store op" in reply["error"]
            assert _raw_request(conn, {"op": "ping"}) == {"ok": True, "value": "pong"}
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "lookup"},
            {"op": "append"},
            {"op": "append", "record": 5},
            {"op": "append_many", "records": None},
            {"op": "compact", "policy": {"no_such_field": 1}},
        ],
        ids=[
            "lookup-without-fingerprint",
            "append-without-record",
            "append-non-record",
            "append-many-without-records",
            "compact-unknown-policy-field",
        ],
    )
    def test_malformed_request_is_an_error_reply(self, server, message):
        conn = _raw_authenticated_connection(server)
        try:
            assert _raw_request(conn, message)["ok"] is False
            assert _raw_request(conn, {"op": "len"}) == {"ok": True, "value": 0}
        finally:
            conn.close()
        _assert_serves_good_clients(server)

    @pytest.mark.parametrize(
        "payload", [b"[1, 2]", b"\xff\xfe", b"{not json"], ids=["json-array", "not-utf8", "not-json"]
    )
    def test_undecodable_frame_drops_the_connection_not_the_server(self, server, payload):
        conn = _raw_authenticated_connection(server)
        try:
            send_frame(conn, payload)
            _assert_dropped(conn)
        finally:
            conn.close()
        _assert_serves_good_clients(server)

    def test_silent_peer_is_dropped_after_the_auth_timeout(self, server, monkeypatch):
        monkeypatch.setattr(netstore, "AUTH_TIMEOUT_SECONDS", 0.2)
        conn = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            _assert_dropped(conn)  # never sent a token
        finally:
            conn.close()
        _assert_serves_good_clients(server)

    def test_both_sides_read_the_token_from_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RPC_TOKEN", TOKEN)
        server = NetworkStoreServer(f"sqlite:{tmp_path / 'backing.sqlite3'}").start()
        try:
            _assert_serves_good_clients(server)
            env_client = NetworkStoreBackend(server.host, server.port)
            try:
                assert len(env_client) == 1
            finally:
                env_client.close()
        finally:
            server.shutdown()

    def test_requests_and_connections_are_counted(self, server):
        client = NetworkStoreBackend(server.host, server.port, token=TOKEN)
        try:
            client.append_record({"fingerprint": "fp", "result": {"best_fitness": 1.0}})
            assert len(client) == 1
            assert client.lookup("fp") is not None
        finally:
            client.close()
        assert server.connections_served == 1
        assert server.requests_served == 3

    def test_a_network_store_cannot_back_another(self, server):
        with pytest.raises(ConfigurationError, match="cannot be backed by another network store"):
            NetworkStoreServer(server.url, token=TOKEN)

    def test_serve_store_rejects_a_malformed_listen_address(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not of the form host:port"):
            serve_store("127.0.0.1", f"sqlite:{tmp_path / 'backing.sqlite3'}")


class TestStoreClientRecovery:
    def test_client_reconnects_once_after_losing_its_connection(self, server):
        client = NetworkStoreBackend(server.host, server.port, token=TOKEN)
        try:
            client.append_record({"fingerprint": "fp", "result": {"best_fitness": 1.0}})
            client._sock.shutdown(socket.SHUT_RDWR)  # the link dies under the client
            assert client.fingerprints() == {"fp"}
        finally:
            client.close()
        assert server.connections_served == 2

    def test_stopped_server_surfaces_as_unreachable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RPC_TOKEN", raising=False)
        server = NetworkStoreServer(f"sqlite:{tmp_path / 'backing.sqlite3'}", token=TOKEN).start()
        client = NetworkStoreBackend(server.host, server.port, token=TOKEN, connect_timeout=1.0)
        try:
            assert len(client) == 0
            server.shutdown()  # also drops the client's live connection
            with pytest.raises(RpcError, match="unreachable"):
                len(client)
        finally:
            client.close()
