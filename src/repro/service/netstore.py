"""The ``tcp://`` store backend — one store shared by replicas on many hosts.

``repro-magma store serve`` runs a :class:`NetworkStoreServer`: a tiny TCP
server that owns a *local* backend (``jsonl:`` or ``sqlite:``) and exposes
the :class:`~repro.utils.storage.StoreBackend` operations to the network.
Any number of ``repro-magma serve`` replicas — on any host — then open the
same store as ``tcp://host:port`` via :class:`NetworkStoreBackend`, so every
replica answers every fingerprint.

The transport is stdlib sockets carrying 8-byte length-prefixed frames
(:func:`send_frame` / :func:`recv_frame`).  Every connection opens with a
token handshake checked on raw bytes before anything is decoded
(:func:`authenticate_inbound`); the token is ``--token`` or
``$REPRO_RPC_TOKEN``.  Post-auth frames carry **JSON, never pickle**: store
records are plain JSON documents, so a hostile or confused peer can corrupt
a store's contents but cannot execute code.

Requests are ``{"op": ..., ...params}``; replies are ``{"ok": true,
"value": ...}`` or ``{"ok": false, "error": msg}``.  The client retries a
failed request once over a fresh connection: appends are safe to retry
because duplicate fingerprints are legal by protocol contract — readers
resolve them by best fitness, so a replay of an applied-but-unacknowledged
append changes no lookup result.
"""

from __future__ import annotations

import hmac
import ipaddress
import json
import os
import socket
import struct
import threading
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import ConfigurationError, RpcError, WorkerDiedError
from repro.obs import get_tracer
from repro.utils.storage import (
    CompactionPolicy,
    StoreBackend,
    open_store_backend,
    transport_byte_counters,
)

#: Environment variable both sides read when no token is given explicitly.
RPC_TOKEN_ENV = "REPRO_RPC_TOKEN"

#: Upper bound on one store frame (a full record set in one reply); anything
#: larger indicates a corrupt or hostile length prefix.
MAX_STORE_FRAME_BYTES = 1 << 30

#: Cap on the (raw-bytes) auth frame: tokens are short; an unauthenticated
#: peer must not be able to make the server buffer gigabytes.
MAX_AUTH_FRAME_BYTES = 4096

#: How long the server waits for a fresh connection to authenticate before
#: dropping it (unauthenticated peers must not pin handler threads).
AUTH_TIMEOUT_SECONDS = 10.0

#: Frame length prefix: 8-byte big-endian unsigned.
_LENGTH_PREFIX = struct.Struct(">Q")

#: Auth replies (sent as raw frames, before any JSON is exchanged).
_AUTH_OK = b"OK"
_AUTH_DENIED = b"DENIED"

_TRANSPORT_ERRORS = (WorkerDiedError, RpcError, OSError)


def is_loopback_host(host: str) -> bool:
    """True for addresses that never leave this machine.

    A host name other than ``localhost`` is never loopback, even one that
    starts with ``127.``: DNS decides where it points.
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def resolve_token(token: Optional[str]) -> str:
    """The shared secret: an explicit token, else ``$REPRO_RPC_TOKEN``, else ''."""
    if token is not None:
        return str(token)
    return os.environ.get(RPC_TOKEN_ENV, "")


def parse_listen_address(listen: str) -> Tuple[str, int]:
    """Split a ``host:port`` listen address; port 0 binds an ephemeral port."""
    host, sep, port = listen.strip().rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"listen address {listen!r} is not of the form host:port")
    try:
        number = int(port)
    except ValueError as error:
        raise ConfigurationError(f"invalid port in listen address {listen!r}") from error
    if not 0 <= number < 65536:
        raise ConfigurationError(f"port out of range in listen address {listen!r}")
    return host, number


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
#: Wire-volume counters, shared by every store socket in the process (client
#: and in-process server alike).  Incremented once per frame — see
#: docs/OBSERVABILITY.md.
_M_BYTES_SENT, _M_BYTES_RECEIVED = transport_byte_counters()


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame."""
    sock.sendall(_LENGTH_PREFIX.pack(len(payload)) + payload)
    _M_BYTES_SENT.inc(_LENGTH_PREFIX.size + len(payload))


def recv_frame(sock: socket.socket, limit: int = MAX_STORE_FRAME_BYTES) -> bytes:
    """Read one length-prefixed frame; a closed peer raises :class:`WorkerDiedError`."""
    header = _recv_exact(sock, _LENGTH_PREFIX.size)
    (length,) = _LENGTH_PREFIX.unpack(header)
    if length > limit:
        raise RpcError(f"frame of {length} bytes exceeds the {limit}-byte limit")
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly *count* bytes; a closed peer raises :class:`WorkerDiedError`."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    offset = 0
    while offset < count:
        try:
            received = sock.recv_into(view[offset:])
        except OSError as error:
            raise WorkerDiedError(f"connection lost: {error}") from error
        if not received:
            raise WorkerDiedError("connection closed by peer mid-frame")
        offset += received
    _M_BYTES_RECEIVED.inc(count)
    return bytes(buffer)


def authenticate_inbound(conn: socket.socket, token: str) -> bool:
    """Server side of the token handshake; nothing is decoded before it passes.

    The check runs on raw frame bytes with a constant-time compare, the auth
    frame is size-capped (tokens are short), and the frame must arrive within
    a timeout — so an unauthenticated peer can neither pin a handler thread
    nor make the server buffer memory.
    """
    conn.settimeout(AUTH_TIMEOUT_SECONDS)
    try:
        presented = recv_frame(conn, limit=MAX_AUTH_FRAME_BYTES)
        if not hmac.compare_digest(presented, token.encode("utf-8")):
            send_frame(conn, _AUTH_DENIED)
            return False
        send_frame(conn, _AUTH_OK)
    finally:
        conn.settimeout(None)
    return True


def authenticate_outbound(sock: socket.socket, token: str, peer: str) -> None:
    """Client side of the token handshake; raises :class:`RpcError` on denial."""
    send_frame(sock, token.encode("utf-8"))
    if recv_frame(sock) != _AUTH_OK:
        raise RpcError(f"{peer} rejected the authentication token")


def _encode(message: Dict[str, Any]) -> bytes:
    return json.dumps(message, sort_keys=True).encode("utf-8")


def _decode(payload: bytes) -> Dict[str, Any]:
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise RpcError("store frame is not a JSON object")
    return message


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class NetworkStoreServer:
    """Serve one local store backend to ``tcp://`` clients.

    Thread-per-connection; concurrency control is the backing backend's own
    locking, so N replicas hammering one server see the same append
    atomicity a single process would.  ``port=0`` binds an ephemeral port
    (the chosen one is in :attr:`address`).
    """

    def __init__(
        self,
        backing: "str | StoreBackend",
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
    ):
        self.token = resolve_token(token)
        if not self.token and not is_loopback_host(host):
            # JSON frames cannot execute code, but an open port would let
            # anyone read and poison the shared store all replicas trust.
            raise ConfigurationError(
                f"refusing to serve a store on non-loopback address {host!r} "
                f"without a token; pass --token or set ${RPC_TOKEN_ENV}"
            )
        self._owns_backing = isinstance(backing, str)
        self.backing = open_store_backend(backing)
        if self.backing.kind == "tcp":
            raise ConfigurationError(
                "a network store cannot be backed by another network store; "
                "point --backing at a jsonl: or sqlite: URL"
            )
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.1)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._active: set = set()  # guarded-by: _lock
        self.connections_served = 0  # guarded-by: _lock
        self.requests_served = 0  # guarded-by: _lock

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        """The URL clients use to open this store."""
        return f"tcp://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept client connections until :meth:`shutdown`."""
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break
                if self._stopping.is_set():
                    conn.close()
                    break
                with self._lock:
                    self.connections_served += 1
                threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                ).start()
        finally:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def start(self) -> "NetworkStoreServer":
        """Serve on a background daemon thread (how tests and benchmarks run)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving, drop live connections, and close an owned backing store."""
        self._stopping.set()
        try:
            socket.create_connection((self.host, self.port), timeout=0.2).close()
        except OSError:
            pass
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        with self._lock:
            active = list(self._active)
        for conn in active:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._owns_backing:
            self.backing.close()

    # ------------------------------------------------------------------
    def _handle_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._active.add(conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not authenticate_inbound(conn, self.token):
                return
            while True:
                request = _decode(recv_frame(conn))
                with self._lock:
                    self.requests_served += 1
                try:
                    value = self._apply(request)
                except (ConfigurationError, RpcError, KeyError, TypeError, ValueError) as error:
                    # A malformed request poisons this *request*, not the
                    # connection: the client gets the error and keeps going.
                    send_frame(conn, _encode({"ok": False, "error": str(error)}))
                    continue
                send_frame(conn, _encode({"ok": True, "value": value}))
        except _TRANSPORT_ERRORS + (ValueError,):
            # Peer went away or sent garbage; the server lives on.
            pass
        finally:
            with self._lock:
                self._active.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _apply(self, request: Dict[str, Any]) -> Any:
        """Execute one store operation against the backing backend."""
        op = request.get("op")
        backing = self.backing
        if op == "ping":
            return "pong"
        if op == "append":
            backing.append_record(dict(request["record"]))
            return None
        if op == "append_many":
            records = [dict(record) for record in request["records"]]
            append_many = getattr(backing, "append_many", None)
            if append_many is not None:
                append_many(records)
            else:
                for record in records:
                    backing.append_record(record)
            return None
        if op == "records":
            return backing.records()
        if op == "fingerprints":
            return sorted(backing.fingerprints())
        if op == "len":
            return len(backing)
        if op == "lookup":
            return backing.lookup(str(request["fingerprint"]))
        if op == "best":
            return backing.best_records(str(request.get("key", "fingerprint")))
        if op == "repair":
            return backing.repair()
        if op == "truncate":
            backing.truncate()
            return None
        if op == "replace":
            # Protocol-internal: the client's compact()/_replace_records
            # commit path, applied atomically by the backing backend.
            backing._replace_records([dict(record) for record in request["records"]])
            return None
        if op == "compact":
            policy = CompactionPolicy.from_dict(dict(request.get("policy") or {}))
            kept, dropped = backing.compact(policy)
            return [kept, dropped]
        if op == "describe":
            return backing.describe()
        raise RpcError(f"unknown store op {op!r}")


def serve_store(
    listen: str,
    backing: str,
    token: Optional[str] = None,
    ready: Optional[Any] = None,
) -> None:
    """Blocking entry point behind ``repro-magma store serve``.

    *listen* is ``host:port`` (port 0 binds an ephemeral port); *backing* is
    a local store URL (``jsonl:`` / ``sqlite:`` / bare path).  *ready*, if
    given, is called with the started server — the CLI uses it to print the
    resolved address before blocking.
    """
    host, port = parse_listen_address(listen)
    server = NetworkStoreServer(backing, host=host, port=port, token=token)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    finally:
        server.shutdown()


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class NetworkStoreBackend(StoreBackend):
    """The ``tcp://`` client: a :class:`StoreBackend` over a store server.

    Connections are lazy (the first operation dials and authenticates) and
    self-healing: a request that fails in transport is retried exactly once
    over a fresh connection, then surfaces as :class:`RpcError`.  Requests
    are serialized under a lock — one connection, one outstanding request —
    which is all the service needs (its own store writes happen on worker
    threads that already serialize per store).
    """

    kind = "tcp"
    shared = True

    def __init__(
        self,
        host: str,
        port: int,
        token: Optional[str] = None,
        connect_timeout: float = 5.0,
    ):
        super().__init__()
        self.host = str(host)
        self.port = int(port)
        self.token = resolve_token(token)
        self.connect_timeout = connect_timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None  # guarded-by: _lock
        self._tracer = get_tracer()

    @property
    def url(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        # holds-lock: _lock
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            authenticate_outbound(sock, self.token, f"store server {self.host}:{self.port}")
            # Steady-state requests block without a deadline (a compaction of
            # a large store is legitimately slow); a dead server still
            # surfaces promptly as a reset/closed connection.
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        return sock

    def _request(self, op: str, **params: Any) -> Any:  # acquires-lock: _lock
        payload = _encode({"op": op, **params})
        with self._lock:
            last_error: Optional[Exception] = None
            reply: Optional[Dict[str, Any]] = None
            for attempt in (1, 2):
                if self._sock is None:
                    # An RpcError here is an auth rejection — deterministic,
                    # so it propagates instead of being retried as flakiness.
                    try:
                        self._sock = self._dial()
                    except (WorkerDiedError, OSError) as error:
                        last_error = error
                        continue
                try:
                    send_frame(self._sock, payload)
                    reply = _decode(recv_frame(self._sock))
                    break
                except _TRANSPORT_ERRORS as error:
                    last_error = error
                    try:
                        self._sock.close()
                    except OSError:  # pragma: no cover - close is best-effort
                        pass
                    self._sock = None
                    if attempt == 1:
                        # Safe to replay: duplicate appends are resolved by
                        # best fitness, every other op is read-only or
                        # idempotent.
                        self._tracer.warning(
                            "netstore.reconnect",
                            server=f"{self.host}:{self.port}",
                            op=op,
                            error=str(error),
                        )
        if reply is None:
            raise RpcError(
                f"store server {self.host}:{self.port} unreachable: {last_error}"
            ) from last_error
        if not reply.get("ok"):
            raise RpcError(
                f"store server {self.host}:{self.port} rejected {op!r}: {reply.get('error')}"
            )
        return reply.get("value")

    # ------------------------------------------------------------------
    # StoreBackend surface
    # ------------------------------------------------------------------
    def append_record(self, record: Dict[str, Any]) -> None:
        self._count_op("append")
        self._request("append", record=record)

    def append_many(self, records: List[Dict[str, Any]]) -> None:
        """Append a batch in one round trip (bulk load / benchmark seeding)."""
        self._count_op("append", len(records))
        self._request("append_many", records=records)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        return iter(self._request("records"))

    def __len__(self) -> int:
        return int(self._request("len"))

    def fingerprints(self) -> Set[str]:
        self._count_op("scan")
        return {str(value) for value in self._request("fingerprints")}

    def lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Resolved server-side: one round trip, not a full record download."""
        self._count_op("lookup")
        return self._request("lookup", fingerprint=fingerprint)

    def best_records(self, key: str = "fingerprint") -> Dict[str, Dict[str, Any]]:
        self._count_op("scan")
        return dict(self._request("best", key=key))

    def repair(self) -> int:
        self._count_op("repair")
        return int(self._request("repair"))

    def truncate(self) -> None:
        self._count_op("truncate")
        self._request("truncate")

    def _replace_records(self, records: List[Dict[str, Any]]) -> None:
        self._request("replace", records=records)

    def compact(self, policy: Optional[CompactionPolicy] = None) -> Tuple[int, int]:
        """Compacted server-side, atomically, against the backing store."""
        self._count_op("compact")
        policy = policy if policy is not None else CompactionPolicy()
        kept, dropped = self._request("compact", policy=policy.to_dict())
        return int(kept), int(dropped)

    def describe(self) -> Dict[str, Any]:
        value = dict(self._request("describe"))
        return {
            **value,
            "url": self.url,
            "kind": self.kind,
            "shared": True,
            "backing": value.get("url"),
        }

    def close(self) -> None:  # acquires-lock: _lock
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                self._sock = None


__all__ = [
    "NetworkStoreBackend",
    "NetworkStoreServer",
    "serve_store",
]
