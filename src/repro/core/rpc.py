"""Multi-host RPC evaluation backend (the ``rpc`` eval backend).

The ``parallel`` backend shards a population across worker *processes* on one
machine; this module shards the same work across worker *hosts*.  It is
deliberately stdlib-only — TCP sockets carrying length-prefixed tagged
frames: pickled control messages (``P``) and raw ndarray frames (``N``,
dtype/shape header + buffer bytes, received straight into a preallocated
array) — so a fleet of workers needs nothing beyond this package and NumPy:

* :class:`EvalWorkerServer` is the worker side (``repro-magma eval-worker
  --listen HOST:PORT``): it accepts coordinator connections, authenticates
  them with a shared token *before* unpickling anything, rebuilds the
  evaluation state once per connection from the
  :class:`~repro.core.parallel.EvaluatorSpec` bootstrap frame, and then
  answers ``eval`` requests with per-shard fitness arrays.  Workers are
  long-lived: one worker serves any number of sequential or concurrent
  coordinators (each connection gets its own rig and handler thread).
* :class:`RpcWorkerClient` is one coordinator->worker connection: framing,
  auth, bootstrap, heartbeat, and shard evaluation.
* :class:`RpcEvaluationPool` is the coordinator: it cuts a population into
  fixed-size work-stealing chunks (:func:`split_chunks`) that one sender
  thread per live host pulls from a shared queue, each chunk scattering its
  fitnesses at its own row offset — so the ``rpc`` backend is bit-identical
  to ``batch``/``parallel`` by construction (every row's simulation is
  independent, so chunking and steal order cannot change the bits).  It
  differs from :class:`~repro.core.parallel.ParallelEvaluationPool`, which
  gives each local lane one contiguous shard and computes one itself:
  remote hosts can differ in speed and vanish mid-chunk, so the fleet keeps
  a steal queue.  Memoization stays in the coordinator: the evaluator
  dispatches only cache misses and merges the computed fitnesses back,
  exactly as with the process pool.  One deliberate policy difference:
  populations below :data:`~repro.core.parallel.MIN_ROWS_PER_WORKER` rows
  run inline (a round trip would cost more than the simulation), but a
  single *shard* still goes remote — a fleet of one host was configured to
  take work off the coordinator, and a fleet down to its last survivor
  keeps using it.

Fault tolerance: before every dispatch the pool heartbeats its workers
(ping/pong with a short timeout) and drops the dead ones; a worker that dies
*mid-shard* surfaces as a broken connection, its shard is re-dispatched to
the survivors, and when every host is gone the pool falls back to evaluating
locally — a search never fails because the fleet did.

Security note: after authentication the control protocol exchanges pickles,
which are code-execution-equivalent; bulk array data travels as raw ndarray
frames that are *never* unpickled (the decoder rejects object dtypes, so a
peer cannot smuggle a pickle through the array path).  The token
(``--token`` / ``REPRO_RPC_TOKEN``) gates every connection before any frame
is decoded, but the transport is neither encrypted nor replay-protected —
run workers on trusted networks only.
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
import struct
import threading
import warnings
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parallel import MIN_ROWS_PER_WORKER, EvaluatorSpec, SimulationRig
from repro.exceptions import ConfigurationError, EncodingError, RpcError, WorkerDiedError
from repro.obs import get_metrics, get_tracer

#: Environment variable both sides read when no token is given explicitly.
RPC_TOKEN_ENV = "REPRO_RPC_TOKEN"

#: Upper bound on one frame (a pickled population shard or fitness array);
#: anything larger indicates a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 1 << 30

#: Cap on the (raw-bytes) auth frame: tokens are short; an unauthenticated
#: peer must not be able to make a worker buffer gigabytes.
MAX_AUTH_FRAME_BYTES = 4096

#: How long a worker waits for a fresh connection to authenticate before
#: dropping it (unauthenticated peers must not pin handler threads).
AUTH_TIMEOUT_SECONDS = 10.0

#: Frame length prefix: 8-byte big-endian unsigned.
_LENGTH_PREFIX = struct.Struct(">Q")

#: Auth replies (sent as raw frames, before the tagged protocol starts).
_AUTH_OK = b"OK"
_AUTH_DENIED = b"DENIED"

#: Post-auth frame tags (first payload byte): ``P`` = pickled control
#: message, ``N`` = raw ndarray (dtype/shape header + buffer bytes).  Array
#: payloads travel as ``N`` frames, so peer array data is never unpickled —
#: the receiver allocates the array itself and ``recv_into``s its buffer.
_FRAME_PICKLE = b"P"
_FRAME_NDARRAY = b"N"

#: Raw ndarray frame header: dtype-string length (u8) + ndim (u8), followed
#: by the ascii dtype string and ndim big-endian u64 dimensions.
_NDARRAY_HEADER = struct.Struct(">BB")
_NDARRAY_DIM = struct.Struct(">Q")


#: Height of one work-stealing chunk: the unit of dispatch the fleet pulls
#: from its shared queue.  Small enough that a slow host strands at most one
#: chunk's worth of latency, large enough that the per-chunk dispatch
#: overhead stays amortised (see BENCH_dispatch_overhead.json, written by
#: benchmarks/test_dispatch_overhead.py).
DEFAULT_CHUNK_ROWS = 16


def split_chunks(num_rows: int, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> List[Tuple[int, int]]:
    """Fixed-size contiguous ``(start, stop)`` chunks — the work-stealing unit.

    Chunks are *pulled* from a shared queue by whichever host goes idle
    first, not assigned up front.  Each chunk writes its fitnesses at its own
    row offset, so the gathered result is row-ordered no matter which host
    computed which chunk or in what order — and because every row's
    simulation is independent (the batch kernel is elementwise per row), the
    values are bit-identical for every chunk size and steal schedule.
    """
    if chunk_rows < 1:
        raise ConfigurationError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return [
        (start, min(start + chunk_rows, int(num_rows)))
        for start in range(0, int(num_rows), chunk_rows)
    ]


def _enable_keepalive(sock: socket.socket) -> None:
    """Turn on TCP keepalive (with aggressive knobs where the OS has them).

    A worker host that loses power or its network route dies *silently* — no
    FIN/RST ever arrives — and a fully blocking ``recv`` would wait forever.
    Keepalive converts that silence into a connection error after a bounded
    interval, which feeds the normal mark-dead/re-dispatch path.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (
        ("TCP_KEEPIDLE", 30),   # probe after 30s of silence...
        ("TCP_KEEPINTVL", 10),  # ...then every 10s...
        ("TCP_KEEPCNT", 3),     # ...declaring death after 3 misses.
    ):
        if hasattr(socket, option):
            try:
                sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)
            except OSError:  # pragma: no cover - platform-dependent
                pass


def is_loopback_host(host: str) -> bool:
    """True for addresses that never leave this machine."""
    return host in ("localhost", "::1") or host.startswith("127.")


_is_loopback = is_loopback_host


def resolve_token(token: Optional[str]) -> str:
    """The shared secret: an explicit token, else ``$REPRO_RPC_TOKEN``, else ''."""
    if token is not None:
        return str(token)
    return os.environ.get(RPC_TOKEN_ENV, "")


def parse_hosts(
    hosts: "str | Sequence[Any] | None", allow_ephemeral: bool = False
) -> List[Tuple[str, int]]:
    """Normalise worker addresses into ``(host, port)`` pairs.

    Accepts the CLI's comma-separated ``"host:port,host:port"`` string, any
    sequence of ``"host:port"`` strings, or ready-made ``(host, port)`` pairs.
    Malformed entries fail loudly as :class:`ConfigurationError`.  Port 0 is
    only meaningful for a *listen* address ("pick a free port"), so dialable
    host lists reject it unless *allow_ephemeral* is set.
    """
    if hosts is None:
        return []
    if isinstance(hosts, str):
        items: Sequence[Any] = [part for part in hosts.split(",") if part.strip()]
    else:
        items = list(hosts)
    parsed: List[Tuple[str, int]] = []
    for item in items:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            host, port = item[0], item[1]
        else:
            text = str(item).strip()
            host, sep, port = text.rpartition(":")
            if not sep or not host:
                raise ConfigurationError(
                    f"worker address {text!r} is not of the form host:port"
                )
        try:
            port = int(port)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(f"invalid worker port in {item!r}: {error}") from error
        if not (0 if allow_ephemeral else 1) <= port < 65536:
            raise ConfigurationError(f"worker port out of range in {item!r}: {port}")
        parsed.append((str(host), port))
    return parsed


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
#: Wire-volume counters, shared by every socket in the process (coordinator
#: and in-process test workers alike).  Incremented once per frame / array
#: payload — never per row — see docs/OBSERVABILITY.md.
_M_BYTES_SENT = get_metrics().counter(
    "repro_rpc_bytes_sent_total", "Bytes written to RPC sockets (frames and array payloads)."
)
_M_BYTES_RECEIVED = get_metrics().counter(
    "repro_rpc_bytes_received_total", "Bytes read from RPC sockets (frames and array payloads)."
)


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame."""
    sock.sendall(_LENGTH_PREFIX.pack(len(payload)) + payload)
    _M_BYTES_SENT.inc(_LENGTH_PREFIX.size + len(payload))


def recv_frame(sock: socket.socket, limit: int = MAX_FRAME_BYTES) -> bytes:
    """Read one length-prefixed frame; a closed peer raises :class:`WorkerDiedError`."""
    header = _recv_exact(sock, _LENGTH_PREFIX.size)
    (length,) = _LENGTH_PREFIX.unpack(header)
    if length > limit:
        raise RpcError(f"frame of {length} bytes exceeds the {limit}-byte limit")
    return _recv_exact(sock, length)


def authenticate_inbound(conn: socket.socket, token: str) -> bool:  # rpc-frame: auth-gate
    """Server side of the token handshake; nothing is decoded before it passes.

    The check runs on raw frame bytes with a constant-time compare, the auth
    frame is size-capped (tokens are short), and the frame must arrive within
    a timeout — so an unauthenticated peer can neither pin a handler thread
    nor make the server buffer memory.  Shared by every listener that rides
    this framing (the eval workers and the network store server).
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


def _recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill *view* from the socket; a closed peer raises :class:`WorkerDiedError`.

    This is the one receive primitive: everything arrives via ``recv_into``
    on a preallocated buffer (a frame's bytearray, or an ndarray frame's own
    backing store), never by accumulating and joining ``recv`` chunks.
    """
    offset = 0
    remaining = view.nbytes
    while remaining:
        try:
            count = sock.recv_into(view[offset:offset + min(remaining, 1 << 20)])
        except OSError as error:
            raise WorkerDiedError(f"connection lost: {error}") from error
        if not count:
            raise WorkerDiedError("connection closed by peer mid-frame")
        offset += count
        remaining -= count
    _M_BYTES_RECEIVED.inc(view.nbytes)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buffer = bytearray(count)
    _recv_exact_into(sock, memoryview(buffer))
    return bytes(buffer)


def _send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    # rpc-frame: encoder allow=bootstrap,eval,ping,pong,ok,result,error,shutdown
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH_PREFIX.pack(1 + len(payload)) + _FRAME_PICKLE + payload)
    _M_BYTES_SENT.inc(_LENGTH_PREFIX.size + 1 + len(payload))


def _send_array(sock: socket.socket, array: np.ndarray) -> None:
    """Send one raw ndarray frame: tag + dtype/shape header + buffer bytes.

    The buffer is written straight from the array's memory (no pickling, no
    intermediate copy beyond ``ascontiguousarray`` when the input is already
    a C-contiguous array, which population rows and fitness rows are).
    """
    array = np.ascontiguousarray(array)
    dtype_str = array.dtype.str.encode("ascii")
    header = (
        _NDARRAY_HEADER.pack(len(dtype_str), array.ndim)
        + dtype_str
        + b"".join(_NDARRAY_DIM.pack(dim) for dim in array.shape)
    )
    sock.sendall(_LENGTH_PREFIX.pack(1 + len(header) + array.nbytes) + _FRAME_NDARRAY + header)
    if array.nbytes:
        sock.sendall(memoryview(array).cast("B"))
    _M_BYTES_SENT.inc(_LENGTH_PREFIX.size + 1 + len(header) + array.nbytes)


def _recv_ndarray(sock: socket.socket, body_length: int) -> np.ndarray:
    # rpc-frame: decoder — raw ndarray frames are decoded here and only here
    fixed = _recv_exact(sock, _NDARRAY_HEADER.size)
    dtype_length, ndim = _NDARRAY_HEADER.unpack(fixed)
    meta_length = dtype_length + ndim * _NDARRAY_DIM.size
    if body_length < _NDARRAY_HEADER.size + meta_length:
        raise RpcError("truncated ndarray frame header")
    meta = _recv_exact(sock, meta_length)
    try:
        dtype = np.dtype(meta[:dtype_length].decode("ascii"))
    except (TypeError, UnicodeDecodeError) as error:
        raise RpcError(f"ndarray frame carries an invalid dtype: {error}") from error
    if dtype.hasobject:
        # An object dtype would make "decode" mean "unpickle"; raw frames
        # exist precisely so peer array data never reaches a pickle.
        raise RpcError("refusing ndarray frame with object dtype")
    shape = tuple(
        _NDARRAY_DIM.unpack_from(meta, dtype_length + index * _NDARRAY_DIM.size)[0]
        for index in range(ndim)
    )
    expected = dtype.itemsize
    for dim in shape:  # python ints: a hostile 2**63 dim cannot overflow this
        expected *= dim
    payload = body_length - _NDARRAY_HEADER.size - meta_length
    if expected != payload:
        raise RpcError(
            f"ndarray frame length mismatch: shape {shape} x {dtype} needs "
            f"{expected} bytes, frame carries {payload}"
        )
    array = np.empty(shape, dtype=dtype)
    if array.nbytes:
        _recv_exact_into(sock, memoryview(array).cast("B"))
    return array


def _recv_message(sock: socket.socket) -> Any:
    # rpc-frame: decoder — the ONLY place raw peer bytes may be unpickled
    header = _recv_exact(sock, _LENGTH_PREFIX.size)
    (length,) = _LENGTH_PREFIX.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RpcError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    if length < 1:
        raise RpcError("empty frame (missing tag byte)")
    tag = _recv_exact(sock, 1)
    if tag == _FRAME_NDARRAY:
        return _recv_ndarray(sock, length - 1)
    if tag == _FRAME_PICKLE:
        return pickle.loads(_recv_exact(sock, length - 1))
    raise RpcError(f"unknown frame tag {tag!r}")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class EvalWorkerServer:
    """One evaluation worker: listens for coordinators and scores shards.

    Workers are stateless between connections — each authenticated
    coordinator bootstraps its own :class:`SimulationRig` from the spec it
    sends, so one long-lived worker can serve many different problems (and
    several coordinators at once, each on its own handler thread).

    ``port=0`` binds an ephemeral port; the chosen one is in :attr:`address`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
    ):
        self.token = resolve_token(token)
        if not self.token and not _is_loopback(host):
            # The post-auth protocol is pickle (code-execution-equivalent);
            # an empty token on a routable interface would hand every peer
            # that can reach the port an unauthenticated unpickle.
            raise ConfigurationError(
                f"refusing to listen on non-loopback address {host!r} without a "
                f"token; pass --token or set ${RPC_TOKEN_ENV}"
            )
        self._listener = socket.create_server((host, port))
        # A finite accept timeout keeps the serve loop responsive to
        # shutdown(): closing a socket another thread is blocked in accept()
        # on is deferred by CPython until the call returns, so a fully
        # blocking accept could never be woken.
        self._listener.settimeout(0.1)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._active: set = set()  # guarded-by: _lock
        #: Served-request counters (telemetry; the fault tests assert on them).
        self.connections_served = 0  # guarded-by: _lock
        self.evals_served = 0  # guarded-by: _lock
        self.rows_served = 0  # guarded-by: _lock

    @property
    def address(self) -> str:
        """The ``host:port`` this worker listens on."""
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept coordinator connections until :meth:`shutdown`."""
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    # Listener closed by shutdown() — or never usable; either
                    # way the serve loop is over.
                    break
                if self._stopping.is_set():
                    conn.close()
                    break
                with self._lock:
                    self.connections_served += 1
                thread = threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def start(self) -> "EvalWorkerServer":
        """Serve on a background daemon thread (how tests and benchmarks run)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the worker: close the listener and every live connection.

        Dropping active connections (not just the listener) makes an
        in-process shutdown observationally identical to a killed worker
        process — coordinators see their conversation die mid-stream, which
        is exactly what the fault-tolerance machinery must handle.
        """
        self._stopping.set()
        # Wake a blocked accept() immediately instead of waiting out its
        # poll interval; the serve loop discards this connection and exits.
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

    # ------------------------------------------------------------------
    def _handle_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._active.add(conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _enable_keepalive(conn)
            if not self._authenticate(conn):
                return
            rig: Optional[SimulationRig] = None
            while True:
                message = _recv_message(conn)
                if isinstance(message, np.ndarray):
                    # Raw ndarray frame = "evaluate these rows": the bulk
                    # data path skips pickle entirely in both directions.
                    if rig is None:
                        _send_message(
                            conn, {"op": "error", "message": "eval before bootstrap"}
                        )
                        continue
                    try:
                        fitnesses = self._eval(rig, message)
                    except EncodingError as exc:
                        _send_message(conn, {"op": "error", "message": str(exc)})
                        continue
                    _send_array(conn, np.asarray(fitnesses, dtype=np.float64))
                    continue
                op = message.get("op")
                if op == "bootstrap":
                    rig = self._build_rig(message["spec"])
                    _send_message(conn, {"op": "ok"})
                elif op == "eval":
                    if rig is None:
                        _send_message(
                            conn, {"op": "error", "message": "eval before bootstrap"}
                        )
                        continue
                    try:
                        fitnesses = self._eval(rig, message["rows"])
                    except EncodingError as exc:
                        _send_message(conn, {"op": "error", "message": str(exc)})
                        continue
                    _send_message(conn, {"op": "result", "fitnesses": fitnesses})
                elif op == "ping":
                    _send_message(conn, {"op": "pong"})
                elif op == "shutdown":
                    _send_message(conn, {"op": "ok"})
                    self.shutdown()
                    return
                else:
                    _send_message(
                        conn, {"op": "error", "message": f"unknown op {op!r}"}
                    )
        except (RpcError, OSError, EOFError, pickle.UnpicklingError):
            # Coordinator went away or sent garbage (oversized frame, bad
            # pickle, timeout); this connection is done, the worker itself
            # lives on for the next coordinator.
            pass
        finally:
            with self._lock:
                self._active.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _authenticate(self, conn: socket.socket) -> bool:  # rpc-frame: auth-gate
        """Token check on raw bytes — nothing is unpickled before this passes."""
        return authenticate_inbound(conn, self.token)

    def _build_rig(self, spec: EvaluatorSpec) -> SimulationRig:
        # The coordinator's resolved seed arrives inside the bootstrap spec
        # and lands on the per-connection rig.  Unlike the parallel backend's
        # dedicated workers, one RPC worker serves many coordinators
        # concurrently, so the seed stays connection-scoped (on the rig)
        # rather than being installed as this process's session seed.
        return spec.build_rig()

    def _eval(self, rig: SimulationRig, rows: np.ndarray) -> np.ndarray:
        """Score one shard (overridable; the fault-injection tests use this seam).

        Rows arrive over the network, so they are repaired here before the
        rig decodes them: a malformed shard (wrong width, non-finite values)
        raises :class:`EncodingError`, and an out-of-domain gene is projected
        as everywhere else.  Repair leaves the coordinator's already repaired
        rows bit-for-bit unchanged.
        """
        fitnesses = rig.fitnesses_for_rows(rig.codec.repair_batch(rows))
        with self._lock:
            self.evals_served += 1
            self.rows_served += len(np.atleast_2d(rows))
        return fitnesses


def serve_worker(
    listen: str,
    token: Optional[str] = None,
    ready: Optional[Any] = None,
) -> None:
    """Blocking entry point behind ``repro-magma eval-worker``.

    *listen* is ``host:port`` (port 0 binds an ephemeral port).  *ready*, if
    given, is called with the started server — the CLI uses it to print the
    resolved address before blocking.
    """
    parsed = parse_hosts(listen, allow_ephemeral=True)
    if len(parsed) != 1:
        raise ConfigurationError(f"--listen takes exactly one host:port, got {listen!r}")
    host, port = parsed[0]
    server = EvalWorkerServer(host=host, port=port, token=token)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    finally:
        server.shutdown()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class RpcWorkerClient:
    """One authenticated coordinator connection to an evaluation worker."""

    def __init__(
        self,
        host: str,
        port: int,
        token: Optional[str] = None,
        connect_timeout: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.token = resolve_token(token)
        self.connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None

    @property
    def is_connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> None:
        """Dial, authenticate, and switch to blocking mode for evaluation."""
        sock = socket.create_connection((self.host, self.port), timeout=self.connect_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _enable_keepalive(sock)
            authenticate_outbound(sock, self.token, f"worker {self.host}:{self.port}")
            # Shard evaluation time is unbounded (it scales with the problem),
            # so the steady-state socket is fully blocking; liveness is the
            # heartbeat's job, and a killed worker still surfaces promptly as
            # a reset/closed connection.
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    # ------------------------------------------------------------------
    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # rpc-frame: encoder allow=bootstrap,eval,ping,shutdown
        if self._sock is None:
            raise RpcError(f"client for {self.host}:{self.port} is not connected")
        _send_message(self._sock, message)
        reply = _recv_message(self._sock)
        if not isinstance(reply, dict):
            raise RpcError(
                f"worker {self.host}:{self.port} sent a non-control reply to {message.get('op')!r}"
            )
        if reply.get("op") == "error":
            raise RpcError(
                f"worker {self.host}:{self.port} error: {reply.get('message')}"
            )
        return reply

    def bootstrap(self, spec: EvaluatorSpec) -> None:
        """Ship the problem description; the worker rebuilds its rig from it."""
        self._request({"op": "bootstrap", "spec": spec})

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        """Fitness of one chunk of repaired encodings, in row order.

        Rows travel as a raw ndarray frame and the fitnesses come back the
        same way — neither side unpickles the other's array data.
        """
        if self._sock is None:
            raise RpcError(f"client for {self.host}:{self.port} is not connected")
        _send_array(self._sock, np.ascontiguousarray(rows, dtype=np.float64))
        reply = _recv_message(self._sock)
        if isinstance(reply, np.ndarray):
            return np.asarray(reply, dtype=float)
        if isinstance(reply, dict) and reply.get("op") == "error":
            raise RpcError(
                f"worker {self.host}:{self.port} error: {reply.get('message')}"
            )
        raise RpcError(f"worker {self.host}:{self.port} sent an unexpected eval reply")

    def heartbeat(self, timeout: float = 2.0) -> bool:
        """Ping/pong liveness probe; ``False`` means the worker is gone.

        A liveness probe must never raise: any failure — transport, garbage
        reply, protocol violation — just means "not alive".
        """
        if self._sock is None:
            return False
        try:
            self._sock.settimeout(timeout)
            try:
                return self._request({"op": "ping"}).get("op") == "pong"
            finally:
                self._sock.settimeout(None)
        except Exception:  # repro-lint: disable=RPL502 — liveness probe: any failure just means "not alive"
            return False

    def request_shutdown(self) -> None:
        """Ask the worker process to stop serving (benchmark teardown)."""
        try:
            self._request({"op": "shutdown"})
        except (RpcError, OSError):
            pass

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None


class RpcEvaluationPool:
    """Coordinator over remote evaluation workers sharing one :class:`EvaluatorSpec`.

    Duck-type compatible with
    :class:`~repro.core.parallel.ParallelEvaluationPool` (``evaluate`` /
    ``warm_up`` / ``close`` / ``is_running``), so
    :class:`~repro.core.evaluator.MappingEvaluator` drives both identically.

    Connections are lazy: the first evaluation dials every configured host,
    authenticates, and bootstraps it with the spec.  Hosts that cannot be
    reached — or die later — are marked dead and never block a search again;
    with no hosts configured (or none left alive) the pool simply evaluates
    locally, bit-identically.
    """

    def __init__(
        self,
        spec: EvaluatorSpec,
        hosts: "str | Sequence[Any] | None" = None,
        token: Optional[str] = None,
        connect_timeout: float = 5.0,
        heartbeat_timeout: float = 2.0,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        self.spec = spec
        self.hosts = parse_hosts(hosts)
        self.token = resolve_token(token)
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout
        if chunk_rows < 1:
            raise ConfigurationError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.chunk_rows = int(chunk_rows)
        self._clients: Dict[Tuple[str, int], RpcWorkerClient] = {}
        self._dead: set = set()
        self._fallback_rig: Optional[SimulationRig] = None
        # Observability (docs/OBSERVABILITY.md): fleet-degradation events are
        # always recorded; counters tick once per chunk/host, never per row.
        self._tracer = get_tracer()
        metrics = get_metrics()
        self._m_chunks = metrics.counter(
            "repro_chunks_dispatched_total",
            "Evaluation chunks handed to pool workers.",
            labels={"backend": "rpc"},
        )
        self._m_requeues = metrics.counter(
            "repro_rpc_chunk_requeues_total",
            "Chunks requeued for surviving workers after a host died mid-chunk.",
        )
        self._m_steals = metrics.counter(
            "repro_rpc_chunk_steals_total",
            "Chunks a worker pulled beyond its even share (work stealing).",
        )
        self._m_fallback = metrics.counter(
            "repro_local_fallback_chunks_total",
            "Chunks evaluated on the coordinator after pool workers failed.",
            labels={"backend": "rpc"},
        )
        self._m_deaths = metrics.counter(
            "repro_worker_deaths_total",
            "Pool workers declared dead and struck off.",
            labels={"backend": "rpc"},
        )
        self._m_heartbeat_failures = metrics.counter(
            "repro_rpc_heartbeat_failures_total",
            "Heartbeat probes that failed and struck a worker off.",
        )

    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True while at least one worker connection is open."""
        return bool(self._clients)

    @property
    def num_live_hosts(self) -> int:
        """Configured hosts not (yet) marked dead."""
        return len(self.hosts) - len(self._dead)

    def _live_clients(self) -> List[RpcWorkerClient]:
        """Connected, heartbeat-verified workers (connecting lazily as needed).

        Hosts are probed *concurrently* — first-time dials (connect +
        bootstrap) and steady-state heartbeats alike — so one slow or
        unreachable host costs the fleet a single timeout, not a timeout per
        host per generation.
        """
        candidates = [host for host in self.hosts if host not in self._dead]
        outcomes: Dict[Tuple[str, int], Any] = {}

        def probe(host: Tuple[str, int]) -> None:
            client = self._clients.get(host)
            if client is None:
                client = RpcWorkerClient(
                    host[0], host[1], token=self.token, connect_timeout=self.connect_timeout
                )
                try:
                    client.connect()
                    client.bootstrap(self.spec)
                except Exception as error:
                    client.close()
                    outcomes[host] = error
                    return
            elif not client.heartbeat(self.heartbeat_timeout):
                outcomes[host] = "heartbeat failed"
                return
            outcomes[host] = client

        threads = [
            threading.Thread(target=probe, args=(host,), daemon=True)
            for host in candidates
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        clients: List[RpcWorkerClient] = []
        for host in candidates:
            outcome = outcomes.get(host, "probe thread died")
            if isinstance(outcome, RpcWorkerClient):
                self._clients[host] = outcome
                clients.append(outcome)
            else:
                self._mark_dead(host, outcome)
        return clients

    def _mark_dead(self, host: Tuple[str, int], reason: Any) -> None:
        """Strike a worker off and say so — the pool degrades gracefully by
        design (a search must never fail because the fleet did), but a host
        lost to a typo'd token or address should not vanish without a trace."""
        self._dead.add(host)
        client = self._clients.pop(host, None)
        if client is not None:
            client.close()
        self._m_deaths.inc()
        if reason == "heartbeat failed":
            self._m_heartbeat_failures.inc()
        self._tracer.warning(
            "rpc.host-dead",
            host=f"{host[0]}:{host[1]}",
            reason=str(reason),
            live=self.num_live_hosts,
            total=len(self.hosts),
        )
        warnings.warn(
            f"rpc evaluation worker {host[0]}:{host[1]} dropped ({reason}); "
            f"{self.num_live_hosts} of {len(self.hosts)} hosts remain"
            + ("" if self.num_live_hosts else " — evaluating locally"),
            RuntimeWarning,
            stacklevel=2,
        )

    def _local_rig(self) -> SimulationRig:
        if self._fallback_rig is None:
            self._fallback_rig = self.spec.build_rig()
        return self._fallback_rig

    # ------------------------------------------------------------------
    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        """Fitness of each (already repaired) encoding row, preserving row order."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if len(rows) == 0:
            return np.empty(0, dtype=float)
        # A population too small to amortise a round trip runs in process,
        # without ever touching a socket.  Unlike the process pool, a single
        # *shard* still goes remote: the user configured a fleet (maybe of
        # one beefy host) precisely to take this work off the coordinator,
        # and a fleet down to its last survivor should keep using it.
        if self.num_live_hosts == 0 or len(rows) < MIN_ROWS_PER_WORKER:
            return self._local_rig().fitnesses_for_rows(rows)
        clients = self._live_clients()
        if not clients:
            return self._local_rig().fitnesses_for_rows(rows)
        even = -(-len(rows) // len(clients))  # ceil division
        height = min(self.chunk_rows, max(MIN_ROWS_PER_WORKER, even))
        return self._dispatch(rows, split_chunks(len(rows), height), clients)

    def _dispatch(
        self,
        rows: np.ndarray,
        chunks: List[Tuple[int, int]],
        clients: List[RpcWorkerClient],
    ) -> np.ndarray:
        """Work-stealing dispatch: clients pull chunks from a shared queue.

        One sender thread per worker loops "pop the next ``(start, stop)``
        chunk, evaluate it remotely, scatter the fitnesses at the chunk's
        row offset" — a fast host simply pulls more chunks than a slow one,
        and row order is positional so any steal schedule gathers
        identically.  A transport failure marks that worker dead and
        requeues the chunk for the survivors; chunks still unfinished when
        every host is gone land on the local fallback rig — which also
        raises the real error if the problem was systemic rather than one
        host dying.
        """
        fitnesses = np.empty(len(rows), dtype=float)
        queue = deque(range(len(chunks)))
        done = [False] * len(chunks)
        lock = threading.Lock()
        failed_clients: List[RpcWorkerClient] = []
        completed = [0] * len(clients)
        self._m_chunks.inc(len(chunks))
        self._tracer.event(
            "rpc.dispatch", chunks=len(chunks), rows=len(rows), workers=len(clients)
        )

        def _run(worker: int, client: RpcWorkerClient) -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    index = queue.popleft()
                start, stop = chunks[index]
                try:
                    result = client.evaluate(rows[start:stop])
                    if len(result) != stop - start:
                        raise RpcError(
                            f"worker {client.host}:{client.port} returned "
                            f"{len(result)} fitnesses for a {stop - start}-row chunk"
                        )
                except Exception as error:
                    with lock:
                        queue.appendleft(index)
                        failed_clients.append(client)
                    self._m_requeues.inc()
                    self._tracer.warning(
                        "rpc.chunk-requeued",
                        host=f"{client.host}:{client.port}",
                        chunk=[int(start), int(stop)],
                        error=str(error),
                    )
                    return
                fitnesses[start:stop] = result  # disjoint rows: no lock needed
                with lock:
                    done[index] = True
                    completed[worker] += 1

        threads = [
            threading.Thread(target=_run, args=(worker, client), daemon=True)
            for worker, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # A worker that finished more than its even share stole the surplus
        # from slower (or dead) peers — the signature of healthy stealing.
        even_share = -(-len(chunks) // len(clients))
        steals = sum(max(0, count - even_share) for count in completed)
        if steals:
            self._m_steals.inc(steals)
        for client in failed_clients:
            self._mark_dead((client.host, client.port), "died mid-chunk")
        remaining = [index for index in range(len(chunks)) if not done[index]]
        if remaining:
            self._m_fallback.inc(len(remaining))
            self._tracer.warning(
                "rpc.local-fallback",
                chunks=[[int(chunks[i][0]), int(chunks[i][1])] for i in remaining],
                rows=int(sum(chunks[i][1] - chunks[i][0] for i in remaining)),
            )
            rig = self._local_rig()
            for index in remaining:
                start, stop = chunks[index]
                fitnesses[start:stop] = rig.fitnesses_for_rows(rows[start:stop])
        return fitnesses

    # ------------------------------------------------------------------
    def warm_up(self) -> int:
        """Eagerly connect + bootstrap every reachable host; returns how many."""
        return len(self._live_clients())

    def close(self) -> None:
        """Drop the worker connections (the workers themselves keep serving)."""
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "RpcEvaluationPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:  # repro-lint: disable=RPL502 — GC finalizer must never raise
            pass
