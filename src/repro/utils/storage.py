"""The durable record store: one SQLite (WAL) file, one address grammar.

Every durable store in the system — the mapping service's
:class:`~repro.service.store.SolutionStore`, the campaign engine's
:class:`~repro.experiments.campaign.CampaignResultsStore`, and the
:class:`~repro.service.warmlib.WarmStartLibrary` — persists JSON records
keyed by a deterministic content fingerprint (or task key) and resolves
duplicates by *fitness* so a store only ever improves.  They all persist
through :class:`StoreBackend`, one SQLite database in WAL (write-ahead-log)
mode, addressed as ``sqlite:PATH`` or a bare ``PATH``.

WAL mode lets N local ``repro-magma serve`` replicas share one store:
writers append under SQLite's own file locking, readers never block
writers, and a hard kill can never leave a torn record — an uncommitted
transaction simply never happened.  Records are JSON-safe dicts, stored one
per row in the canonical :func:`render_record` form; the top-level
fingerprint is mirrored into an indexed column so the fingerprint scan and
per-fingerprint lookup that campaign ``--resume`` and the service lean on
stay cheap at 10⁵+ records without parsing every document.

Compaction (:class:`CompactionPolicy`) bounds a store that append-only
semantics would otherwise grow forever: keep only the best record per
fingerprint, and/or only the newest N records / newest ``max_bytes``
rendered record bytes.  "Age" is append order, never wall-clock — store
records must stay identical across resumed runs (docs/DETERMINISM.md), so no
timestamp ever lands in one.

``sqlite3`` is stdlib; this module adds no dependency.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.metrics import Counter, get_metrics

#: The one URL scheme :func:`parse_store_url` understands.
_SCHEME = "sqlite"

#: Store operations counted in ``repro_store_ops_total{backend,op}``.
_STORE_OPS: Tuple[str, ...] = ("append", "scan", "lookup", "compact", "truncate")

#: The first 16 bytes of every SQLite database file.
_SQLITE_HEADER = b"SQLite format 3\x00"

#: How long a writer waits on a competing replica's write lock before
#: failing, in seconds.  WAL commits are milliseconds, so this is generous.
_BUSY_TIMEOUT_SECONDS = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT,
    record TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_fingerprint
    ON records (fingerprint) WHERE fingerprint IS NOT NULL;
"""


# ----------------------------------------------------------------------
# Address grammar
# ----------------------------------------------------------------------
def parse_store_url(spec: str) -> str:
    """The filesystem path one store address names.

    Grammar (the single parser behind ``--store``, ``--warm-store`` and
    ``--out`` everywhere): ``sqlite:PATH`` or a bare ``PATH``.  The
    URL-style double slash is tolerated (``sqlite://db`` and ``sqlite:db``
    address the same file) but absolute paths are kept: the third slash of
    ``sqlite:///x.db`` is the path root.

    Unknown schemes (a letter, then letters or digits, before the first
    colon) fail loudly: a typo'd ``sqlit:db`` or a retired scheme must not
    be silently treated as a weirdly named file.  A one-letter scheme is
    a Windows drive letter, so ``C:\\x.db`` stays a bare path.
    """
    spec = str(spec)
    if not spec:
        raise ConfigurationError("empty store URL")
    scheme, sep, rest = spec.partition(":")
    if sep and scheme == _SCHEME:
        if rest.startswith("//"):
            rest = rest[2:]
        if not rest:
            raise ConfigurationError(f"store URL {spec!r} names no path")
        return rest
    if sep and len(scheme) > 1 and scheme[0].isalpha() and scheme.isalnum():
        raise ConfigurationError(
            f"unknown store scheme {scheme!r} in {spec!r}; "
            f"available: {_SCHEME} (a bare path means {_SCHEME}:)"
        )
    return spec


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompactionPolicy:
    """How to bound an append-only store.

    ``keep_best_per_fingerprint`` keeps only the best-fitness record per
    ``key`` value (ties keep the earliest record, matching lookup
    semantics); records without the key are always kept.  ``max_records``
    then keeps only the newest N survivors, and ``max_bytes`` drops the
    oldest survivors until their rendered record bytes (one
    :func:`render_record` line each, newline included) fit.  "Newest" is
    append order — records carry no timestamps by design.
    """

    keep_best_per_fingerprint: bool = True
    max_records: Optional[int] = None
    max_bytes: Optional[int] = None
    key: str = "fingerprint"

    def __post_init__(self) -> None:
        if self.max_records is not None and self.max_records < 0:
            raise ConfigurationError(f"max_records must be >= 0, got {self.max_records}")
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ConfigurationError(f"max_bytes must be >= 0, got {self.max_bytes}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (``repro-magma store compact`` prints it)."""
        return {
            "keep_best_per_fingerprint": self.keep_best_per_fingerprint,
            "max_records": self.max_records,
            "max_bytes": self.max_bytes,
            "key": self.key,
        }

    def survivors(self, records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """The records (in append order) this policy keeps.

        Deterministic and idempotent: compacting an already-compacted store
        keeps every record.
        """
        kept = list(records)
        if self.keep_best_per_fingerprint:
            best: Dict[str, int] = {}
            for index, record in enumerate(kept):
                value = record.get(self.key)
                if value is None:
                    continue
                current = best.get(str(value))
                if current is None or record_fitness(record) > record_fitness(kept[current]):
                    best[str(value)] = index
            winners = set(best.values())
            kept = [
                record
                for index, record in enumerate(kept)
                if record.get(self.key) is None or index in winners
            ]
        if self.max_records is not None and len(kept) > self.max_records:
            kept = kept[len(kept) - self.max_records:]
        if self.max_bytes is not None:
            sizes = [len(render_record(record).encode("utf-8")) + 1 for record in kept]
            total = sum(sizes)
            drop = 0
            while drop < len(kept) and total > self.max_bytes:
                total -= sizes[drop]
                drop += 1
            kept = kept[drop:]
        return kept


def record_fitness(record: Dict[str, Any]) -> float:
    """The fitness duplicate resolution ranks a record by (``-inf`` if absent).

    Solution/campaign records carry it at ``result.best_fitness``; warm-start
    records carry a top-level ``fitness``.
    """
    result = record.get("result")
    if isinstance(result, dict):
        try:
            return float(result["best_fitness"])
        except (KeyError, TypeError, ValueError):
            return float("-inf")
    try:
        return float(record["fitness"])
    except (KeyError, TypeError, ValueError):
        return float("-inf")


def render_record(record: Dict[str, Any]) -> str:
    """The canonical single-line JSON form a record is stored in (sorted keys)."""
    return json.dumps(record, sort_keys=True)


def _row(record: Dict[str, Any]) -> Tuple[Optional[str], str]:
    """The ``(fingerprint, record)`` columns one record is stored as."""
    fingerprint = record.get("fingerprint")
    return (None if fingerprint is None else str(fingerprint), render_record(record))


def _refuse_foreign_file(path: str) -> None:
    """Fail before SQLite touches a file that is not a SQLite database.

    An empty or missing file is a fresh store; anything else must start
    with the SQLite header.  The check runs before connecting, so a foreign
    file (such as an old JSONL store) is left byte-for-byte as it was, and
    no ``-wal``/``-shm`` files appear beside it.
    """
    try:
        with open(path, "rb") as handle:
            header = handle.read(len(_SQLITE_HEADER))
    except FileNotFoundError:
        return
    if header and header != _SQLITE_HEADER:
        raise ConfigurationError(
            f"store {path!r} is not a SQLite database (an old JSONL store?); "
            f"docs/SERVICE.md, 'Converting a JSONL store', shows how to convert one"
        )


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class StoreBackend:
    """JSON records in one SQLite-WAL file, shared by every local process.

    Records are JSON-safe dicts.  Append order is the only order; a record's
    identity is its top-level ``"fingerprint"`` (stores that key on something
    else, like the warm library's ``task_key``, simply have fingerprint-less
    records).  Duplicate fingerprints are legal — readers resolve them by
    :func:`record_fitness`, ties keeping the earliest record.  Missing parent
    directories of *path* are created.
    """

    #: Backend label on ``repro_store_ops_total`` and the service's healthz.
    kind = _SCHEME

    def __init__(self, path: str) -> None:
        self.path = str(path)
        _refuse_foreign_file(self.path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        registry = get_metrics()
        self._op_counters: Dict[str, Counter] = {
            op: registry.counter(
                "repro_store_ops_total",
                "Store-backend operations, by backend kind and operation.",
                labels={"backend": self.kind, "op": op},
            )
            for op in _STORE_OPS
        }
        self._lock = threading.Lock()
        # One connection shared across the service's worker threads, handed
        # out only under _lock (check_same_thread would otherwise reject the
        # handoff); cross-*process* isolation is SQLite's own locking.
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(  # guarded-by: _lock
            self.path, timeout=_BUSY_TIMEOUT_SECONDS, check_same_thread=False
        )
        try:
            with self._lock:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                self._conn.executescript(_SCHEMA)
                self._conn.commit()
        except BaseException:
            self._conn.close()
            self._conn = None
            raise

    @property
    def url(self) -> str:
        """Canonical URL of this store (``sqlite:path``)."""
        return f"{self.kind}:{self.path}"

    def _count_op(self, op: str, amount: int = 1) -> None:
        self._op_counters[op].inc(amount)

    def close(self) -> None:  # acquires-lock: _lock
        """Release the connection (idempotent; a closed backend must not be used)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _connection(self) -> sqlite3.Connection:
        # holds-lock: _lock
        if self._conn is None:
            raise RuntimeError(f"store backend {self.url} is closed")
        return self._conn

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[Dict[str, Any]]:  # acquires-lock: _lock
        """Yield every record in append order (an empty store yields nothing)."""
        # Materialized under the lock: the shared connection cannot stream
        # rows concurrently with another thread's append, and stores are
        # read in full at well-defined points (warm-library load, compaction).
        with self._lock:
            rows = self._connection().execute(
                "SELECT record FROM records ORDER BY seq"
            ).fetchall()
        for (raw,) in rows:
            yield json.loads(raw)

    def records(self) -> List[Dict[str, Any]]:
        """All records, in append order."""
        return list(self.iter_records())

    def __len__(self) -> int:  # acquires-lock: _lock
        with self._lock:
            row = self._connection().execute("SELECT COUNT(*) FROM records").fetchone()
        return int(row[0])

    def fingerprints(self) -> Set[str]:  # acquires-lock: _lock
        """Fingerprints of every stored record, read from the indexed column."""
        self._count_op("scan")
        with self._lock:
            rows = self._connection().execute(
                "SELECT DISTINCT fingerprint FROM records WHERE fingerprint IS NOT NULL"
            ).fetchall()
        return {str(value) for (value,) in rows}

    def lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:  # acquires-lock: _lock
        """The best-fitness record for *fingerprint* (ties earliest), or ``None``."""
        self._count_op("lookup")
        with self._lock:
            rows = self._connection().execute(
                "SELECT record FROM records WHERE fingerprint = ? ORDER BY seq",
                (fingerprint,),
            ).fetchall()
        best: Optional[Dict[str, Any]] = None
        for (raw,) in rows:
            record = json.loads(raw)
            if best is None or record_fitness(record) > record_fitness(best):
                best = record
        return best

    def best_records(self, key: str = "fingerprint") -> Dict[str, Dict[str, Any]]:
        """The best-fitness record per *key* value, in one pass (ties earliest)."""
        self._count_op("scan")
        best: Dict[str, Dict[str, Any]] = {}
        for record in self.iter_records():
            value = record.get(key)
            if not value:
                continue
            current = best.get(str(value))
            if current is None or record_fitness(record) > record_fitness(current):
                best[str(value)] = record
        return best

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary (``repro-magma store info``)."""
        return {
            "url": self.url,
            "kind": self.kind,
            "records": len(self),
            "fingerprints": len(self.fingerprints()),
        }

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_record(self, record: Dict[str, Any]) -> None:  # acquires-lock: _lock
        """Durably append one record (one commit: readers never see a torn record)."""
        self._count_op("append")
        row = _row(record)
        with self._lock:
            conn = self._connection()
            conn.execute("INSERT INTO records (fingerprint, record) VALUES (?, ?)", row)
            conn.commit()

    def append_many(self, records: List[Dict[str, Any]]) -> None:  # acquires-lock: _lock
        """Append a batch in one transaction (bulk load / benchmark seeding)."""
        self._count_op("append", len(records))
        rows = [_row(record) for record in records]
        with self._lock:
            conn = self._connection()
            conn.executemany("INSERT INTO records (fingerprint, record) VALUES (?, ?)", rows)
            conn.commit()

    def truncate(self) -> None:  # acquires-lock: _lock
        """Delete every record (the store itself remains usable)."""
        self._count_op("truncate")
        with self._lock:
            conn = self._connection()
            conn.execute("DELETE FROM records")
            conn.commit()

    def compact(self, policy: Optional[CompactionPolicy] = None) -> Tuple[int, int]:  # acquires-lock: _lock
        """Apply *policy* (default: keep best per fingerprint); ``(kept, dropped)``.

        Deterministic and idempotent: survivors keep their append order, so
        compacting twice drops nothing the second time.  The rewrite is one
        transaction, so compaction is all-or-nothing.
        """
        policy = policy if policy is not None else CompactionPolicy()
        before = self.records()
        kept = policy.survivors(before)
        if len(kept) != len(before):
            rows = [_row(record) for record in kept]
            with self._lock:
                conn = self._connection()
                with conn:
                    conn.execute("DELETE FROM records")
                    conn.executemany("INSERT INTO records (fingerprint, record) VALUES (?, ?)", rows)
        self._count_op("compact")
        return len(kept), len(before) - len(kept)


def open_store_backend(spec: "str | StoreBackend") -> StoreBackend:
    """Open the store an address names (an open backend is returned as-is)."""
    if isinstance(spec, StoreBackend):
        return spec
    return StoreBackend(parse_store_url(spec))


class BackedStore:
    """Composition base for domain stores over a :class:`StoreBackend`.

    The domain stores (solution store, campaign results store, warm-start
    library) define *record schemas*; this base gives them the transport:
    construct from an open backend or any store address, and delegate the
    backend's surface.  A store opened from an address owns its backend and
    closes it; a store handed an already open backend leaves ownership with
    the caller.
    """

    def __init__(self, backend: "str | StoreBackend") -> None:
        self._owns_backend = not isinstance(backend, StoreBackend)
        self._backend = open_store_backend(backend)

    @property
    def backend(self) -> StoreBackend:
        """The transport this store persists through."""
        return self._backend

    @property
    def url(self) -> str:
        return self._backend.url

    @property
    def kind(self) -> str:
        return self._backend.kind

    @property
    def path(self) -> str:
        """Filesystem path of the backend's store file."""
        return self._backend.path

    # Delegated backend surface --------------------------------------
    def append_record(self, record: Dict[str, Any]) -> None:
        self._backend.append_record(record)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        return self._backend.iter_records()

    def records(self) -> List[Dict[str, Any]]:
        return self._backend.records()

    def fingerprints(self) -> Set[str]:
        return self._backend.fingerprints()

    def truncate(self) -> None:
        self._backend.truncate()

    def compact(self, policy: Optional[CompactionPolicy] = None) -> Tuple[int, int]:
        return self._backend.compact(policy)

    def __len__(self) -> int:
        return len(self._backend)

    def close(self) -> None:
        """Close the backend if this store opened it (idempotent)."""
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "BackedStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "BackedStore",
    "CompactionPolicy",
    "StoreBackend",
    "open_store_backend",
    "parse_store_url",
    "record_fitness",
    "render_record",
]
