"""The ``sqlite:`` store backend — concurrent local replicas over one file.

The JSONL backend is single-process by construction: two OS processes
appending to one file race each other and the torn-write repair.  SQLite in
WAL (write-ahead-log) mode gives N local ``repro-magma serve`` replicas a
shared store with the durability semantics the protocol demands for free:
writers append to the WAL under SQLite's own file locking, readers never
block writers, and a hard kill can never leave a torn record — an
uncommitted transaction simply never happened, which is why
:meth:`SqliteStoreBackend.repair` is a (counted) no-op.

Records stay the same JSON documents the JSONL backend stores, one per row,
rendered through the canonical :func:`~repro.utils.storage.render_record`
form — so migrating a store between ``jsonl:`` and ``sqlite:`` preserves
every record byte for byte.  The top-level fingerprint is mirrored into an
indexed column so the fingerprint scan and per-fingerprint lookup that
campaign ``--resume`` and the service index lean on stay cheap at 10⁵+
records without parsing every document.

``sqlite3`` is stdlib; this module adds no dependency.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Dict, Iterator, List, Optional, Set

from repro.utils.storage import StoreBackend, record_fitness, render_record

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


class SqliteStoreBackend(StoreBackend):
    """A :class:`~repro.utils.storage.StoreBackend` over a SQLite-WAL file."""

    kind = "sqlite"
    shared = True

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = str(path)
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

    def close(self) -> None:  # acquires-lock: _lock
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _connection(self) -> sqlite3.Connection:
        # holds-lock: _lock
        if self._conn is None:
            raise RuntimeError(f"store backend {self.url} is closed")
        return self._conn

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[Dict[str, Any]]:  # acquires-lock: _lock
        # Materialized under the lock: the shared connection cannot stream
        # rows concurrently with another thread's append, and stores are
        # read in full at well-defined points (warm-library load, compaction).
        with self._lock:
            rows = self._connection().execute(
                "SELECT record FROM records ORDER BY seq"
            ).fetchall()
        for (raw,) in rows:
            yield json.loads(raw)

    def __len__(self) -> int:  # acquires-lock: _lock
        with self._lock:
            row = self._connection().execute("SELECT COUNT(*) FROM records").fetchone()
        return int(row[0])

    def fingerprints(self) -> Set[str]:  # acquires-lock: _lock
        self._count_op("scan")
        with self._lock:
            rows = self._connection().execute(
                "SELECT DISTINCT fingerprint FROM records WHERE fingerprint IS NOT NULL"
            ).fetchall()
        return {str(value) for (value,) in rows}

    def lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:  # acquires-lock: _lock
        """Best-fitness record for *fingerprint* via the index (ties earliest)."""
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

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_record(self, record: Dict[str, Any]) -> None:  # acquires-lock: _lock
        self._count_op("append")
        fingerprint = record.get("fingerprint")
        rendered = render_record(record)
        with self._lock:
            conn = self._connection()
            conn.execute(
                "INSERT INTO records (fingerprint, record) VALUES (?, ?)",
                (None if fingerprint is None else str(fingerprint), rendered),
            )
            conn.commit()

    def append_many(self, records: List[Dict[str, Any]]) -> None:  # acquires-lock: _lock
        """Append a batch in one transaction (bulk load / benchmark seeding)."""
        self._count_op("append", len(records))
        rows = [
            (
                None if record.get("fingerprint") is None else str(record["fingerprint"]),
                render_record(record),
            )
            for record in records
        ]
        with self._lock:
            conn = self._connection()
            conn.executemany("INSERT INTO records (fingerprint, record) VALUES (?, ?)", rows)
            conn.commit()

    def truncate(self) -> None:  # acquires-lock: _lock
        self._count_op("truncate")
        with self._lock:
            conn = self._connection()
            conn.execute("DELETE FROM records")
            conn.commit()

    def _replace_records(self, records: List[Dict[str, Any]]) -> None:  # acquires-lock: _lock
        rows = [
            (
                None if record.get("fingerprint") is None else str(record["fingerprint"]),
                render_record(record),
            )
            for record in records
        ]
        with self._lock:
            conn = self._connection()
            with conn:  # one transaction: compaction is all-or-nothing
                conn.execute("DELETE FROM records")
                conn.executemany(
                    "INSERT INTO records (fingerprint, record) VALUES (?, ?)", rows
                )

    def repair(self) -> int:
        """WAL atomicity means no torn records can exist; report the count."""
        self._count_op("repair")
        return len(self)


__all__ = ["SqliteStoreBackend"]
