"""Persistent, content-addressed store of solved mapping problems.

Every record pairs a fully resolved :class:`~repro.service.service.MappingRequest`
payload with the :class:`~repro.utils.serialization.SearchResultSummary` of
the search that solved it, keyed by the request's deterministic fingerprint
(canonical-JSON SHA-256, the same identity scheme campaign cells use).

Since the store-backend split the solution store is transport-agnostic: it
defines the record schema and the duplicate-resolution semantics, and
persists through any :class:`~repro.utils.storage.StoreBackend` —
``jsonl:path`` (the default; byte-compatible with every store file written
before backends existed), ``sqlite:path`` for concurrent local replicas, or
``tcp://host:port`` for a fleet of service replicas sharing one store
(docs/SERVICE.md has the matrix).  Appends stay atomic and crash-safe on
every transport.

Append-only means a fingerprint may appear in several records (two service
workers racing on near-identical requests, or a re-run with a fresh library
finding a different-quality solution).  Readers resolve duplicates by
*fitness*: :meth:`SolutionStore.lookup` returns the best-fitness record, so
the store only ever improves.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.utils.serialization import SearchResultSummary
from repro.utils.storage import BackedStore


class SolutionStore(BackedStore):
    """Store of ``{"fingerprint", "request", "task_key", "result"}`` records."""

    def append(
        self,
        fingerprint: str,
        request: Dict[str, Any],
        task_key: str,
        result: SearchResultSummary,
    ) -> None:
        """Record one solved request (flushed immediately, crash-safe)."""
        self.append_record(
            {
                "fingerprint": fingerprint,
                "request": dict(request),
                "task_key": str(task_key),
                "result": result.to_dict(),
            }
        )

    # ------------------------------------------------------------------
    def lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The best-fitness record for *fingerprint*, or ``None``.

        Ties keep the earliest record, so a store with duplicate equal
        solutions answers deterministically.  Indexed backends resolve this
        without scanning the whole store.
        """
        return self.backend.lookup(fingerprint)

    def lookup_result(self, fingerprint: str) -> Optional[SearchResultSummary]:
        """The stored search summary for *fingerprint*, or ``None``."""
        record = self.lookup(fingerprint)
        if record is None:
            return None
        return SearchResultSummary.from_dict(record["result"])

    def best_by_fingerprint(self) -> Dict[str, Dict[str, Any]]:
        """The best-fitness record per fingerprint (one pass over the store)."""
        return self.backend.best_records("fingerprint")

    def best_by_task(self) -> Dict[str, Dict[str, Any]]:
        """The best-fitness record per task key (warm-start library seed).

        Task keys are namespaced by objective (``"<task>/<objective>"``), so
        a throughput-optimal solution never warm-starts an energy search.
        """
        return self.backend.best_records("task_key")
