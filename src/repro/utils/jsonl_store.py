"""Append-only JSONL stores with crash repair and a fast fingerprint scan.

Two subsystems persist results as one-JSON-object-per-line files keyed by a
deterministic content fingerprint: the campaign results store
(:class:`~repro.experiments.campaign.CampaignResultsStore`, one line per
completed search cell) and the mapping service's solution store
(:class:`~repro.service.store.SolutionStore`, one line per solved request).
This module owns the mechanics they share:

* **Crash-safe appends** — every record is rendered to a single string and
  written in one flushed ``write`` on a file opened in append mode, behind a
  process-local lock, so concurrent writers in one process never interleave
  partial lines and a hard kill can tear at most the final line.
* **Torn-line repair** — :meth:`AppendOnlyJsonlStore.repair` drops an
  incomplete trailing line (the only corruption a crashed append can leave)
  by atomically rewriting the store to its valid prefix.
* **Fast fingerprint scan** — :meth:`AppendOnlyJsonlStore.fingerprints`
  extracts the top-level ``"fingerprint"`` key with a compiled regex instead
  of parsing every full record; on stores whose records carry whole search
  summaries (encodings + convergence histories) this is an order of
  magnitude cheaper than ``json.loads`` per line, which is what resuming a
  large campaign or warming a service pays at startup.
* **Offset index** — the fingerprint scan also records the byte offset of
  every line per fingerprint, so :meth:`AppendOnlyJsonlStore.lookup` seeks
  to and parses only that fingerprint's own lines.  The index is extended
  over records appended since the last scan and rebuilt when the file is
  replaced or shrinks, so a lookup costs O(own records + new bytes), not a
  read of the whole file.

Since the store-backend split (:mod:`repro.utils.storage`) this class is the
``jsonl:`` implementation of :class:`~repro.utils.storage.StoreBackend` —
the default backend, byte-compatible with every store file written before
backends existed.  It remains single-process (appends are thread-safe, but
two OS processes appending to one file race); multi-replica deployments use
the ``sqlite:`` backend instead.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Set, Tuple

from repro.utils.serialization import dump_jsonl_line, load_jsonl
from repro.utils.storage import StoreBackend, record_fitness

#: Matches the *top-level* fingerprint key of a record rendered by
#: :func:`~repro.utils.serialization.dump_jsonl_line` (sorted keys).  The
#: stores built on this module never nest a ``"fingerprint"`` key inside a
#: sub-object that sorts before the top-level one, so the first match on a
#: line is the record's identity.  ``fingerprints`` still falls back to a
#: full parse for any line the regex does not match.
_FINGERPRINT_RE = re.compile(rb'"fingerprint":\s*"([^"]*)"')


def _line_fingerprint(line: bytes) -> Optional[str]:
    """The fingerprint a store line is indexed under (``None``: not indexed).

    A match without a backslash is the string itself.  One with a backslash
    holds a JSON escape (``json.dumps`` writes non-ASCII as ``\\uXXXX``, and
    an escaped quote cuts the match short), so the line is parsed in full.
    """
    match = _FINGERPRINT_RE.search(line)
    if match is not None and b"\\" not in match.group(1):
        return match.group(1).decode("utf-8")
    try:
        record = json.loads(line)
    except ValueError:
        return None
    fingerprint = record.get("fingerprint")
    return None if fingerprint is None else str(fingerprint)


class AppendOnlyJsonlStore(StoreBackend):
    """The ``jsonl:`` store backend: an append-only, single-file JSONL store."""

    kind = "jsonl"
    shared = False

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = str(path)
        self._lock = threading.Lock()
        # Byte offsets of each fingerprint's lines in the file identified by
        # ``_indexed_file`` (device, inode), covering its bytes up to
        # ``_indexed_end``.  ``None`` until the first scan or after this
        # object rewrites the file.
        self._offsets: Optional[Dict[str, List[int]]] = None  # guarded-by: _lock
        self._indexed_end = 0  # guarded-by: _lock
        self._indexed_file: Optional[Tuple[int, int]] = None  # guarded-by: _lock

    def close(self) -> None:
        """Nothing to release: appends open and close the file per record."""

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Yield every record in append order (missing file yields nothing)."""
        return load_jsonl(self.path)

    def records(self) -> List[Dict[str, Any]]:
        """All records, in append order."""
        return list(self.iter_records())

    def fingerprints(self) -> Set[str]:  # acquires-lock: _lock
        """Fingerprints of every record, without parsing full records.

        A torn trailing line (no final newline) is ignored rather than
        trusted: its fingerprint may belong to a record that was never
        durably written, and :meth:`repair` would drop it.
        """
        self._count_op("scan")
        with self._lock:
            try:
                handle = open(self.path, "rb")
            except FileNotFoundError:
                self._offsets = None
                return set()
            with handle:
                return set(self._refresh_offsets(handle))

    def lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:  # acquires-lock: _lock
        """The best-fitness record for *fingerprint* (ties earliest), or ``None``.

        Seeks to and parses only the lines the offset index holds for
        *fingerprint*, after indexing any records appended since the last
        scan.  Each parsed record's own fingerprint is compared exactly, so
        a line indexed under a nested key is never answered.  A malformed
        line indexed under the fingerprint raises.
        """
        self._count_op("lookup")
        best: Optional[Dict[str, Any]] = None
        with self._lock:
            try:
                handle = open(self.path, "rb")
            except FileNotFoundError:
                self._offsets = None
                return None
            with handle:
                for offset in self._refresh_offsets(handle).get(fingerprint, ()):
                    handle.seek(offset)
                    record = json.loads(handle.readline())
                    if record.get("fingerprint") != fingerprint:
                        continue
                    if best is None or record_fitness(record) > record_fitness(best):
                        best = record
        return best

    def _refresh_offsets(self, handle: BinaryIO) -> Dict[str, List[int]]:  # holds-lock: _lock
        """Bring the offset index up to date with the open file; return it.

        Appends only add bytes, so the lines written since the last scan are
        indexed from ``_indexed_end`` on.  A file replaced since (compaction
        or repair, by any process) or shrunk (truncated in place) is indexed
        afresh.  Only complete lines are indexed.
        """
        status = os.fstat(handle.fileno())
        identity = (status.st_dev, status.st_ino)
        offsets = self._offsets
        if offsets is None or identity != self._indexed_file or status.st_size < self._indexed_end:
            offsets = self._offsets = {}
            self._indexed_end, self._indexed_file = 0, identity
        handle.seek(self._indexed_end)
        tail = handle.read()
        offset = self._indexed_end
        for line in tail[: tail.rfind(b"\n") + 1].split(b"\n")[:-1]:
            fingerprint = _line_fingerprint(line) if line.strip() else None
            if fingerprint is not None:
                offsets.setdefault(fingerprint, []).append(offset)
            offset += len(line) + 1
        self._indexed_end = offset
        return offsets

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _ensure_parent(self) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)

    def truncate(self) -> None:
        """Start the store afresh.

        An atomic replace, not an in-place truncate: the new file's inode
        tells every other handle's offset index that it is stale.
        """
        self._count_op("truncate")
        self._replace_records([])

    def append_record(self, record: Dict[str, Any]) -> None:  # acquires-lock: _lock
        """Append one record as a single flushed line (crash/thread-safe)."""
        self._count_op("append")
        with self._lock:
            self._ensure_parent()
            with open(self.path, "a", encoding="utf-8") as handle:
                dump_jsonl_line(record, handle)

    def _replace_records(self, records: List[Dict[str, Any]]) -> None:  # acquires-lock: _lock
        """Atomically replace the whole file (compaction and truncate commit path)."""
        with self._lock:
            self._ensure_parent()
            temp_path = self.path + ".compact"
            with open(temp_path, "w", encoding="utf-8") as handle:
                for record in records:
                    dump_jsonl_line(record, handle)
            os.replace(temp_path, self.path)
            self._offsets = None

    def repair(self) -> int:  # acquires-lock: _lock
        """Drop a torn trailing line left by a hard mid-write interruption.

        Appends are single flushed writes, so the only corruption an
        interrupted writer can leave is an incomplete *last* line (or a
        complete one missing its newline).  Both would poison later appends;
        this rewrites the store to its valid prefix.  Returns the number of
        intact records kept.
        """
        self._count_op("repair")
        with self._lock:
            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    raw = handle.read()
            except FileNotFoundError:
                return 0
            records: List[Dict[str, Any]] = []
            torn = False
            for line in raw.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    torn = True
                    break
            if torn or (raw and not raw.endswith("\n")):
                # Rewrite atomically: a crash during repair must not turn one
                # torn line into the loss of every completed record.
                temp_path = self.path + ".repair"
                with open(temp_path, "w", encoding="utf-8") as handle:
                    for record in records:
                        dump_jsonl_line(record, handle)
                os.replace(temp_path, self.path)
                self._offsets = None
            return len(records)
