"""Pluggable store backends: one protocol, three transports, one URL grammar.

Every durable store in the system — the mapping service's
:class:`~repro.service.store.SolutionStore`, the campaign engine's
:class:`~repro.experiments.campaign.CampaignResultsStore`, and the
:class:`~repro.service.warmlib.WarmStartLibrary` — persists JSON records
keyed by a deterministic content fingerprint (or task key) and resolves
duplicates by *fitness* so a store only ever improves.  Historically all
three were hard-wired to one implementation, the single-host append-only
JSONL file, which is why ``repro-magma serve`` could not run as N replicas
behind a load balancer: no two replicas could share a store.

This module extracts the storage contract those stores actually rely on into
:class:`StoreBackend` and addresses backends by URL:

================  ====================================  =========================
URL               backend                               sharing model
================  ====================================  =========================
``jsonl:PATH``    append-only JSONL file (the default;  one process (in-process
(or a bare path)  byte-compatible with every store      thread-safe appends)
                  file written before this existed)
``sqlite:PATH``   SQLite database in WAL mode           N processes on one host
                                                        (concurrent local
                                                        replicas)
``tcp://H:P``     network store client speaking the     N processes on N hosts
                  token-authenticated frame protocol    (``repro-magma store
                  of :mod:`repro.service.netstore`      serve`` is the server)
================  ====================================  =========================

The protocol is deliberately small — append one record, iterate records in
append order, scan fingerprints cheaply, repair torn writes, resolve
best-fitness duplicates, compact — because that is everything the three
stores (and campaign ``--resume``) have ever needed.  Records are JSON-safe
dicts on every transport; the network backend never pickles anything.

Compaction (:class:`CompactionPolicy`) bounds a store that append-only
semantics would otherwise grow forever: keep only the best record per
fingerprint, and/or only the newest N records / newest ``max_bytes`` bytes.
"Age" is append order, never wall-clock — store records must stay
byte-identical across resumed runs (docs/DETERMINISM.md), so no timestamp
ever lands in one.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ConfigurationError
from repro.obs.metrics import Counter, get_metrics

#: URL schemes understood by :func:`parse_store_url`.
STORE_SCHEMES: Tuple[str, ...] = ("jsonl", "sqlite", "tcp")

#: Store operations counted in ``repro_store_ops_total{backend,op}``.
_STORE_OPS: Tuple[str, ...] = (
    "append", "scan", "lookup", "repair", "compact", "truncate",
)


# ----------------------------------------------------------------------
# URL grammar
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreUrl:
    """A parsed store address (see :func:`parse_store_url` for the grammar)."""

    kind: str
    path: str = ""
    host: str = ""
    port: int = 0
    token: Optional[str] = None

    def render(self) -> str:
        """The canonical URL string for this address (token elided)."""
        if self.kind == "tcp":
            return f"tcp://{self.host}:{self.port}"
        return f"{self.kind}:{self.path}"


def parse_store_url(spec: str) -> StoreUrl:
    """Parse one store address into a :class:`StoreUrl`.

    Grammar (the single parser behind ``--store``, ``--warm-store`` and
    ``--out`` everywhere):

    * ``jsonl:PATH`` — append-only JSONL file at ``PATH``.
    * ``sqlite:PATH`` — SQLite (WAL) database at ``PATH``.
    * ``tcp://HOST:PORT[?token=SECRET]`` — a running network store server
      (``repro-magma store serve``); with no ``token`` the client falls back
      to ``$REPRO_RPC_TOKEN``.
    * anything else — a bare filesystem path, meaning ``jsonl:`` (so every
      pre-existing path keeps working unchanged).

    Unknown *explicit* schemes fail loudly: a typo'd ``sqlit:db`` must not be
    silently treated as a weirdly named JSONL file.
    """
    spec = str(spec)
    if not spec:
        raise ConfigurationError("empty store URL")
    if spec.startswith("tcp://"):
        parts = urlsplit(spec)
        if not parts.hostname or parts.port is None:
            raise ConfigurationError(
                f"network store URL {spec!r} is not of the form tcp://HOST:PORT[?token=...]"
            )
        token_values = parse_qs(parts.query).get("token")
        return StoreUrl(
            kind="tcp",
            host=parts.hostname,
            port=int(parts.port),
            token=token_values[0] if token_values else None,
        )
    scheme, sep, rest = spec.partition(":")
    if sep and scheme in ("jsonl", "sqlite"):
        # Tolerate the optional URL-style double slash (``sqlite://db`` and
        # ``sqlite:db`` address the same file) but keep absolute paths: the
        # third slash of ``sqlite:///x.db`` is the path root.
        if rest.startswith("//"):
            rest = rest[2:]
        if not rest:
            raise ConfigurationError(f"store URL {spec!r} names no path")
        return StoreUrl(kind=scheme, path=rest)
    if sep and scheme.isalpha() and len(scheme) > 1 and "/" not in scheme and "\\" not in scheme:
        raise ConfigurationError(
            f"unknown store scheme {scheme!r} in {spec!r}; "
            f"available: {', '.join(STORE_SCHEMES)} (a bare path means jsonl:)"
        )
    return StoreUrl(kind="jsonl", path=spec)


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
    oldest survivors until the rendered JSONL size fits.  "Newest" is append
    order — records carry no timestamps by design.
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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompactionPolicy":
        """Rebuild a policy from its JSON form (the network store op payload)."""
        known = {"keep_best_per_fingerprint", "max_records", "max_bytes", "key"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown compaction policy fields: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (sent to the network store server)."""
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
    """The canonical single-line JSON form every backend stores records in.

    Sorted keys and no trailing whitespace, exactly what
    :func:`repro.utils.serialization.dump_jsonl_line` writes — the SQLite and
    network backends round-trip through this same rendering so a store
    migrated between backends stays byte-identical record for record.
    """
    return json.dumps(record, sort_keys=True)


def transport_byte_counters() -> Tuple[Counter, Counter]:
    """``(sent, received)``: bytes on ``tcp://`` store-transport sockets.

    Every store backend registers both, so ``/metrics`` lists them (at 0)
    whichever store a service opens; the ``tcp://`` transport counts into them.
    """
    registry = get_metrics()
    return (
        registry.counter(
            "repro_rpc_bytes_sent_total",
            "Bytes written to store-transport sockets (length-prefixed frames).",
        ),
        registry.counter(
            "repro_rpc_bytes_received_total",
            "Bytes read from store-transport sockets (length-prefixed frames).",
        ),
    )


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class StoreBackend(ABC):
    """Contract every store transport implements.

    Records are JSON-safe dicts.  Append order is the only order; a record's
    identity is its top-level ``"fingerprint"`` (stores that key on something
    else, like the warm library's ``task_key``, simply have fingerprint-less
    records).  Duplicate fingerprints are legal — readers resolve them by
    :func:`record_fitness`, ties keeping the earliest record.
    """

    #: Short backend discriminator (``"jsonl"``, ``"sqlite"``, ``"tcp"``).
    kind: str = "abstract"
    #: True when several replicas (processes) can safely share this backend.
    shared: bool = False

    def __init__(self) -> None:
        registry = get_metrics()
        self._op_counters: Dict[str, Counter] = {
            op: registry.counter(
                "repro_store_ops_total",
                "Store-backend operations, by backend kind and operation.",
                labels={"backend": self.kind, "op": op},
            )
            for op in _STORE_OPS
        }
        transport_byte_counters()

    def _count_op(self, op: str, amount: int = 1) -> None:
        counter = self._op_counters.get(op)
        if counter is not None:
            counter.inc(amount)

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def url(self) -> str:
        """Canonical URL of this backend (``kind:path`` or ``tcp://host:port``)."""

    @abstractmethod
    def append_record(self, record: Dict[str, Any]) -> None:
        """Durably append one record (atomic: readers never see a torn record)."""

    @abstractmethod
    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Yield every record in append order (an empty store yields nothing)."""

    @abstractmethod
    def fingerprints(self) -> Set[str]:
        """Fingerprints of every durably stored record (cheaper than a full parse)."""

    @abstractmethod
    def repair(self) -> int:
        """Drop any partially written state; return the number of intact records.

        Idempotent, and a no-op on healthy stores.
        """

    @abstractmethod
    def truncate(self) -> None:
        """Delete every record (the store itself remains usable)."""

    @abstractmethod
    def _replace_records(self, records: List[Dict[str, Any]]) -> None:
        """Atomically replace the whole record stream (compaction commit)."""

    @abstractmethod
    def close(self) -> None:
        """Release OS resources (idempotent; a closed backend must not be used)."""

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All records, in append order."""
        return list(self.iter_records())

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())

    def lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The best-fitness record for *fingerprint* (ties earliest), or ``None``."""
        self._count_op("lookup")
        best: Optional[Dict[str, Any]] = None
        for record in self.iter_records():
            if record.get("fingerprint") != fingerprint:
                continue
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

    def compact(self, policy: Optional[CompactionPolicy] = None) -> Tuple[int, int]:
        """Apply *policy* (default: keep best per fingerprint); ``(kept, dropped)``.

        Deterministic and idempotent: survivors keep their append order, so
        compacting twice drops nothing the second time.
        """
        policy = policy if policy is not None else CompactionPolicy()
        before = self.records()
        kept = policy.survivors(before)
        if len(kept) != len(before):
            self._replace_records(kept)
        self._count_op("compact")
        return len(kept), len(before) - len(kept)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary (``repro-magma store info``)."""
        records = self.records()
        fingerprints = {
            str(record["fingerprint"])
            for record in records
            if record.get("fingerprint") is not None
        }
        return {
            "url": self.url,
            "kind": self.kind,
            "shared": self.shared,
            "records": len(records),
            "fingerprints": len(fingerprints),
        }

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def open_store_backend(spec: "str | StoreUrl | StoreBackend") -> StoreBackend:
    """Open the backend a store address names.

    Accepts an already-open backend (returned as-is — the caller keeps
    ownership), a parsed :class:`StoreUrl`, or any string
    :func:`parse_store_url` understands.
    """
    if isinstance(spec, StoreBackend):
        return spec
    url = spec if isinstance(spec, StoreUrl) else parse_store_url(spec)
    if url.kind == "jsonl":
        from repro.utils.jsonl_store import AppendOnlyJsonlStore

        return AppendOnlyJsonlStore(url.path)
    if url.kind == "sqlite":
        from repro.utils.sqlite_store import SqliteStoreBackend

        return SqliteStoreBackend(url.path)
    if url.kind == "tcp":
        # The network client lives in the service layer; imported lazily so
        # plain file-backed stores never pay for the socket machinery.
        from repro.service.netstore import NetworkStoreBackend

        return NetworkStoreBackend(url.host, url.port, token=url.token)
    raise ConfigurationError(f"unknown store backend kind {url.kind!r}")


class BackedStore:
    """Composition base for domain stores over any :class:`StoreBackend`.

    The domain stores (solution store, campaign results store, warm-start
    library) define *record schemas*; this base gives them the transport:
    construct from an open backend, a parsed :class:`StoreUrl`, or any URL
    string / bare path, and delegate the protocol surface.  A store opened
    from a URL owns its backend and closes it; a store handed an already
    open backend leaves ownership with the caller.
    """

    def __init__(self, backend: "str | StoreUrl | StoreBackend") -> None:
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
    def shared(self) -> bool:
        """True when several replicas can safely share this store."""
        return self._backend.shared

    @property
    def path(self) -> str:
        """Filesystem path for file-backed stores; the URL otherwise.

        Kept for compatibility: callers (and tests) of the historically
        JSONL-only stores open ``store.path`` directly.
        """
        return str(getattr(self._backend, "path", self._backend.url))

    # Delegated protocol surface -------------------------------------
    def append_record(self, record: Dict[str, Any]) -> None:
        self._backend.append_record(record)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        return self._backend.iter_records()

    def records(self) -> List[Dict[str, Any]]:
        return self._backend.records()

    def fingerprints(self) -> Set[str]:
        return self._backend.fingerprints()

    def repair(self) -> int:
        return self._backend.repair()

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
    "STORE_SCHEMES",
    "StoreBackend",
    "StoreUrl",
    "open_store_backend",
    "parse_store_url",
    "record_fitness",
    "render_record",
    "transport_byte_counters",
]
