"""JSON serialization helpers shared by the CLI and the campaign engine.

Experiment runners return plain-ish data structures that still contain NumPy
arrays, enums, dataclasses (convergence curves, Gantt entries), and full
:class:`~repro.core.framework.SearchResult` objects.  :func:`jsonable`
converts any of those into JSON-safe values with explicit, type-directed
rules (the previous CLI-private helper fell back to ``vars(obj)``, which
broke on ``__slots__`` classes and serialized enums as their internal
member ``__dict__``).

:class:`SearchResultSummary` is the durable subset of a search result — the
record the campaign results store writes one JSONL line per cell from — with
a proper dump/load round trip.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterator, List, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runtime import stays deferred: core.framework imports utils
    from repro.core.framework import SearchResult


def payload_fingerprint(payload: Dict[str, Any]) -> str:
    """Deterministic content fingerprint of a JSON-safe payload.

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256 and
    truncated to 32 hex characters — the identity scheme shared by campaign
    search cells and mapping-service requests, so equal work is recognised
    across processes and store files.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def jsonable(value: Any) -> Any:
    """Convert *value* into JSON-safe data (dicts/lists/strings/numbers).

    Handles nested containers, NumPy arrays and scalars, enums (by value),
    dataclasses (by field), :class:`SearchResult` (via
    :class:`SearchResultSummary`), and objects exposing ``to_dict()``.
    Anything unrecognised is rendered with ``str`` rather than guessed at.
    """
    # Imported here: core.framework imports utils transitively.
    from repro.core.framework import SearchResult

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, SearchResult):
        return SearchResultSummary.from_result(value).to_dict()
    if isinstance(value, SearchResultSummary):
        # Route through to_dict() so the telemetry-exclusion default applies;
        # the generic dataclass branch below would leak the diagnostic block.
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return jsonable(to_dict())
    return str(value)


def _key(key: Any) -> str:
    """Render a dict key for JSON (enum keys by value, everything else via str)."""
    if isinstance(key, enum.Enum):
        return str(key.value)
    if isinstance(key, (np.floating, np.integer)):
        key = key.item()
    return str(key)


@dataclass
class SearchResultSummary:
    """The JSON-durable subset of a :class:`~repro.core.framework.SearchResult`.

    Carries everything downstream analysis needs — the winning encoding, its
    fitness/objective value, the throughput and makespan of its schedule, the
    convergence history, and the samples spent — without the decoded mapping
    and schedule objects (both are reconstructable from the encoding via
    ``MappingEvaluator.schedule_for``).
    """

    optimizer_name: str
    best_fitness: float
    objective_value: float
    throughput_gflops: float
    makespan_cycles: float
    samples_used: int
    best_encoding: List[float]
    history: List[float]
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Optional flight-recorder block (docs/OBSERVABILITY.md): wall/cpu per
    #: phase, eval counts, cache hit rate.  Diagnostic, never durable —
    #: ``compare=False`` and excluded from :meth:`to_dict` by default, so
    #: stores, fingerprints, and the tracing-on/off bit-identity property
    #: tests never see wall-clock values.
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @classmethod
    def from_result(cls, result: "SearchResult") -> "SearchResultSummary":
        """Summarise a full search result."""
        telemetry = getattr(result, "telemetry", None)
        return cls(
            optimizer_name=result.optimizer_name,
            best_fitness=float(result.best_fitness),
            objective_value=float(result.objective_value),
            throughput_gflops=float(result.throughput_gflops),
            makespan_cycles=float(result.schedule.makespan_cycles),
            samples_used=int(result.samples_used),
            best_encoding=[float(v) for v in np.asarray(result.best_encoding, dtype=float)],
            history=[float(v) for v in result.history],
            metadata=jsonable(result.metadata),
            telemetry=None if telemetry is None else jsonable(telemetry),
        )

    def to_dict(self, include_telemetry: bool = False) -> Dict[str, Any]:
        """Plain-dict form, safe for ``json.dumps``.

        The ``telemetry`` block is excluded unless explicitly requested:
        the durable record (stores, campaign resume, equality tests) must
        stay byte-identical whether or not the producing search was traced.

        Built field by field rather than with ``dataclasses.asdict``, which
        deep-copies the encoding and history one float at a time.  The lists
        are copied with ``list()`` (floats are immutable) and the nested
        blocks with ``copy.deepcopy``, so the caller owns every container it
        gets back, as with ``asdict``.
        """
        data: Dict[str, Any] = {
            "optimizer_name": self.optimizer_name,
            "best_fitness": self.best_fitness,
            "objective_value": self.objective_value,
            "throughput_gflops": self.throughput_gflops,
            "makespan_cycles": self.makespan_cycles,
            "samples_used": self.samples_used,
            "best_encoding": list(self.best_encoding),
            "history": list(self.history),
            "metadata": copy.deepcopy(self.metadata),
        }
        if include_telemetry and self.telemetry is not None:
            data["telemetry"] = copy.deepcopy(self.telemetry)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchResultSummary":
        """Inverse of :meth:`to_dict` (unknown keys are rejected loudly)."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown SearchResultSummary fields: {sorted(unknown)}")
        return cls(**data)


def dump_jsonl_line(record: Dict[str, Any], stream: IO[str]) -> None:
    """Append one record to a JSONL stream (sorted keys, flushed)."""
    stream.write(json.dumps(jsonable(record), sort_keys=True) + "\n")
    stream.flush()


def load_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a JSONL file (missing file yields nothing)."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
