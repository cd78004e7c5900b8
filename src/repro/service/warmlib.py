"""Persistent warm-start library (Table V's memory, made durable).

The paper's warm-start engine (Section V-C) remembers the best solution per
task type and seeds new searches with it — 7.4x-152x better starting points
in Table V — but the in-memory :class:`~repro.optimizers.warmstart.WarmStartEngine`
forgets everything at process exit.  :class:`WarmStartLibrary` wraps it with
a durable :class:`~repro.utils.storage.StoreBackend`: every improvement is
appended as one crash-safe record, and a new process replays the store into
a fresh engine, so *any* later search — service request, campaign cell, or
one-off CLI search — warm-starts from the best solution any previous run
ever found for its task type.  Replicas sharing one store accumulate their
remembered improvements in one place.

Keys are namespaced by objective (``"<task>/<objective>"``): a
throughput-optimal mapping is not a useful seed for an energy search.

The library is the reference implementation of the ``warm_store=`` hook on
:class:`~repro.core.framework.M3E` / the campaign runner: it provides
``warm_population`` (seed encodings for a new search) and ``observe``
(report a finished search's winner back).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.core.encoding import MappingCodec
from repro.optimizers.warmstart import WarmStartEngine
from repro.utils.rng import SeedLike
from repro.utils.storage import StoreBackend, open_store_backend
from repro.workloads.benchmark import TaskType
from repro.workloads.groups import JobGroup

_SOLUTION_FIELDS = ("encoding", "num_jobs", "num_sub_accelerators", "fitness")


def group_task_key(group: JobGroup) -> str:
    """The task type a group of jobs belongs to.

    A group whose jobs all share one task type is that type; anything
    heterogeneous is the paper's "mix" workload.
    """
    types = {job.task_type for job in group if job.task_type}
    if len(types) == 1:
        return next(iter(types))
    return TaskType.MIX.value


class WarmStartLibrary:
    """A :class:`WarmStartEngine` whose memory survives process exit.

    Parameters
    ----------
    store:
        Anything :func:`~repro.utils.storage.parse_store_url` accepts — a
        bare path or a ``sqlite:`` URL — or an already open backend, holding
        one record per
        remembered improvement (``{"task_key", "encoding", "num_jobs",
        "num_sub_accelerators", "fitness"}``).  Missing store = empty
        library.  Records are replayed through the engine's
        best-solution-wins rule at load, so duplicate or stale records are
        harmless and the store needs no compaction.
    """

    def __init__(self, store: "str | StoreBackend"):
        self._owns_backend = not isinstance(store, StoreBackend)
        self._file = open_store_backend(store)
        self._lock = threading.Lock()
        try:
            state: Dict[str, Dict] = {}
            for record in self._file.iter_records():
                task_key = record.get("task_key")
                if not task_key or any(field not in record for field in _SOLUTION_FIELDS):
                    continue
                entry = {field: record[field] for field in _SOLUTION_FIELDS}
                current = state.get(task_key)
                if current is None or float(entry["fitness"]) > float(current["fitness"]):
                    state[str(task_key)] = entry
        except BaseException:
            # A library that failed to load must not leak the backend it
            # just opened (replay errors, an unreadable store, ...).
            self.close()
            raise
        self._engine = WarmStartEngine.from_state(state)

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Filesystem path of the backing store."""
        return self._file.path

    @property
    def url(self) -> str:
        """Canonical store URL of the backing store."""
        return self._file.url

    def close(self) -> None:
        """Close the backing store if this library opened it (idempotent)."""
        if self._owns_backend:
            self._file.close()

    @staticmethod
    def key_for(task: str, objective: str) -> str:
        """The library key for a (task type, objective) pair."""
        return f"{task}/{objective}"

    def known_tasks(self) -> List[str]:
        """Keys with remembered solutions."""
        return self._engine.known_tasks()

    def __len__(self) -> int:
        return len(self.known_tasks())

    def fitness_of(self, task: str, objective: str) -> Optional[float]:
        """Best remembered fitness for a (task, objective), if any."""
        return self._engine.fitness_of(self.key_for(task, objective))

    def to_state(self) -> Dict[str, Dict]:
        """Snapshot of the in-memory engine (see ``WarmStartEngine.to_state``)."""
        return self._engine.to_state()

    # ------------------------------------------------------------------
    # Direct API
    # ------------------------------------------------------------------
    def suggest(
        self,
        task: str,
        objective: str,
        codec: MappingCodec,
        count: int = 1,
        rng: SeedLike = None,
    ) -> Optional[np.ndarray]:
        """Warm-start encodings for a (task, objective) problem, or ``None``."""
        return self._engine.suggest(self.key_for(task, objective), codec, count=count, rng=rng)

    def record(
        self,
        task: str,
        objective: str,
        encoding: np.ndarray,
        codec: MappingCodec,
        fitness: float,
    ) -> bool:  # acquires-lock: _lock
        """Remember a solution; persist (and return ``True``) if it improved."""
        key = self.key_for(task, objective)
        with self._lock:
            improved = self._engine.record(key, encoding, codec, float(fitness))
            if improved:
                state = self._engine.to_state()[key]
                self._file.append_record({"task_key": key, **state})
        return improved

    # ------------------------------------------------------------------
    # The M3E ``warm_store=`` hook
    # ------------------------------------------------------------------
    def warm_population(
        self,
        group: JobGroup,
        codec: MappingCodec,
        objective: str,
        count: int = 1,
        rng: SeedLike = None,
    ) -> Optional[np.ndarray]:
        """Seed encodings for a search over *group*, or ``None`` when cold."""
        return self.suggest(group_task_key(group), objective, codec, count=count, rng=rng)

    def observe(
        self,
        group: JobGroup,
        encoding: np.ndarray,
        codec: MappingCodec,
        fitness: float,
        objective: str,
    ) -> bool:
        """Report a finished search's best solution back to the library."""
        return self.record(group_task_key(group), objective, encoding, codec, fitness)
