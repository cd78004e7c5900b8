"""One frozen configuration object for the evaluation engine.

Every layer that runs searches — :class:`~repro.core.framework.M3E`, the
:class:`~repro.core.evaluator.MappingEvaluator`, the campaign engine, the
experiment runners, the mapping service, and the CLI — needs the same two
decisions: which evaluation backend, and how many compute lanes.

:class:`EvalConfig` carries both: one frozen, hashable dataclass,
validated once at construction and accepted everywhere as ``eval_config=``.
Because it is frozen, ``EvalConfig()`` is a safe shared default argument.

The canonical backend names also live here (re-exported from
:mod:`repro.core.evaluator` for compatibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError

#: Registered evaluation backends, from the oracle to the fastest.
EVAL_BACKENDS: Tuple[str, ...] = ("scalar", "batch", "parallel")

#: The default backend: the vectorized batch sweep (fast everywhere, no
#: worker processes to manage).
DEFAULT_EVAL_BACKEND = "batch"


@dataclass(frozen=True)
class EvalConfig:
    """How fitness evaluations run: backend and compute lanes.

    Parameters
    ----------
    backend:
        ``"batch"`` (vectorized population sweep, the default), ``"parallel"``
        (the batch sweep sharded across worker processes), or ``"scalar"``
        (the one-at-a-time reference oracle).  All three are bit-identical.
    workers:
        Compute lanes for the ``parallel`` backend: the coordinator plus
        ``workers - 1`` worker processes, each computing one shard of every
        generation (default: one lane per usable CPU, capped at 8;
        ``workers=1`` evaluates in process).  Rejected for other backends,
        where it would be silently meaningless.
    """

    backend: str = DEFAULT_EVAL_BACKEND
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in EVAL_BACKENDS:
            raise ConfigurationError(
                f"unknown evaluation backend {self.backend!r}; available: {list(EVAL_BACKENDS)}"
            )
        if self.workers is not None:
            if self.backend != "parallel":
                raise ConfigurationError(
                    f"eval workers are only meaningful for the 'parallel' backend, "
                    f"not {self.backend!r}"
                )
            if int(self.workers) < 1:
                raise ConfigurationError(f"eval workers must be >= 1, got {self.workers}")
            object.__setattr__(self, "workers", int(self.workers))


__all__ = [
    "DEFAULT_EVAL_BACKEND",
    "EVAL_BACKENDS",
    "EvalConfig",
]
