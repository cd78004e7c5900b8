"""One frozen configuration object for the evaluation engine.

Every layer that runs searches — :class:`~repro.core.framework.M3E`, the
:class:`~repro.core.evaluator.MappingEvaluator`, the campaign engine, the
experiment runners, the mapping service, and the CLI — needs the same four
decisions: which evaluation backend, how many compute lanes, which remote
hosts, which RPC token.

:class:`EvalConfig` carries all four: one frozen, hashable dataclass,
validated once at construction and accepted everywhere as ``eval_config=``.
Because it is frozen, ``EvalConfig()`` is a safe shared default argument.

The canonical backend names also live here (re-exported from
:mod:`repro.core.evaluator` for compatibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError

#: Registered evaluation backends, in oracle-to-fleet order.
EVAL_BACKENDS: Tuple[str, ...] = ("scalar", "batch", "parallel", "rpc")

#: The default backend: the vectorized batch sweep (fast everywhere, no
#: worker processes to manage).
DEFAULT_EVAL_BACKEND = "batch"


@dataclass(frozen=True)
class EvalConfig:
    """How fitness evaluations run: backend, local workers, remote fleet.

    Parameters
    ----------
    backend:
        ``"batch"`` (vectorized population sweep, the default), ``"parallel"``
        (the batch sweep sharded across worker processes), ``"rpc"`` (the
        same sweep sharded across remote worker hosts), or ``"scalar"`` (the
        one-at-a-time reference oracle).  All four are bit-identical.
    workers:
        Compute lanes for the ``parallel`` backend: the coordinator plus
        ``workers - 1`` worker processes, each computing one shard of every
        generation (default: one lane per usable CPU, capped at 8;
        ``workers=1`` evaluates in process).  Rejected for other backends,
        where it would be silently meaningless.
    hosts:
        Remote worker addresses for the ``rpc`` backend — a
        ``"host:port,host:port"`` string or a sequence of ``host:port``
        entries (normalised to a tuple), each running ``repro-magma
        eval-worker``.  Rejected for other backends.  ``None`` with
        ``backend="rpc"`` is the degenerate no-fleet mode: everything
        evaluates locally.
    rpc_token:
        Shared authentication token for the ``rpc`` backend (default: the
        ``REPRO_RPC_TOKEN`` environment variable).
    """

    backend: str = DEFAULT_EVAL_BACKEND
    workers: Optional[int] = None
    hosts: Optional[Tuple[str, ...]] = None
    rpc_token: Optional[str] = field(default=None, repr=False)

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
        if self.hosts is not None or self.rpc_token is not None:
            if self.backend != "rpc":
                raise ConfigurationError(
                    f"eval hosts/rpc_token are only meaningful for the 'rpc' backend, "
                    f"not {self.backend!r}"
                )
        if isinstance(self.hosts, str):
            object.__setattr__(
                self,
                "hosts",
                tuple(part.strip() for part in self.hosts.split(",") if part.strip()),
            )
        elif self.hosts is not None:
            object.__setattr__(self, "hosts", tuple(str(host) for host in self.hosts))
        if self.backend == "rpc":
            # Malformed host lists must fail at configuration time, not on
            # the first evaluated population.  Imported lazily: the rpc
            # module builds on core layers that import this one.
            from repro.core.rpc import parse_hosts

            parse_hosts(self.hosts)


__all__ = [
    "DEFAULT_EVAL_BACKEND",
    "EVAL_BACKENDS",
    "EvalConfig",
]
