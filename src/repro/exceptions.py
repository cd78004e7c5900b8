"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration is inconsistent or invalid."""


class WorkloadError(ReproError):
    """Raised when a workload, model, or job description is malformed."""


class CostModelError(ReproError):
    """Raised when the analytical cost model cannot evaluate a layer."""


class EncodingError(ReproError):
    """Raised when an encoded mapping cannot be decoded or validated."""


class SchedulingError(ReproError):
    """Raised when the bandwidth allocator cannot produce a schedule."""


class OptimizationError(ReproError):
    """Raised when an optimization algorithm is misconfigured or fails."""


class ExperimentError(ReproError):
    """Raised when an experiment configuration references unknown components."""


class ServiceError(ReproError):
    """Raised when the mapping service receives an invalid request or job id."""


class RpcError(ReproError):
    """Raised when the ``tcp://`` store transport fails (auth, framing, server errors)."""


class WorkerDiedError(RpcError):
    """Raised when a store-transport connection dies mid-frame.

    The ``tcp://`` client treats this as a transport failure and retries the
    request once over a fresh connection — unlike a :class:`RpcError` reply,
    which means the server is alive and deliberately reported a failure.
    """
