"""The library's single random-number policy.

Every stochastic component resolves its randomness through
:class:`SeedPolicy`, which implements one documented precedence order
(see ``docs/DETERMINISM.md``):

1. **Explicit per-call seed** — an ``int``, :class:`numpy.random.Generator`,
   :class:`numpy.random.SeedSequence`, or an existing :class:`SeedPolicy`
   passed directly to the consumer (``M3E.search(seed=...)``,
   ``build_optimizer(seed=...)``, ``MappingRequest.seed``).
2. **Session seed** — installed once per process by the CLI's ``--seed``
   flag via :func:`set_global_seed`, or read from the ``REPRO_SEED``
   environment variable.  Each unseeded consumer receives an *independent*
   substream of the session seed, so two unseeded optimizers in one process
   never share a stream.
3. **Unset** — requesting randomness with no seed resolved anywhere is an
   error under pytest (silent nondeterminism in tests is the SimCash bug
   class: a displayed value and a decision computed under different seeds)
   and a once-per-process :class:`RuntimeWarning` elsewhere, falling back to
   OS entropy.

Deterministic *substreams* are derived by name via
:meth:`SeedPolicy.stream`:  ``policy.stream("optimizer/magma")`` keys a
:class:`numpy.random.SeedSequence` spawn off a stable hash of the name, so
adding a new named consumer never perturbs the streams existing consumers
see.  For bases that are already :class:`~numpy.random.Generator` instances
(the legacy "hand me a generator" path) substreams are drawn sequentially
from that generator's bit stream instead — deterministic, but order-
sensitive, exactly as the historical ``spawn_rngs`` behaviour.

Bit-compatibility: for any non-``None`` seed, :func:`ensure_rng` and
:func:`spawn_rngs` produce exactly the generators they always did, so stored
campaign fingerprints and recorded results stay valid.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from typing import List, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError

#: Environment variable supplying the session seed when no explicit seed and
#: no CLI-installed seed is present (precedence level 2).
SEED_ENV_VAR = "REPRO_SEED"

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence, "SeedPolicy"]

#: The session-wide policy installed by the CLI / env var (level 2).
_GLOBAL_POLICY: Optional["SeedPolicy"] = None

#: Warn-once latch for unseeded randomness outside pytest.
_UNSEEDED_WARNED = False


def _under_pytest() -> bool:
    """Whether code is executing inside a pytest test."""
    return "PYTEST_CURRENT_TEST" in os.environ


def _stream_key(name: str) -> int:
    """Stable 32-bit spawn key for a substream name.

    ``SeedSequence`` spawn keys must fit in ``uint32``; hashing the name
    (rather than numbering consumers) is what makes substreams insensitive
    to the order consumers are added in.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class SeedPolicy:
    """A resolved seed plus the machinery to derive named substreams.

    Instances are produced by :meth:`resolve`, which applies the precedence
    order documented in the module docstring.  A policy carries:

    ``resolved_seed``
        The concrete integer session/explicit seed, when one is known
        (``None`` for generator-based and unset policies).  This is what
        result metadata, campaign cells, and service payloads record.
    ``source``
        Where the seed came from: ``"explicit"``, ``"cli"``, ``"env"``, or
        ``"unset"``.
    """

    def __init__(
        self,
        base: "None | int | np.random.Generator | np.random.SeedSequence",
        source: str,
        resolved_seed: Optional[int] = None,
    ) -> None:
        self._base = base
        self.source = source
        self.resolved_seed = resolved_seed
        # Counter behind _anonymous_child(): each unseeded consumer of a
        # session policy gets its own substream, in resolution order.
        self._auto_counter = 0

    # ------------------------------------------------------------------
    # Resolution (the precedence order)
    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, seed: SeedLike = None) -> "SeedPolicy":
        """Apply the precedence order and return the governing policy.

        Explicit seeds win; otherwise the session policy (CLI-installed or
        ``REPRO_SEED``) hands out an independent substream; otherwise the
        policy is *unset* and the first randomness request raises (under
        pytest) or warns once (elsewhere).
        """
        if isinstance(seed, SeedPolicy):
            return seed
        if isinstance(seed, np.random.Generator):
            return cls(seed, "explicit")
        if isinstance(seed, np.random.SeedSequence):
            entropy = seed.entropy if isinstance(seed.entropy, int) else None
            resolved = entropy if not seed.spawn_key else None
            return cls(seed, "explicit", resolved_seed=resolved)
        if seed is not None:
            value = int(seed)
            return cls(value, "explicit", resolved_seed=value)
        session = _session_policy()
        if session is not None:
            return session._anonymous_child()
        return cls(None, "unset")

    def _anonymous_child(self) -> "SeedPolicy":
        """An independent substream policy for one unseeded consumer.

        Children are numbered in resolution order — deterministic for a
        fixed program, while guaranteeing two unseeded consumers never share
        a stream.  The child keeps the session's ``resolved_seed`` so result
        metadata still records the seed that governs the run.
        """
        sequence = self.stream_sequence(f"auto/{self._auto_counter}")
        self._auto_counter += 1
        return SeedPolicy(sequence, self.source, resolved_seed=self.resolved_seed)

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def generator(self) -> np.random.Generator:
        """The policy's root generator.

        Bit-identical to ``numpy.random.default_rng(seed)`` for explicit
        integer seeds (and to the generator itself for generator bases), so
        refactoring a consumer onto a policy never changes its stream.
        """
        base = self._require_base("root generator")
        if isinstance(base, np.random.Generator):
            return base
        return np.random.default_rng(base)

    def stream_sequence(self, name: str) -> np.random.SeedSequence:
        """The :class:`~numpy.random.SeedSequence` of the named substream."""
        base = self._require_base(name)
        if isinstance(base, np.random.Generator):
            # Legacy generator base: draw the child's entropy from the
            # generator's own bit stream (order-sensitive by nature).
            return np.random.SeedSequence(int(base.integers(0, 2**63 - 1)))
        if isinstance(base, np.random.SeedSequence):
            return np.random.SeedSequence(
                entropy=base.entropy,
                spawn_key=tuple(base.spawn_key) + (_stream_key(name),),
            )
        return np.random.SeedSequence(int(base), spawn_key=(_stream_key(name),))

    def stream(self, name: str) -> np.random.Generator:
        """An independent, name-keyed generator (e.g. ``"optimizer/magma"``).

        For integer/SeedSequence bases the same name always yields the same
        stream, and distinct names yield independent streams — adding a new
        consumer never perturbs existing ones.
        """
        return np.random.default_rng(self.stream_sequence(name))

    def stream_seed(self, name: str) -> int:
        """A non-negative 63-bit integer seed for the named substream.

        For handing a derived seed across a process boundary (parallel
        worker bootstrap) without pickling generator state.
        """
        state = self.stream_sequence(name).generate_state(1, np.uint64)[0]
        return int(state >> np.uint64(1))

    # ------------------------------------------------------------------
    def _require_base(self, consumer: str) -> "int | np.random.Generator | np.random.SeedSequence":
        """The entropy base, enforcing the unset-is-error-in-tests rule."""
        if self._base is not None:
            return self._base
        if _under_pytest():
            raise ConfigurationError(
                f"no random seed resolved for {consumer!r}: pass an explicit "
                f"seed, use --seed, or set {SEED_ENV_VAR} — unseeded "
                f"randomness is an error under pytest (docs/DETERMINISM.md)"
            )
        global _UNSEEDED_WARNED
        if not _UNSEEDED_WARNED:
            _UNSEEDED_WARNED = True
            warnings.warn(
                f"no random seed resolved for {consumer!r}; falling back to OS "
                f"entropy (results are not reproducible — pass --seed or set "
                f"{SEED_ENV_VAR})",
                RuntimeWarning,
                stacklevel=3,
            )
        return np.random.SeedSequence()  # repro-lint: disable=RPL103 — deliberate OS-entropy fallback, warned above

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedPolicy(source={self.source!r}, resolved_seed={self.resolved_seed!r})"


# ----------------------------------------------------------------------
# Session policy (precedence level 2)
# ----------------------------------------------------------------------
def set_global_seed(seed: int, source: str = "cli") -> SeedPolicy:
    """Install the session seed (CLI ``--seed`` / ``REPRO_SEED``).

    Every subsequent unseeded consumer resolves to an independent substream
    of this seed.  Returns the installed policy.
    """
    global _GLOBAL_POLICY
    value = int(seed)
    _GLOBAL_POLICY = SeedPolicy(value, source, resolved_seed=value)
    return _GLOBAL_POLICY


def clear_global_seed() -> None:
    """Remove the session policy (test isolation hook)."""
    global _GLOBAL_POLICY
    _GLOBAL_POLICY = None


def global_policy() -> Optional[SeedPolicy]:
    """The installed session policy, if any (does not consult the env var)."""
    return _GLOBAL_POLICY


def _session_policy() -> Optional[SeedPolicy]:
    """The session policy, materialising one from ``REPRO_SEED`` on demand."""
    if _GLOBAL_POLICY is not None:
        return _GLOBAL_POLICY
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    return set_global_seed(value, source="env")


def resolve_seed(explicit: Optional[int] = None, default: Optional[int] = None) -> Optional[int]:
    """The concrete integer seed governing a run, by precedence.

    ``explicit`` wins, then the session seed (installed or ``REPRO_SEED``),
    then ``default``.  Used where an *integer* is needed up front — CLI
    commands and service requests that fingerprint the resolved seed.
    """
    if explicit is not None:
        return int(explicit)
    session = _session_policy()
    if session is not None and session.resolved_seed is not None:
        return session.resolved_seed
    return default


# ----------------------------------------------------------------------
# Legacy-compatible helpers (the whole library funnels through these)
# ----------------------------------------------------------------------
def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Non-``None`` seeds behave exactly as ``numpy.random.default_rng`` (an
    existing generator is returned unchanged); ``None`` resolves through
    :class:`SeedPolicy` — session substream if a session seed is installed,
    error under pytest / warn-once elsewhere otherwise.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedPolicy):
        return seed.generator()
    if seed is None:
        return SeedPolicy.resolve(None).generator()
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn *count* independent generators derived from *seed*.

    The child generators are statistically independent, which lets parallel
    experiment arms (e.g. different optimizers in one figure) avoid sharing a
    random stream while still being reproducible from one top-level seed.
    Non-``None`` seeds keep their historical bit-exact derivation; ``None``
    resolves through :class:`SeedPolicy` first.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, SeedPolicy):
        seed = seed._base if seed._base is not None else None
    if seed is None:
        policy = SeedPolicy.resolve(None)
        seed = policy._require_base("spawn_rngs")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's own bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a fresh integer seed from *rng* (useful for sub-components)."""
    return int(rng.integers(0, 2**31 - 1))
