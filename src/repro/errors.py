"""Typed exception hierarchy: the graceful-degradation contract's surface.

Every failure the runtime can raise to user code derives from
:class:`ReproError`, so callers embedding the library (or the CLI
mapping errors to exit codes) can classify failures without string
matching.  The contract the chaos suite (``tests/test_faults.py``)
enforces for every registered fault point in
:mod:`repro.runtime.faults`:

* either the runtime **recovers bitwise-identically** through a
  documented fallback (native build failure -> python path, corrupt
  ``.so`` cache entry -> rebuild), or
* it raises exactly one :class:`ReproError` subclass **with user
  arrays intact** — untouched, or restored when
  ``ExecutionConfig(transactional=True)`` is set.

Each concrete subclass also inherits the builtin exception type that
earlier releases raised from the same site (``ValueError``,
``RuntimeError``, ``FloatingPointError``), so existing ``except``
clauses keep working unchanged.

>>> from repro.errors import ReproError, ValidationError, KernelError
>>> issubclass(ValidationError, ReproError)
True
>>> issubclass(ValidationError, ValueError)     # backwards compatible
True
>>> issubclass(KernelError, RuntimeError)       # backwards compatible
True
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "KernelError",
    "NativeBuildError",
    "NumericalDivergenceError",
    "CheckpointError",
    "EnsembleBindError",
    "SchedulerError",
    "ServeError",
    "ShardError",
]


class ReproError(Exception):
    """Base of every typed error the repro runtime raises.

    Catching this is always sufficient to handle any runtime failure;
    the subclasses exist so callers can *distinguish* failure classes.
    ``exit_code`` is the process exit status the CLI (and a served error
    reply) reports for the failure family — 0 success and 2 usage are
    argparse's; a subclass overrides it where scripts need to tell the
    family apart (``docs/reliability.md``).
    """

    exit_code = 1


class ValidationError(ReproError, ValueError):
    """An input — kernel spec, source text, configuration — is invalid.

    Raised before any execution state exists, so user arrays are
    trivially untouched.  Covers parser/lexer rejections, stencil
    restriction violations, and the resource caps of
    :func:`repro.core.validate.validate_untrusted`.
    """

    exit_code = 3


class KernelError(ReproError, RuntimeError):
    """Executing (or binding) a kernel failed.

    The generic execution-time failure: shape/dtype mismatches caught
    at run time, a statement raising mid-run, a bound task failing.
    """


class NativeBuildError(KernelError):
    """Generating, compiling, or loading a native library failed.

    Sites that can fall back to the python path treat this as a signal
    to do so (warning once); sites that cannot propagate it.
    """

    exit_code = 4


class NumericalDivergenceError(ReproError, FloatingPointError):
    """The opt-in divergence watchdog saw a non-finite value.

    Raised by ``ExecutionConfig(check="nan")`` runs; carries the step
    index and statement that first produced a NaN/Inf.
    """

    exit_code = 5

    def __init__(
        self,
        message: str,
        *,
        step: int | None = None,
        statement: str | None = None,
    ) -> None:
        super().__init__(message)
        self.step = step
        self.statement = statement


class CheckpointError(KernelError):
    """A checkpointed-adjoint sweep failed mid-schedule.

    The plan's user-facing arrays are never written in place (state is
    copied through the internal snapshot pool), and every sweep starts
    by reloading the initial state — so after this error the *next*
    ``adjoint()`` call on the same plan recovers bitwise-identically.
    """


class EnsembleBindError(KernelError):
    """Binding one ensemble member failed.

    Raised at construction time, before any run: member state arrays
    are read (for validation and view construction) but never written,
    so user data is intact.  Names the failing member index.
    """

    def __init__(self, message: str, *, member: int | None = None) -> None:
        super().__init__(message)
        self.member = member


class SchedulerError(KernelError):
    """A scheduled task batch failed.

    Wraps nothing by itself — the scheduler re-raises the *first*
    task's exception directly (typed errors pass through unchanged) —
    but gives cancellation bookkeeping a typed home when the failure
    itself is untyped.
    """


class ShardError(KernelError):
    """A sharded multi-process run failed in a non-recoverable way.

    Raised when a rank fails a command mid-step — a worker reporting a
    failure or its pipe closing mid-dispatch, or rank 0 failing in the
    caller — states where some ranks may already have advanced, so the
    documented single-shard degradation (which requires a consistent
    pre-step state) cannot apply.  Names the lowest failing rank; the
    plan then refuses further work.
    A worker found dead *before* dispatch degrades instead: the
    ``shard.worker`` fault point's fallback re-executes on a single
    shard, bitwise-identically.
    """

    def __init__(self, message: str, *, rank: int | None = None) -> None:
        super().__init__(message)
        self.rank = rank


class ServeError(ReproError, RuntimeError):
    """The kernel service could not serve a request.

    Raised by :mod:`repro.runtime.server` / ``.client`` for transport
    and service failures that are not spec-validation problems: framing
    violations, shared-memory segments that cannot be attached, dropped
    connections, request timeouts.  Scoped to the single request that
    failed — batchmates sharing a coalesced ensemble run are never
    poisoned, and the client's arrays are never written on failure.
    """
