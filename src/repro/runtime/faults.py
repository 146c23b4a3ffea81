"""Deterministic fault injection for the runtime's hot layers.

The runtime promises a graceful-degradation contract (see
:mod:`repro.errors` and ``docs/reliability.md``): every failure either
recovers bitwise-identically through a documented fallback, or raises
one typed :class:`~repro.errors.ReproError` subclass with user arrays
intact.  A contract nobody exercises is a comment — this module makes
it *testable* by threading named **fault points** through the layers
that talk to the outside world (compiler subprocesses, the ``.so``
disk cache, worker threads, snapshot pools, per-member binds) and
letting tests fire realistic low-level failures *at the site*, so the
surrounding error handling is what gets tested, not a mock of it.

Design constraints, in order:

1. **Zero cost when idle.**  Production code calls
   :func:`check` inside hot loops; when no injector is active this is
   one module-global load and a ``None`` test.  No locks, no dict
   lookups, no environment reads.
2. **Deterministic.**  Scripted injection (``inject("point")``) fires
   on an exact occurrence; randomised chaos
   (:class:`FaultInjector` with ``seed``/``rate``) is seeded, so a
   failing chaos run replays exactly.
3. **Closed registry.**  Every fault point is declared here, in one
   table, with the exception it simulates and the contract clause it
   must satisfy — the chaos suite iterates the registry and *fails* if
   a point has no covering scenario, and ``docs/reliability.md``'s
   fault-point table is checked against it.

>>> from repro.runtime import faults
>>> sorted(p.name for p in faults.registered_fault_points())[:3]
['bound.run', 'checkpoint.snapshot', 'ensemble.bind']
>>> with faults.inject("scheduler.task"):
...     try:
...         faults.check("scheduler.task")
...     except RuntimeError as exc:
...         print("fired:", exc)
fired: injected fault at scheduler.task
>>> faults.check("scheduler.task")   # inactive outside the context: no-op
"""

from __future__ import annotations

import random
import subprocess
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from ..errors import NativeBuildError

__all__ = [
    "FaultPoint",
    "FaultInjector",
    "registered_fault_points",
    "fault_point",
    "check",
    "inject",
    "activate",
    "deactivate",
    "active_injector",
]


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultPoint:
    """One named site where a fault can be injected.

    ``default`` builds the exception a firing injects when the test
    does not supply one — chosen to be exactly what the real world
    would raise at that site (``OSError`` from a failed spawn,
    ``TimeoutExpired`` from a hung compiler, ``MemoryError`` from an
    exhausted pool), so the production ``except`` clauses are the code
    under test.  ``contract`` names the degradation clause the chaos
    suite asserts: ``"fallback"`` (bitwise-identical recovery) or
    ``"typed-error"`` (one ReproError subclass, user arrays intact).
    """

    name: str
    description: str
    contract: str
    default: Callable[[], BaseException]


def _timeout_exc() -> BaseException:
    return subprocess.TimeoutExpired(cmd="cc", timeout=300.0)


_REGISTRY: dict[str, FaultPoint] = {}


def _register(
    name: str,
    description: str,
    contract: str,
    default: Callable[[], BaseException],
) -> None:
    if name in _REGISTRY:  # pragma: no cover - registration is static
        raise ValueError(f"duplicate fault point {name!r}")
    _REGISTRY[name] = FaultPoint(name, description, contract, default)


def _default(message: str, exc_type: type = OSError):
    return lambda: exc_type(f"injected fault at {message}")


_register(
    "native.toolchain",
    "C compiler discovery fails (PATH probe raises OSError)",
    "fallback",
    _default("native.toolchain"),
)
_register(
    "native.cc.spawn",
    "spawning the C compiler subprocess raises a transient OSError",
    "fallback",
    _default("native.cc.spawn"),
)
_register(
    "native.cc.timeout",
    "the C compiler hangs until the subprocess timeout expires",
    "fallback",
    _timeout_exc,
)
_register(
    "native.cache.write",
    "writing a .c/.so cache entry is denied (read-only cache dir)",
    "fallback",
    _default("native.cache.write", PermissionError),
)
_register(
    "native.cache.load",
    "dlopen of a cached .so fails (corrupt or truncated entry)",
    "fallback",
    _default("native.cache.load"),
)
_register(
    "native.omp.probe",
    "the -fopenmp capability probe fails (compiler without OpenMP)",
    "fallback",
    _default("native.omp.probe", NativeBuildError),
)
_register(
    "scheduler.task",
    "a worker task raises mid-batch",
    "typed-error",
    _default("scheduler.task", RuntimeError),
)
_register(
    "checkpoint.snapshot",
    "storing a snapshot exhausts the pool (MemoryError on copy)",
    "typed-error",
    _default("checkpoint.snapshot", MemoryError),
)
_register(
    "ensemble.bind",
    "binding one ensemble member fails (allocation during bind)",
    "typed-error",
    _default("ensemble.bind", MemoryError),
)
_register(
    "bound.run",
    "a bound statement raises mid-run (half the arrays updated)",
    "typed-error",
    _default("bound.run", RuntimeError),
)
_register(
    "server.accept",
    "the daemon drops a freshly accepted connection (transient OSError)",
    "fallback",
    _default("server.accept", ConnectionResetError),
)
_register(
    "server.batch.bind",
    "binding a coalesced request batch to one ensemble fails",
    "fallback",
    _default("server.batch.bind", MemoryError),
)
_register(
    "server.shm.attach",
    "attaching a client's shared-memory state segment fails",
    "typed-error",
    _default("server.shm.attach", FileNotFoundError),
)
_register(
    "shard.exchange",
    "a halo-exchange copy between shard slabs fails mid-step",
    "fallback",
    _default("shard.exchange", OSError),
)
_register(
    "shard.worker",
    "a shard worker process is found dead before dispatch",
    "fallback",
    _default("shard.worker", OSError),
)


def registered_fault_points() -> tuple[FaultPoint, ...]:
    """All fault points, in registration order (the docs-table order)."""
    return tuple(_REGISTRY.values())


def fault_point(name: str) -> FaultPoint:
    """The registered point called *name* (KeyError when unknown)."""
    return _REGISTRY[name]


# -- injector -----------------------------------------------------------------


@dataclass
class _Plan:
    """Scripted firings for one point: skip N occurrences, fire M."""

    skip: int
    times: int
    exc: Callable[[], BaseException]
    fired: int = 0


class FaultInjector:
    """Fires registered fault points, scripted or seeded-random.

    Scripted mode: :meth:`arm` a point with ``skip``/``times`` and an
    optional exception factory; the plan fires on exact occurrences.
    Random mode: construct with ``seed`` and ``rate`` and every
    :func:`check` of every registered point fires its default
    exception with probability ``rate`` — deterministic for a given
    seed and call sequence (single-threaded chaos runs only; scripted
    mode is thread-safe).

    Bookkeeping: :meth:`hits` counts how often execution *reached* a
    point while this injector was active, :meth:`fired` how often it
    actually raised — tests assert ``hits > 0`` to prove the fault
    point sits on the executed path even when nothing fires.
    """

    def __init__(self, *, seed: int | None = None, rate: float = 0.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be within [0, 1], got {rate}")
        self._lock = threading.Lock()
        self._plans: dict[str, _Plan] = {}
        self._hits: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._rate = rate
        self._rng = random.Random(seed)

    def arm(
        self,
        name: str,
        *,
        times: int = 1,
        skip: int = 0,
        exc: BaseException | Callable[[], BaseException] | None = None,
    ) -> None:
        """Script *name* to fire on its next *times* occurrences after *skip*."""
        point = _REGISTRY[name]  # KeyError on unregistered names: a test bug
        if exc is None:
            factory: Callable[[], BaseException] = point.default
        elif isinstance(exc, BaseException):
            factory = lambda: exc  # noqa: E731 - capture the instance
        else:
            factory = exc
        with self._lock:
            self._plans[name] = _Plan(skip=skip, times=times, exc=factory)

    def disarm(self, name: str) -> None:
        with self._lock:
            self._plans.pop(name, None)

    def hits(self, name: str) -> int:
        with self._lock:
            return self._hits.get(name, 0)

    def fired(self, name: str) -> int:
        with self._lock:
            return self._fired.get(name, 0)

    def hit(self, name: str) -> None:
        """Called (via :func:`check`) when execution reaches *name*."""
        if name not in _REGISTRY:  # unregistered check(): a wiring bug
            raise LookupError(f"check() on unregistered fault point {name!r}")
        with self._lock:
            self._hits[name] = self._hits.get(name, 0) + 1
            plan = self._plans.get(name)
            if plan is not None:
                if plan.skip > 0:
                    plan.skip -= 1
                    return
                if plan.fired < plan.times:
                    plan.fired += 1
                    self._fired[name] = self._fired.get(name, 0) + 1
                    raise plan.exc()
                return
            if self._rate and self._rng.random() < self._rate:
                self._fired[name] = self._fired.get(name, 0) + 1
                raise _REGISTRY[name].default()


# -- activation ---------------------------------------------------------------

# The module-global active injector.  `check` reads it without a lock:
# assignment is atomic in CPython, and the only writers are tests
# activating/deactivating around a scenario.
_ACTIVE: FaultInjector | None = None


def check(name: str) -> None:
    """Production hook: fire *name* if an injector is active.

    The inactive path — the only one production traffic ever takes —
    is a global load and a ``None`` test.
    """
    inj = _ACTIVE
    if inj is not None:
        inj.hit(name)


def active_injector() -> FaultInjector | None:
    return _ACTIVE


def activate(injector: FaultInjector) -> FaultInjector:
    """Install *injector* as the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def inject(
    name: str,
    *,
    times: int = 1,
    skip: int = 0,
    exc: BaseException | Callable[[], BaseException] | None = None,
):
    """Scripted injection scope: arm *name*, yield the injector, restore.

    Nests: inside an active injector's scope it arms the existing
    injector and disarms only its own point on exit; at top level it
    installs a fresh injector and deactivates it on exit.
    """
    created = _ACTIVE is None
    inj = _ACTIVE if _ACTIVE is not None else FaultInjector()
    inj.arm(name, times=times, skip=skip, exc=exc)
    if created:
        activate(inj)
    try:
        yield inj
    finally:
        inj.disarm(name)
        if created:
            deactivate()
