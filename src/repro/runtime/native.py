"""Native execution backend: JIT-built C statement kernels behind ctypes.

PR 1–2 took the Python interpreter path to cached, allocation-free
steady state; the remaining per-timestep cost is NumPy ufunc dispatch
itself.  This module removes it the way PyOP2 does: each compiled
kernel's statements are lowered to C
(:mod:`repro.codegen.native_c`), built once with the system C compiler
into a shared object that is content-addressed on disk (keyed like
``compile_nests``: everything that determines the generated code), and
dispatched through the *same* plan/bind layer — a
:class:`~repro.runtime.bound.BoundPlan` built with
``ExecutionConfig(backend="native")`` binds the identical preallocated
buffers and calls the native entry points per unit.

Execution granularity: every multi-call native sequence is a
:class:`NativeProgram` walked by the one C program runner.  Consecutive
native statements of a task are sealed into one (:func:`chain_runnables`),
so a steady-state serial timestep costs one FFI crossing; a revolve
sweep records its timesteps and buffer copies into one, so the whole
sweep costs one.  ``ctypes`` releases the GIL around calls, so threaded
plans run native tasks genuinely in parallel.

In-kernel threading (``docs/threading.md``): with
``ExecutionConfig(native_threads=N)`` or ``REPRO_NATIVE_THREADS=N`` the
library is built as an OpenMP variant — each nest's outermost loop is
block-partitioned across ``N`` threads
(:func:`~repro.codegen.native_c.nest_threaded`: gather-form writes are
injective, so the partition is race-free without scratch or atomics and
bitwise identical to the serial build by construction).
The ``-fopenmp`` capability is probed once per compiler like the
``-march=native`` probe; a compiler without it falls back to the
serial native library with one warning.  The threaded source text and
flags differ, so the content-addressed ``.so`` cache keys the
threading mode automatically.

Fallback is graceful and total, bitwise-identical at every rung, and
decided in one place: :mod:`repro.runtime.decisions`.

Toolchain discovery: the ``REPRO_CC`` environment variable wins (set it
to a nonexistent path to force the fallback, e.g. in tests); otherwise
the first of ``cc``, ``gcc``, ``clang`` on ``PATH``.  Build flags pin
``-ffp-contract=off`` — fused multiply-adds would break bitwise
identity with NumPy's two-rounding multiply-then-add.

Compiler invocation is hardened against the real world and batched: a
bind builds every object it needs in one :func:`build_objects` call,
which starts one ``cc`` child process per object missing from the disk
cache, at most one per CPU at a time across the process.  Each process
runs under its own deadline (``REPRO_CC_TIMEOUT``, default 300 s — a
hung compiler must not hang the runtime, and is killed with whatever it
started), transient spawn failures and signal-killed compilers are
retried with exponential backoff (:data:`CC_RETRIES` retries from
:data:`CC_BACKOFF` seconds), and an object that still fails degrades
only its own group — or, for the runners object, the library — through
:class:`~repro.errors.NativeBuildError`.  The fault points
``native.toolchain``, ``native.cc.spawn``, ``native.cc.timeout``,
``native.cache.write`` and ``native.cache.load`` (see
:mod:`repro.runtime.faults`) let the chaos suite fire each of these
failures deterministically.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from ..codegen.base import CodegenError
from ..codegen.native_c import (
    COPY_FN_NAME,
    NATIVE_ABI_VERSION,
    PROGRAM_RUNNER_NAME,
    ZERO_FN_NAME,
    generate_fused_source,
    generate_runtime_source,
    native_eligibility,
    native_unit,
    operand_ranks,
)
from ..errors import NativeBuildError

# Mutual import, resolved at call time on both sides (see decisions.py).
from . import decisions, faults
from .cache import native_cache_dir

__all__ = [
    "native_toolchain",
    "native_available",
    "native_thread_count",
    "NativeBuildError",
    "NativeLibrary",
    "library_for_kernel",
    "library_verdict",
    "NativeStatement",
    "NativeProgram",
    "native_gate",
    "make_native_statement",
    "make_fused_statement",
    "Batch",
    "build_objects",
    "MAX_LITERAL_NESTS",
    "build_refusal",
    "chain_runnables",
]

_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
# Added for fused nests where the compiler takes it (_host_cflags); the
# one flag whose meaning depends on the machine, so builds using it are
# keyed by the host's ISA as well (_build_key).
_HOST_FLAG = "-march=native"

_I64 = ctypes.c_int64
_I64P = ctypes.POINTER(_I64)

# NativeBuildError used to be defined here; it now lives in
# repro.errors as part of the typed hierarchy (ReproError ->
# KernelError -> NativeBuildError) and stays re-exported via __all__.


# -- toolchain ----------------------------------------------------------------

_toolchain_lock = threading.Lock()
_toolchain_memo: dict[str | None, str | None] = {}
_flight_guard = threading.Lock()
_flights: dict[tuple, threading.Lock] = {}


def _flight(*key) -> threading.Lock:
    """The lock making check → compute → publish for *key* single-flight.

    Bind threads (server and ensemble workers) race first uses of one
    compiler; under the key's lock the second finds the first one's
    result.  Per key, so unrelated probes stay parallel.  (Builds are
    single-flight through :func:`build_objects`' in-flight table.)
    """
    with _flight_guard:
        return _flights.setdefault(key, threading.Lock())


def _once(memo: dict, key, compute):
    """``memo[key]``, computed single-flight on first use."""
    if key not in memo:  # warm lookups (every build key) take no lock
        with _flight(id(memo), key):
            if key not in memo:
                memo[key] = compute()
    return memo[key]


def native_toolchain() -> str | None:
    """Path of the C compiler to use, or None when none is usable.

    ``REPRO_CC`` overrides discovery entirely: when set, its value must
    name an existing executable (absolute path or on ``PATH``) or the
    toolchain is reported missing — no silent fallback, so tests and
    deployments can pin or disable the compiler deterministically.

    >>> from repro.runtime import native_toolchain
    >>> cc = native_toolchain()
    >>> cc is None or isinstance(cc, str)   # a path, or None without a cc
    True
    """
    env = os.environ.get("REPRO_CC")
    with _toolchain_lock:
        if env in _toolchain_memo:
            return _toolchain_memo[env]
        try:
            faults.check("native.toolchain")
            if env is not None:
                found = shutil.which(env)
            else:
                found = next(
                    (w for c in ("cc", "gcc", "clang") if (w := shutil.which(c))),
                    None,
                )
        except OSError:
            # Discovery itself failed (an unreadable PATH entry can make
            # which() raise).  Report the toolchain missing — callers
            # fall back to the python path — but do NOT memoise: a
            # transient failure should not pin the fallback forever.
            return None
        _toolchain_memo[env] = found
        return found


def native_available() -> bool:
    """True when the native backend can compile on this machine.

    >>> from repro.runtime import native_available
    >>> isinstance(native_available(), bool)
    True
    """
    return native_toolchain() is not None


_compiler_id_memo: dict[str, str] = {}


def _compiler_id(cc: str) -> str:
    """Version line identifying the compiler (part of the cache key).

    Memoised per compiler path: this runs on every cache-key
    computation, including pure disk-cache hits, and a subprocess per
    lookup would dominate bind time for many small cached kernels.
    """

    def probe() -> str:
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            ).stdout
        except (OSError, subprocess.SubprocessError):
            out = ""
        return out.splitlines()[0] if out else cc

    return _once(_compiler_id_memo, cc, probe)


# -- compiler limits: timeout, bounded retry, backoff -------------------------


def _env_limit(name: str, default: float, minimum: float = 0.0) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value >= minimum else default


# Extra attempts after a *transient* compiler failure, and the first
# sleep between attempts in seconds (doubled each retry).
CC_RETRIES = 2
CC_BACKOFF = 0.05


def _cc_limits() -> tuple[float, int, float]:
    """(timeout seconds, retries, initial backoff seconds) for cc runs.

    The timeout is the one environment knob, for slow build machines:
    ``REPRO_CC_TIMEOUT`` seconds before a compile is declared hung
    (default 300; an invalid value falls back to the default rather
    than erroring — a misconfigured knob must not take the build path
    down).  Retries and backoff are :data:`CC_RETRIES` and
    :data:`CC_BACKOFF`.
    """
    return _env_limit("REPRO_CC_TIMEOUT", 300.0), CC_RETRIES, CC_BACKOFF


# -- the build: one batch of cc child processes ---------------------------------

_lib_lock = threading.Lock()
_lib_memo: dict[str, ctypes.CDLL] = {}


def _build_key(source: str, cc: str, flags: tuple[str, ...] = _CFLAGS) -> str:
    parts = [
        f"abi={NATIVE_ABI_VERSION}",
        f"cc={_compiler_id(cc)}",
        f"flags={' '.join(flags)}",
    ]
    if _HOST_FLAG in flags:
        # The flag's text is the same on every machine; the code it
        # selects is not.  Baseline builds keep their host-free key.
        parts.append(f"host={_host_isa()}")
    return hashlib.sha256("\n".join([*parts, source]).encode()).hexdigest()


class _Flight:
    """One object a batch is compiling: other batches wanting it wait on
    ``done`` and take its ``error`` (None: the object is on disk)."""

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: Exception | None = None


# The .so path of every object some batch is compiling (under _flight_guard).
_inflight: dict[Path, _Flight] = {}

# cc child processes running at once, over every batch of the process.
_cc_slots = threading.Semaphore(len(os.sched_getaffinity(0)))


class _Compile:
    """One source a batch compiles: its cc child process and retry count."""

    __slots__ = (
        "cmd", "c_path", "tmp_so", "so_path", "flight",
        "proc", "stderr", "deadline", "attempt", "error",
    )

    def __init__(self, so_path: Path, flight: _Flight) -> None:
        self.so_path, self.flight = so_path, flight
        self.cmd: list[str] = []
        self.c_path = self.tmp_so = self.proc = self.stderr = self.deadline = None
        self.attempt = 0
        self.error: Exception | None = None

    def close(self) -> None:
        if self.stderr is not None:
            self.stderr.close()
            self.stderr = None

    def kill(self) -> None:
        """Kill the compiler and everything it started (its own session)."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:  # exited meanwhile
                pass
            self.proc.wait()
        self.close()


def _stage(c: _Compile, source: str, cc: str, flags, cache: Path) -> bool:
    """Write *c*'s source into the cache and reserve its temporary object."""
    try:
        faults.check("native.cache.write")
        cache.mkdir(parents=True, exist_ok=True)
        c.c_path = cache / f"{c.so_path.stem}.c"
        if not c.c_path.exists():
            tmp_c = tempfile.NamedTemporaryFile(
                "w", dir=cache, suffix=".c.tmp", delete=False
            )
            with tmp_c as fh:
                fh.write(source)
            os.chmod(tmp_c.name, 0o644)
            os.replace(tmp_c.name, c.c_path)
        tmp_fd, c.tmp_so = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
        os.close(tmp_fd)
    except OSError as exc:
        # Unwritable cache dir (read-only volume, permissions): a cache
        # problem must degrade like a build problem, not crash the run.
        c.error = NativeBuildError(f"cannot write native cache at {cache}: {exc}")
        c.error.__cause__ = exc
        return False
    c.cmd = [cc, *flags, "-o", c.tmp_so, str(c.c_path), "-lm"]
    return True


def _launch(c: _Compile, timeout: float, retries: int, backoff: float) -> bool:
    """Start *c*'s compiler; False when it cannot run (``c.error`` says why).

    The failure taxonomy, from field experience with JIT caches:

    * **Timeout** (a hung compiler, see :func:`_reap`): no retry — a
      hung compiler hangs again, and the deadline is already blown.
    * **Transient** (``OSError``/``SubprocessError`` from the spawn,
      or the compiler killed by a signal — negative returncode, e.g.
      the OOM killer or a crashing wrapper script): retried up to
      :data:`CC_RETRIES` times with exponential backoff.
    * **Deterministic** (nonzero exit status): the source does not
      compile; retrying cannot help.  The diagnostics go into the
      :class:`~repro.errors.NativeBuildError`.

    Each compiler runs in a session of its own, so a hung one is killed
    with whatever it started; its stderr goes to an unlinked temporary
    file, so no pipe can fill while the batch waits on a sibling.
    """
    while True:
        try:
            faults.check("native.cc.timeout")
            faults.check("native.cc.spawn")
            c.stderr = tempfile.TemporaryFile()
            c.proc = subprocess.Popen(
                c.cmd,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=c.stderr,
                start_new_session=True,
            )
        except subprocess.TimeoutExpired as exc:
            c.error = _timed_out(c, timeout)
            c.error.__cause__ = exc
            return False
        except (OSError, subprocess.SubprocessError) as exc:
            c.close()
            if c.attempt < retries:
                time.sleep(backoff * (2.0**c.attempt))
                c.attempt += 1
                continue
            c.error = NativeBuildError(
                f"invoking {c.cmd[0]} failed after {c.attempt + 1} "
                f"attempt(s): {exc}"
            )
            c.error.__cause__ = exc
            return False
        c.deadline = time.monotonic() + timeout if timeout else None
        return True


def _timed_out(c: _Compile, timeout: float) -> NativeBuildError:
    return NativeBuildError(
        f"{c.cmd[0]} timed out after {timeout:g}s building {c.c_path} "
        f"(set REPRO_CC_TIMEOUT to adjust)"
    )


def _reap(c: _Compile, timeout: float, retries: int, backoff: float) -> bool:
    """Wait for *c*'s compiler under its own deadline and move the object
    into place; True when a signal-killed compiler was started again."""
    wait = None if c.deadline is None else max(0.0, c.deadline - time.monotonic())
    try:
        code = c.proc.wait(wait)
    except subprocess.TimeoutExpired:
        c.kill()
        c.error = _timed_out(c, timeout)
        return False
    if code < 0 and c.attempt < retries:
        # Killed by a signal: transient (OOM kill, crashed wrapper).
        c.close()
        time.sleep(backoff * (2.0**c.attempt))
        c.attempt += 1
        return _launch(c, timeout, retries, backoff)
    if code != 0:
        c.stderr.seek(0)
        diagnostics = c.stderr.read().decode(errors="replace")
        c.error = NativeBuildError(
            f"{c.cmd[0]} failed (exit {code}) on {c.c_path}:\n{diagnostics}"
        )
    else:
        try:
            os.chmod(c.tmp_so, 0o755)
            os.replace(c.tmp_so, c.so_path)
        except OSError as exc:
            c.error = NativeBuildError(
                f"cannot finalise native cache entry {c.so_path}: {exc}"
            )
    c.close()
    return False


def build_objects(
    jobs: Iterable[tuple[str, str, tuple[str, ...]]], *, heal: bool = True
) -> list:
    """Build and load every ``(source, cc, flags)`` of *jobs* as one batch.

    Returns, per job in order, ``(cdll, so_path)`` or the exception
    (:class:`~repro.errors.NativeBuildError`, ``OSError``) that refused
    it: a failure stays with its own object.

    Content-addressed: a source whose object is in the disk cache starts
    no compiler, so a warm batch is a hash and a ``dlopen`` per job.
    Every other source starts one ``cc`` child process as soon as it is
    drawn from *jobs* — consumed lazily, so a caller printing sources in
    a generator overlaps its printing with the compiles already running
    — with at most one process per CPU running at once across the
    process (:func:`os.sched_getaffinity`; a batch needing a slot while
    all are taken reaps its own oldest compile first).  Each process is
    then waited for under its own ``REPRO_CC_TIMEOUT`` deadline with
    :func:`_launch`'s retry ladder, and the fault points fire in this
    thread, in job order.  Single-flight: a job whose object another
    batch is compiling waits for that batch's outcome — after this
    batch's own processes are done, so no batch holds anything while
    it waits.  Compiles target a temporary ``.so.tmp`` atomically renamed
    into place (a concurrent *process* sees nothing or a complete object;
    racing processes write identical bytes), opened up to the usual read
    bits (``mkstemp`` creates mode 0600, which would break a cache shared
    between users).  *jobs* must not start a batch of its own.

    A truncated or garbage ``.so`` at a content-keyed path — left by a
    crashed writer, or by disk corruption — makes ``dlopen`` raise
    ``OSError`` on a pure cache hit; with *heal* the entry is deleted
    and rebuilt once, which is always safe for content-addressed files.
    """
    cache = native_cache_dir()
    limits = _cc_limits()
    wanted: list[tuple[tuple, Path, _Flight | None]] = []
    owned: list[_Compile] = []
    running: list[_Compile] = []

    def reap_oldest() -> None:
        if _reap(running[0], *limits):
            running.append(running.pop(0))
        else:
            running.pop(0)
            _cc_slots.release()

    try:
        for job in jobs:
            source, cc, flags = job
            so_path = cache / f"{_build_key(source, cc, flags)}.so"
            with _flight_guard:
                flight = _inflight.get(so_path)
                fresh = flight is None and not so_path.exists()
                if fresh:
                    flight = _inflight[so_path] = _Flight()
            wanted.append((job, so_path, flight))
            if not fresh:
                continue
            c = _Compile(so_path, flight)
            owned.append(c)
            if not _stage(c, source, cc, flags, cache):
                continue
            while not _cc_slots.acquire(blocking=not running):
                reap_oldest()
            started = False
            try:
                started = _launch(c, *limits)
            finally:
                if started:
                    running.append(c)
                else:
                    _cc_slots.release()
        while running:
            reap_oldest()
    finally:
        for c in running:  # interrupted: nothing may outlive the batch
            c.kill()
            _cc_slots.release()
        for c in owned:
            if c.error is None and not c.so_path.exists():
                c.error = NativeBuildError(f"build of {c.c_path} was interrupted")
            if c.error is not None and c.tmp_so is not None:
                _unlink_quiet(c.tmp_so)
            c.flight.error = c.error
            with _flight_guard:
                del _inflight[c.so_path]
            c.flight.done.set()
    out: list = []
    rebuild: list[int] = []
    for job, so_path, flight in wanted:
        if flight is not None:
            flight.done.wait()
            if flight.error is not None:
                out.append(flight.error)
                continue
        try:
            out.append((_load_library(so_path), so_path))
        except OSError as exc:
            out.append(exc)
            if heal:
                with _lib_lock:
                    _lib_memo.pop(str(so_path), None)
                _unlink_quiet(so_path)
                rebuild.append(len(out) - 1)
    if rebuild:
        again = build_objects([wanted[i][0] for i in rebuild], heal=False)
        for i, result in zip(rebuild, again):
            out[i] = result
    return out


def _unlink_quiet(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _load_library(so_path: Path) -> ctypes.CDLL:
    key = str(so_path)
    with _lib_lock:
        lib = _lib_memo.get(key)
        if lib is None:
            faults.check("native.cache.load")
            lib = _lib_memo[key] = ctypes.CDLL(key)
        return lib


# -- host-targeted flags for fused builds -------------------------------------

_host_flags_memo: dict[str, tuple[str, ...]] = {}
_host_isa_memo: dict[str, str] = {}


def _host_isa() -> str:
    """Identity of the instruction set ``-march=native`` resolves to here.

    Part of the cache key of every host-targeted build: hosts with
    different ISAs can share one cache directory (a restored CI cache,
    an NFS home), and an object built for the wider one is a ``SIGILL``
    on the other, not a fallback.  Read without a subprocess — the
    kernel's feature line where there is one, else the platform's own
    description — and memoised like :func:`_compiler_id`; empty when
    neither can be read.
    """

    def probe() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith(("flags", "Features")):
                        return line.partition(":")[2].strip()
        except OSError:
            pass
        return f"{platform.machine()} {platform.processor()}".strip()

    return _once(_host_isa_memo, "host", probe)


def _host_cflags(cc: str) -> tuple[str, ...]:
    """Extra codegen flags targeting the build host, probed once per cc.

    Fused nests bake their geometry per binding, so they can afford
    host-specific code generation: ``-march=native`` lets the compiler
    vectorise the merged loops with the widest units available.  This
    preserves the bitwise contract — with ``-ffp-contract=off`` every
    SIMD lane performs the same IEEE-754 add/mul/div/sqrt the scalar
    code would, libm calls stay scalar (no ``-ffast-math``), and the
    fuzz suite asserts identity empirically.  Probed with a one-line
    compile because some toolchains/targets reject the flag; on failure
    — or on a host whose ISA cannot be identified for the cache key
    (:func:`_host_isa`) — fused builds silently use the baseline flags.
    """

    def probe() -> tuple[str, ...]:
        flags = (_HOST_FLAG,)
        if not _host_isa():
            return ()
        (built,) = build_objects(
            [("int repro_march_probe(void) { return 0; }\n", cc, _CFLAGS + flags)]
        )
        return () if isinstance(built, Exception) else flags

    return _once(_host_flags_memo, cc, probe)


# -- OpenMP capability and thread-count resolution ----------------------------

_OMP_PROBE_SOURCE = (
    "#include <omp.h>\n"
    "int repro_omp_probe(void) {\n"
    "  int n = 0;\n"
    "#pragma omp parallel num_threads(2)\n"
    "  { n = omp_get_num_threads(); }\n"
    "  return n;\n"
    "}\n"
)

_omp_flags_memo: dict[str, tuple[str, ...] | None] = {}


def _omp_cflags(cc: str) -> tuple[str, ...] | None:
    """OpenMP build flags for *cc*, probed once; None when unsupported.

    Same shape as the ``-march=native`` probe: compile a small OpenMP
    translation unit once per compiler and memoise the verdict.  Some
    toolchains (pared-down clang, tcc) accept no ``-fopenmp`` or lack
    ``libgomp``; for them threaded requests degrade to the serial
    native library — bitwise identical, one warning.  The
    ``native.omp.probe`` fault point lets the chaos suite force that
    degradation deterministically.
    """

    def probe() -> tuple[str, ...] | None:
        flags = ("-fopenmp",)
        try:
            faults.check("native.omp.probe")
        except NativeBuildError:
            return None
        (built,) = build_objects([(_OMP_PROBE_SOURCE, cc, _CFLAGS + flags)])
        return None if isinstance(built, Exception) else flags

    return _once(_omp_flags_memo, cc, probe)


def native_thread_count(config) -> int:
    """Resolved OpenMP thread count for a native binding of *config*.

    The ``threads`` field of the mode gate
    (:func:`repro.runtime.decisions.lowering_mode`) before any library
    verdict.  Precedence: ``ExecutionConfig(native_threads=…)``, then
    ``REPRO_NATIVE_THREADS`` (read at bind time), then 1; invalid values
    resolve to 1 — a misconfigured knob must not take the run down.
    The divergence watchdog resolves to serial regardless.  It is the
    native backend's only thread knob: ``num_threads > 1`` is the
    python backend's and ``ExecutionConfig`` refuses it on
    ``backend="native"``.

    >>> from repro.runtime import ExecutionConfig, native_thread_count
    >>> native_thread_count(ExecutionConfig(backend="native", native_threads=4))
    4
    >>> native_thread_count(                # the watchdog checks per statement
    ...     ExecutionConfig(backend="native", check="nan", native_threads=4))
    1
    """
    return decisions.lowering_mode(config).threads


# -- per-kernel native library ------------------------------------------------


class NativeLibrary:
    """The loaded native functions of one compiled kernel.

    The program runner and the two memory statements come from the one
    kernel-independent runners object
    (:func:`~repro.codegen.native_c.generate_runtime_source`), built and
    loaded in the batch of the first bind that uses the library
    (:class:`Batch`), or by :meth:`runners`.  The per-statement entry
    points (keyed by region identity and statement index) live in the
    kernel's own translation unit, printed single-flight and built in
    the batch of the first bind with a statement that needs one, or on
    the first :meth:`stmt_fn` that does: a kernel whose statements all
    run as literal nests never prints or compiles it.  Which statements
    have an entry is known before that, from
    :func:`~repro.codegen.native_c.native_eligibility`.  Constructed
    once per kernel via :func:`library_for_kernel` and shared by every
    plan/binding of that kernel; it holds the kernel's regions, not the
    kernel.
    """

    def __init__(
        self, kernel, cc: str, flags: tuple[str, ...], nthreads: int = 1
    ):
        self.nthreads = nthreads
        self.cc = cc
        self._region_index = {id(r): ri for ri, r in enumerate(kernel.regions)}
        dim = len(kernel.counters)
        self._eligible = frozenset(
            (ri, si)
            for ri, region in enumerate(kernel.regions)
            for si, stmt in enumerate(region.statements)
            if native_eligibility(stmt, dim, region.dtype) is None
        )
        # What the unit is printed from, then its build job and manifest;
        # both dropped once built.
        self._unit = (kernel.name, kernel.regions, kernel.counters, cc, flags)
        self._printed: tuple | None = None
        self._lock = threading.Lock()
        self._fns: dict[tuple[int, int], ctypes._CFuncPtr] | None = None
        self._refused: dict[tuple[int, int], str] = {}
        self._so_path: Path | None = None
        self._failure: str | None = None
        # The runners' entries; run_program is set last, once all are.
        self.copy_fn = self.zero_fn = self.run_program = None

    @property
    def statement_count(self) -> int:
        return len(self._eligible)

    @property
    def so_path(self) -> Path:
        """The per-statement object, built on first access."""
        self._entries()
        return self._so_path

    def runners(self) -> None:
        """Load the runners object unless a bind's batch did (a batch of
        it alone); :class:`~repro.errors.NativeBuildError` when it
        cannot be built."""
        if self.run_program is None:
            batch = Batch()
            batch.build([batch.runners(self)])
            if batch.runners_failure is not None:
                raise NativeBuildError(str(batch.runners_failure))

    def _take_runners(self, cdll: ctypes.CDLL) -> None:
        self.copy_fn = _stmt_fn(cdll, COPY_FN_NAME)
        self.zero_fn = _stmt_fn(cdll, ZERO_FN_NAME)
        run = getattr(cdll, PROGRAM_RUNNER_NAME)
        run.restype = None
        # n, idx, then the fns, ptrss and geoms blocks
        run.argtypes = (_I64, *(ctypes.c_void_p,) * 4)
        self.run_program = run

    def _unit_job(self) -> tuple | None:
        """The per-statement unit's build job, printed once per library;
        None once the unit loaded or failed."""
        with self._lock:
            if self._fns is not None or self._failure is not None:
                return None
            if self._printed is None:
                name, regions, counters, cc, flags = self._unit
                source, manifest, self._refused = native_unit(
                    name, regions, counters, self.nthreads
                )
                self._printed = (source, cc, flags), manifest
            return self._printed[0]

    def _take_unit(self, result) -> None:
        with self._lock:
            if self._fns is not None or self._failure is not None:
                return
            if isinstance(result, Exception):
                # OSError: an entry still unloadable after the batch's
                # one-shot self-heal rebuild.
                self._failure = str(result)
                return
            cdll, self._so_path = result
            self._fns = {
                key: _stmt_fn(cdll, fn_name)
                for key, fn_name in self._printed[1].items()
            }
            self._unit = self._printed = None

    def _entries(self) -> dict:
        """The per-statement entries, building the unit (a batch of it
        alone) unless a bind's batch did.

        Single-flight per library; a failure is kept and raised again
        as :class:`~repro.errors.NativeBuildError` on every later use.
        """
        if self._fns is None:
            batch = Batch()
            batch.build([batch.unit(self)])
        if self._fns is None:
            raise NativeBuildError(self._failure)
        return self._fns

    def has_entry(self, region, si: int) -> bool:
        """Whether statement *si* of *region* is lowered (no build)."""
        return (self._region_index.get(id(region)), si) in self._eligible

    def stmt_fn(self, region, si: int):
        """The native entry for statement *si* of *region*, or None.

        Builds the per-statement unit on first use and raises
        :class:`~repro.errors.NativeBuildError` when it cannot be built,
        :class:`~repro.codegen.base.CodegenError` with the printer's
        reason when it left this statement out.
        """
        if not self.has_entry(region, si):
            return None
        key = (self._region_index[id(region)], si)
        fn = self._entries().get(key)
        if fn is None:
            raise CodegenError(self._refused[key])
        return fn


def _stmt_fn(cdll: ctypes.CDLL, name: str):
    """The entry *name* of *cdll*, typed with the per-statement ABI."""
    fn = getattr(cdll, name)
    fn.restype = None
    fn.argtypes = (ctypes.POINTER(ctypes.c_void_p), _I64P)
    return fn


def build_refusal(name: str, nthreads: int, exc) -> tuple[str, str]:
    """``(warn-once key, reason)`` for a failed build of kernel *name*'s
    library (``nthreads > 1``: the threaded variant, one rung above the
    serial native path; else the serial one, above python)."""
    if nthreads > 1:
        key, what = "mt-build-failed", "threaded native build"
        rung = "serial native path — results are identical"
    else:
        key, what = "build-failed", "native build"
        rung = "python backend — results are identical, only slower"
    return (
        f"{key}:{name}",
        f"{what} of kernel {name!r} failed (cache: {native_cache_dir()}); "
        f"falling back to the {rung}: {exc}",
    )


def library_verdict(kernel, nthreads: int = 1, failure: Exception | None = None):
    """``(library | None, Verdict)`` — the library rung of the ladder.

    Compiles nothing: ``native`` means a toolchain (and, threaded,
    OpenMP) is there.  The runners object is built by the first bind's
    batch (:class:`Batch`); when it fails there, the bind calls again
    with *failure* and gets the refusal a failed library build earns,
    memoised in place of the library.  The kernel's per-statement unit
    is printed and built only for statements bound to it, and a failure
    there degrades only them (:class:`~repro.runtime.decisions.Ladder`).
    Memoised on the kernel per thread count with the toolchain used, so
    a memo hit reports the reason the first verdict did and a toolchain
    change (tests pinning ``REPRO_CC``) revalidates.  Each refusal
    warns once per process.  ``nthreads > 1`` requests the OpenMP
    variant and degrades one rung at a time: no OpenMP or a failed
    threaded build → the *serial native* library; only a missing
    toolchain or failed serial build → python.
    """
    cc = native_toolchain()
    nthreads = max(nthreads, 1)
    memo = kernel._native  # one read: CompiledKernel.release may race
    if memo is None or kernel._native_cc != cc:
        memo = {}
        kernel._native_cc, kernel._native = cc, memo
    known = memo.get(nthreads)
    if known is not None and (failure is None or known[0] is None):
        return known
    lib: NativeLibrary | None = None
    refusal: tuple[str, str] | None = None  # (warn-once key, reason)
    omp: tuple[str, ...] | None = ()
    if nthreads > 1:
        # The serial rung owns the no-toolchain warning and verdict.
        omp = None if cc is None else _omp_cflags(cc)
    if omp is None:
        if cc is not None:
            refusal = (
                f"no-openmp:{cc}",
                f"native_threads={nthreads} requested but {cc} cannot "
                f"build OpenMP code (the -fopenmp probe failed); falling "
                f"back to the serial native path — results are identical",
            )
    elif cc is None:
        refusal = (
            "no-toolchain",
            "backend='native' requested but no C compiler was found "
            "(checked REPRO_CC, cc, gcc, clang); falling back to the "
            "python backend — results are identical, only slower",
        )
    elif failure is None:
        lib = NativeLibrary(kernel, cc, _CFLAGS + omp, nthreads)
    else:
        refusal = build_refusal(kernel.name, nthreads, failure)
    verdict = decisions.Verdict("library", "native")
    if lib is None:
        rung = "serial native" if nthreads > 1 else "python"
        if refusal is not None:
            verdict = decisions.degraded(
                "library", rung, refusal[1], key=refusal[0]
            )
        if nthreads > 1:
            lib, serial = library_verdict(kernel, 1, failure)
            if lib is None or refusal is None:
                verdict = serial
    memo[nthreads] = lib, verdict
    return lib, verdict


def library_for_kernel(kernel, nthreads: int = 1) -> NativeLibrary | None:
    """The library half of :func:`library_verdict` (None on fallback)."""
    return library_verdict(kernel, nthreads)[0]


# -- bound native statements and chains ---------------------------------------


class NativeStatement:
    """One statement of one work unit, bound to native code.

    The counterpart of :class:`~repro.runtime.bound._BoundStatement`:
    everything — data pointers, box bounds, element strides — is packed
    into ctypes buffers once at bind time; :meth:`run` is a single
    foreign call.  Holds references to the bound arrays so the pointers
    stay valid for the binding's lifetime.
    """

    __slots__ = ("fn", "ptrs", "geom", "arrays")

    def __init__(self, fn, ptrs, geom, arrays) -> None:
        self.fn = fn
        self.ptrs = ptrs
        self.geom = geom
        self.arrays = arrays  # keepalive: pointers reference their data

    @property
    def tview(self) -> np.ndarray:
        """The array this statement writes (the divergence watchdog's scan)."""
        return self.arrays[0]

    def run(self) -> None:
        self.fn(self.ptrs, self.geom)


def native_gate(lib: NativeLibrary, region, si: int, stmt, arrays, eff) -> str | None:
    """Why statement *si* of *region* cannot bind natively to *arrays*,
    or None: no library entry (ineligible at lowering time) or *arrays*
    failing :func:`~repro.runtime.decisions.array_gate`.  Builds nothing.
    Lowering gated same-*name* self-reads; arrays aliasing the target
    under a *different* name are only discoverable at the gate.
    """
    if not lib.has_entry(region, si):
        return "not lowered to C"
    return decisions.array_gate(
        [(acc, eff) for acc in (stmt.target, *stmt.reads)], arrays,
        region.dtype, {stmt.target.name},
    )


def _pack(fn, names, arrays, geom=(0,)) -> NativeStatement:
    """*fn* bound to one data pointer per name of *names* and the
    ``geom`` block (unread by a fused group's literal nest)."""
    arrs = tuple(arrays[name] for name in names)
    ptrs = (ctypes.c_void_p * len(arrs))(*(a.ctypes.data for a in arrs))
    return NativeStatement(fn, ptrs, (_I64 * len(geom))(*geom), arrs)


def make_native_statement(fn, stmt, arrays, eff) -> NativeStatement:
    """Bind a statement that passed :func:`native_gate` to its entry
    *fn* (:meth:`NativeLibrary.stmt_fn`): one pointer per distinct
    array, then ``geom`` = the box's bounds and each array's element
    strides, in :func:`~repro.codegen.native_c.operand_ranks` order."""
    ranks = operand_ranks([stmt])
    geom = [bound for lo_hi in eff for bound in lo_hi]
    for name, rank in ranks.items():
        arr = arrays[name]
        geom.extend(s // arr.itemsize for s in arr.strides[:rank])
    return _pack(fn, ranks, arrays, geom)


# Literal nests memoised per kernel (least recently used evicted): one
# per fusion group or statement and distinct geometry, so a kernel bound
# at many sizes cannot grow its memo without bound.
MAX_LITERAL_NESTS = 64

_fused_lock = threading.Lock()


def _literal_key(kernel, entries, arrays, nthreads: int = 1):
    """``(key, None)``: what the literal nest of *entries* on *arrays* is
    memoised under on the kernel — or ``(None, reason)`` when the arrays
    fail its :func:`~repro.runtime.decisions.array_gate` (or there is no
    toolchain).  Builds nothing but the per-compiler flag probes.

    The generated source depends on *arrays* only through their strides
    (addresses enter through the per-binding pointer block), and a
    one-statement nest's axis-0 bounds enter through its ``geom`` block,
    so the key is (group, boxes without a singleton's axis 0, strides,
    thread count, compiler, flags): the rotation parities of a
    checkpointed plan, the members of an ensemble and the ranks of a
    sharded plan share one.  ``nthreads > 1`` requests an OpenMP nest
    (applied only where :func:`repro.core.fusion.parallel_safe_group`
    allows; a compiler without OpenMP quietly keys the serial nest).
    The key holds ``id`` of each statement, so it is only meaningful
    while something holds *entries*: the memo entry does.
    """
    cc = native_toolchain()
    if cc is None:
        return None, "no C toolchain"
    uses = [
        (acc, entry.box)
        for entry in entries
        for acc in (entry.stmt.target, *entry.stmt.reads)
    ]
    why = decisions.array_gate(
        uses, arrays, entries[0].dtype, {e.stmt.target.name for e in entries}
    )
    if why is not None:
        return None, why
    flags = _CFLAGS + _host_cflags(cc)
    if nthreads > 1:
        omp = _omp_cflags(cc)
        if omp is None:
            nthreads = 1
        else:
            flags += omp
    names = dict.fromkeys(acc.name for acc, _box in uses)
    single = len(entries) == 1
    key = (
        tuple(
            (id(entry.stmt), entry.box[1:] if single else entry.box)
            for entry in entries
        ),
        tuple(arrays[name].strides for name in names),
        nthreads, cc, flags,
    )
    return key, None


class Batch:
    """The objects one bind builds together, and where each result goes.

    :meth:`runners`, :meth:`unit` and :meth:`literal` return a build job
    — printing its source — or None when there is nothing to build, and
    note where the job's result goes; :meth:`build` runs the jobs as one
    :func:`build_objects` batch.  It draws them lazily, so a generator
    of these calls starts each compile as soon as its source is printed.
    Literal nests land in :attr:`built` and the kernel's memo (the
    :data:`MAX_LITERAL_NESTS` most recently used), or in :attr:`failed`;
    a runners failure in :attr:`runners_failure`.
    """

    def __init__(self, kernel=None) -> None:
        self.kernel = kernel
        self.built: dict = {}  # literal key -> (fn, order, entries)
        self.failed: dict = {}  # literal key -> the exception refusing it
        self.runners_failure: Exception | None = None
        self._takes: list = []  # per job drawn: where its result goes
        self._drawn: set = set()  # literal keys drawn as jobs
        self._keys: dict = {}  # (group, array set, width) -> _literal_key

    def key(self, entries, arrays, nthreads: int = 1):
        """:func:`_literal_key`, computed once per group and array set."""
        ident = (id(entries), id(arrays), nthreads)
        got = self._keys.get(ident)
        if got is None:
            got = self._keys[ident] = _literal_key(
                self.kernel, entries, arrays, nthreads
            )
        return got

    def runners(self, lib: NativeLibrary) -> tuple | None:
        """The runners object's job, unless *lib* loaded it."""
        if lib.run_program is not None:
            return None

        def take(result) -> None:
            if isinstance(result, Exception):
                self.runners_failure = result
            else:
                lib._take_runners(result[0])

        self._takes.append(take)
        return generate_runtime_source(), lib.cc, _CFLAGS

    def unit(self, lib: NativeLibrary) -> tuple | None:
        """*lib*'s per-statement unit's job, unless it loaded or failed."""
        job = lib._unit_job()
        if job is not None:
            self._takes.append(lib._take_unit)
        return job

    def literal(self, entries, arrays, key) -> tuple | None:
        """The job of the literal nest *key* (:func:`_literal_key`), unless
        the kernel's memo holds it or this batch has it already."""
        if key in self.built or key in self.failed or key in self._drawn:
            return None
        memo = self.kernel._fused
        with _fused_lock:
            hit = memo.get(key)
            if hit is not None:
                memo.move_to_end(key)
        if hit is not None:
            self.built[key] = hit
            return None
        nthreads, cc, flags = key[2:]
        try:
            source, fn_name, order = generate_fused_source(
                entries, arrays, self.kernel.counters, nthreads
            )
        except (CodegenError, NativeBuildError, OSError) as exc:
            self.failed[key] = exc
            return None
        self._drawn.add(key)

        def take(result) -> None:
            if isinstance(result, Exception):
                self.failed[key] = result
                return
            built = self.built[key] = (_stmt_fn(result[0], fn_name), order, entries)
            with _fused_lock:
                memo[key] = built
                while len(memo) > MAX_LITERAL_NESTS:
                    memo.popitem(last=False)

        self._takes.append(take)
        return source, cc, flags

    def build(self, jobs: Iterable[tuple | None]) -> None:
        """Build every job of *jobs* (None: nothing to build) at once."""
        try:
            results = build_objects(job for job in jobs if job is not None)
            for take, result in zip(self._takes, results):
                take(result)
        finally:
            self._takes.clear()  # the takes hold this batch: no cycle left


def make_fused_statement(
    kernel, entries, arrays, nthreads: int = 1, batch: Batch | None = None
) -> tuple[NativeStatement | None, str | None]:
    """Bind one fusion group — or one statement — to one generated
    nest with literal geometry, or ``(None, reason)``.

    *entries* is a :class:`~repro.core.fusion.FusionGroup`'s entry
    tuple (dependence-legal by construction); *arrays* pass the same
    :func:`~repro.runtime.decisions.array_gate` as one statement, with
    every access and written name of the group.  The nest runs like any
    :class:`NativeStatement`, so programs treat it uniformly.  The loaded
    function comes from *batch* — the bind's, which built it with the
    bind's other objects — or the kernel's memo (:func:`_literal_key`),
    else from a batch of this nest alone.  A refusal, or the
    generate/build step failing (warns once), leaves the group on its
    per-statement rungs.  A binding whose memo entry was evicted keeps
    its loaded function.  The array gate still runs, and the pointer and
    ``geom`` blocks are still packed, per binding.
    """
    if batch is None:
        batch = Batch(kernel)
    key, why = batch.key(entries, arrays, nthreads)
    if key is None:
        return None, why
    if not (key in batch.built or key in batch.failed):
        batch.build([batch.literal(entries, arrays, key)])
    built = batch.built.get(key)
    single = len(entries) == 1
    if built is None:
        what, rest = (
            ("literal nest", "the statement falls back to its per-statement entry")
            if single
            else ("fused native", "the group falls back to per-statement execution")
        )
        why = (
            f"{what} build for kernel {kernel.name!r} failed "
            f"(cache: {native_cache_dir()}); {rest}: {batch.failed[key]}"
        )
        decisions.degraded(
            "fused nest", "native", why, key=f"fused-build-failed:{kernel.name}"
        )
        return None, why
    fn, order, _ = built
    return _pack(fn, order, arrays, entries[0].box[0] if single else (0,)), None


# Program entries per foreign call: a long sweep stays interruptible
# (Ctrl-C, SIGTERM) between slices, and the slice is long enough that
# the crossings cost nothing.
PROGRAM_SLICE = 4096


class NativeProgram:
    """A recorded sequence of native calls, walked by one C loop.

    The one way a multi-call native sequence runs: a chain of a
    timestep's consecutive native statements (:func:`chain_runnables`)
    and a whole schedule of timesteps — every kernel run, snapshot copy,
    restore, adjoint shift and pre-step zero of a revolve sweep, in
    order — alike.  Entries are appended at plan-build time
    (:meth:`call`, :meth:`copy`, :meth:`zero`) and interned: the table
    holds each distinct ``(fn, ptrs, geom)`` once and the program proper
    is an ``int32`` index per entry, so a sweep of thousands of entries
    is a few KB.  After :meth:`seal`, :meth:`run` is one GIL-released
    call to the C program runner per :data:`PROGRAM_SLICE` entries and
    allocates nothing.

    A memory operand must pass
    :func:`~repro.runtime.decisions.memory_gate` against *owned* (the
    ids of the buffers the program may touch); a refusal, like a
    non-native runnable, raises :class:`~repro.errors.NativeBuildError`
    carrying the gate's reason — the caller keeps its per-call rung, as
    it does when *lib*'s runners object cannot be built.
    """

    def __init__(
        self, lib: NativeLibrary, owned: frozenset[int] = frozenset()
    ) -> None:
        lib.runners()
        self._lib = lib
        self._owned = owned
        self._slot: dict = {}  # entry key -> table position
        self._table: list[NativeStatement] = []  # keepalive for the blocks
        self._order: list[int] = []
        self._calls: tuple[tuple, ...] = ()

    def __len__(self) -> int:
        return len(self._order)

    @property
    def distinct(self) -> int:
        return len(self._table)

    @property
    def calls(self) -> int:
        """Foreign calls per :meth:`run`."""
        return -(-len(self._order) // PROGRAM_SLICE)

    @property
    def nbytes(self) -> int:
        """Bytes of the sealed blocks the C runner reads."""
        per_entry = (block for s in self._table for block in (s.ptrs, s.geom))
        return sum(map(ctypes.sizeof, (self._idx, *self._blocks, *per_entry)))

    def _append(self, key, make) -> None:
        slot = self._slot.get(key)
        if slot is None:
            slot = self._slot[key] = len(self._table)
            self._table.append(make())
        self._order.append(slot)

    def call(self, runnable) -> None:
        """Append a bound runnable: a native statement, or a sealed
        program's entries in order (a chain stays plain statements)."""
        if isinstance(runnable, NativeProgram):
            stmts = [runnable._table[slot] for slot in runnable._order]
        else:
            stmts = [runnable]
        for stmt in stmts:
            if not isinstance(stmt, NativeStatement):
                raise NativeBuildError(
                    f"{type(stmt).__name__} is not a native runnable"
                )
            self._append(id(stmt), lambda: stmt)

    def copy(self, dst: np.ndarray, src: np.ndarray) -> None:
        """Append ``np.copyto(dst, src)`` as one ``memcpy``."""
        self._memory(self._lib.copy_fn, dst, src)

    def zero(self, buf: np.ndarray) -> None:
        """Append ``buf[...] = 0`` as one ``memset``."""
        self._memory(self._lib.zero_fn, buf)

    def _memory(self, fn, dst, src=None) -> None:
        # Gated on every append, keyed by address: callers pass fresh
        # views of the same few buffers, and two views may share an
        # address and a byte count without sharing a layout.
        why = decisions.memory_gate(dst, src, self._owned)
        if why is not None:
            raise NativeBuildError(why)
        operands = (dst,) if src is None else (dst, src)
        address = tuple(arr.ctypes.data for arr in operands)

        def make() -> NativeStatement:
            ptrs = (ctypes.c_void_p * len(operands))(*address)
            return NativeStatement(fn, ptrs, (_I64 * 1)(dst.nbytes), operands)

        self._append((*address, dst.nbytes), make)

    def seal(self) -> "NativeProgram":
        """Pack the table and index blocks the C runner walks."""
        n, table = len(self._order), self._table
        self._idx = (ctypes.c_int32 * n)(*self._order)
        block = ctypes.c_void_p * len(table)
        self._blocks = (
            block(*(ctypes.cast(s.fn, ctypes.c_void_p).value for s in table)),
            block(*(ctypes.addressof(s.ptrs) for s in table)),
            block(*(ctypes.addressof(s.geom) for s in table)),
        )
        base = ctypes.addressof(self._idx)
        self._calls = tuple(
            (min(PROGRAM_SLICE, n - lo), base + 4 * lo, *self._blocks)
            for lo in range(0, n, PROGRAM_SLICE)
        )
        return self

    def run(self) -> None:
        run = self._lib.run_program
        for args in self._calls:
            run(*args)


def chain_runnables(lib: NativeLibrary | None, stmts: list) -> list:
    """Seal consecutive native statements into programs.

    *stmts* is a task's ordered list of bound statements (native or
    Python); the returned list preserves execution order, replacing
    every maximal run of two or more :class:`NativeStatement` with one
    sealed :class:`NativeProgram`.  With no library (fallback) the list
    is returned unchanged.

    >>> from repro.runtime.native import chain_runnables
    >>> chain_runnables(None, ["python-stmt-a", "python-stmt-b"])
    ['python-stmt-a', 'python-stmt-b']
    """
    if lib is None:
        return stmts
    out: list = []
    run: list[NativeStatement] = []

    def flush() -> None:
        if len(run) == 1:
            out.append(run[0])
        elif run:
            program = NativeProgram(lib)
            for stmt in run:
                program.call(stmt)
            out.append(program.seal())
        run.clear()

    for s in stmts:
        if isinstance(s, NativeStatement):
            run.append(s)
        else:
            flush()
            out.append(s)
    flush()
    return out
