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

Compiler invocation is hardened against the real world: every build
runs under a subprocess timeout (``REPRO_CC_TIMEOUT``, default 300 s —
a hung compiler must not hang the runtime), transient spawn failures
and signal-killed compilers are retried with exponential backoff
(``REPRO_CC_RETRIES``/``REPRO_CC_BACKOFF``), and anything that still
fails degrades to the python path through
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
import subprocess
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from ..codegen.base import CodegenError
from ..codegen.native_c import (
    COPY_FN_NAME,
    NATIVE_ABI_VERSION,
    PROGRAM_RUNNER_NAME,
    ZERO_FN_NAME,
    generate_fused_source,
    generate_native_source,
    generate_runtime_source,
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
    compiler or one build; under the key's lock the second finds the
    first one's result.  Per key, so unrelated builds stay parallel.
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


# -- compiler invocation: timeout, bounded retry, backoff ---------------------


def _env_limit(name: str, default: float, minimum: float = 0.0) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value >= minimum else default


def _cc_limits() -> tuple[float, int, float]:
    """(timeout seconds, retries, initial backoff seconds) for cc runs.

    Environment knobs, all optional (invalid values fall back to the
    defaults rather than erroring — a misconfigured knob must not take
    the build path down):

    ``REPRO_CC_TIMEOUT``  seconds before a compile is declared hung
    (default 300); ``REPRO_CC_RETRIES`` extra attempts after a
    *transient* failure (default 2); ``REPRO_CC_BACKOFF`` initial sleep
    between attempts, doubled each retry (default 0.05).
    """
    timeout = _env_limit("REPRO_CC_TIMEOUT", 300.0)
    retries = int(_env_limit("REPRO_CC_RETRIES", 2.0))
    backoff = _env_limit("REPRO_CC_BACKOFF", 0.05)
    return timeout, retries, backoff


def _invoke_cc(cmd: list[str], what: str) -> subprocess.CompletedProcess:
    """Run the compiler command with the timeout/retry/backoff ladder.

    The failure taxonomy, from field experience with JIT caches:

    * **Timeout** (:class:`subprocess.TimeoutExpired`): the compiler
      hung.  No retry — a hung compiler hangs again, and the caller's
      deadline is already blown.  Degrades immediately.
    * **Transient** (``OSError``/``SubprocessError`` from the spawn,
      or the compiler killed by a signal — negative returncode, e.g.
      the OOM killer or a crashing wrapper script): retried up to
      ``REPRO_CC_RETRIES`` times with exponential backoff.
    * **Deterministic** (nonzero exit status): the source does not
      compile; retrying cannot help.  Returned to the caller, which
      raises :class:`~repro.errors.NativeBuildError` with the diagnostics.
    """
    timeout, retries, backoff = _cc_limits()
    for attempt in range(retries + 1):
        try:
            faults.check("native.cc.timeout")
            faults.check("native.cc.spawn")
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=timeout or None
            )
        except subprocess.TimeoutExpired as exc:
            raise NativeBuildError(
                f"{cmd[0]} timed out after {timeout:g}s building {what} "
                f"(set REPRO_CC_TIMEOUT to adjust)"
            ) from exc
        except (OSError, subprocess.SubprocessError) as exc:
            if attempt < retries:
                time.sleep(backoff * (2.0**attempt))
                continue
            raise NativeBuildError(
                f"invoking {cmd[0]} failed after {attempt + 1} "
                f"attempt(s): {exc}"
            ) from exc
        if proc.returncode < 0 and attempt < retries:
            # Killed by a signal: transient (OOM kill, crashed wrapper).
            time.sleep(backoff * (2.0**attempt))
            continue
        return proc
    raise AssertionError("unreachable")  # pragma: no cover


# -- disk-cached build --------------------------------------------------------

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


def _build_shared_object(
    source: str, cc: str, flags: tuple[str, ...] = _CFLAGS
) -> Path:
    """Compile *source* into the disk cache; return the ``.so`` path.

    Content-addressed: an existing object for the same (source,
    compiler, flags) is reused without invoking the compiler; check,
    compile and rename share the key's :func:`_flight` lock, so threads
    binding one fresh kernel run the compiler once.  The compile
    targets a temporary file atomically renamed into place, so a
    concurrent *process* building the same key either sees nothing at
    the final path or a complete object, never a partial write; racing
    processes produce identical bytes and the last rename wins
    benignly.  The temporary carries a ``.so.tmp`` suffix so cache
    scans matching ``*.so`` cannot pick up an in-flight object, and the
    finished file is opened up to the usual read bits (``mkstemp``
    creates mode 0600, which would break a cache shared between users).
    """
    cache = native_cache_dir()
    key = _build_key(source, cc, flags)
    so_path = cache / f"{key}.so"
    with _flight(str(so_path)):
        if so_path.exists():
            return so_path
        try:
            faults.check("native.cache.write")
            cache.mkdir(parents=True, exist_ok=True)
            c_path = cache / f"{key}.c"
            if not c_path.exists():
                tmp_c = tempfile.NamedTemporaryFile(
                    "w", dir=cache, suffix=".c.tmp", delete=False
                )
                with tmp_c as fh:
                    fh.write(source)
                os.chmod(tmp_c.name, 0o644)
                os.replace(tmp_c.name, c_path)
            tmp_fd, tmp_so = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
            os.close(tmp_fd)
        except OSError as exc:
            # Unwritable cache dir (read-only volume, permissions): a
            # cache problem must degrade like a build problem, not
            # crash the run.
            raise NativeBuildError(
                f"cannot write native cache at {cache}: {exc}"
            ) from exc
        cmd = [cc, *flags, "-o", tmp_so, str(c_path), "-lm"]
        try:
            proc = _invoke_cc(cmd, what=str(c_path))
        except NativeBuildError:
            _unlink_quiet(tmp_so)
            raise
        if proc.returncode != 0:
            _unlink_quiet(tmp_so)
            raise NativeBuildError(
                f"{cc} failed (exit {proc.returncode}) on {c_path}:\n{proc.stderr}"
            )
        try:
            os.chmod(tmp_so, 0o755)
            os.replace(tmp_so, so_path)
        except OSError as exc:
            _unlink_quiet(tmp_so)
            raise NativeBuildError(
                f"cannot finalise native cache entry {so_path}: {exc}"
            ) from exc
        return so_path


def _unlink_quiet(path: str) -> None:
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


def _build_and_load(
    source: str, cc: str, flags: tuple[str, ...] = _CFLAGS
) -> tuple[ctypes.CDLL, Path]:
    """Build (or reuse) and load *source*, recovering a corrupt cache entry.

    A truncated or garbage ``.so`` at the content-keyed path — left by a
    crashed writer predating the atomic-rename scheme, or by disk
    corruption — makes ``CDLL`` raise ``OSError`` forever on a pure
    cache-hit path.  Since the file is content-addressed, deleting it
    and rebuilding once is always safe and self-heals the cache.
    """
    so_path = _build_shared_object(source, cc, flags)
    try:
        return _load_library(so_path), so_path
    except OSError:
        with _lib_lock:
            _lib_memo.pop(str(so_path), None)
        try:
            os.unlink(so_path)
        except OSError:
            pass
        so_path = _build_shared_object(source, cc, flags)
        return _load_library(so_path), so_path


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
        try:
            _build_shared_object(
                "int repro_march_probe(void) { return 0; }\n", cc, _CFLAGS + flags
            )
        except NativeBuildError:
            flags = ()
        return flags

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
            _build_shared_object(_OMP_PROBE_SOURCE, cc, _CFLAGS + flags)
        except NativeBuildError:
            return None
        return flags

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
    (:func:`~repro.codegen.native_c.generate_runtime_source`), loaded
    when the library is made.  The per-statement entry points (keyed by
    region identity and statement index) live in the kernel's own
    translation unit, generated eagerly so the manifest is exact but
    built and loaded single-flight on the first :meth:`stmt_fn` that
    needs one: a kernel whose statements all run fused never compiles
    it.  Constructed once per kernel via :func:`library_for_kernel` and
    shared by every plan/binding of that kernel; it holds no reference
    to the kernel.
    """

    def __init__(
        self, kernel, runners: ctypes.CDLL, source: str, manifest,
        cc: str, flags: tuple[str, ...], nthreads: int = 1,
    ):
        self.nthreads = nthreads
        self._region_index = {id(r): ri for ri, r in enumerate(kernel.regions)}
        self._manifest = manifest
        self._unit = (source, cc, flags)  # dropped once built
        self._lock = threading.Lock()
        self._fns: dict[tuple[int, int], ctypes._CFuncPtr] | None = None
        self._so_path: Path | None = None
        self._failure: str | None = None
        self.copy_fn = _stmt_fn(runners, COPY_FN_NAME)
        self.zero_fn = _stmt_fn(runners, ZERO_FN_NAME)
        self.run_program = getattr(runners, PROGRAM_RUNNER_NAME)
        self.run_program.restype = None
        # n, idx, then the fns, ptrss and geoms blocks
        self.run_program.argtypes = (_I64, *(ctypes.c_void_p,) * 4)

    @property
    def statement_count(self) -> int:
        return len(self._manifest)

    @property
    def so_path(self) -> Path:
        """The per-statement object, built on first access."""
        self._entries()
        return self._so_path

    def _entries(self) -> dict:
        """The per-statement entries, building the unit on first use.

        Single-flight per library; a failure is kept and raised again
        as :class:`~repro.errors.NativeBuildError` on every later use.
        """
        if self._fns is None:
            with self._lock:
                if self._fns is None and self._failure is None:
                    try:
                        cdll, so_path = _build_and_load(*self._unit)
                    except (NativeBuildError, OSError) as exc:
                        # OSError: an entry still unloadable after
                        # _build_and_load's one-shot self-heal rebuild.
                        self._failure = str(exc)
                    else:
                        self._so_path = so_path
                        self._fns = {
                            key: _stmt_fn(cdll, name)
                            for key, name in self._manifest.items()
                        }
                        self._unit = None
        if self._fns is None:
            raise NativeBuildError(self._failure)
        return self._fns

    def has_entry(self, region, si: int) -> bool:
        """Whether statement *si* of *region* was lowered (no build)."""
        return (self._region_index.get(id(region)), si) in self._manifest

    def stmt_fn(self, region, si: int):
        """The native entry for statement *si* of *region*, or None.

        Builds the per-statement unit on first use and raises
        :class:`~repro.errors.NativeBuildError` when it cannot be built.
        """
        if not self.has_entry(region, si):
            return None
        return self._entries()[(self._region_index[id(region)], si)]


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


def library_verdict(kernel, nthreads: int = 1):
    """``(library | None, Verdict)`` — the library rung of the ladder.

    ``native`` means the runners object built and the kernel's
    per-statement unit was generated; that unit is built later, by the
    first statement bound to it, and a failure there degrades only the
    statements that needed it (:class:`~repro.runtime.decisions.Ladder`).
    Memoised on the kernel per thread count with the toolchain used, so
    a memo hit reports the reason the first build did and a toolchain
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
    if nthreads in memo:
        return memo[nthreads]
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
    else:
        try:
            source, manifest = generate_native_source(kernel, nthreads)
            runners, _ = _build_and_load(generate_runtime_source(), cc)
            lib = NativeLibrary(
                kernel, runners, source, manifest, cc, _CFLAGS + omp, nthreads
            )
        except (NativeBuildError, OSError) as exc:
            # OSError covers a cache entry that stays unloadable even
            # after _build_and_load's one-shot self-heal rebuild.
            refusal = build_refusal(kernel.name, nthreads, exc)
    verdict = decisions.Verdict("library", "native")
    if lib is None:
        rung = "serial native" if nthreads > 1 else "python"
        if refusal is not None:
            verdict = decisions.degraded(
                "library", rung, refusal[1], key=refusal[0]
            )
        if nthreads > 1:
            lib, serial = library_verdict(kernel, 1)
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
    ``geom`` block (unread by a nest with literal geometry)."""
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


def make_fused_statement(
    kernel, entries, arrays, nthreads: int = 1
) -> tuple[NativeStatement | None, str | None]:
    """Bind one fusion group to one generated nest, or ``(None, reason)``.

    *entries* is a fused :class:`~repro.core.fusion.FusionGroup`'s
    entry tuple (dependence-legal by construction); *arrays* pass the
    same :func:`~repro.runtime.decisions.array_gate` as one statement,
    with every access and written name of the group.  The nest runs
    like any :class:`NativeStatement`, so programs treat it uniformly.
    ``nthreads > 1`` requests an OpenMP nest (applied only where
    :func:`repro.core.fusion.parallel_safe_group` allows; a compiler
    without OpenMP quietly builds the serial nest).  A refusal, or the
    generate/build step raising (warns once), leaves the group on its
    per-statement rungs.

    The generated source depends on *arrays* only through their strides
    (addresses enter through the per-binding pointer block), so the
    loaded function is memoised on the kernel per (group, strides,
    thread count, compiler, flags): the rotation parities of a
    checkpointed plan and the members of an ensemble generate once.
    The array gate still runs, and the pointer block is still packed,
    per binding.
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
    # The memo entry holds *entries*, so the statement ids in its key
    # cannot be reused while it lives; racing binds of one key build the
    # same content-addressed object twice at worst.
    names = dict.fromkeys(acc.name for acc, _box in uses)
    key = (
        tuple((id(entry.stmt), entry.box) for entry in entries),
        tuple(arrays[name].strides for name in names),
        nthreads, cc, flags,
    )
    built = kernel._fused.get(key)
    if built is None:
        try:
            source, fn_name, order = generate_fused_source(
                entries, arrays, kernel.counters, nthreads
            )
            cdll, _ = _build_and_load(source, cc, flags)
        except (CodegenError, NativeBuildError, OSError) as exc:
            why = (
                f"fused native build for kernel {kernel.name!r} failed "
                f"(cache: {native_cache_dir()}); the group falls back to "
                f"per-statement execution: {exc}"
            )
            decisions.degraded(
                "fused nest", "native", why, key=f"fused-build-failed:{kernel.name}"
            )
            return None, why
        built = kernel._fused[key] = (_stmt_fn(cdll, fn_name), order, entries)
    fn, order, _ = built
    return _pack(fn, order, arrays), None


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
    carrying the gate's reason — the caller keeps its per-call rung.
    """

    def __init__(
        self, lib: NativeLibrary, owned: frozenset[int] = frozenset()
    ) -> None:
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
