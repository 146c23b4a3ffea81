"""Content-addressed kernel cache: compile once, run many.

The paper's workflow compiles the generated stencil kernel once (``icc
-O3``) and then reuses the binary for every timestep and benchmark
repetition.  The reproduction's analogue of that compile step is
``sp.lambdify`` — SymPy printing plus ``exec`` — which is orders of
magnitude more expensive than executing a small kernel, so re-running it
on every :func:`~repro.runtime.compiler.compile_nests` call puts
compilation in the middle of every hot loop.

:class:`KernelCache` removes that cost the way PyOP2 does for its
generated C kernels: compiled kernels are keyed by a *content hash* of
everything that determines the generated code — the loop-nest structure
(statements, bounds, counters, guards), the concrete bindings (sizes,
params, dtype, bound function implementations) and the kernel name — so
two calls with equal inputs return the identical
:class:`~repro.runtime.compiler.CompiledKernel` object, while any change
to the inputs misses and recompiles.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from ..core.loopnest import LoopNest
from .bindings import Bindings

__all__ = [
    "KernelCache",
    "kernel_key",
    "get_kernel_cache",
    "clear_kernel_cache",
    "native_cache_dir",
]


def native_cache_dir() -> Path:
    """Directory holding the native backend's content-addressed objects.

    Each JIT-built shared object (and its generated C source) lives here
    under its content hash — see :mod:`repro.runtime.native`.  Defaults
    to ``.repro_cache/native`` below the working directory (the
    directory is gitignored); ``REPRO_CACHE_DIR`` relocates the root,
    e.g. to share one cache across checkouts or point CI at a persisted
    volume.  Entries never expire: the key covers everything that
    determines the binary, so stale entries are merely unused, and
    ``rm -rf`` of the directory is always safe.

    >>> from repro.runtime import native_cache_dir
    >>> native_cache_dir().name
    'native'
    """
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return Path(root) / "native"


# ``sp.srepr`` dominates key computation for large adjoint expressions, so
# nest fingerprints are memoised on the (hashable) symbolic structure:
# repeated lookups for the same nests cost a dict hit, not a re-print.
# SymPy caches expression hashes and interns equal expressions, so both
# hashing and the equality check on hit are cheap.
_NEST_FP_CACHE: dict = {}


def _nest_fingerprint(nest: LoopNest) -> str:
    """Deterministic textual form of a loop nest's compiled identity."""
    memo_key = (
        nest.name,
        nest.requires_padding,
        nest.statements,
        nest.counters,
        tuple((c, nest.bounds[c]) for c in nest.counters),
    )
    fp = _NEST_FP_CACHE.get(memo_key)
    if fp is not None:
        return fp
    parts = [f"name={nest.name!r}", f"pad={nest.requires_padding}"]
    parts.append("counters=" + ",".join(sp.srepr(c) for c in nest.counters))
    for c in nest.counters:
        lo, hi = nest.bounds[c]
        parts.append(f"bound[{sp.srepr(c)}]=({sp.srepr(lo)},{sp.srepr(hi)})")
    for st in nest.statements:
        guard = sp.srepr(st.guard) if st.guard is not None else "None"
        parts.append(
            f"stmt({sp.srepr(st.lhs)} {st.op} {sp.srepr(st.rhs)} if {guard})"
        )
    fp = ";".join(parts)
    if len(_NEST_FP_CACHE) < 4096:
        _NEST_FP_CACHE[memo_key] = fp
    return fp


def _bindings_fingerprint(bindings: Bindings) -> str:
    """Deterministic textual form of everything bindings contribute.

    Function implementations are identified by ``(name, id(fn))``: two
    bindings sharing the same callable objects hit, while rebinding a
    name to a different implementation misses (process-local identity is
    the strongest equality available for arbitrary callables).
    """
    sizes = sorted((str(k), repr(v)) for k, v in bindings.sizes.items())
    params = sorted((str(k), repr(v)) for k, v in bindings.params.items())
    funcs = sorted((name, id(fn)) for name, fn in bindings.functions.items())
    return ";".join(
        [
            "sizes=" + repr(sizes),
            "params=" + repr(params),
            "functions=" + repr(funcs),
            "dtype=" + np.dtype(bindings.dtype).str,
        ]
    )


def kernel_key(
    nests: Sequence[LoopNest],
    bindings: Bindings,
    name: str = "kernel",
    extra: tuple = (),
) -> str:
    """Stable content hash identifying a compiled kernel.

    ``extra`` lets callers fold additional backend options into the key
    without subclassing the cache.

    >>> from repro import heat_problem
    >>> from repro.runtime import kernel_key
    >>> prob = heat_problem(1)
    >>> key = kernel_key([prob.primal], prob.bindings(16))
    >>> key == kernel_key([prob.primal], prob.bindings(16))   # deterministic
    True
    >>> key == kernel_key([prob.primal], prob.bindings(17))   # sizes differ
    False
    """
    payload = "\n".join(
        [f"kernel={name!r}"]
        + [_nest_fingerprint(nest) for nest in nests]
        + [_bindings_fingerprint(bindings), f"extra={extra!r}"]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class KernelCache:
    """LRU cache of compiled kernels keyed by content hash.

    >>> from repro.runtime import KernelCache
    >>> cache = KernelCache(maxsize=2)
    >>> cache.get_or_compile("key-a", lambda: "kernel-a")
    'kernel-a'
    >>> cache.get_or_compile("key-a", lambda: "never called")   # hit
    'kernel-a'
    >>> cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
    True
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get_or_compile(self, key: str, factory: Callable[[], object]):
        """Return the cached kernel for *key*, compiling via *factory* on miss."""
        try:
            kernel = self._entries[key]
        except KeyError:
            self.misses += 1
            kernel = factory()
            self._entries[key] = kernel
            if len(self._entries) > self.maxsize:
                _release(self._entries.popitem(last=False)[1])
            return kernel
        self.hits += 1
        self._entries.move_to_end(key)
        return kernel

    def clear(self) -> None:
        for kernel in self._entries.values():
            _release(kernel)
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


def _release(kernel) -> None:
    """Let a dropped kernel go at once (``CompiledKernel.release``)."""
    release = getattr(kernel, "release", None)
    if release is not None:
        release()


_GLOBAL_CACHE = KernelCache()


def get_kernel_cache() -> KernelCache:
    """The process-wide cache consulted by ``compile_nests`` by default.

    >>> from repro.runtime import KernelCache, get_kernel_cache
    >>> isinstance(get_kernel_cache(), KernelCache)
    True
    >>> get_kernel_cache() is get_kernel_cache()
    True
    """
    return _GLOBAL_CACHE


def clear_kernel_cache() -> None:
    """Drop all cached kernels and reset hit/miss counters.

    >>> from repro.runtime import clear_kernel_cache, get_kernel_cache
    >>> clear_kernel_cache()
    >>> len(get_kernel_cache())
    0
    """
    _GLOBAL_CACHE.clear()
