"""Reference pointwise interpreter.

Executes loop nests with explicit Python loops, point by point: the
statements of a nest in body order, each over the whole iteration box in
row-major order — the order every execution tier keeps (NumPy slices and
per-statement C run a statement over its box before the next, and fusion
merges statements only where that cannot change a bit).  The order is
observable where statements ``+=`` into the same element from different
points (the conventional scatter adjoint).  It is orders of magnitude
slower than the compiled slice kernels but serves as the semantic oracle
for the test suite — in particular for the determinism/ordering
discussion of Section 3.5, where the *order* of floating-point
accumulation matters.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Mapping, Sequence

import numpy as np
import sympy as sp

from ..core.accesses import classify_applied, extract_access
from ..core.loopnest import LoopNest
from .bindings import Bindings
from .compiler import _rewrite_derivative_calls

__all__ = ["interpret_nests"]

# The compiled path's Heaviside and DiracDelta evaluate to float64
# arrays, so a float32 statement using them computes in float64 (which
# is why the C printer refuses it); strong float64 scalars reproduce that
# promotion point by point.
_SCALAR_FALLBACKS = {
    "Heaviside": lambda x, h=None: np.float64(1.0 if x >= 0 else 0.0),
    "DiracDelta": lambda x: np.float64(0.0),
    "Max": max,
    "Min": min,
}


def _compile_pointwise(
    stmt_rhs: sp.Expr,
    counters: Sequence[sp.Symbol],
    bindings: Bindings,
) -> tuple[Callable, list, list[sp.Symbol]]:
    """Lambdify a statement RHS for scalar (pointwise) evaluation.

    Returns ``(fn, access_patterns, bare_counters)``; the caller evaluates
    ``fn(*[array[index] for each access], *[counter values])``.  Memoised
    on the statement and the values substituted into it: SymPy's
    substitution, CSE and lambdify cost more than interpreting a small
    grid.
    """
    subs = {**bindings.size_subs(), **bindings.param_subs()}
    return _pointwise(
        stmt_rhs,
        tuple(counters),
        tuple(sorted(subs.items())),
        tuple(sorted(bindings.functions.items())),
    )


@functools.lru_cache(maxsize=4096)
def _pointwise(stmt_rhs, counters, subs, functions):
    bindings = Bindings(sizes=dict(subs), functions=dict(functions))
    rhs = bindings.substitute(_rewrite_derivative_calls(stmt_rhs))
    accesses, _calls = classify_applied(rhs, counters)
    placeholders = []
    patterns = []
    repl = {}
    for idx, acc in enumerate(accesses):
        ph = sp.Symbol(f"__acc{idx}")
        patterns.append(extract_access(acc, counters))
        placeholders.append(ph)
        repl[acc] = ph
    rhs_sub = rhs.xreplace(repl)
    bare = sorted(
        (s for s in rhs_sub.free_symbols if s in counters),
        key=lambda s: list(counters).index(s),
    )
    # NumPy's functions keep a float32 operand in float32 (``math`` would
    # widen it), and the statement is evaluated in the compiler's CSE
    # form, which can regroup a product: the same operations on the same
    # operands as the compiled code, one point at a time.
    modules = [dict(_SCALAR_FALLBACKS), dict(bindings.functions), "numpy"]
    program = sp.cse(rhs_sub, list=False)
    fn = sp.lambdify(
        placeholders + bare, rhs_sub, modules=modules, cse=lambda _expr: program
    )
    return fn, patterns, bare


def interpret_nests(
    nests: Sequence[LoopNest],
    arrays: Mapping[str, np.ndarray],
    bindings: Bindings,
) -> None:
    """Execute loop nests pointwise on the given arrays, in order."""
    counter_type = np.dtype(bindings.dtype).type
    for nest in nests:
        counters = nest.counters
        axis_of = {c: d for d, c in enumerate(counters)}
        ranges = []
        empty = False
        for c in counters:
            lo = bindings.int_bound(nest.bounds[c][0])
            hi = bindings.int_bound(nest.bounds[c][1])
            if lo > hi:
                empty = True
                break
            ranges.append(range(lo, hi + 1))
        if empty:
            continue
        compiled = []
        for stmt in nest.statements:
            fn, patterns, bare = _compile_pointwise(stmt.rhs, counters, bindings)
            lhs_pat = extract_access(stmt.lhs, counters)
            guard_fn = None
            if stmt.guard is not None:
                guard_expr = bindings.substitute(stmt.guard)
                guard_fn = sp.lambdify(list(counters), guard_expr, modules=["math"])
            compiled.append((stmt, fn, patterns, bare, lhs_pat, guard_fn))
        for stmt, fn, patterns, bare, lhs_pat, guard_fn in compiled:
            for point in itertools.product(*ranges):
                if guard_fn is not None and not guard_fn(*point):
                    continue
                env = dict(zip(counters, point))
                args = []
                for pat in patterns:
                    idx = tuple(
                        env[c] + o for c, o in zip(pat.counters, pat.offsets)
                    )
                    args.append(arrays[pat.name][idx])
                # Counters enter in the kernel dtype, as the compiled
                # statements' counter ranges do.
                args.extend(counter_type(env[c]) for c in bare)
                target = arrays[lhs_pat.name]
                # A value is rounded to the target's dtype before it is
                # accumulated, as the compiled statements do.
                val = target.dtype.type(fn(*args))
                tidx = tuple(
                    env[c] + o for c, o in zip(lhs_pat.counters, lhs_pat.offsets)
                )
                if stmt.op == "+=":
                    target[tidx] += val
                else:
                    target[tidx] = val
