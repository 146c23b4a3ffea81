"""Reference pointwise interpreter.

Executes loop nests with explicit Python loops, point by point, in exactly
the order the generated C code would (row-major over the iteration box,
statements in body order).  It is orders of magnitude slower than the
compiled slice kernels but serves as the semantic oracle for the test
suite — in particular for the determinism/ordering discussion of
Section 3.5, where the *order* of floating-point accumulation matters.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

import numpy as np
import sympy as sp

from ..core.accesses import classify_applied, extract_access
from ..core.loopnest import LoopNest
from .bindings import Bindings
from .compiler import _rewrite_derivative_calls

__all__ = ["interpret_nests"]

_SCALAR_FALLBACKS = {
    "Heaviside": lambda x, h=None: 1.0 if x >= 0 else 0.0,
    "DiracDelta": lambda x: 0.0,
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
    ``fn(*[array[index] for each access], *[counter values])``.
    """
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
    modules = [dict(_SCALAR_FALLBACKS), dict(bindings.functions), "math"]
    fn = sp.lambdify(placeholders + bare, rhs_sub, modules=modules)
    return fn, patterns, bare


def interpret_nests(
    nests: Sequence[LoopNest],
    arrays: Mapping[str, np.ndarray],
    bindings: Bindings,
) -> None:
    """Execute loop nests pointwise on the given arrays, in order."""
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
        for point in itertools.product(*ranges):
            env = dict(zip(counters, point))
            for stmt, fn, patterns, bare, lhs_pat, guard_fn in compiled:
                if guard_fn is not None and not guard_fn(*point):
                    continue
                args = []
                for pat in patterns:
                    idx = tuple(
                        env[c] + o for c, o in zip(pat.counters, pat.offsets)
                    )
                    args.append(arrays[pat.name][idx])
                args.extend(env[c] for c in bare)
                val = fn(*args)
                tidx = tuple(
                    env[c] + o for c, o in zip(lhs_pat.counters, lhs_pat.offsets)
                )
                if stmt.op == "+=":
                    arrays[lhs_pat.name][tidx] += val
                else:
                    arrays[lhs_pat.name][tidx] = val
