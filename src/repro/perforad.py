"""PerforAD-compatible facade.

Mirrors the user interface of the original tool so the paper's input
scripts (Figures 4 and 6) run with an ``import`` swap::

    import sympy as sp
    from repro.perforad import *

    c = sp.Function("c"); u = sp.Function("u"); u_b = sp.Function("u_b")
    ...
    lp = makeLoopNest(lhs=u(i,j,k), rhs=expr, counters=[i,j,k],
                      bounds={i:[1,n-2], j:[1,n-2], k:[1,n-2]})
    printfunction(name="wave3d", loopnestlist=[lp])
    printfunction(name="wave3d_perf_b",
                  loopnestlist=lp.diff({u:u_b, u_1:u_1_b, u_2:u_2_b}))

The camelCase aliases are intentional: they are the original PerforAD
names.  New code should prefer :func:`repro.core.make_loop_nest` and the
backend-specific ``print_function_*`` functions.
"""

from __future__ import annotations

import sys
from typing import Mapping, Sequence, TextIO

import sympy as sp

from .codegen import (
    print_function_c,
    print_function_fortran,
    print_function_python,
)
from .core.loopnest import LoopNest, make_loop_nest

__all__ = ["makeLoopNest", "printfunction", "LoopNest"]

_BACKENDS = {
    "c": print_function_c,
    "fortran": print_function_fortran,
    "python": print_function_python,
}


def makeLoopNest(
    lhs: sp.Basic,
    rhs: sp.Expr,
    counters: Sequence[sp.Symbol],
    bounds: Mapping[sp.Symbol, Sequence[sp.Expr]],
) -> LoopNest:
    """Original PerforAD entry point (Figure 4); see ``make_loop_nest``."""
    return make_loop_nest(lhs=lhs, rhs=rhs, counters=counters, bounds=bounds)


def printfunction(
    name: str,
    loopnestlist: Sequence[LoopNest],
    backend: str = "c",
    file: TextIO | None = None,
    filename: str | None = None,
) -> str:
    """Print a generated function for a list of loop nests.

    Writes C (default), Fortran or Python source to *file* (default
    stdout) or *filename*, and returns the source string.
    """
    try:
        printer = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}"
        ) from None
    code = printer(name, list(loopnestlist))
    if filename is not None:
        with open(filename, "w") as fh:
            fh.write(code)
    else:
        (file or sys.stdout).write(code)
    return code
