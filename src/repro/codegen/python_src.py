"""Python/NumPy source back-end.

Generates readable, runnable Python where every loop nest is a set of
vectorised NumPy slice statements — the idiomatic Python rendering of a
stencil loop.  A gather nest like the PerforAD core loop becomes::

    u_1_b[2:n-2, ...] += D*c[3:n-1, ...]*u_b[3:n-1, ...] + ...

Guarded statements are lowered by intersecting the statement's valid box
with the region box (semantically identical to the if-guard, but
vectorisable).  The generated function has the signature
``def <name>(arrays, *, <sizes and scalars>)`` and mutates the arrays in
``arrays`` (a name -> ndarray mapping) in place.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.printing.pycode import PythonCodePrinter

from ..core.accesses import extract_access
from ..core.loopnest import LoopNest, Statement
from .base import CodegenError, Emitter, match_derivative_call

__all__ = ["generate_python", "print_function_python"]


class _ScalarPrinter(PythonCodePrinter):
    """Prints index/bound expressions (Max/Min -> builtin max/min)."""

    def _print_Max(self, expr):
        return "max(" + ", ".join(self._print(a) for a in expr.args) + ")"

    def _print_Min(self, expr):
        return "min(" + ", ".join(self._print(a) for a in expr.args) + ")"


class _SlicePrinter(PythonCodePrinter):
    """Prints a statement RHS with array accesses rendered as slices.

    ``bounds`` maps each counter to its (lo, hi) *effective* bounds for the
    statement being printed (region bounds, possibly guard-intersected).
    """

    def __init__(self, counters: Sequence[sp.Symbol], bounds: Mapping[sp.Symbol, tuple[sp.Expr, sp.Expr]]):
        super().__init__()
        self._counters = list(counters)
        self._bounds = dict(bounds)
        self._scalar = _ScalarPrinter()

    def _slice_for(self, counter: sp.Symbol, offset: sp.Expr) -> str:
        lo, hi = self._bounds[counter]
        start = self._scalar.doprint(sp.expand(lo + offset))
        stop = self._scalar.doprint(sp.expand(hi + offset + 1))
        return f"{start}:{stop}"

    def _print_AppliedUndef(self, expr: AppliedUndef) -> str:
        pat = extract_access(expr, self._counters)
        parts = [
            self._slice_for(c, o) for c, o in zip(pat.counters, pat.offsets)
        ]
        return f"{pat.name}[{', '.join(parts)}]"

    def _print_Symbol(self, expr: sp.Symbol) -> str:
        if expr in self._counters:
            # Bare counter in the body: broadcastable index vector.
            lo, hi = self._bounds[expr]
            start = self._scalar.doprint(lo)
            stop = self._scalar.doprint(hi + 1)
            d = self._counters.index(expr)
            shape = ["1"] * len(self._counters)
            shape[d] = "-1"
            return f"np.arange({start}, {stop}).reshape({', '.join(shape)})"
        return super()._print_Symbol(expr)

    def _print_Heaviside(self, expr) -> str:
        arg = self._print(expr.args[0])
        return f"np.where({arg} >= 0, 1.0, 0.0)"

    def _print_Max(self, expr) -> str:
        args = [self._print(a) for a in expr.args]
        out = args[0]
        for a in args[1:]:
            out = f"np.maximum({out}, {a})"
        return out

    def _print_Min(self, expr) -> str:
        args = [self._print(a) for a in expr.args]
        out = args[0]
        for a in args[1:]:
            out = f"np.minimum({out}, {a})"
        return out

    def _print_Subs(self, expr) -> str:
        call = match_derivative_call(expr)
        if call is None:
            raise CodegenError(f"cannot lower Subs expression {expr}")
        args = ", ".join(self._print(a) for a in call.args)
        return f"{call.func_name}_d{call.argindex}({args})"

    def _print_Derivative(self, expr) -> str:
        call = match_derivative_call(expr)
        if call is None:
            raise CodegenError(f"cannot lower Derivative {expr}")
        args = ", ".join(self._print(a) for a in call.args)
        return f"{call.func_name}_d{call.argindex}({args})"


def _effective_bounds(
    nest: LoopNest, stmt: Statement
) -> Mapping[sp.Symbol, tuple[sp.Expr, sp.Expr]]:
    """Region bounds, intersected with the guard's valid box if present."""
    if stmt.guard is None:
        return nest.bounds
    box = _guard_box(stmt.guard, nest.counters)
    out = {}
    for c in nest.counters:
        rlo, rhi = nest.bounds[c]
        if c in box:
            glo, ghi = box[c]
            out[c] = (sp.Max(rlo, glo), sp.Min(rhi, ghi))
        else:
            out[c] = (rlo, rhi)
    return out


def _guard_box(
    guard: sp.Basic, counters: Sequence[sp.Symbol]
) -> dict[sp.Symbol, tuple[sp.Expr | None, sp.Expr | None]]:
    """Extract per-counter interval constraints from a guard condition."""
    conds = list(guard.args) if isinstance(guard, sp.And) else [guard]
    lo: dict[sp.Symbol, sp.Expr] = {}
    hi: dict[sp.Symbol, sp.Expr] = {}
    for cond in conds:
        if isinstance(cond, sp.Ge) and cond.lhs in counters:
            c = cond.lhs
            lo[c] = sp.Max(lo[c], cond.rhs) if c in lo else cond.rhs
        elif isinstance(cond, sp.Le) and cond.lhs in counters:
            c = cond.lhs
            hi[c] = sp.Min(hi[c], cond.rhs) if c in hi else cond.rhs
        else:
            raise CodegenError(f"unsupported guard condition {cond}")
    out: dict[sp.Symbol, tuple[sp.Expr, sp.Expr]] = {}
    for c in set(lo) | set(hi):
        if c not in lo or c not in hi:
            raise CodegenError(f"guard must bound counter {c} on both sides")
        out[c] = (lo[c], hi[c])
    return out


def generate_python(
    name: str,
    nests: Sequence[LoopNest],
    docstring: str | None = None,
) -> str:
    """Generate the Python/NumPy source for a list of loop nests."""
    em = Emitter(indent="    ")
    nests = list(nests)
    scalar_names: list[str] = []
    array_names: list[str] = []
    for nest in nests:
        for s in list(nest.size_symbols()) + list(nest.scalar_parameters()):
            if str(s) not in scalar_names:
                scalar_names.append(str(s))
        for a in nest.written_arrays() + nest.read_arrays():
            if a not in array_names:
                array_names.append(a)
    scalar_names.sort()
    em.line("import numpy as np")
    em.line()
    em.line()
    kw = (", *, " + ", ".join(scalar_names)) if scalar_names else ""
    em.line(f"def {name}(arrays{kw}):")
    em.push()
    if docstring:
        em.line(f'"""{docstring}"""')
    for a in array_names:
        em.line(f"{a} = arrays['{a}']")
    scalar = _ScalarPrinter()
    for nest in nests:
        em.line()
        if nest.name:
            em.line(f"# {nest.name}")
        # Skip empty regions at runtime (small grids).
        conds = []
        for c in nest.counters:
            lo, hi = nest.bounds[c]
            conds.append(f"({scalar.doprint(lo)}) <= ({scalar.doprint(hi)})")
        em.line(f"if {' and '.join(conds)}:")
        em.push()
        for stmt in nest.statements:
            eff = _effective_bounds(nest, stmt)
            printer = _SlicePrinter(nest.counters, eff)
            pat = extract_access(stmt.lhs, nest.counters)
            tsl = ", ".join(
                printer._slice_for(c, o) for c, o in zip(pat.counters, pat.offsets)
            )
            rhs = printer.doprint(stmt.rhs)
            op = "+=" if stmt.op == "+=" else "="
            em.line(f"{pat.name}[{tsl}] {op} {rhs}")
        em.pop()
    em.pop()
    return em.code()


def print_function_python(
    name: str, nests: Sequence[LoopNest], docstring: str | None = None
) -> str:
    """PerforAD's ``printfunction`` for the Python/NumPy back-end."""
    return generate_python(name, nests, docstring=docstring)
