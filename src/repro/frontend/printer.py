"""Unparser: loop nests back to the textual stencil language.

Completes the front-end round trip (``parse_stencil(to_source(nest))``
reproduces the nest), which both documents the language and gives the
property-based tests a strong oracle: any randomly generated stencil must
survive print -> parse -> print unchanged.
"""

from __future__ import annotations

from sympy.core.function import AppliedUndef
from sympy.printing.str import StrPrinter

from ..core.loopnest import LoopNest

__all__ = ["to_source"]


class _DslPrinter(StrPrinter):
    """SymPy printer emitting front-end syntax (brackets, max/min)."""

    def _print_AppliedUndef(self, expr: AppliedUndef) -> str:
        idx = ", ".join(self._print(a) for a in expr.args)
        return f"{expr.func.__name__}[{idx}]"

    def _print_Max(self, expr) -> str:
        return "max(" + ", ".join(self._print(a) for a in expr.args) + ")"

    def _print_Min(self, expr) -> str:
        return "min(" + ", ".join(self._print(a) for a in expr.args) + ")"

    def _print_Pow(self, expr, rational=False) -> str:
        base = self._print(expr.base)
        if expr.base.is_Add or isinstance(expr.base, AppliedUndef):
            pass  # parenthesisation handled below
        if expr.base.is_Add:
            base = f"({base})"
        return f"{base}^{self._print(expr.exp)}"


def to_source(nest: LoopNest, name: str | None = None) -> str:
    """Render a loop nest in the textual stencil language."""
    printer = _DslPrinter()
    name = name or nest.name or "stencil0"
    ranges = ", ".join(
        f"{c} = {printer.doprint(nest.bounds[c][0])} .. "
        f"{printer.doprint(nest.bounds[c][1])}"
        for c in nest.counters
    )
    lines = [f"stencil {name} {{", f"  iterate {ranges}"]
    for st in nest.statements:
        if st.guard is not None:
            raise ValueError("guarded statements cannot be unparsed")
        lhs = printer.doprint(st.lhs)
        rhs = printer.doprint(st.rhs)
        lines.append(f"  {lhs} {st.op} {rhs}")
    lines.append("}")
    return "\n".join(lines) + "\n"
