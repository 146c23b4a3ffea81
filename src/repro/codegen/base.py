"""Shared infrastructure for code-generation back-ends.

PerforAD is "designed in a modular fashion to simplify the creation of new
front-ends and back-ends" (Section 3.1); this module holds the pieces every
back-end needs: detection of uninterpreted-derivative calls and a common
emitter with indentation management.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp
from sympy.core.function import AppliedUndef

__all__ = ["DerivativeCall", "match_derivative_call", "Emitter", "CodegenError"]


class CodegenError(ValueError):
    """An expression cannot be lowered by this back-end."""


@dataclass(frozen=True)
class DerivativeCall:
    """A partial derivative of an uninterpreted function (Section 3.3.1).

    Printed by back-ends as a call ``<func>_d<argindex>(<args...>)``, to be
    provided externally (hand-written or produced by a general AD tool).
    """

    func_name: str
    argindex: int  # 1-based position of the differentiated argument
    args: tuple[sp.Expr, ...]


def match_derivative_call(expr: sp.Basic) -> DerivativeCall | None:
    """Recognise ``Derivative``/``Subs`` objects over uninterpreted functions.

    SymPy represents ``d f(a, b) / d a`` evaluated at concrete arguments as
    ``Subs(Derivative(f(xi, b), xi), xi, a)`` (or as a plain ``Derivative``
    when the argument is itself a symbol-like access).  Both forms map to
    :class:`DerivativeCall`.
    """
    if isinstance(expr, sp.Subs):
        inner = expr.expr
        if isinstance(inner, sp.Derivative):
            call = inner.expr
            if isinstance(call, AppliedUndef):
                wrt = inner.variables
                if len(wrt) == 1 and wrt[0] in call.args:
                    idx = call.args.index(wrt[0])
                    args = tuple(
                        a.subs(dict(zip(expr.variables, expr.point)))
                        for a in call.args
                    )
                    return DerivativeCall(
                        func_name=call.func.__name__, argindex=idx + 1, args=args
                    )
        return None
    if isinstance(expr, sp.Derivative):
        call = expr.expr
        if isinstance(call, AppliedUndef) and len(expr.variables) == 1:
            wrt = expr.variables[0]
            if wrt in call.args:
                idx = call.args.index(wrt)
                return DerivativeCall(
                    func_name=call.func.__name__,
                    argindex=idx + 1,
                    args=tuple(call.args),
                )
    return None


class Emitter:
    """Indentation-aware line collector used by all back-ends."""

    def __init__(self, indent: str = "  ") -> None:
        self._lines: list[str] = []
        self._indent = indent
        self._level = 0

    def line(self, text: str = "") -> None:
        if text:
            self._lines.append(self._indent * self._level + text)
        else:
            self._lines.append("")

    def push(self) -> None:
        self._level += 1

    def pop(self) -> None:
        if self._level == 0:
            raise RuntimeError("unbalanced indentation pop")
        self._level -= 1

    def code(self) -> str:
        return "\n".join(self._lines) + "\n"
