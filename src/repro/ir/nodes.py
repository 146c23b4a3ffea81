"""Backend-neutral loop IR.

The symbolic :class:`~repro.core.loopnest.LoopNest` describes *what* to
compute; this small tree IR describes *how* it is laid out as loops,
blocks, guards and statements, so that every code generator (C, Fortran,
Python) lowers from the same structure.  Nodes are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

__all__ = ["Node", "Assign", "Guard", "Loop", "Block", "Function", "Comment"]


class Node:
    """Base class for IR nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Assign(Node):
    """``target[indices] op rhs`` with op in {"=", "+="}."""

    target: str
    indices: tuple[sp.Expr, ...]
    rhs: sp.Expr
    op: str = "="


@dataclass(frozen=True)
class Guard(Node):
    """Conditional execution of *body* under a SymPy boolean condition."""

    condition: sp.Basic
    body: tuple[Node, ...]


@dataclass(frozen=True)
class Loop(Node):
    """A counted loop, inclusive bounds, optionally parallel (outermost)."""

    counter: sp.Symbol
    lower: sp.Expr
    upper: sp.Expr
    body: tuple[Node, ...]
    parallel: bool = False
    private: tuple[sp.Symbol, ...] = ()
    shared: tuple[str, ...] = ()

    @property
    def is_single_iteration(self) -> bool:
        """True if the bounds are symbolically equal (one iteration)."""
        return sp.simplify(self.upper - self.lower) == 0


@dataclass(frozen=True)
class Block(Node):
    """Straight-line sequence of nodes."""

    body: tuple[Node, ...]


@dataclass(frozen=True)
class Comment(Node):
    """A comment line carried through to the generated code."""

    text: str


@dataclass(frozen=True)
class Function(Node):
    """A generated function: arrays, scalar parameters, and a body.

    ``array_ranks`` maps each array argument name to its rank; code
    generators use it to emit declarations.  ``sizes`` are the integer
    size symbols appearing in loop bounds (e.g. ``n``); ``scalars`` the
    remaining real-valued parameters (e.g. ``C``, ``D``).
    """

    name: str
    array_ranks: dict[str, int]
    sizes: tuple[sp.Symbol, ...]
    scalars: tuple[sp.Symbol, ...]
    body: tuple[Node, ...]
