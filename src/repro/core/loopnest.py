"""The :class:`LoopNest` intermediate representation.

A ``LoopNest`` is the paper's central object (Figure 4/6 input scripts):
a perfect loop nest whose innermost body is one or more array assignments
or increments with stencil-shaped accesses.  ``make_loop_nest`` mirrors
PerforAD's ``makeLoopNest`` entry point; ``LoopNest.diff`` mirrors
``LoopNest.diff`` and produces the adjoint stencil loop nests described
in Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import sympy as sp
from sympy.core.function import AppliedUndef

from .symbols import array_name

__all__ = ["Statement", "LoopNest", "make_loop_nest"]


@dataclass(frozen=True)
class Statement:
    """A single assignment (``=``) or increment (``+=``) statement.

    ``lhs`` is an array access whose indices are loop counters plus constant
    offsets; ``rhs`` is an arbitrary SymPy expression over array accesses,
    scalar parameters and the loop counters.  ``guard`` is an optional SymPy
    boolean; when present the statement only executes where the guard holds
    (used by the "guarded" boundary strategy of Section 3.3.4).
    """

    lhs: AppliedUndef
    rhs: sp.Expr
    op: str = "="  # "=" or "+="
    guard: sp.Basic | None = None

    def __post_init__(self) -> None:
        if self.op not in ("=", "+="):
            raise ValueError(f"unsupported statement operator {self.op!r}")
        if not isinstance(self.lhs, AppliedUndef):
            raise TypeError(f"statement target must be an array access, got {self.lhs!r}")

    @property
    def target_name(self) -> str:
        return array_name(self.lhs)

    def read_accesses(self) -> list[AppliedUndef]:
        """Distinct array accesses read by this statement.

        For ``+=`` the target is also read, but that read is represented by
        the operator itself, not listed here.
        """
        return sorted(self.rhs.atoms(AppliedUndef), key=sp.default_sort_key)

    def subs(self, *args, **kwargs) -> "Statement":
        """Apply a SymPy substitution to both sides (guard included)."""
        guard = self.guard.subs(*args, **kwargs) if self.guard is not None else None
        return Statement(
            lhs=self.lhs.subs(*args, **kwargs),
            rhs=self.rhs.subs(*args, **kwargs),
            op=self.op,
            guard=guard,
        )

    def with_guard(self, guard: sp.Basic | None) -> "Statement":
        return Statement(lhs=self.lhs, rhs=self.rhs, op=self.op, guard=guard)

    def __str__(self) -> str:
        op = self.op
        body = f"{self.lhs} {op} {self.rhs}"
        if self.guard is not None:
            return f"if {self.guard}: {body}"
        return body


@dataclass(frozen=True)
class LoopNest:
    """A perfect rectangular loop nest around a list of stencil statements.

    Attributes
    ----------
    statements:
        Innermost-body statements, executed in order for every iteration.
    counters:
        Loop counters, outermost first.
    bounds:
        Inclusive bounds per counter: ``{i: (lo, hi)}``; ``lo``/``hi`` are
        SymPy expressions, affine in size symbols such as ``n``.
    name:
        Optional label used by code generators.
    requires_padding:
        True for nests produced by the "padded" boundary strategy, whose
        correctness relies on zero-padded halo regions (Section 3.3.4).
    """

    statements: tuple[Statement, ...]
    counters: tuple[sp.Symbol, ...]
    bounds: Mapping[sp.Symbol, tuple[sp.Expr, sp.Expr]]
    name: str = ""
    requires_padding: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", tuple(self.statements))
        object.__setattr__(self, "counters", tuple(self.counters))
        norm = {}
        for c in self.counters:
            if c not in self.bounds:
                raise ValueError(f"no bounds given for counter {c}")
            lo, hi = self.bounds[c]
            norm[c] = (sp.sympify(lo), sp.sympify(hi))
        object.__setattr__(self, "bounds", norm)

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.counters)

    def bound(self, counter: sp.Symbol) -> tuple[sp.Expr, sp.Expr]:
        return self.bounds[counter]

    def written_arrays(self) -> list[str]:
        """Names of arrays written by the nest (deterministic order)."""
        seen: dict[str, None] = {}
        for st in self.statements:
            seen.setdefault(st.target_name, None)
        return list(seen)

    def read_arrays(self) -> list[str]:
        """Names of arrays read by the nest (deterministic order)."""
        seen: dict[str, None] = {}
        for st in self.statements:
            for acc in st.read_accesses():
                seen.setdefault(array_name(acc), None)
        return list(seen)

    def size_symbols(self) -> list[sp.Symbol]:
        """Free symbols appearing in the loop bounds (e.g. ``n``)."""
        syms: set[sp.Symbol] = set()
        for lo, hi in self.bounds.values():
            syms |= lo.free_symbols | hi.free_symbols
        return sorted(syms, key=lambda s: s.name)

    def scalar_parameters(self) -> list[sp.Symbol]:
        """Non-counter, non-size scalar symbols read by the statements."""
        syms: set[sp.Symbol] = set()
        for st in self.statements:
            syms |= st.rhs.free_symbols
            if st.guard is not None:
                syms |= st.guard.free_symbols
        syms -= set(self.counters)
        syms -= set(self.size_symbols())
        return sorted(syms, key=lambda s: s.name)

    # -- transformations --------------------------------------------------

    def subs(self, *args, **kwargs) -> "LoopNest":
        """Substitute into statements *and* bounds (counters are preserved)."""
        stmts = tuple(st.subs(*args, **kwargs) for st in self.statements)
        bounds = {
            c: (lo.subs(*args, **kwargs), hi.subs(*args, **kwargs))
            for c, (lo, hi) in self.bounds.items()
        }
        return replace(self, statements=stmts, bounds=bounds)

    def with_name(self, name: str) -> "LoopNest":
        return replace(self, name=name)

    def iteration_count(self, sizes: Mapping[sp.Symbol, int] | None = None) -> sp.Expr:
        """Number of iterations, symbolically or with sizes substituted."""
        total: sp.Expr = sp.Integer(1)
        for c in self.counters:
            lo, hi = self.bounds[c]
            total *= hi - lo + 1
        if sizes:
            total = total.subs(sizes)
        return sp.expand(total)

    # -- differentiation (the paper's contribution) ------------------------

    def diff(
        self,
        adjoint_map: Mapping[sp.Basic, sp.Basic],
        strategy: str = "disjoint",
        merge: bool = True,
    ) -> list["LoopNest"]:
        """Generate adjoint stencil loop nests (Section 3.3).

        ``adjoint_map`` maps primal array functions to their adjoint array
        functions, e.g. ``{u: u_b, u_1: u_1_b}``; arrays not in the map are
        passive.  The map must contain every written (output) array of the
        nest.  ``strategy`` selects the boundary treatment: ``"disjoint"``
        (default, the paper's implementation), ``"guarded"`` or ``"padded"``.
        Returns the list of adjoint loop nests: boundary nests plus the core
        nest, in a deterministic order with disjoint iteration spaces.
        """
        from .transform import adjoint_loops  # local import: avoids cycle

        return adjoint_loops(self, adjoint_map, strategy=strategy, merge=merge)

    def tangent(self, seed_map: Mapping[sp.Basic, sp.Basic]) -> "LoopNest":
        """Generate the forward-mode (tangent) loop nest.

        The tangent of a gather stencil is itself a gather stencil with the
        same iteration space, so no loop transformation is needed.  Used for
        exact Jacobian-vector products in the verification suite.
        """
        from .diff import tangent_loop  # local import: avoids cycle

        return tangent_loop(self, seed_map)

    def __str__(self) -> str:
        hdr = ", ".join(
            f"{c} in [{self.bounds[c][0]}, {self.bounds[c][1]}]" for c in self.counters
        )
        body = "\n  ".join(str(st) for st in self.statements)
        label = f" '{self.name}'" if self.name else ""
        return f"LoopNest{label}({hdr}):\n  {body}"


def make_loop_nest(
    lhs: AppliedUndef,
    rhs: sp.Expr,
    counters: Sequence[sp.Symbol],
    bounds: Mapping[sp.Symbol, Sequence[sp.Expr]],
    op: str = "=",
    name: str = "",
) -> LoopNest:
    """Build a single-statement stencil loop nest (PerforAD ``makeLoopNest``).

    Parameters mirror Figure 4 of the paper: ``lhs`` is the written access
    (e.g. ``u(i, j, k)``), ``rhs`` the stencil expression, ``counters`` the
    loop counters outermost-first, and ``bounds`` a dict mapping each counter
    to ``[lo, hi]`` (inclusive).  The nest is validated against the
    restrictions of Section 3.4.
    """
    from .validate import validate_loop_nest  # local import: avoids cycle

    stmt = Statement(lhs=lhs, rhs=sp.sympify(rhs), op=op)
    nest = LoopNest(
        statements=(stmt,),
        counters=tuple(counters),
        bounds={c: (b[0], b[1]) for c, b in bounds.items()},
        name=name,
    )
    validate_loop_nest(nest)
    return nest
