"""Restriction checking (paper Section 3.4).

PerforAD's transformation is only valid for loop nests satisfying:

* the nest is perfect (here structural: a :class:`LoopNest` is perfect by
  construction, so we check the statement forms instead);
* output arrays are written at (a permuted subset of) bare loop counters;
* input arrays are read at ``counter + compile-time integer constant``;
* the sets of read and written arrays do not intersect (an array may be
  incremented with ``+=``, which reads and writes the same array, but may
  not appear on both sides otherwise);
* loop bounds are affine in size parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from ..errors import ValidationError
from .accesses import InvalidAccessError, classify_applied, extract_access
from .loopnest import LoopNest, Statement
from .symbols import array_name

__all__ = [
    "StencilRestrictionError",
    "validate_loop_nest",
    "validate_statement",
    "SpecLimits",
    "DEFAULT_SPEC_LIMITS",
    "validate_untrusted",
]


class StencilRestrictionError(ValidationError):
    """A loop nest violates the restrictions of Section 3.4.

    Subclasses :class:`~repro.errors.ValidationError` (and therefore
    ``ValueError``, its historical base) so spec rejections are part of
    the typed graceful-degradation surface.
    """


def _check_affine(expr: sp.Expr, counters: tuple[sp.Symbol, ...], what: str) -> None:
    expr = sp.sympify(expr)
    for c in counters:
        if c in expr.free_symbols:
            raise StencilRestrictionError(
                f"{what} {expr} depends on loop counter {c}; bounds must not"
            )
    poly_syms = sorted(expr.free_symbols, key=lambda s: s.name)
    if poly_syms:
        try:
            poly = sp.Poly(expr, *poly_syms)
        except sp.PolynomialError as exc:
            raise StencilRestrictionError(f"{what} {expr} is not affine") from exc
        if poly.total_degree() > 1:
            raise StencilRestrictionError(f"{what} {expr} is not affine (degree > 1)")


def validate_statement(stmt: Statement, counters: tuple[sp.Symbol, ...]) -> None:
    """Validate one statement against the access-form restrictions."""
    # Output: written at bare counters (permuted subset allowed).
    lhs_pat = extract_access(stmt.lhs, counters)
    if any(o != 0 for o in lhs_pat.offsets):
        raise StencilRestrictionError(
            f"output access {stmt.lhs} must use bare loop counters "
            f"(offsets {lhs_pat.offsets})"
        )

    written = stmt.target_name
    try:
        accesses, _calls = classify_applied(stmt.rhs, counters)
    except InvalidAccessError as exc:
        raise StencilRestrictionError(str(exc)) from exc
    for acc in accesses:
        if array_name(acc) == written:
            raise StencilRestrictionError(
                f"array {written} is both read and written in {stmt}; "
                "read/write sets must not intersect (Section 3.4)"
            )


def validate_loop_nest(nest: LoopNest) -> None:
    """Validate a whole nest; raises :class:`StencilRestrictionError`."""
    if len(set(nest.counters)) != len(nest.counters):
        raise StencilRestrictionError("duplicate loop counters in nest")
    for c in nest.counters:
        lo, hi = nest.bounds[c]
        _check_affine(lo, nest.counters, f"lower bound of {c}")
        _check_affine(hi, nest.counters, f"upper bound of {c}")
    written: set[str] = set()
    read: set[str] = set()
    for stmt in nest.statements:
        validate_statement(stmt, nest.counters)
        written.add(stmt.target_name)
        read |= {array_name(a) for a in stmt.read_accesses()}
    overlap = written & read
    if overlap:
        raise StencilRestrictionError(
            f"arrays {sorted(overlap)} are both read and written in the nest"
        )


# -- resource limits for untrusted specs --------------------------------------


@dataclass(frozen=True)
class SpecLimits:
    """Resource caps applied to kernel specs from untrusted sources.

    The frontend (ROADMAP item 2: the compile-and-serve daemon) accepts
    stencil programs over the wire; an adversarial — or merely buggy —
    spec must be rejected with a typed
    :class:`~repro.errors.ValidationError` *before* it can exhaust the
    process: a megabyte of nested parentheses (parser recursion), a
    statement with millions of expression nodes (lambdify/codegen
    blow-up), or loop bounds sized to allocate the address space.  The
    defaults are far above anything the paper's stencils need, so
    trusted in-process callers never notice them.
    """

    max_source_bytes: int = 1 << 20  # 1 MiB of stencil text
    max_statements: int = 512  # per stencil
    max_expr_nodes: int = 20_000  # sympy nodes per statement
    max_counters: int = 8  # loop-nest dimensionality
    # Each grammar level costs ~5 interpreter stack frames
    # (expr/term/unary/power/atom), so the cap must stay well under a
    # fifth of sys.getrecursionlimit() or RecursionError fires first.
    max_expr_depth: int = 100  # parser recursion depth
    max_loop_extent: int = 1 << 32  # concrete iterations per axis


DEFAULT_SPEC_LIMITS = SpecLimits()


def _expr_nodes(expr: sp.Expr) -> int:
    return sum(1 for _ in sp.preorder_traversal(expr))


def validate_untrusted(
    nest: LoopNest, limits: SpecLimits = DEFAULT_SPEC_LIMITS
) -> None:
    """Enforce *limits* on a parsed nest; raises :class:`ValidationError`.

    Complements :func:`validate_loop_nest` (which checks the paper's
    *semantic* restrictions): this checks *resource* bounds — statement
    and dimension counts, per-statement expression size, and concrete
    loop extents.  Symbolic bounds are checked again at bind time when
    sizes become concrete; here only literal extents can be judged.
    """
    if len(nest.counters) > limits.max_counters:
        raise ValidationError(
            f"nest {nest.name!r} has {len(nest.counters)} loop counters; "
            f"the limit is {limits.max_counters}"
        )
    if len(nest.statements) > limits.max_statements:
        raise ValidationError(
            f"nest {nest.name!r} has {len(nest.statements)} statements; "
            f"the limit is {limits.max_statements}"
        )
    for stmt in nest.statements:
        nodes = _expr_nodes(stmt.rhs) + _expr_nodes(stmt.lhs)
        if nodes > limits.max_expr_nodes:
            raise ValidationError(
                f"statement writing {stmt.target_name!r} has {nodes} "
                f"expression nodes; the limit is {limits.max_expr_nodes}"
            )
    for c in nest.counters:
        lo, hi = nest.bounds[c]
        extent = sp.simplify(sp.sympify(hi) - sp.sympify(lo) + 1)
        if extent.is_Integer and int(extent) > limits.max_loop_extent:
            raise ValidationError(
                f"loop {c} spans {int(extent)} iterations; the limit is "
                f"{limits.max_loop_extent}"
            )
