"""Per-statement symbolic differentiation (paper Section 3.3.1).

Given a primal stencil statement ``r(i,...) (+)= f(u(i+o1,...), ...)``,
reverse-mode AD produces one *adjoint scatter statement* per distinct
active input access::

    u_b(i + o_l, ...) += (d f / d u(i + o_l, ...)) * r_b(i, ...)

The partial derivatives are computed with SymPy's symbolic differentiation
(exact, including piecewise-differentiable ``Max``/``Min``, which yield
``Heaviside`` factors).  For large loop bodies the user may instead supply
an *uninterpreted function*; its partials appear as SymPy ``Derivative`` /
``Subs`` objects that back-ends print as calls to externally provided
derivative routines.

The statements produced here still form the scatter operation of
conventional AD; :mod:`repro.core.shift` and :mod:`repro.core.regions`
turn them into gather stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import sympy as sp

from .accesses import classify_applied, extract_access
from .loopnest import LoopNest, Statement
from .symbols import array_name

__all__ = [
    "AdjointContribution",
    "adjoint_scatter_statements",
    "adjoint_scatter_loop",
    "tangent_loop",
    "ActivityError",
]


class ActivityError(ValueError):
    """Raised when the activity (adjoint) mapping is inconsistent."""


@dataclass(frozen=True)
class AdjointContribution:
    """One adjoint scatter statement together with its offset vector.

    ``offset`` is the constant offset of the written adjoint access relative
    to the loop counters, i.e. the vector :math:`o` of Section 3.3.2.
    """

    statement: Statement
    offset: tuple[int, ...]


def _adjoint_func_map(
    adjoint_map: Mapping[sp.Basic, sp.Basic],
) -> dict[str, sp.Basic]:
    """Normalise the user-facing map to array-name -> adjoint function."""
    out: dict[str, sp.Basic] = {}
    for prim, adj in adjoint_map.items():
        out[array_name(prim)] = adj
    return out


def adjoint_scatter_statements(
    nest: LoopNest,
    adjoint_map: Mapping[sp.Basic, sp.Basic],
) -> list[AdjointContribution]:
    """Differentiate each statement of *nest*, yielding scatter updates.

    Returns one :class:`AdjointContribution` per (statement, distinct active
    input access) pair, in deterministic order.  This is exactly the
    conventional reverse-mode adjoint of the loop body (the "Adjoint
    Scatter" stage in Figure 2), before any loop transformation.
    """
    by_name = _adjoint_func_map(adjoint_map)
    counters = nest.counters
    contributions: list[AdjointContribution] = []
    # Reverse statement order: reverse-mode AD traverses the body backwards.
    for stmt in reversed(nest.statements):
        out_name = stmt.target_name
        if out_name not in by_name:
            raise ActivityError(
                f"output array {out_name!r} has no adjoint in the adjoint map; "
                "every written array must be active"
            )
        out_adj = by_name[out_name](*stmt.lhs.args)
        accesses, _calls = classify_applied(stmt.rhs, counters)
        for acc in accesses:
            name = array_name(acc)
            if name not in by_name:
                continue  # passive input (e.g. the coefficient array c)
            partial = sp.diff(stmt.rhs, acc)
            if partial == 0:
                continue
            adj_target = by_name[name](*acc.args)
            pat = extract_access(acc, counters)
            contributions.append(
                AdjointContribution(
                    statement=Statement(lhs=adj_target, rhs=partial * out_adj, op="+="),
                    offset=pat.offset_for(counters),
                )
            )
    return contributions


def adjoint_scatter_loop(
    nest: LoopNest,
    adjoint_map: Mapping[sp.Basic, sp.Basic],
    reverse_iteration: bool = False,
) -> LoopNest:
    """The conventional (Tapenade-style) adjoint: a scatter loop nest.

    This is the baseline the paper compares against: all adjoint updates are
    kept at their scattered indices inside a single loop over the *primal*
    iteration space.  ``reverse_iteration`` only matters for code generators
    that print explicit loops (Tapenade iterates backwards); the set of
    updates is order-independent under the associativity assumption of
    Section 3.5.
    """
    contribs = adjoint_scatter_statements(nest, adjoint_map)
    stmts = tuple(c.statement for c in contribs)
    name = (nest.name + "_b" if nest.name else "adjoint_scatter")
    out = LoopNest(
        statements=stmts,
        counters=nest.counters,
        bounds=dict(nest.bounds),
        name=name,
    )
    if reverse_iteration:
        # Represented by metadata-free convention: backends that care emit
        # a downward loop; iteration direction does not change the result.
        pass
    return out


def tangent_loop(
    nest: LoopNest,
    seed_map: Mapping[sp.Basic, sp.Basic],
) -> LoopNest:
    """Forward-mode (tangent) differentiation of the nest.

    ``seed_map`` maps primal arrays to tangent arrays, for both inputs and
    outputs: ``{u: u_d, u_1: u_1_d}``.  The tangent statement for
    ``r(i) (+)= f(...)`` is ``r_d(i) (+)= sum_l df/du(i+o_l) * u_d(i+o_l)``,
    which is again a gather stencil over the same iteration space — this is
    why forward mode needs no loop transformation, and it provides exact
    Jacobian-vector products for the verification suite.
    """
    by_name = _adjoint_func_map(seed_map)
    counters = nest.counters
    out_statements: list[Statement] = []
    for stmt in nest.statements:
        out_name = stmt.target_name
        if out_name not in by_name:
            raise ActivityError(
                f"output array {out_name!r} has no tangent in the seed map"
            )
        accesses, _calls = classify_applied(stmt.rhs, counters)
        total: sp.Expr = sp.Integer(0)
        for acc in accesses:
            name = array_name(acc)
            if name not in by_name:
                continue
            partial = sp.diff(stmt.rhs, acc)
            if partial == 0:
                continue
            total = total + partial * by_name[name](*acc.args)
        out_statements.append(
            Statement(lhs=by_name[out_name](*stmt.lhs.args), rhs=total, op=stmt.op)
        )
    name = (nest.name + "_d" if nest.name else "tangent")
    return LoopNest(
        statements=tuple(out_statements),
        counters=nest.counters,
        bounds=dict(nest.bounds),
        name=name,
    )
