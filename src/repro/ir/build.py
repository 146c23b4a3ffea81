"""Lowering :class:`~repro.core.loopnest.LoopNest` objects to the loop IR.

This is the "Loop Generation" stage of Figure 2: each region loop nest
becomes a ``Loop`` tree; single-iteration loops (the unrolled remainder
statements of Section 3.2) are flattened into straight-line statements.
A list of nests (e.g. the adjoint boundary nests plus core nest) becomes
one ``Function``.
"""

from __future__ import annotations

from typing import Sequence

import sympy as sp

from ..core.accesses import classify_applied
from ..core.loopnest import LoopNest, Statement
from ..core.symbols import array_name
from .nodes import Assign, Block, Comment, Function, Guard, Loop, Node

__all__ = ["statement_to_ir", "loopnest_to_ir", "function_from_nests"]


def statement_to_ir(stmt: Statement) -> Node:
    node: Node = Assign(
        target=stmt.target_name,
        indices=tuple(stmt.lhs.args),
        rhs=stmt.rhs,
        op=stmt.op,
    )
    if stmt.guard is not None:
        node = Guard(condition=stmt.guard, body=(node,))
    return node


def loopnest_to_ir(
    nest: LoopNest,
    parallel: bool = True,
    unroll_single: bool = True,
) -> Node:
    """Lower one nest to a ``Loop`` tree.

    ``parallel`` marks the outermost surviving loop as parallel (the OpenMP
    ``parallel for`` of the paper's generated code).  With ``unroll_single``
    (default), loops whose bounds coincide symbolically are eliminated by
    substituting the counter — this reproduces PerforAD's unrolled remainder
    statements.
    """
    body: tuple[Node, ...] = tuple(statement_to_ir(s) for s in nest.statements)
    # Build loops innermost-first.
    loops_needed: list[sp.Symbol] = []
    subs: dict[sp.Symbol, sp.Expr] = {}
    for c in nest.counters:
        lo, hi = nest.bounds[c]
        if unroll_single and sp.simplify(hi - lo) == 0:
            subs[c] = lo
        else:
            loops_needed.append(c)
    if subs:
        body = tuple(_subs_node(n, subs) for n in body)
    for idx, c in enumerate(reversed(loops_needed)):
        lo, hi = nest.bounds[c]
        lo, hi = lo.subs(subs), hi.subs(subs)
        outermost = idx == len(loops_needed) - 1
        body = (
            Loop(
                counter=c,
                lower=lo,
                upper=hi,
                body=body,
                parallel=parallel and outermost,
                private=tuple(loops_needed) if (parallel and outermost) else (),
            ),
        )
    if len(body) == 1:
        return body[0]
    return Block(body=body)


def _subs_node(node: Node, subs: dict[sp.Symbol, sp.Expr]) -> Node:
    if isinstance(node, Assign):
        return Assign(
            target=node.target,
            indices=tuple(i.subs(subs) for i in node.indices),
            rhs=node.rhs.subs(subs),
            op=node.op,
        )
    if isinstance(node, Guard):
        return Guard(
            condition=node.condition.subs(subs),
            body=tuple(_subs_node(n, subs) for n in node.body),
        )
    if isinstance(node, Loop):
        return Loop(
            counter=node.counter,
            lower=node.lower.subs(subs),
            upper=node.upper.subs(subs),
            body=tuple(_subs_node(n, subs) for n in node.body),
            parallel=node.parallel,
            private=node.private,
            shared=node.shared,
        )
    if isinstance(node, Block):
        return Block(body=tuple(_subs_node(n, subs) for n in node.body))
    return node


def _collect_arrays(nests: Sequence[LoopNest]) -> dict[str, int]:
    ranks: dict[str, int] = {}
    for nest in nests:
        for stmt in nest.statements:
            ranks[stmt.target_name] = len(stmt.lhs.args)
            accesses, _calls = classify_applied(stmt.rhs, nest.counters)
            for a in accesses:
                ranks.setdefault(array_name(a), len(a.args))
    return ranks


def function_from_nests(
    name: str,
    nests: Sequence[LoopNest],
    parallel: bool = True,
    unroll_single: bool = True,
) -> Function:
    """Bundle several loop nests (e.g. boundary + core) into one function."""
    nests = list(nests)
    body: list[Node] = []
    for nest in nests:
        if nest.name:
            body.append(Comment(nest.name))
        body.append(loopnest_to_ir(nest, parallel=parallel, unroll_single=unroll_single))
    sizes: set[sp.Symbol] = set()
    scalars: set[sp.Symbol] = set()
    for nest in nests:
        sizes |= set(nest.size_symbols())
        scalars |= set(nest.scalar_parameters())
    scalars -= sizes
    ranks = _collect_arrays(nests)
    return Function(
        name=name,
        array_ranks=ranks,
        sizes=tuple(sorted(sizes, key=lambda s: s.name)),
        scalars=tuple(sorted(scalars, key=lambda s: s.name)),
        body=tuple(body),
    )
