"""Conventional reverse-mode adjoint: the Tapenade-style scatter baseline.

The paper's comparison point (Sections 3.6, 4, 5) is the adjoint produced
by a general-purpose source-transformation AD tool: the loop structure of
the primal is kept, iterated backwards, and each active input access gets
a scattered ``+=`` update.  Common subexpressions shared by the updates of
one iteration are factored into temporaries (Tapenade's ``tempb``), which
is why the conventional adjoint is *faster in serial* than the PerforAD
adjoint (Section 5.1: 5.43 s vs 8.52 s for the wave equation) — PerforAD
re-derives each product independently per gathered statement.

This module generates that baseline independently of the PerforAD pipeline
(it never shifts indices or splits iteration spaces), so the Section 3.6
three-way verification — PerforAD vs conventional AD vs finite differences
— compares genuinely distinct implementations.
"""

from __future__ import annotations

from typing import Mapping

import sympy as sp

from ..core.diff import adjoint_scatter_loop
from ..core.loopnest import LoopNest
from ..codegen.c import CPrinter

__all__ = ["tapenade_style_adjoint", "print_function_c_atomic", "cse_statements"]


def tapenade_style_adjoint(
    nest: LoopNest, adjoint_map: Mapping[sp.Basic, sp.Basic]
) -> LoopNest:
    """Conventional scatter adjoint of a stencil loop nest.

    Returns one loop nest over the *primal* iteration space whose body
    scatters adjoint contributions to offset indices — correct serially,
    but racy under loop-level parallelisation (hence the atomics of
    :mod:`repro.baselines.atomic`).
    """
    return adjoint_scatter_loop(nest, adjoint_map, reverse_iteration=True)


def cse_statements(nest: LoopNest) -> tuple[int, int]:
    """Operation counts (before, after) common-subexpression elimination.

    Models Tapenade's factoring of shared products into temporaries; used
    by the machine model to credit the conventional adjoint with its lower
    serial operation count.
    """
    exprs = [st.rhs for st in nest.statements]
    before = sum(sp.count_ops(e) for e in exprs)
    repl, reduced = sp.cse(exprs)
    after = sum(sp.count_ops(e) for _, e in repl) + sum(
        sp.count_ops(e) for e in reduced
    )
    return int(before), int(after)


def print_function_c_atomic(name: str, nest: LoopNest) -> str:
    """C code for the manually parallelised scatter adjoint (Figure 5, bottom).

    Emits the conventional adjoint loop with ``#pragma omp parallel for``
    on the outer loop and ``#pragma omp atomic`` in front of every
    scattered update, exactly as the paper constructs its "Atomics"
    baseline from Tapenade output.
    """
    printer = CPrinter()
    lines: list[str] = []
    arrays: dict[str, int] = {}
    for st in nest.statements:
        arrays[st.target_name] = len(st.lhs.args)
        for acc in st.read_accesses():
            arrays.setdefault(acc.func.__name__, len(acc.args))
    sizes = nest.size_symbols()
    scalars = nest.scalar_parameters()
    params = [f"double {'*' * rank}{n}" for n, rank in arrays.items()]
    params += [f"double {s}" for s in scalars]
    params += [f"int {s}" for s in sizes]
    lines.append(f"void {name}({', '.join(params)}) {{")
    counters = ", ".join(str(c) for c in nest.counters)
    lines.append(f"  int {counters};")
    private = ",".join(str(c) for c in nest.counters)
    lines.append(f"  #pragma omp parallel for private({private})")
    indent = "  "
    for c in nest.counters:
        lo, hi = nest.bounds[c]
        # Tapenade iterates the adjoint loop backwards.
        lines.append(
            f"{indent}for ({c} = {printer.doprint(hi)}; {c} >= "
            f"{printer.doprint(lo)}; --{c}) {{"
        )
        indent += "  "
    for st in nest.statements:
        idx = "".join(f"[{printer.doprint(a)}]" for a in st.lhs.args)
        rhs = printer.doprint(st.rhs)
        lines.append(f"{indent}#pragma omp atomic")
        lines.append(f"{indent}{st.target_name}{idx} += {rhs};")
    for _ in nest.counters:
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"
