"""Adjoint dot-product (inner-product) consistency test.

For the stencil Jacobian ``J = d out / d inputs``, forward mode computes
``J v`` (tangent loop, Section :meth:`LoopNest.tangent`) and reverse mode
computes ``J^T w`` (the adjoint stencil loops).  Consistency requires

    < J v, w >  ==  < v, J^T w >

exactly (up to roundoff), for arbitrary directions ``v`` and seeds ``w``.
This is the standard machine-precision adjoint test used instead of the
truncation-limited finite-difference check wherever possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from ..apps.base import StencilProblem
from ..core.transform import adjoint_loops
from ..runtime.compiler import compile_nests

__all__ = ["DotProductResult", "dot_product_test"]


@dataclass(frozen=True)
class DotProductResult:
    lhs: float  # < J v, w >
    rhs: float  # < v, J^T w >
    rel_error: float

    @property
    def passed(self) -> bool:
        return self.rel_error < 1e-12


def dot_product_test(
    problem: StencilProblem,
    n: int,
    seed: int = 0,
    strategy: str = "disjoint",
) -> DotProductResult:
    """Run the dot-product test on a stencil problem at grid size *n*."""
    rng = np.random.default_rng(seed)
    bindings = problem.bindings(n)
    arrays = problem.allocate(n, rng=rng)
    shape = problem.array_shape(n)
    name_map = problem.adjoint_name_map()
    out_name = problem.output_name
    active_inputs = problem.active_input_names()

    # Tangent sweep: r_d = J v.
    tangent_map = {
        prim: sp.Function(prim.__name__ + "_d") for prim in problem.adjoint_map
    }
    tan_nest = problem.primal.tangent(tangent_map)
    tan_arrays = dict(arrays)
    directions: dict[str, np.ndarray] = {}
    for prim, tang in tangent_map.items():
        pname, tname = prim.__name__, tang.__name__
        if pname == out_name:
            tan_arrays[tname] = np.zeros(shape)
        else:
            directions[pname] = rng.standard_normal(shape)
            tan_arrays[tname] = directions[pname]
    compile_nests([tan_nest], bindings, name="tangent")(tan_arrays)
    jv = tan_arrays[out_name + "_d"]

    # Adjoint sweep: u_b = J^T w.
    w = rng.standard_normal(shape)
    adj_nests = adjoint_loops(problem.primal, problem.adjoint_map, strategy=strategy)
    adj_arrays = dict(arrays)
    adj_arrays.update(problem.allocate_adjoints(n, seed=w))
    compile_nests(adj_nests, bindings, name="adjoint")(adj_arrays)

    lhs = float(np.vdot(jv, w))
    rhs = 0.0
    for pname in active_inputs:
        rhs += float(np.vdot(directions[pname], adj_arrays[name_map[pname]]))
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return DotProductResult(lhs=lhs, rhs=rhs, rel_error=abs(lhs - rhs) / denom)
