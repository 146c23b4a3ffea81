"""Stencil loops as custom primitives of the tape framework.

This is the combination the paper's conclusion plans: the surrounding
program is differentiated by conventional operator-overloading AD
(:mod:`repro.tape.core`), while each stencil loop is a single taped
primitive whose vector-Jacobian product is the PerforAD-generated gather
adjoint — executed by the NumPy kernel runtime, parallelisable, race-free.

``StencilOp`` compiles the primal and adjoint kernels once per
(problem, size) pair; calling it inside a taped computation records one
node whose backward pass seeds the output adjoint with the upstream
gradient and runs the adjoint stencil loops.
"""

from __future__ import annotations


import numpy as np

from ..apps.base import StencilProblem
from ..core.transform import adjoint_loops
from ..runtime.compiler import compile_nests
from .core import Variable

__all__ = ["StencilOp"]


class StencilOp:
    """A differentiable stencil application for the tape framework.

    Parameters
    ----------
    problem:
        The stencil problem (primal nest + adjoint map).
    n:
        Grid size; kernels are compiled for it once.
    strategy:
        Boundary strategy for the adjoint loops.

    Calling the op with keyword :class:`Variable` arguments (one per
    primal input array; passive inputs may be plain arrays) returns a
    :class:`Variable` holding the stencil output.
    """

    def __init__(self, problem: StencilProblem, n: int, strategy: str = "disjoint"):
        self.problem = problem
        self.n = n
        self.bindings = problem.bindings(n)
        self.primal_kernel = compile_nests(
            [problem.primal], self.bindings, name=problem.name
        )
        self.adjoint_kernel = compile_nests(
            adjoint_loops(problem.primal, problem.adjoint_map, strategy=strategy),
            self.bindings,
            name=problem.name + "_b",
        )
        self.name_map = problem.adjoint_name_map()
        self.active = list(problem.active_input_names())
        self.inputs = list(problem.input_names())
        self.output = problem.output_name
        self.shape = problem.array_shape(n)

    def __call__(self, **inputs) -> Variable:
        """Apply the stencil; records one tape node.

        Every primal input array must be supplied by name; active inputs
        may be :class:`Variable` (tracked) or arrays (treated constant).
        """
        missing = [k for k in self.inputs if k not in inputs]
        if missing:
            raise TypeError(f"missing stencil inputs: {missing}")
        values: dict[str, np.ndarray] = {}
        tracked: dict[str, Variable] = {}
        for name, arg in inputs.items():
            if isinstance(arg, Variable):
                if name not in self.active:
                    raise TypeError(
                        f"input {name!r} is passive for differentiation but "
                        "was passed as a Variable; pass a plain array or "
                        "activate it in the adjoint map"
                    )
                tracked[name] = arg
                values[name] = arg.value
            else:
                values[name] = np.asarray(arg, dtype=float)
            if values[name].shape != self.shape:
                raise ValueError(
                    f"input {name!r} has shape {values[name].shape}, "
                    f"expected {self.shape}"
                )

        arrays = dict(values)
        arrays[self.output] = np.zeros(self.shape)
        self.primal_kernel(arrays)
        out_value = arrays[self.output]

        def make_vjp(input_name: str):
            def vjp(upstream: np.ndarray) -> np.ndarray:
                adj = dict(values)
                adj[self.name_map[self.output]] = np.asarray(upstream, dtype=float)
                for active_name in self.active:
                    adj[self.name_map[active_name]] = np.zeros(self.shape)
                self.adjoint_kernel(adj)
                return adj[self.name_map[input_name]]

            return vjp

        parents = [(var, make_vjp(name)) for name, var in tracked.items()]
        return Variable(out_value, parents)
