"""Stack-based save/restore of nonlinear intermediates (Tapenade model).

For nonlinear primal bodies, Tapenade evaluates the nonlinear intermediate
values (the Burgers ``fmin``/``fmax`` results, Section 4.2) in a *forward
sweep*, pushes them onto a LIFO value stack, and pops them in the *reverse
sweep*.  The pops must occur in exactly the reverse push order, which is
what makes the stack variant impossible to parallelise and — because the
stack traffic is strided backwards through memory in small blocks — slower
even in serial than recomputing the values (Figure 15: 95.74 s vs 51.85 s
on KNL).

``StackAdjoint`` reproduces that execution discipline: the forward sweep
pushes each nonlinear subexpression's values chunk-by-chunk onto a
:class:`ValueStack`; the reverse sweep pops chunks in reverse order and
feeds them to the scatter adjoint as materialised "stack arrays".  The
chunked push/pop loop models the per-element stack bookkeeping cost of the
Tapenade runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import sympy as sp

from ..core.diff import adjoint_scatter_loop
from ..core.loopnest import LoopNest, Statement
from ..runtime.bindings import Bindings
from ..runtime.compiler import CompiledKernel, KernelError, compile_nests

__all__ = ["ValueStack", "StackAdjoint", "nonlinear_intermediates"]


class ValueStack:
    """A LIFO value stack with chunked push/pop, as in AD tool runtimes."""

    def __init__(self, chunk: int = 2048):
        self.chunk = int(chunk)
        self._blocks: list[np.ndarray] = []
        self.bytes_pushed = 0

    def push(self, values: np.ndarray) -> None:
        flat = np.ravel(values)
        for start in range(0, flat.size, self.chunk):
            block = flat[start : start + self.chunk].copy()
            self._blocks.append(block)
            self.bytes_pushed += block.nbytes

    def pop(self, size: int) -> np.ndarray:
        out = np.empty(size)
        filled = size
        while filled > 0:
            if not self._blocks:
                raise KernelError("value stack underflow")
            block = self._blocks.pop()
            out[filled - block.size : filled] = block
            filled -= block.size
        return out

    @property
    def depth(self) -> int:
        return sum(b.size for b in self._blocks)


def nonlinear_intermediates(nest: LoopNest) -> list[sp.Expr]:
    """Nonlinear subexpressions Tapenade would precompute and stack.

    For the stencil class of this paper these are the ``Max``/``Min``
    applications of the primal body (the upwinding switches).  Sorted
    deterministically.
    """
    found: set[sp.Expr] = set()
    for stmt in nest.statements:
        found |= stmt.rhs.atoms(sp.Max) | stmt.rhs.atoms(sp.Min)
    return sorted(found, key=sp.default_sort_key)


@dataclass
class StackAdjoint:
    """Forward-sweep/reverse-sweep adjoint with a value stack.

    Parameters
    ----------
    primal:
        The primal stencil loop nest.
    adjoint_map:
        Primal array -> adjoint array mapping (as for ``LoopNest.diff``).
    bindings:
        Concrete sizes/params.
    chunk:
        Stack block size in elements; smaller chunks mean more bookkeeping,
        as in a real AD runtime.
    """

    primal: LoopNest
    adjoint_map: Mapping[sp.Basic, sp.Basic]
    bindings: Bindings
    chunk: int = 2048

    def __post_init__(self) -> None:
        self._intermediates = nonlinear_intermediates(self.primal)
        counters = self.primal.counters
        self._stack_arrays = [sp.Function(f"_stk{k}") for k in range(len(self._intermediates))]

        # Forward sweep: one nest evaluating each intermediate over the
        # primal iteration space.
        fwd_stmts = [
            Statement(lhs=fn(*counters), rhs=expr, op="=")
            for fn, expr in zip(self._stack_arrays, self._intermediates)
        ]
        self._forward = (
            LoopNest(
                statements=tuple(fwd_stmts),
                counters=counters,
                bounds=dict(self.primal.bounds),
                name=(self.primal.name or "primal") + "_fwd_push",
            )
            if fwd_stmts
            else None
        )

        # Reverse sweep: the conventional scatter adjoint, with every
        # nonlinear intermediate replaced by its stacked value.
        scatter = adjoint_scatter_loop(self.primal, self.adjoint_map)
        repl = {
            expr: fn(*counters)
            for fn, expr in zip(self._stack_arrays, self._intermediates)
        }
        rev_stmts = tuple(
            Statement(lhs=st.lhs, rhs=st.rhs.xreplace(repl), op=st.op)
            for st in scatter.statements
        )
        self._reverse = LoopNest(
            statements=rev_stmts,
            counters=counters,
            bounds=dict(scatter.bounds),
            name=scatter.name + "_stack",
        )

        self._fwd_kernel: CompiledKernel | None = (
            compile_nests([self._forward], self.bindings, name="fwd_push")
            if self._forward
            else None
        )
        self._rev_kernel = compile_nests([self._reverse], self.bindings, name="rev_pop")

    @property
    def num_intermediates(self) -> int:
        return len(self._intermediates)

    def _iteration_shape(self) -> tuple[int, ...]:
        shape = []
        for c in self.primal.counters:
            lo = self.bindings.int_bound(self.primal.bounds[c][0])
            hi = self.bindings.int_bound(self.primal.bounds[c][1])
            shape.append(hi - lo + 1)
        return tuple(shape)

    def run(self, arrays: Mapping[str, np.ndarray]) -> ValueStack:
        """Execute forward (push) then reverse (pop) sweep on *arrays*.

        Returns the (drained) stack, whose ``bytes_pushed`` records the
        extra memory traffic the stack imposed — used by the machine model.
        """
        arrays = dict(arrays)
        stack = ValueStack(chunk=self.chunk)
        shape = self._iteration_shape()
        full_shapes = {}
        for k, fn in enumerate(self._stack_arrays):
            # Stack arrays are indexed at the counters' absolute positions,
            # so allocate like the primal output array for simplicity.
            name = fn.__name__
            out_name = self.primal.statements[0].target_name
            full_shapes[name] = arrays[out_name].shape
            arrays[name] = np.zeros(full_shapes[name])
        if self._fwd_kernel is not None:
            self._fwd_kernel(arrays)
            for fn in self._stack_arrays:
                stack.push(arrays[fn.__name__])
                arrays[fn.__name__][...] = 0.0  # values now live on the stack
        # Reverse sweep: pop values (reverse order) back into arrays.
        for fn in reversed(self._stack_arrays):
            name = fn.__name__
            flat = stack.pop(int(np.prod(full_shapes[name])))
            arrays[name][...] = flat.reshape(full_shapes[name])
        self._rev_kernel(arrays)
        return stack
