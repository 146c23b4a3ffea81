"""Cross-implementation adjoint comparison (paper Section 3.6).

The paper verifies PerforAD by comparing its adjoints with those produced
by two independent conventional AD tools (ADIC and Tapenade) and reports
full agreement.  This module performs the same three-way comparison with
the reproduction's independent implementations:

1. the PerforAD-style *gather* adjoint (core + boundary loop nests),
2. the conventional *scatter* adjoint executed with slice updates,
3. the conventional scatter adjoint executed with ``np.add.at``
   (the atomic-analogue execution discipline),

plus, optionally, the pointwise reference interpreter running the gather
nests — four executions through genuinely different code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.base import StencilProblem
from ..baselines.atomic import AtomicScatterKernel
from ..baselines.scatter import tapenade_style_adjoint
from ..core.transform import adjoint_loops
from ..runtime.compiler import assert_disjoint_writes, compile_nests
from ..runtime.interpreter import interpret_nests

__all__ = ["AdjointComparison", "bitwise_equal", "compare_adjoints"]


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two arrays hold identical bits.

    The runtime's contract between execution tiers is bitwise, so this
    is stricter than ``np.array_equal``: NaNs with equal payloads
    compare equal (they are the same bits) and ``-0.0`` differs from
    ``+0.0``.

    >>> import numpy as np
    >>> from repro.verify import bitwise_equal
    >>> bitwise_equal(np.array([0.0]), np.array([-0.0]))
    False
    >>> bitwise_equal(np.array([np.nan]), np.array([np.nan]))
    True
    """
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@dataclass(frozen=True)
class AdjointComparison:
    """Maximum absolute disagreement of each pair of implementations."""

    gather_vs_scatter: float
    gather_vs_atomic: float
    gather_vs_interpreter: float | None

    def passed(self, tol: float = 1e-12) -> bool:
        vals = [self.gather_vs_scatter, self.gather_vs_atomic]
        if self.gather_vs_interpreter is not None:
            vals.append(self.gather_vs_interpreter)
        return all(v <= tol for v in vals)


def compare_adjoints(
    problem: StencilProblem,
    n: int,
    seed: int = 0,
    strategy: str = "disjoint",
    with_interpreter: bool = True,
) -> AdjointComparison:
    """Run the Section 3.6 agreement check at grid size *n*."""
    rng = np.random.default_rng(seed)
    bindings = problem.bindings(n)
    base = problem.allocate(n, rng=rng)
    adjoints = problem.allocate_adjoints(n, rng=rng)
    name_map = problem.adjoint_name_map()
    active = [name_map[a] for a in problem.active_input_names()]

    def fresh() -> dict[str, np.ndarray]:
        arrays = {k: a.copy() for k, a in base.items()}
        arrays.update({k: a.copy() for k, a in adjoints.items()})
        return arrays

    gather_nests = adjoint_loops(problem.primal, problem.adjoint_map, strategy=strategy)
    gather_kernel = compile_nests(gather_nests, bindings, name="gather")
    if strategy in ("disjoint", "guarded"):
        assert_disjoint_writes(gather_kernel)
    a_gather = fresh()
    gather_kernel(a_gather)

    scatter_nest = tapenade_style_adjoint(problem.primal, problem.adjoint_map)
    scatter_kernel = compile_nests([scatter_nest], bindings, name="scatter")
    a_scatter = fresh()
    scatter_kernel(a_scatter)

    atomic_kernel = AtomicScatterKernel(scatter_kernel)
    a_atomic = fresh()
    atomic_kernel(a_atomic)

    def max_diff(a, b) -> float:
        return max(
            float(np.max(np.abs(a[name] - b[name]))) for name in active
        )

    interp_diff = None
    if with_interpreter:
        a_interp = fresh()
        interpret_nests(gather_nests, a_interp, bindings)
        interp_diff = max_diff(a_gather, a_interp)

    return AdjointComparison(
        gather_vs_scatter=max_diff(a_gather, a_scatter),
        gather_vs_atomic=max_diff(a_gather, a_atomic),
        gather_vs_interpreter=interp_diff,
    )
