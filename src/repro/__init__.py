"""repro: reproduction of "Automatic Differentiation for Adjoint Stencil
Loops" (Hückelheim, Kukreja, Narayanan, Luporini, Gorman, Hovland;
ICPP 2019, DOI 10.1145/3337821.3337906).

The package implements the paper's PerforAD tool from scratch — symbolic
stencil differentiation plus the scatter-to-gather loop transformation that
makes reverse-mode AD of stencil loops parallelisable — together with every
substrate its evaluation needs: code generators (C/OpenMP, Fortran,
Python/NumPy), an executable kernel runtime with one plan/bind/run
execution route, conventional-AD baselines (scatter, atomics, value
stack), a calibrated machine performance model for the paper's Broadwell
and KNL systems, a verification suite, and the
wave/Burgers/heat/convolution application test cases.

Quick start::

    import sympy as sp
    from repro import make_loop_nest, print_function_c

    i = sp.symbols("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r, u_b, r_b = (sp.Function(s) for s in ["u", "r", "u_b", "r_b"])
    lp = make_loop_nest(lhs=r(i), rhs=2*u(i-1) - u(i+1), counters=[i],
                        bounds={i: [1, n - 1]})
    adjoint = lp.diff({r: r_b, u: u_b})   # gather-form adjoint loop nests
    print(print_function_c("example_b", adjoint))
"""

from .apps import (
    StencilProblem,
    burgers_problem,
    conv_problem,
    heat_problem,
    wave_problem,
)
from .baselines import (
    AtomicScatterKernel,
    StackAdjoint,
    tapenade_style_adjoint,
)
from .codegen import (
    print_function_c,
    print_function_fortran,
    print_function_python,
)
from .core import (
    LoopNest,
    Statement,
    StencilRestrictionError,
    adjoint_loops,
    make_loop_nest,
)
from .driver import AdjointTimeStepper, optimal_cost, schedule
from .errors import (
    CheckpointError,
    EnsembleBindError,
    KernelError,
    NativeBuildError,
    NumericalDivergenceError,
    ReproError,
    ValidationError,
)
from .frontend import parse_stencil, parse_stencils
from .machine import BROADWELL, KNL, V100, MachineModel, analyze_nests, analyze_scatter
from .runtime import (
    Bindings,
    EnsemblePlan,
    ExecutionConfig,
    ExecutionPlan,
    KernelCache,
    assert_disjoint_writes,
    clear_kernel_cache,
    compile_nests,
    get_kernel_cache,
    interpret_nests,
    stack_arrays,
)
from .tape import StencilOp, Variable
from .verify import compare_adjoints, dot_product_test, finite_difference_test
from .core.second_order import second_order_nests

__version__ = "1.0.0"

__all__ = [
    "AdjointTimeStepper",
    "AtomicScatterKernel",
    "BROADWELL",
    "Bindings",
    "CheckpointError",
    "EnsembleBindError",
    "KernelError",
    "NativeBuildError",
    "NumericalDivergenceError",
    "ReproError",
    "ValidationError",
    "V100",
    "Variable",
    "StencilOp",
    "KNL",
    "LoopNest",
    "MachineModel",
    "StackAdjoint",
    "Statement",
    "StencilProblem",
    "StencilRestrictionError",
    "adjoint_loops",
    "analyze_nests",
    "analyze_scatter",
    "assert_disjoint_writes",
    "burgers_problem",
    "clear_kernel_cache",
    "compare_adjoints",
    "compile_nests",
    "conv_problem",
    "EnsemblePlan",
    "ExecutionConfig",
    "ExecutionPlan",
    "KernelCache",
    "stack_arrays",
    "get_kernel_cache",
    "dot_product_test",
    "finite_difference_test",
    "heat_problem",
    "interpret_nests",
    "make_loop_nest",
    "optimal_cost",
    "parse_stencil",
    "parse_stencils",
    "print_function_c",
    "print_function_fortran",
    "print_function_python",
    "schedule",
    "second_order_nests",
    "tapenade_style_adjoint",
    "wave_problem",
    "__version__",
]
