"""Python/NumPy back-end tests: generated source must compile and agree
with the directly compiled kernels."""

import numpy as np
import pytest

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.codegen import print_function_python
from repro.core import adjoint_loops
from repro.runtime import compile_nests


def exec_generated(code: str, fname: str):
    ns: dict = {}
    exec(compile(code, f"<generated {fname}>", "exec"), ns)
    return ns[fname]


def test_generated_source_is_valid_python():
    prob = wave_problem(2)
    code = print_function_python("wave2d", [prob.primal])
    fn = exec_generated(code, "wave2d")
    assert callable(fn)


@pytest.mark.parametrize("factory,N", [
    (lambda: wave_problem(2), 14),
    (lambda: burgers_problem(1), 30),
    (lambda: heat_problem(2), 12),
])
def test_generated_primal_matches_compiled(factory, N):
    prob = factory()
    code = print_function_python("primal", [prob.primal])
    fn = exec_generated(code, "primal")
    rng = np.random.default_rng(3)
    a1 = prob.allocate(N, rng=rng)
    a2 = {k: v.copy() for k, v in a1.items()}
    fn(a1, n=N, **prob.param_defaults)
    compile_nests([prob.primal], prob.bindings(N))(a2)
    for k in a1:
        np.testing.assert_allclose(a1[k], a2[k], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("strategy", ["disjoint", "guarded"])
def test_generated_adjoint_matches_compiled(strategy):
    prob = burgers_problem(1)
    N = 30
    nests = adjoint_loops(prob.primal, prob.adjoint_map, strategy=strategy)
    code = print_function_python("adj", nests)
    fn = exec_generated(code, "adj")
    rng = np.random.default_rng(4)
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    a1 = {k: v.copy() for k, v in base.items()}
    a2 = {k: v.copy() for k, v in base.items()}
    fn(a1, n=N, **prob.param_defaults)
    compile_nests(nests, prob.bindings(N))(a2)
    np.testing.assert_allclose(a1["u_1_b"], a2["u_1_b"], rtol=1e-12, atol=1e-14)


def test_empty_region_guard_in_source():
    """Generated code skips regions that are empty at runtime (small n)."""
    prob = heat_problem(1)
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    code = print_function_python("adj", nests)
    fn = exec_generated(code, "adj")
    # n = 4: core region [2, n-3] = [2, 1] is empty; must not raise.
    N = 4
    arrays = prob.allocate(N)
    arrays.update(prob.allocate_adjoints(N))
    fn(arrays, n=N, **prob.param_defaults)


def test_heaviside_rendered_as_np_where():
    prob = burgers_problem(1)
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    code = print_function_python("adj", nests)
    assert "np.where(" in code
    assert "np.maximum(" in code and "np.minimum(" in code


def test_docstring_embedded():
    prob = heat_problem(1)
    code = print_function_python("f", [prob.primal], docstring="hello doc")
    assert "hello doc" in code
