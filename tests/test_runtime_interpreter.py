"""Reference interpreter tests: exact agreement with compiled kernels."""

import numpy as np
import sympy as sp

from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import Bindings, compile_nests, interpret_nests

i, j = sp.symbols("i j", integer=True)
n = sp.Symbol("n", integer=True)
u, r = sp.Function("u"), sp.Function("r")


def test_interpreter_matches_compiled_primal(any_problem, rng):
    prob, N = any_problem
    a1 = prob.allocate(N, rng=rng)
    a2 = {k: v.copy() for k, v in a1.items()}
    compile_nests([prob.primal], prob.bindings(N))(a1)
    interpret_nests([prob.primal], a2, prob.bindings(N))
    np.testing.assert_allclose(
        a1[prob.output_name], a2[prob.output_name], rtol=1e-12, atol=1e-14
    )


def test_interpreter_matches_compiled_adjoint(rng):
    from repro.apps import burgers_problem

    prob = burgers_problem(1)
    N = 24
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    a1 = {k: v.copy() for k, v in base.items()}
    a2 = {k: v.copy() for k, v in base.items()}
    compile_nests(nests, prob.bindings(N))(a1)
    interpret_nests(nests, a2, prob.bindings(N))
    np.testing.assert_allclose(a1["u_1_b"], a2["u_1_b"], rtol=1e-12, atol=1e-14)


def test_interpreter_respects_statement_order():
    """'=' overwrites execute in order: last statement wins pointwise."""
    from repro.core import LoopNest, Statement

    nest = LoopNest(
        statements=(
            Statement(lhs=r(i), rhs=u(i) * 0 + 1.0, op="="),
            Statement(lhs=r(i), rhs=u(i) * 0 + 2.0, op="="),
        ),
        counters=(i,),
        bounds={i: (0, n)},
    )
    arrays = {"u": np.zeros(5), "r": np.zeros(5)}
    interpret_nests([nest], arrays, Bindings(sizes={n: 4}))
    np.testing.assert_allclose(arrays["r"], 2.0)


def test_interpreter_guard(rng):
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i), counters=[i], bounds={i: [0, n]}
    )
    guarded = nest.statements[0].with_guard(sp.And(sp.Ge(i, 2), sp.Le(i, 3)))
    from repro.core import LoopNest

    gnest = LoopNest(statements=(guarded,), counters=(i,), bounds={i: (0, n)})
    uv = rng.standard_normal(7)
    arrays = {"u": uv, "r": np.zeros(7)}
    interpret_nests([gnest], arrays, Bindings(sizes={n: 6}))
    assert arrays["r"][0] == 0 and arrays["r"][4] == 0
    np.testing.assert_allclose(arrays["r"][2:4], uv[2:4])


def test_interpreter_empty_region():
    nest = make_loop_nest(lhs=r(i), rhs=u(i), counters=[i], bounds={i: [4, n]})
    arrays = {"u": np.ones(5), "r": np.zeros(5)}
    interpret_nests([nest], arrays, Bindings(sizes={n: 2}))
    assert not arrays["r"].any()


def test_interpreter_minmax_heaviside(rng):
    """Scalar Max/Min/Heaviside fallbacks follow the paper's H(0)=1."""
    nest = make_loop_nest(
        lhs=r(i), rhs=sp.Heaviside(u(i)) + sp.Max(u(i), 0), counters=[i],
        bounds={i: [0, n]},
    )
    arrays = {"u": np.array([-1.0, 0.0, 2.0]), "r": np.zeros(3)}
    interpret_nests([nest], arrays, Bindings(sizes={n: 2}))
    np.testing.assert_allclose(arrays["r"], [0.0, 1.0, 3.0])
