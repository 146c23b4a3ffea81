"""Unit tests for the loop IR and lowering."""

import sympy as sp

from repro.core import Statement, make_loop_nest
from repro.ir import (
    Assign,
    Comment,
    Guard,
    Loop,
    function_from_nests,
    loopnest_to_ir,
    statement_to_ir,
)

i, j = sp.symbols("i j", integer=True)
n = sp.Symbol("n", integer=True)
C = sp.Symbol("C", real=True)
u, r = sp.Function("u"), sp.Function("r")


def test_statement_to_assign():
    node = statement_to_ir(Statement(lhs=r(i), rhs=u(i - 1), op="+="))
    assert isinstance(node, Assign)
    assert node.target == "r" and node.op == "+="
    assert node.indices == (i,)


def test_guarded_statement_wraps_in_guard():
    st = Statement(lhs=r(i), rhs=u(i), op="+=", guard=sp.Ge(i, 2))
    node = statement_to_ir(st)
    assert isinstance(node, Guard)
    assert isinstance(node.body[0], Assign)


def test_lowering_produces_loop_tree():
    nest = make_loop_nest(
        lhs=r(i, j), rhs=u(i - 1, j), counters=[i, j],
        bounds={i: [1, n - 2], j: [1, n - 2]},
    )
    node = loopnest_to_ir(nest)
    assert isinstance(node, Loop)
    assert node.counter == i and node.parallel
    inner = node.body[0]
    assert isinstance(inner, Loop) and inner.counter == j and not inner.parallel


def test_single_iteration_loops_unrolled():
    """Remainder loops with one iteration become straight-line statements,
    as in the unrolled boundary updates of Section 3.2."""
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i - 1), counters=[i], bounds={i: [n - 1, n - 1]}
    )
    node = loopnest_to_ir(nest)
    assert isinstance(node, Assign)
    assert node.indices == (n - 1,)
    assert node.rhs == u(n - 2)


def test_unroll_disabled_keeps_loop():
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i - 1), counters=[i], bounds={i: [n - 1, n - 1]}
    )
    node = loopnest_to_ir(nest, unroll_single=False)
    assert isinstance(node, Loop)
    assert node.is_single_iteration


def test_parallel_flag_off():
    nest = make_loop_nest(lhs=r(i), rhs=u(i - 1), counters=[i], bounds={i: [1, n - 1]})
    node = loopnest_to_ir(nest, parallel=False)
    assert isinstance(node, Loop) and not node.parallel


def test_function_from_nests_collects_interface():
    nest = make_loop_nest(
        lhs=r(i), rhs=C * u(i - 1), counters=[i], bounds={i: [1, n - 1]}, name="k1"
    )
    fn = function_from_nests("foo", [nest])
    assert fn.name == "foo"
    assert fn.array_ranks == {"r": 1, "u": 1}
    assert fn.sizes == (n,)
    assert fn.scalars == (C,)
    assert isinstance(fn.body[0], Comment)  # nest name comment


def test_mixed_unrolled_and_looped_nests():
    a = make_loop_nest(lhs=r(i), rhs=u(i - 1), counters=[i], bounds={i: [0, 0]})
    b = make_loop_nest(lhs=r(i), rhs=u(i + 1), counters=[i], bounds={i: [1, n - 1]})
    fn = function_from_nests("f", [a, b])
    kinds = [type(x) for x in fn.body]
    assert Assign in kinds and Loop in kinds
