"""Integration tests for the full adjoint-stencil pipeline (Section 3.3)."""

import sympy as sp
import pytest

from repro.core import Statement, adjoint_loops, make_loop_nest
from repro.core.transform import merge_statements

i = sp.Symbol("i", integer=True)
n = sp.Symbol("n", integer=True)
u, c, r = sp.Function("u"), sp.Function("c"), sp.Function("r")
u_b, r_b = sp.Function("u_b"), sp.Function("r_b")


def section32(merge=True, strategy="disjoint"):
    expr = c(i) * (2.0 * u(i - 1) - 3.0 * u(i) + 4 * u(i + 1))
    nest = make_loop_nest(
        lhs=r(i), rhs=expr, counters=[i], bounds={i: [1, n - 1]}, name="ex"
    )
    return adjoint_loops(nest, {r: r_b, u: u_b}, strategy=strategy, merge=merge)


def test_core_loop_is_last_and_named():
    nests = section32()
    assert nests[-1].name.endswith("core")
    assert nests[-1].bounds[i] == (sp.Integer(2), n - 2)


def test_core_statement_matches_paper():
    """The merged core statement of Section 3.2 with swapped coefficients."""
    core = section32()[-1]
    assert len(core.statements) == 1
    st = core.statements[0]
    expected = (
        4 * c(i - 1) * r_b(i - 1) - 3.0 * c(i) * r_b(i) + 2.0 * c(i + 1) * r_b(i + 1)
    )
    assert sp.expand(st.rhs - expected) == 0
    assert st.lhs == u_b(i)
    assert st.op == "+="


def test_remainder_statements_match_paper():
    """The six unrolled remainder updates of Section 3.2 (merged to four)."""
    nests = section32()
    assert len(nests) == 5
    rem = {tuple(nests[k].bounds[i]) for k in range(4)}
    assert rem == {(0, 0), (1, 1), (n - 1, n - 1), (n, n)}
    # j = 1 region merges the two paper statements into one.
    j1 = [x for x in nests if x.bounds[i] == (sp.Integer(1), sp.Integer(1))][0]
    expected = 2.0 * c(i + 1) * r_b(i + 1) - 3.0 * c(i) * r_b(i)
    assert sp.expand(j1.statements[0].rhs - expected) == 0


def test_unmerged_keeps_separate_statements():
    core = section32(merge=False)[-1]
    assert len(core.statements) == 3


def test_unknown_strategy_raises():
    with pytest.raises(ValueError):
        section32(strategy="magic")


def test_no_active_inputs_yields_empty():
    nest = make_loop_nest(lhs=r(i), rhs=c(i) * 2, counters=[i], bounds={i: [1, n - 1]})
    assert adjoint_loops(nest, {r: r_b}) == []


def test_padded_sets_flag():
    nests = section32(strategy="padded")
    assert len(nests) == 1
    assert nests[0].requires_padding


def test_disjoint_not_padded():
    assert not any(x.requires_padding for x in section32())


def test_merge_statements_sums_same_target():
    a = Statement(lhs=u_b(i), rhs=c(i), op="+=")
    b = Statement(lhs=u_b(i), rhs=r_b(i), op="+=")
    out = merge_statements([a, b])
    assert len(out) == 1
    assert sp.expand(out[0].rhs - (c(i) + r_b(i))) == 0


def test_merge_keeps_distinct_targets():
    a = Statement(lhs=u_b(i), rhs=c(i), op="+=")
    b = Statement(lhs=r_b(i), rhs=c(i), op="+=")
    assert len(merge_statements([a, b])) == 2


def test_merge_skips_guarded():
    g = Statement(lhs=u_b(i), rhs=c(i), op="+=", guard=sp.Ge(i, 1))
    a = Statement(lhs=u_b(i), rhs=r_b(i), op="+=")
    out = merge_statements([a, g])
    assert len(out) == 2


def test_merge_skips_assignments():
    a = Statement(lhs=u_b(i), rhs=c(i), op="=")
    b = Statement(lhs=u_b(i), rhs=r_b(i), op="=")
    assert len(merge_statements([a, b])) == 2


def test_guarded_strategy_core_plus_slabs():
    nests = section32(strategy="guarded")
    assert len(nests) == 3  # 2*1 + 1
    assert nests[-1].name.endswith("core")


def test_wave_adjoint_counts_with_active_c():
    """Activating c adds a centre-offset statement but no new regions."""
    from repro.apps import wave_problem

    with_c = wave_problem(3, active_c=True)
    without_c = wave_problem(3, active_c=False)
    n_with = len(adjoint_loops(with_c.primal, with_c.adjoint_map))
    n_without = len(adjoint_loops(without_c.primal, without_c.adjoint_map))
    assert n_with == n_without == 53
