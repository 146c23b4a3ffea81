"""Tests for the textual stencil front-end (lexer + parser + unparser).

The front-end is an *untrusted input* path (it feeds the serving
daemon, ``docs/serving.md``), so beyond the positive grammar tests two
properties are pinned here:

* every malformed spec — truncated expressions, bad subscripts,
  over-limit nesting, unicode garbage, NUL bytes, empty input — raises
  a typed :class:`~repro.errors.ValidationError` carrying a source
  position, never a bare ``SyntaxError`` or an interpreter crash;
* printing is the parser's inverse: random fuzz-suite kernels survive
  print -> parse -> print as a fixed point, and the reparsed kernel
  executes bitwise-identically to the original.
"""

import re

import numpy as np
import sympy as sp
import pytest

from repro.apps import burgers_problem, wave_problem
from repro.core import StencilRestrictionError, adjoint_loops
from repro.core.loopnest import LoopNest
from repro.core.validate import SpecLimits
from repro.errors import ValidationError
from repro.frontend import (
    LexError,
    ParseError,
    parse_stencil,
    parse_stencils,
    to_source,
    tokenize,
)
from repro.runtime import Bindings, compile_nests

WAVE3D_SRC = """
# 3-D wave equation, Figure 4 of the paper, in the textual front-end.
stencil wave3d {
  iterate i = 1 .. n-2, j = 1 .. n-2, k = 1 .. n-2
  u[i,j,k] += 2.0*u_1[i,j,k] - u_2[i,j,k]
              + c[i,j,k]*D*(u_1[i-1,j,k] + u_1[i+1,j,k]
                          + u_1[i,j-1,k] + u_1[i,j+1,k]
                          + u_1[i,j,k-1] + u_1[i,j,k+1]
                          - 6*u_1[i,j,k])
}
"""

BURGERS_SRC = """
stencil burgers1d {
  iterate i = 1 .. n-2
  u[i] += u_1[i]
          - C*(max(u_1[i], 0)*(u_1[i] - u_1[i-1])
             + min(u_1[i], 0)*(u_1[i+1] - u_1[i]))
          + D*(u_1[i+1] + u_1[i-1] - 2.0*u_1[i])
}
"""


# -- lexer ---------------------------------------------------------------


def test_tokenize_basics():
    toks = tokenize("a[i+1] += 2.5*b")
    kinds = [t.kind for t in toks]
    assert kinds == ["ident", "op", "ident", "op", "number", "op", "op",
                     "number", "op", "ident", "end"]


def test_tokenize_range_not_float():
    toks = tokenize("1 .. n")
    assert [t.text for t in toks[:3]] == ["1", "..", "n"]
    toks2 = tokenize("1..n")
    assert [t.text for t in toks2[:3]] == ["1", "..", "n"]


def test_tokenize_comments_and_positions():
    toks = tokenize("a # comment\nb")
    assert [t.text for t in toks[:2]] == ["a", "b"]
    assert toks[1].line == 2


def test_tokenize_rejects_garbage():
    with pytest.raises(LexError):
        tokenize("a ? b")


def test_float_literal():
    toks = tokenize("2.75")
    assert toks[0].kind == "number" and toks[0].text == "2.75"


# -- parser ---------------------------------------------------------------


def test_parse_wave3d_equivalent_to_programmatic():
    nest = parse_stencil(WAVE3D_SRC)
    ref = wave_problem(3).primal
    assert nest.name == "wave3d"
    assert len(nest.counters) == 3
    # Semantically identical statement.
    st, ref_st = nest.statements[0], ref.statements[0]
    # Rename the parser's symbols onto the reference's before comparing.
    ren = {s: sp.Symbol(s.name, integer=True) for s in nest.counters}
    ren.update({sp.Symbol("D", real=True): sp.Symbol("D", real=True)})
    diff = sp.expand(st.rhs.subs(ren) - ref_st.rhs)
    # D symbols differ only in assumptions; normalise by string round trip.
    assert sp.simplify(sp.sympify(str(st.rhs)) - sp.sympify(str(ref_st.rhs))) == 0
    assert st.op == ref_st.op == "+="


def test_parsed_wave_differentiates_to_53_nests():
    nest = parse_stencil(WAVE3D_SRC)
    u = sp.Function("u"); u_1 = sp.Function("u_1"); u_2 = sp.Function("u_2")
    amap = {u: sp.Function("u_b"), u_1: sp.Function("u_1_b"),
            u_2: sp.Function("u_2_b")}
    assert len(adjoint_loops(nest, amap)) == 53


def test_parsed_burgers_executes_like_reference(rng):
    nest = parse_stencil(BURGERS_SRC)
    ref = burgers_problem(1)
    N = 40
    n = sp.Symbol("n")
    bind = Bindings(sizes={n: N}, params={"C": 0.2, "D": 0.1})
    a1 = ref.allocate(N, rng=rng)
    a2 = {k: v.copy() for k, v in a1.items()}
    compile_nests([nest], bind)(a1)
    compile_nests([ref.primal], ref.bindings(N))(a2)
    np.testing.assert_allclose(a1["u"], a2["u"], rtol=1e-12, atol=1e-14)


def test_parse_multiple_stencils():
    src = """
    stencil a { iterate i = 1 .. n-1  r[i] = u[i-1] }
    stencil b { iterate i = 1 .. n-1  s[i] = u[i+1] }
    """
    nests = parse_stencils(src)
    assert [x.name for x in nests] == ["a", "b"]


def test_parse_multi_statement_stencil():
    src = """
    stencil two {
      iterate i = 1 .. n-1
      r[i] += u[i-1]
      s[i] += u[i+1]
    }
    """
    nest = parse_stencils(src)[0]
    assert len(nest.statements) == 2


def test_power_operator():
    nest = parse_stencil("stencil p { iterate i = 1 .. n-1  r[i] = u[i]^2 }")
    u = sp.Function("u")
    assert nest.statements[0].rhs.atoms(sp.Pow)


def test_unary_minus_and_parens():
    nest = parse_stencil("stencil p { iterate i = 1 .. n-1  r[i] = -(u[i-1] - u[i+1])/2 }")
    assert nest.statements[0].rhs != 0


def test_parse_error_missing_bracket():
    with pytest.raises(ParseError):
        parse_stencil("stencil p { iterate i = 1 .. n-1  r[i = u[i] }")


def test_parse_error_bare_statement():
    with pytest.raises(ParseError):
        parse_stencil("stencil p { iterate i = 1 .. n-1  x = u[i] }")


def test_parse_error_empty_body():
    with pytest.raises(ParseError):
        parse_stencil("stencil p { iterate i = 1 .. n-1 }")


def test_parse_error_no_stencil():
    with pytest.raises(ParseError):
        parse_stencils("   # nothing here\n")


def test_parse_error_scalar_reused_as_counter():
    # C is used as a scalar in the first range, then declared as a counter.
    with pytest.raises(ParseError):
        parse_stencil("stencil p { iterate i = C .. n-1, C = 1 .. 5  r[i,C] = 0 }")


def test_parse_error_array_in_index():
    with pytest.raises(ParseError):
        parse_stencil("stencil p { iterate i = 1 .. n-1  r[u[i]] = 1 }")


def test_restrictions_apply_to_parsed_stencils():
    """Section 3.4 checks run on front-end input too."""
    with pytest.raises(StencilRestrictionError):
        parse_stencil("stencil p { iterate i = 1 .. n-1  u[i] = u[i-1] }")


def test_parsed_adjoint_matches_programmatic_adjoint(rng):
    """End to end: parse -> diff -> compile -> execute == programmatic."""
    nest = parse_stencil(BURGERS_SRC)
    ref = burgers_problem(1)
    N = 36
    u = sp.Function("u"); u_1 = sp.Function("u_1")
    amap = {u: sp.Function("u_b"), u_1: sp.Function("u_1_b")}
    n = sp.Symbol("n")
    bind = Bindings(sizes={n: N}, params={"C": 0.2, "D": 0.1})
    base = ref.allocate(N, rng=rng)
    base.update(ref.allocate_adjoints(N, rng=rng))
    a1 = {k: v.copy() for k, v in base.items()}
    a2 = {k: v.copy() for k, v in base.items()}
    compile_nests(adjoint_loops(nest, amap), bind)(a1)
    compile_nests(adjoint_loops(ref.primal, ref.adjoint_map), ref.bindings(N))(a2)
    np.testing.assert_allclose(a1["u_1_b"], a2["u_1_b"], rtol=1e-12, atol=1e-14)


# -- malformed-spec matrix: typed errors with positions, never crashes ----


MALFORMED = [
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] +=\n}\n",
        id="unterminated-expression",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] = 1 +\n}\n",
        id="dangling-binary-operator",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] = (v[i]\n}\n",
        id="unclosed-paren",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] = v[i\n}\n",
        id="unclosed-subscript",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] = v[w[i]]\n}\n",
        id="array-valued-subscript",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[] = 1\n}\n",
        id="empty-subscript",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] = v[i]",
        id="unterminated-body",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] = "
        + "(" * 150 + "v[i]" + ")" * 150 + "\n}\n",
        id="over-limit-expression-nesting",
    ),
    pytest.param(
        "stencil p { iterate i = 1 .. n-2\n  u[i] = v[i] ☠ 1\n}\n",
        id="unicode-garbage",
    ),
    pytest.param(
        "stencil p {\x00 iterate i = 1 .. n-2\n  u[i] = v[i]\n}\n",
        id="nul-byte",
    ),
    pytest.param("", id="empty-input"),
    pytest.param("   # nothing but a comment\n", id="comment-only-input"),
    pytest.param("stencil p { }", id="missing-iterate"),
    pytest.param(
        "stencil p { iterate i = 1 ..\n  u[i] = v[i]\n}\n",
        id="unterminated-range",
    ),
]


@pytest.mark.parametrize("src", MALFORMED)
def test_malformed_spec_is_typed_error_with_position(src):
    with pytest.raises(ValidationError) as err:
        parse_stencil(src)
    # Typed, never the interpreter's own SyntaxError family.
    assert not isinstance(err.value, SyntaxError)
    # Every grammar/lex failure names where in the source it happened.
    assert re.search(r"line \d+", str(err.value)), str(err.value)


def test_source_size_cap_is_typed():
    limits = SpecLimits(max_source_bytes=64)
    src = "stencil p { iterate i = 1 .. n-2\n  u[i] = " \
        + " + ".join(["v[i]"] * 32) + "\n}\n"
    with pytest.raises(ValidationError, match="bytes"):
        parse_stencil(src, limits=limits)


def test_custom_limits_cap_counters_and_statements():
    two_dim = "stencil p { iterate i = 1 .. n-2, j = 1 .. n-2\n  u[i,j] = v[i,j]\n}\n"
    with pytest.raises(ValidationError, match="counters"):
        parse_stencil(two_dim, limits=SpecLimits(max_counters=1))
    two_stmts = (
        "stencil p { iterate i = 1 .. n-2\n"
        "  u[i] = v[i]\n  w[i] = v[i]\n}\n"
    )
    with pytest.raises(ValidationError, match="statements"):
        parse_stencil(two_stmts, limits=SpecLimits(max_statements=1))
    # Distinct offsets so sympy cannot collapse the sum to one node.
    big_rhs = "stencil p { iterate i = 1 .. n-2\n  u[i] = " \
        + " + ".join(f"v[i+{k}]" for k in range(16)) + "\n}\n"
    with pytest.raises(ValidationError, match="nodes"):
        parse_stencil(big_rhs, limits=SpecLimits(max_expr_nodes=8))


def test_lex_error_carries_line_and_column():
    with pytest.raises(LexError) as err:
        tokenize("a\nb ? c")
    assert err.value.line == 2 and err.value.col == 3


# -- print -> parse -> print: the unparser is the parser's inverse --------


def _sin_free_fuzz_nest(seed: int) -> LoopNest:
    """A guard-free fuzz kernel; sin() is not in the front-end grammar,
    so nests containing it are deterministically regenerated."""
    from test_lattice import _random_nest

    for attempt in range(64):
        rng = np.random.default_rng(0xD51 + 1009 * seed + attempt)
        nest, _ = _random_nest(rng)
        bare = LoopNest(
            statements=tuple(st.with_guard(None) for st in nest.statements),
            counters=nest.counters,
            bounds=nest.bounds,
            name="fuzz",
        )
        if not any(st.rhs.has(sp.sin) for st in bare.statements):
            return bare
    raise AssertionError("no sin-free fuzz kernel in 64 attempts")


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_kernel_print_parse_print_fixed_point(seed):
    nest = _sin_free_fuzz_nest(seed)
    src = to_source(nest)
    reparsed = parse_stencil(src)
    assert to_source(reparsed) == src
    assert reparsed.name == nest.name
    assert len(reparsed.statements) == len(nest.statements)
    assert [st.op for st in reparsed.statements] == [
        st.op for st in nest.statements
    ]
    assert [str(c) for c in reparsed.counters] == [
        str(c) for c in nest.counters
    ]


@pytest.mark.parametrize("seed", range(0, 20, 4))
def test_fuzz_kernel_reparse_executes_bitwise_identically(seed):
    from test_lattice import _fuzz

    nest = _sin_free_fuzz_nest(seed)
    reparsed = parse_stencil(to_source(nest))
    grid = 9
    base = _fuzz("roundtrip", nest, "f64").state(np.float64, 0)
    results = []
    for candidate in (nest, reparsed):
        kernel = compile_nests(
            [candidate],
            Bindings(sizes={"n": grid}, params={}),
            name="roundtrip",
            cache=False,
        )
        arrays = {k: v.copy() for k, v in base.items()}
        kernel(arrays)
        results.append(arrays)
    for name in results[0]:
        assert results[0][name].tobytes() == results[1][name].tobytes(), name


def test_guarded_statements_refuse_to_unparse():
    nest = parse_stencil("stencil p { iterate i = 1 .. n-2\n  u[i] = v[i]\n}\n")
    guarded = LoopNest(
        statements=tuple(
            st.with_guard(sp.Gt(nest.counters[0], 2))
            for st in nest.statements
        ),
        counters=nest.counters,
        bounds=nest.bounds,
        name=nest.name,
    )
    with pytest.raises(ValueError, match="guarded"):
        to_source(guarded)
