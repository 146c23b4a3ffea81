"""Additional property-based tests: tangent consistency, front-end round
trips, scheduler partitioning."""

from __future__ import annotations

import numpy as np
import sympy as sp
from hypothesis import given, settings, strategies as st

from repro.core import make_loop_nest, tangent_loop
from repro.frontend import parse_stencil, to_source
from repro.runtime import Bindings, compile_nests, split_box

N_VAL = 14
n = sp.Symbol("n", integer=True)


@st.composite
def stencils(draw, max_dim=2, max_radius=2, max_points=5):
    dim = draw(st.integers(1, max_dim))
    offsets = draw(
        st.lists(
            st.tuples(*[st.integers(-max_radius, max_radius) for _ in range(dim)]),
            min_size=1, max_size=max_points, unique=True,
        )
    )
    coeffs = draw(
        st.lists(
            st.floats(-3, 3, allow_nan=False, allow_infinity=False).filter(
                lambda x: abs(x) > 1e-3
            ),
            min_size=len(offsets), max_size=len(offsets),
        )
    )
    return dim, offsets, coeffs


def build(dim, offsets, coeffs):
    counters = sp.symbols("i j", integer=True)[:dim]
    u, r = sp.Function("u"), sp.Function("r")
    radius = max(1, max(max(abs(o) for o in off) for off in offsets))
    expr = sum(
        co * u(*[c + o for c, o in zip(counters, off)])
        for off, co in zip(offsets, coeffs)
    )
    nest = make_loop_nest(
        lhs=r(*counters), rhs=expr, counters=list(counters),
        bounds={c: [radius, n - radius] for c in counters}, op="+=",
    )
    return nest, {r: sp.Function("r_b"), u: sp.Function("u_b")}, radius


@settings(max_examples=30, deadline=None)
@given(stencils())
def test_tangent_equals_primal_for_linear(params):
    """For linear stencils the tangent loop IS the primal on the seeds."""
    dim, offsets, coeffs = params
    nest, amap, radius = build(dim, offsets, coeffs)
    tmap = {k: sp.Function(k.__name__ + "_t") for k in amap}
    tan = tangent_loop(nest, tmap)
    bind = Bindings(sizes={n: N_VAL})
    rng = np.random.default_rng(1)
    shape = (N_VAL + 1,) * dim
    v = rng.standard_normal(shape)
    a_primal = {"u": v, "r": np.zeros(shape)}
    compile_nests([nest], bind)(a_primal)
    a_tan = {"u": rng.standard_normal(shape), "u_t": v, "r_t": np.zeros(shape)}
    compile_nests([tan], bind)(a_tan)
    np.testing.assert_allclose(a_primal["r"], a_tan["r_t"], rtol=1e-10, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(stencils())
def test_frontend_round_trip(params):
    """print -> parse -> print is a fixed point; execution agrees."""
    dim, offsets, coeffs = params
    nest, amap, radius = build(dim, offsets, coeffs)
    src = to_source(nest, name="rt")
    reparsed = parse_stencil(src)
    assert to_source(reparsed, name="rt") == src

    bind = Bindings(sizes={n: N_VAL})
    rng = np.random.default_rng(2)
    shape = (N_VAL + 1,) * dim
    uv = rng.standard_normal(shape)
    a1 = {"u": uv, "r": np.zeros(shape)}
    a2 = {"u": uv, "r": np.zeros(shape)}
    compile_nests([nest], bind)(a1)
    compile_nests([reparsed], bind)(a2)
    np.testing.assert_allclose(a1["r"], a2["r"], rtol=1e-10, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    st.integers(1, 8),
)
def test_split_box_partition_property(spans, nblocks):
    lo0, ext0 = spans
    box = ((lo0, lo0 + ext0),)
    blocks = split_box(box, nblocks)
    pts = []
    for ((a, b),) in blocks:
        assert a <= b
        pts.extend(range(a, b + 1))
    assert pts == list(range(lo0, lo0 + ext0 + 1))
    # Balanced: sizes differ by at most one.
    sizes = [b - a + 1 for ((a, b),) in blocks]
    assert max(sizes) - min(sizes) <= 1
