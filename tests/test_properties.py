"""Property-based tests (hypothesis) on the core invariants.

Random stencils — arbitrary dimensions, offsets, and coefficients — must
satisfy, for every boundary strategy:

* **adjoint consistency**: the assembled adjoint operator is exactly the
  transpose of the primal operator (for linear stencils), verified via the
  dot-product identity at machine precision;
* **partition**: the disjoint split's regions partition the union of the
  shifted iteration spaces, with exactly the valid statements in each;
* **gather == scatter**: the transformed adjoint agrees with the
  conventional scatter adjoint;
* **count bound**: at most (2n-1)^d loop nests are generated;
* **determinism**: parallel block execution is bitwise-identical to
  serial execution for gather kernels (Section 3.5's point that all
  updates to an index happen in one iteration).
"""

from __future__ import annotations

import itertools

import numpy as np
import sympy as sp
from hypothesis import given, settings, strategies as st

from repro.core import adjoint_loops, make_loop_nest
from repro.core.diff import adjoint_scatter_loop, adjoint_scatter_statements
from repro.core.regions import split_disjoint
from repro.core.shift import shift_all
from repro.runtime import Bindings, compile_nests

N_VAL = 16  # concrete grid size for executions
n = sp.Symbol("n", integer=True)


@st.composite
def stencils(draw, max_dim=3, max_radius=2, max_points=6):
    """A random linear stencil: dim, distinct offset vectors, coefficients."""
    dim = draw(st.integers(1, max_dim))
    npoints = draw(st.integers(1, max_points))
    offsets = draw(
        st.lists(
            st.tuples(*[st.integers(-max_radius, max_radius) for _ in range(dim)]),
            min_size=1,
            max_size=npoints,
            unique=True,
        )
    )
    coeffs = draw(
        st.lists(
            st.floats(-3, 3, allow_nan=False, allow_infinity=False).filter(
                lambda x: abs(x) > 1e-3
            ),
            min_size=len(offsets),
            max_size=len(offsets),
        )
    )
    return dim, offsets, coeffs


def build_nest(dim, offsets, coeffs):
    counters = sp.symbols("i j k", integer=True)[:dim]
    u, r = sp.Function("u"), sp.Function("r")
    radius = max(max(abs(o) for o in off) for off in offsets)
    radius = max(radius, 1)
    expr = sum(
        co * u(*[c + o for c, o in zip(counters, off)])
        for off, co in zip(offsets, coeffs)
    )
    nest = make_loop_nest(
        lhs=r(*counters),
        rhs=expr,
        counters=list(counters),
        bounds={c: [radius, n - radius] for c in counters},
        op="+=",
    )
    return nest, {r: sp.Function("r_b"), u: sp.Function("u_b")}, radius


def shape_for(dim):
    return (N_VAL + 1,) * dim


@settings(max_examples=40, deadline=None)
@given(stencils())
def test_adjoint_is_transpose(params):
    """<J v, w> == <v, J^T w> at machine precision for random stencils."""
    dim, offsets, coeffs = params
    nest, amap, radius = build_nest(dim, offsets, coeffs)
    bind = Bindings(sizes={n: N_VAL})
    rng = np.random.default_rng(hash((dim, tuple(offsets))) % 2**32)
    shape = shape_for(dim)
    v = rng.standard_normal(shape)
    w = np.zeros(shape)
    interior = tuple(slice(radius, N_VAL - radius + 1) for _ in range(dim))
    w[interior] = rng.standard_normal(w[interior].shape)

    # J v via the primal (linear stencil: out(v) = J v exactly).
    arrays = {"u": v, "r": np.zeros(shape)}
    compile_nests([nest], bind)(arrays)
    lhs = float(np.vdot(arrays["r"], w))

    # J^T w via the adjoint stencil loops.
    adj = adjoint_loops(nest, amap)
    arrays_b = {"u": v, "r_b": w, "u_b": np.zeros(shape)}
    compile_nests(adj, bind)(arrays_b)
    rhs = float(np.vdot(v, arrays_b["u_b"]))

    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None)
@given(stencils())
def test_gather_equals_scatter(params):
    dim, offsets, coeffs = params
    nest, amap, radius = build_nest(dim, offsets, coeffs)
    bind = Bindings(sizes={n: N_VAL})
    rng = np.random.default_rng(0)
    shape = shape_for(dim)
    w = np.zeros(shape)
    interior = tuple(slice(radius, N_VAL - radius + 1) for _ in range(dim))
    w[interior] = rng.standard_normal(w[interior].shape)
    uv = rng.standard_normal(shape)

    a1 = {"u": uv, "r_b": w.copy(), "u_b": np.zeros(shape)}
    a2 = {"u": uv, "r_b": w.copy(), "u_b": np.zeros(shape)}
    compile_nests(adjoint_loops(nest, amap), bind)(a1)
    compile_nests([adjoint_scatter_loop(nest, amap)], bind)(a2)
    np.testing.assert_allclose(a1["u_b"], a2["u_b"], rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(stencils(max_dim=2))
def test_partition_property(params):
    """Regions are pairwise disjoint and cover each shifted space exactly."""
    dim, offsets, coeffs = params
    nest, amap, radius = build_nest(dim, offsets, coeffs)
    contribs = adjoint_scatter_statements(nest, amap)
    shifted = shift_all(contribs, nest.counters)
    regions = split_disjoint(shifted, nest.counters, nest.bounds)

    subs = {n: N_VAL}
    seen: dict[tuple, object] = {}
    for region in regions:
        rngs = []
        for c in nest.counters:
            lo, hi = region.bounds[c]
            rngs.append(range(int(lo.subs(subs)), int(hi.subs(subs)) + 1))
        for p in itertools.product(*rngs):
            assert p not in seen
            seen[p] = region

    for sh in shifted:
        boxes = []
        for d, c in enumerate(nest.counters):
            lo, hi = nest.bounds[c]
            boxes.append(
                range(
                    int(lo.subs(subs)) + sh.offset[d],
                    int(hi.subs(subs)) + sh.offset[d] + 1,
                )
            )
        for p in itertools.product(*boxes):
            assert p in seen
            assert sh in seen[p].statements


@settings(max_examples=40, deadline=None)
@given(stencils())
def test_loop_count_bound(params):
    dim, offsets, coeffs = params
    nest, amap, _ = build_nest(dim, offsets, coeffs)
    nests = adjoint_loops(nest, amap)
    per_dim = [len({off[d] for off in offsets}) for d in range(dim)]
    bound = 1
    for m in per_dim:
        bound *= 2 * m - 1
    assert 1 <= len(nests) <= bound


@settings(max_examples=15, deadline=None)
@given(stencils(max_dim=2), st.integers(2, 5))
def test_parallel_determinism(params, threads):
    """Gather adjoints are bitwise deterministic under block parallelism."""
    dim, offsets, coeffs = params
    nest, amap, radius = build_nest(dim, offsets, coeffs)
    bind = Bindings(sizes={n: N_VAL})
    rng = np.random.default_rng(5)
    shape = shape_for(dim)
    w = np.zeros(shape)
    interior = tuple(slice(radius, N_VAL - radius + 1) for _ in range(dim))
    w[interior] = rng.standard_normal(w[interior].shape)
    uv = rng.standard_normal(shape)
    kernel = compile_nests(adjoint_loops(nest, amap), bind)

    ref = {"u": uv, "r_b": w.copy(), "u_b": np.zeros(shape)}
    kernel(ref)
    par = {"u": uv, "r_b": w.copy(), "u_b": np.zeros(shape)}
    kernel.plan(num_threads=threads, min_block_iterations=1).bind(par).run()
    np.testing.assert_array_equal(ref["u_b"], par["u_b"])  # bitwise


@settings(max_examples=25, deadline=None)
@given(stencils(max_dim=2))
def test_strategies_agree_on_random_stencils(params):
    dim, offsets, coeffs = params
    nest, amap, radius = build_nest(dim, offsets, coeffs)
    bind = Bindings(sizes={n: N_VAL})
    rng = np.random.default_rng(9)
    shape = shape_for(dim)
    w = np.zeros(shape)
    interior = tuple(slice(radius, N_VAL - radius + 1) for _ in range(dim))
    w[interior] = rng.standard_normal(w[interior].shape)
    uv = rng.standard_normal(shape)

    results = {}
    for strategy in ("disjoint", "guarded"):
        arrays = {"u": uv, "r_b": w.copy(), "u_b": np.zeros(shape)}
        compile_nests(adjoint_loops(nest, amap, strategy=strategy), bind)(arrays)
        results[strategy] = arrays["u_b"]
    np.testing.assert_allclose(
        results["disjoint"], results["guarded"], rtol=1e-10, atol=1e-12
    )
