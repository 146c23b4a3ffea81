"""Tests for loop tiling of compiled kernels."""

import numpy as np
import pytest

from repro.apps import heat_problem, wave_problem
from repro.core import adjoint_loops
from repro.runtime import compile_nests
from repro.runtime.tiling import tile_box


def test_tile_box_partitions():
    tiles = tile_box(((0, 9), (0, 9)), (4, 3))
    pts = set()
    for t in tiles:
        for x in range(t[0][0], t[0][1] + 1):
            for y in range(t[1][0], t[1][1] + 1):
                assert (x, y) not in pts
                pts.add((x, y))
    assert len(pts) == 100
    assert len(tiles) == 3 * 4  # ceil(10/4) * ceil(10/3)


def test_tile_box_oversized_tile_no_split():
    assert tile_box(((0, 9),), (100,)) == [((0, 9),)]


def test_tile_box_zero_means_unsplit():
    assert tile_box(((0, 9), (0, 9)), (0, 5)) == [
        ((0, 9), (0, 4)),
        ((0, 9), (5, 9)),
    ]


def test_tile_box_empty():
    assert tile_box(((3, 1),), (2,)) == []


def test_tile_box_lexicographic_order():
    tiles = tile_box(((0, 3),), (2,))
    assert tiles == [((0, 1),), ((2, 3),)]


@pytest.mark.parametrize("tile", [(4, 4), (7, 3), (1, 64), (64, 1)])
def test_tiled_adjoint_bitwise_equal(rng, tile):
    prob = heat_problem(2)
    N = 32
    kernel = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(N)
    )
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)
    tiled = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(tile_shape=tile)
    plan.bind(tiled).run()
    assert plan.unit_count > len(kernel.regions) - 1  # actually tiled something
    np.testing.assert_array_equal(ref["u_1_b"], tiled["u_1_b"])


def test_tiled_primal_3d(rng):
    prob = wave_problem(3)
    N = 20
    kernel = compile_nests([prob.primal], prob.bindings(N))
    arrays = prob.allocate(N, rng=rng)
    ref = {k: v.copy() for k, v in arrays.items()}
    kernel(ref)
    tiled = {k: v.copy() for k, v in arrays.items()}
    kernel.plan(tile_shape=(8, 8, 8)).bind(tiled).run()
    np.testing.assert_array_equal(ref["u"], tiled["u"])


def test_reduction_regions_not_tiled(rng):
    """Regions with reduced write targets fall back to untiled execution."""
    import sympy as sp

    from repro.core import make_loop_nest
    from repro.runtime import Bindings

    i, j = sp.symbols("i j", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i, j), counters=[i, j],
        bounds={i: [0, n], j: [0, n]}, op="+=",
    )
    N = 8
    kernel = compile_nests([nest], Bindings(sizes={n: N}))
    uv = rng.standard_normal((N + 1, N + 1))
    ref = {"u": uv, "r": np.zeros(N + 1)}
    kernel(ref)
    tiled = {"u": uv, "r": np.zeros(N + 1)}
    plan = kernel.plan(tile_shape=(2, 2))
    plan.bind(tiled).run()
    assert plan.unit_count == 1  # executed once, untiled
    np.testing.assert_array_equal(ref["r"], tiled["r"])
