"""Tests for Hessian-vector products via tangent-over-adjoint."""

import numpy as np
import sympy as sp

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import make_loop_nest
from repro.core.second_order import second_order_nests, tangent_map_for
from repro.verify.hvp import gradient, hessian_vector_product


def test_tangent_map_covers_primals_and_adjoints():
    prob = wave_problem(1)
    seeds = tangent_map_for(prob.adjoint_map)
    names = {f.__name__ for f in seeds.values()}
    assert {"u_d", "u_b_d", "u_1_d", "u_1_b_d"} <= names


def test_second_order_nest_count_matches_first_order():
    prob = burgers_problem(1)
    nests = second_order_nests(prob.primal, prob.adjoint_map)
    assert len(nests) == 5  # one tangent nest per adjoint nest


def test_linear_stencil_has_zero_hessian(rng):
    """The heat stencil is linear: H v must be identically zero."""
    prob = heat_problem(2)
    N = 12
    shape = prob.array_shape(N)
    inputs = prob.allocate(N, rng=rng)
    w = rng.standard_normal(shape)
    v = {"u_1": rng.standard_normal(shape)}
    hv = hessian_vector_product(prob, N, inputs, w, v)
    assert np.allclose(hv["u_1"], 0.0)


def test_quadratic_stencil_exact_hessian(rng):
    """r[i] = u[i-1]^2: H = diag(2 w shifted); checked exactly."""
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i - 1) ** 2, counters=[i], bounds={i: [1, n - 1]},
        op="+=",
    )
    amap = {r: sp.Function("r_b"), u: sp.Function("u_b")}
    from repro.runtime import Bindings, compile_nests

    N = 20
    shape = (N + 1,)
    bind = Bindings(sizes={n: N})
    nests = second_order_nests(nest, amap)
    uv = rng.standard_normal(shape)
    w = np.zeros(shape)
    w[1:N] = rng.standard_normal(N - 1)
    v = rng.standard_normal(shape)
    arrays = {
        "u": uv, "u_d": v, "r_b": w, "r_b_d": np.zeros(shape),
        "u_b": np.zeros(shape), "u_b_d": np.zeros(shape),
    }
    compile_nests(nests, bind)(arrays)
    # J = sum_i w_i u_{i-1}^2; dJ/du_j = 2 w_{j+1} u_j; H = diag(2 w_{j+1}).
    expected = np.zeros(shape)
    expected[0 : N - 1] = 2.0 * w[1:N] * v[0 : N - 1]
    np.testing.assert_allclose(arrays["u_b_d"], expected, rtol=1e-12, atol=1e-13)


def test_burgers_hvp_matches_fd_of_gradient(rng):
    """H v == (g(x + h v) - g(x - h v)) / 2h for the nonlinear Burgers body."""
    prob = burgers_problem(1)
    N = 48
    shape = prob.array_shape(N)
    inputs = prob.allocate(N, rng=rng)
    w = np.zeros(shape)
    w[1:N] = rng.standard_normal(N - 1)
    v = {"u_1": rng.standard_normal(shape)}
    hv = hessian_vector_product(prob, N, inputs, w, v)

    h = 1e-6
    up = dict(inputs); up["u_1"] = inputs["u_1"] + h * v["u_1"]
    um = dict(inputs); um["u_1"] = inputs["u_1"] - h * v["u_1"]
    gp = gradient(prob, N, up, w)["u_1"]
    gm = gradient(prob, N, um, w)["u_1"]
    fd = (gp - gm) / (2 * h)
    np.testing.assert_allclose(hv["u_1"], fd, rtol=1e-5, atol=1e-7)


def test_wave_bilinear_c_u_coupling(rng):
    """Wave with active c: J is bilinear in (c, u_1), so the HVP with a
    pure-c direction appears in the u_1 component and vice versa."""
    prob = wave_problem(2, active_c=True)
    N = 12
    shape = prob.array_shape(N)
    inputs = prob.allocate(N, rng=rng)
    w = np.zeros(shape)
    w[1:N, 1:N] = rng.standard_normal((N - 1, N - 1))
    vc = {"c": rng.standard_normal(shape)}
    hv = hessian_vector_product(prob, N, inputs, w, vc)
    # Mixed second derivative: direction in c shows up in u_1's component.
    assert np.abs(hv["u_1"]).max() > 0
    # Pure second derivative in c is zero (J linear in c alone).
    assert np.allclose(hv["c"], 0.0)

    # FD cross-check on the u_1 component.
    h = 1e-6
    up = dict(inputs); up["c"] = inputs["c"] + h * vc["c"]
    um = dict(inputs); um["c"] = inputs["c"] - h * vc["c"]
    fd = (gradient(prob, N, up, w)["u_1"] - gradient(prob, N, um, w)["u_1"]) / (2 * h)
    np.testing.assert_allclose(hv["u_1"], fd, rtol=1e-5, atol=1e-8)


def test_hvp_symmetry(rng):
    """<H v1, v2> == <H v2, v1> (Hessian symmetry) on the Burgers body."""
    prob = burgers_problem(1)
    N = 40
    shape = prob.array_shape(N)
    inputs = prob.allocate(N, rng=rng)
    w = np.zeros(shape)
    w[1:N] = rng.standard_normal(N - 1)
    v1 = rng.standard_normal(shape)
    v2 = rng.standard_normal(shape)
    hv1 = hessian_vector_product(prob, N, inputs, w, {"u_1": v1})["u_1"]
    hv2 = hessian_vector_product(prob, N, inputs, w, {"u_1": v2})["u_1"]
    lhs = float(np.vdot(hv1, v2))
    rhs = float(np.vdot(hv2, v1))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
