"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from repro.apps import (
    advection_problem,
    anisotropic_problem,
    burgers_problem,
    conv_problem,
    heat_problem,
    wave_problem,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def new_pool_threads():
    """Callable: the live worker-pool threads started since the test began
    (memoised plans from earlier tests may still hold theirs)."""
    import threading

    def pool_threads():
        return {
            t for t in threading.enumerate() if t.name.startswith("repro-pool-")
        }

    before = pool_threads()
    return lambda: pool_threads() - before


@pytest.fixture
def symbols_1d():
    """(i, n, u, c, r, u_b, r_b) for the paper's Section 3.2 example."""
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, c, r = sp.Function("u"), sp.Function("c"), sp.Function("r")
    u_b, r_b = sp.Function("u_b"), sp.Function("r_b")
    return i, n, u, c, r, u_b, r_b


@pytest.fixture
def example_1d(symbols_1d):
    """The 1-D three-point stencil of Section 3.2."""
    from repro.core import make_loop_nest

    i, n, u, c, r, u_b, r_b = symbols_1d
    expr = c(i) * (2.0 * u(i - 1) - 3.0 * u(i) + 4 * u(i + 1))
    nest = make_loop_nest(
        lhs=r(i), rhs=expr, counters=[i], bounds={i: [1, n - 1]}, name="sec32"
    )
    return nest, {r: r_b, u: u_b}


ALL_PROBLEMS = [
    ("wave1d", lambda: wave_problem(1), 40),
    ("wave2d", lambda: wave_problem(2), 18),
    ("wave3d", lambda: wave_problem(3), 12),
    ("burgers1d", lambda: burgers_problem(1), 40),
    ("burgers2d", lambda: burgers_problem(2), 16),
    ("heat1d", lambda: heat_problem(1), 40),
    ("heat2d", lambda: heat_problem(2), 18),
    ("heat3d", lambda: heat_problem(3), 10),
    ("conv3x3", lambda: conv_problem(3), 18),
    ("conv5x5", lambda: conv_problem(5), 20),
    ("advection1", lambda: advection_problem(1), 40),
    ("advection2", lambda: advection_problem(2), 40),
    ("anisotropic", lambda: anisotropic_problem(), 16),
    ("anisotropic_k", lambda: anisotropic_problem(active_k=True), 14),
]


@pytest.fixture(params=ALL_PROBLEMS, ids=[p[0] for p in ALL_PROBLEMS])
def any_problem(request):
    """(problem, test grid size) for every application test case."""
    _, factory, n = request.param
    return factory(), n
