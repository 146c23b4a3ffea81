"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import gc
import glob
import os
import threading
from multiprocessing import resource_tracker

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


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "lattice_full: the full product of the execution lattice's axes "
        "(tests/test_lattice.py; the default run covers every pair)",
    )


def pytest_collection_finish(session):
    # What collection built (kernels, SymPy's caches, the lattice's
    # tables) lives for the whole session: freeze it, so that each cycle
    # collection scans only what the tests allocate.
    gc.freeze()


def pytest_collection_modifyitems(config, items):
    # The full product runs only when asked for: ``-m lattice_full``.
    if "lattice_full" in config.getoption("markexpr"):
        return
    full = [item for item in items if item.get_closest_marker("lattice_full")]
    if full:
        config.hook.pytest_deselected(items=full)
        items[:] = [item for item in items if not item.get_closest_marker("lattice_full")]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@dataclasses.dataclass(frozen=True)
class Resources:
    """What a test can start and must close: the runtime's named threads,
    this process's children, its sharded-plan segments and its open file
    descriptors."""

    threads: frozenset = frozenset()
    children: frozenset = frozenset()
    segments: frozenset = frozenset()
    fds: frozenset = frozenset()

    @classmethod
    def now(cls) -> "Resources":
        children = set()
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children") as f:
                    children.update(f.read().split())
            except OSError:  # the thread exited meanwhile
                pass
        return cls(
            threads=frozenset(
                t for t in threading.enumerate()
                if t.name.startswith(("repro-pool-", "repro-serve-"))
            ),
            children=frozenset(children),
            segments=frozenset(glob.glob(f"/dev/shm/repro_shard_{os.getpid()}_*")),
            fds=frozenset(os.listdir("/proc/self/fd")),
        )

    def __sub__(self, other: "Resources") -> "Resources":
        return Resources(*(
            getattr(self, f.name) - getattr(other, f.name)
            for f in dataclasses.fields(self)
        ))

    def __bool__(self) -> bool:
        return any(getattr(self, f.name) for f in dataclasses.fields(self))

    def threads_named(self, prefix: str) -> set:
        return {t for t in self.threads if t.name.startswith(prefix)}


# The shared-memory resource tracker is one helper process per
# interpreter, started by the first segment anyone creates; starting it
# up front keeps it out of every test's census.
resource_tracker.ensure_running()


@pytest.fixture(autouse=True)
def started():
    """Callable: the :class:`Resources` started since the test began.

    After the test, anything it started and did not close fails it (a
    garbage collection first, so an object freed only by the cycle
    collector is not counted).
    """
    before = Resources.now()
    yield lambda: Resources.now() - before
    left = Resources.now() - before
    if left:
        gc.collect()
        left = Resources.now() - before
    assert not left, f"the test left behind {left}"


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
