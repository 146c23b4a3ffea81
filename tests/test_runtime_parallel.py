"""Threaded plan and scheduler tests.

On this machine the thread pool exercises the decomposition and
synchronisation structure (the results must be identical for any thread
count); the performance claims are the machine model's job.
"""

import numpy as np
import pytest
import sympy as sp

from repro.baselines.scatter import tapenade_style_adjoint
from repro.core import adjoint_loops
from repro.core.loopnest import LoopNest, Statement
from repro.runtime import (
    Bindings,
    KernelError,
    compile_nests,
    split_box,
)
from repro.runtime.scheduler import choose_split_axis


def _run(kernel, arrays, threads, scatter=False, min_block_iterations=1):
    """The one execution route, at a given thread count and discipline."""
    kernel.plan(
        num_threads=threads,
        scatter=scatter,
        min_block_iterations=min_block_iterations,
    ).bind(arrays).run()


# -- scheduler ---------------------------------------------------------------


def test_split_box_partitions_exactly():
    box = ((0, 9), (3, 7))
    blocks = split_box(box, 4)
    pts = set()
    for blk in blocks:
        for x in range(blk[0][0], blk[0][1] + 1):
            for y in range(blk[1][0], blk[1][1] + 1):
                assert (x, y) not in pts
                pts.add((x, y))
    assert len(pts) == 10 * 5


def test_split_box_respects_axis():
    blocks = split_box(((0, 1), (0, 99)), 4, axis=1)
    assert len(blocks) == 4
    assert all(blk[0] == (0, 1) for blk in blocks)


def test_split_box_caps_at_extent():
    assert len(split_box(((0, 2),), 10)) == 3


def test_split_box_empty():
    assert split_box(((5, 2),), 4) == []


def test_split_box_single_block():
    assert split_box(((0, 9),), 1) == [((0, 9),)]


def test_choose_split_axis_widest():
    assert choose_split_axis(((0, 3), (0, 99), (0, 9))) == 1


def test_uneven_split_sizes_balanced():
    blocks = split_box(((0, 9),), 3)
    sizes = [hi - lo + 1 for ((lo, hi),) in blocks]
    assert sorted(sizes) == [3, 3, 4]
    assert max(sizes) - min(sizes) <= 1


# -- parallel gather execution -------------------------------------------------


@pytest.mark.parametrize("threads", [1, 2, 3, 7])
def test_gather_identical_across_thread_counts(any_problem, rng, threads):
    prob, N = any_problem
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))

    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)

    parallel = {k: v.copy() for k, v in base.items()}
    _run(kernel, parallel, threads)

    name_map = prob.adjoint_name_map()
    for prim in prob.active_input_names():
        np.testing.assert_array_equal(
            serial[name_map[prim]], parallel[name_map[prim]]
        )


def test_scatter_locked_execution_matches_serial(rng):
    from repro.apps import wave_problem

    prob = wave_problem(2)
    N = 16
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    kernel = compile_nests([scat], prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))

    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)
    parallel = {k: v.copy() for k, v in base.items()}
    _run(kernel, parallel, 4, scatter=True)
    np.testing.assert_allclose(
        serial["u_1_b"], parallel["u_1_b"], rtol=1e-12, atol=1e-13
    )


def _mixed_op_kernel(N: int):
    """A kernel with one '=' and one '+=' statement on the same target.

    Regression case for the scatter-merge bug: the threaded scatter
    discipline used to merge thread-private scratch with ``+=``
    unconditionally, which silently *adds* the '='-statement's values to
    the global array instead of storing them.
    """
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = LoopNest(
        statements=(
            Statement(lhs=r(i), rhs=u(i), op="="),
            Statement(lhs=r(i), rhs=2 * u(i - 1), op="+="),
        ),
        counters=(i,),
        bounds={i: (1, n - 1)},
    )
    return compile_nests([nest], Bindings(sizes={n: N}), cache=False)


def test_scatter_rejects_mixed_assignment_kernel(rng):
    """Scatter plans must refuse kernels whose merge would corrupt results."""
    N = 64
    kernel = _mixed_op_kernel(N)
    arrays = {"u": rng.standard_normal(N + 1), "r": rng.standard_normal(N + 1)}
    with pytest.raises(KernelError, match="scatter"):
        _run(kernel, arrays, 2, scatter=True)


def test_scatter_single_thread_runs_mixed_kernel(rng):
    """Serial scatter execution needs no merge, so mixed kernels are fine."""
    N = 64
    kernel = _mixed_op_kernel(N)
    base = {"u": rng.standard_normal(N + 1), "r": rng.standard_normal(N + 1)}
    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)
    scat = {k: v.copy() for k, v in base.items()}
    _run(kernel, scat, 1, scatter=True)
    np.testing.assert_array_equal(serial["r"], scat["r"])


def test_scatter_rejects_read_of_written_array():
    """Reads of a region-written array would observe zeroed scratch."""
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = LoopNest(
        statements=(Statement(lhs=r(i), rhs=r(i - 1) + u(i), op="+="),),
        counters=(i,),
        bounds={i: (1, n - 1)},
    )
    kernel = compile_nests([nest], Bindings(sizes={n: 32}), cache=False)
    arrays = {"u": np.ones(33), "r": np.zeros(33)}
    with pytest.raises(KernelError, match="reads"):
        _run(kernel, arrays, 2, scatter=True)


def test_invalid_thread_count():
    with pytest.raises(ValueError):
        _run(_mixed_op_kernel(8), {}, 0)


def test_small_regions_run_inline(rng):
    """Regions below the blocking threshold execute serially (no futures)."""
    from repro.apps import heat_problem

    prob = heat_problem(1)
    N = 30
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)
    par = {k: v.copy() for k, v in base.items()}
    _run(kernel, par, 4, min_block_iterations=10**9)
    np.testing.assert_array_equal(serial["u_1_b"], par["u_1_b"])


def test_exceptions_propagate():
    import sympy as sp

    from repro.core import make_loop_nest

    i = sp.Symbol("i", integer=True)
    nsym = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i - 1), counters=[i], bounds={i: [0, nsym]}
    )
    kernel = compile_nests([nest], Bindings(sizes={nsym: 4000}))
    arrays = {"u": np.zeros(4001), "r": np.zeros(4001)}  # u(i-1) at i=0 OOB
    with pytest.raises(Exception):
        _run(kernel, arrays, 2)
