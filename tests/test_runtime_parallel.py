"""Threaded plan and scheduler tests.

On this machine the thread pool exercises the decomposition and
synchronisation structure (the results must be identical for any thread
count); the performance claims are the machine model's job.
"""

import numpy as np
import pytest
import sympy as sp

from repro.apps import heat_problem
from repro.baselines.scatter import tapenade_style_adjoint
from repro.core import adjoint_loops
from repro.core.loopnest import LoopNest, Statement
from repro.runtime import Bindings, compile_nests, split_box
from test_lattice import replaced


def _run(kernel, arrays, threads, min_block_iterations=1):
    """The one execution route, at a given thread count."""
    kernel.plan(
        num_threads=threads, min_block_iterations=min_block_iterations
    ).bind(arrays).run()


def _assert_threaded_bitwise(kernel, base, threads):
    """A plain threaded plan of *kernel* on *base* equals its serial run
    bit for bit; returns the plan's task count."""
    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)
    threaded = {k: v.copy() for k, v in base.items()}
    with kernel.plan(num_threads=threads, min_block_iterations=1) as plan:
        plan.bind(threaded).run()
        for name in base:
            assert serial[name].tobytes() == threaded[name].tobytes(), name
        return plan.task_count


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


def test_uneven_split_sizes_balanced():
    blocks = split_box(((0, 9),), 3)
    sizes = [hi - lo + 1 for ((lo, hi),) in blocks]
    assert sorted(sizes) == [3, 3, 4]
    assert max(sizes) - min(sizes) <= 1


# -- parallel gather execution -------------------------------------------------


test_gather_identical_across_thread_counts = replaced("test_gather_identical_across_thread_counts")
test_tapenade_adjoint_threaded_bitwise = replaced("test_tapenade_adjoint_threaded_bitwise")


def test_gather_adjoint_keeps_its_splits():
    """The partition rule refuses the scatter adjoint, not threading: the
    heat2d gather adjoint still splits every region across threads."""
    prob = heat_problem(2)
    kernel = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(64)
    )
    regions = sum(1 for region in kernel.regions if not region.is_empty)
    with kernel.plan(num_threads=2, min_block_iterations=1) as plan:
        assert plan.task_count > regions
        assert all(rp.parallel for rp in plan.region_plans)


def test_plan_without_a_parallel_region_starts_no_pool(rng, started):
    """Every region of the heat2d scatter adjoint is refused a split, so
    a threaded plan binds the serial stream: no worker thread starts,
    and the result is bitwise equal to serial."""
    prob = heat_problem(2)
    n = 64
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    kernel = compile_nests([scat], prob.bindings(n), cache=False)
    base = prob.allocate(n, rng=rng)
    base.update(prob.allocate_adjoints(n, rng=rng))
    serial = {k: v.copy() for k, v in base.items()}
    with kernel.plan() as plan:
        plan.bind(serial).run()
    threaded = {k: v.copy() for k, v in base.items()}
    with kernel.plan(num_threads=4, min_block_iterations=1) as plan:
        assert plan.task_count == 1
        assert not any(rp.parallel for rp in plan.region_plans)
        plan.bind(threaded).run()
        assert started().threads_named("repro-pool-") == set()
    for name in serial:
        assert serial[name].tobytes() == threaded[name].tobytes(), name


def _mixed_op_kernel(N: int):
    """A kernel with one '=' and one '+=' statement on the same target."""
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


def test_mixed_assignment_kernel_threaded_bitwise(rng):
    """Both statements write ``r`` at the iteration's own row, so the
    region splits — and stays bitwise."""
    N = 64
    base = {"u": rng.standard_normal(N + 1), "r": rng.standard_normal(N + 1)}
    assert _assert_threaded_bitwise(_mixed_op_kernel(N), base, 2) == 2


def test_target_reading_kernel_threaded_bitwise(rng):
    """``r[i] += r[i-1]`` reads the target a row back: the region runs
    as one task, bitwise equal to serial."""
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = LoopNest(
        statements=(Statement(lhs=r(i), rhs=r(i - 1) + u(i), op="+="),),
        counters=(i,),
        bounds={i: (1, n - 1)},
    )
    kernel = compile_nests([nest], Bindings(sizes={n: 32}), cache=False)
    base = {"u": rng.standard_normal(33), "r": rng.standard_normal(33)}
    assert _assert_threaded_bitwise(kernel, base, 2) == 1


def test_invalid_thread_count():
    with pytest.raises(ValueError):
        _run(_mixed_op_kernel(8), {}, 0)


def test_small_regions_run_inline(rng):
    """Regions below the blocking threshold execute serially (no futures)."""
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
