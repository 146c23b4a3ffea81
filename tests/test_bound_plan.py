"""BoundPlan tests: allocation-free steady-state runs, bitwise identical.

The seed serial path — ``region.execute`` over every region, rebuilding
views and temporaries per call — is the reference; every bound
discipline (serial, threaded, fused, scatter) must reproduce it
bit for bit, on first run and on steady-state replay, for every app and
dtype.  Binding resolves views against concrete array *objects*, so the
suite also pins down the invalidation contract: replacing an array in
the mapping rebinds, updating values in place does not.
"""

import gc
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from repro.apps import heat_problem, wave_problem
from repro.baselines.scatter import tapenade_style_adjoint
from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import Bindings, KernelError, compile_nests
from repro.runtime.bound import _COUNTER_CACHE


def _seed_serial(kernel, arrays):
    """The pre-plan seed execution path: per-call views and temporaries."""
    for region in kernel.regions:
        region.execute(arrays)


def _adjoint_case(prob, n, rng, dtype):
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(n, dtype=dtype))
    base = prob.allocate(n, rng=rng, dtype=dtype)
    base.update(prob.allocate_adjoints(n, rng=rng, dtype=dtype))
    return kernel, base


CONFIGS = [
    ("serial", dict()),
    ("threads4", dict(num_threads=4, min_block_iterations=1)),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_bound_bitwise_identical_to_seed_serial(
    any_problem, rng, dtype, label, config
):
    """Unbound reference and bound runs (first run and replay) equal the
    seed serial path bitwise."""
    prob, n = any_problem
    kernel, base = _adjoint_case(prob, n, rng, dtype)

    ref = {k: v.copy() for k, v in base.items()}
    _seed_serial(kernel, ref)

    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(**config)
    try:
        # The allocating reference walks this config's decomposition
        # serially and never binds.
        plan.close()
        unbound = {k: v.copy() for k, v in base.items()}
        plan.run_unbound(unbound)
        assert not plan._bound_memo
        for name in ref:
            np.testing.assert_array_equal(ref[name], unbound[name])
        bound = plan.bind(got)
        bound.run()
        for name in ref:
            np.testing.assert_array_equal(ref[name], got[name])
        # Steady-state replay (in-place value reset keeps the binding
        # valid) must stay bitwise identical to the first run.
        for name, arr in base.items():
            got[name][...] = arr
        bound.run()
        for name in ref:
            np.testing.assert_array_equal(ref[name], got[name])
    finally:
        plan.close()


@pytest.mark.parametrize("threads", [1, 4])
def test_bound_scatter_matches_unbound(rng, threads):
    """The bound scatter adjoint equals the unbound reference path,
    on the first run and on a replay."""
    prob = wave_problem(2)
    n = 16
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    kernel = compile_nests([scat], prob.bindings(n))
    base = prob.allocate(n, rng=rng)
    base.update(prob.allocate_adjoints(n, rng=rng))

    unbound = {k: v.copy() for k, v in base.items()}
    bound_arrays = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(num_threads=threads, min_block_iterations=1)
    try:
        plan.run_unbound(unbound)
        bound = plan.bind(bound_arrays)
        bound.run()
        for name in base:
            np.testing.assert_array_equal(unbound[name], bound_arrays[name])
        # Replay from the same inputs: still identical.
        for name, arr in base.items():
            bound_arrays[name][...] = arr
        bound.run()
        for name in base:
            np.testing.assert_array_equal(unbound[name], bound_arrays[name])
    finally:
        plan.close()


def _bare_counter_kernel(size):
    i = sp.Symbol("i", integer=True)
    j = sp.Symbol("j", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = make_loop_nest(
        lhs=r(i, j),
        rhs=u(i, j) * i + 0.5 * j,
        counters=[i, j],
        bounds={i: [0, n], j: [0, n]},
    )
    return compile_nests([nest], Bindings(sizes={n: size}), cache=False)


def test_bound_statement_with_bare_counter_matches_seed(rng):
    """Cached/materialised counter arrays reproduce per-call aranges."""
    kernel = _bare_counter_kernel(19)
    base = {"u": rng.standard_normal((20, 20)), "r": np.zeros((20, 20))}
    ref = {k: v.copy() for k, v in base.items()}
    _seed_serial(kernel, ref)
    got = {k: v.copy() for k, v in base.items()}
    bound = kernel.plan().bind(got)
    bound.run()
    np.testing.assert_array_equal(ref["r"], got["r"])
    got["r"][...] = 0.0
    bound.run()
    np.testing.assert_array_equal(ref["r"], got["r"])


def test_counter_cache_entries_die_with_their_last_binding():
    """Regression: the shared counter-array cache was a strong dict, so
    every full-frame counter array ever bound stayed pinned for the life
    of the process.  Entries must die with the last binding using them."""
    before = set(_COUNTER_CACHE.keys())
    kernel = _bare_counter_kernel(40)  # a frame no other test binds
    bound = kernel.plan().bind({"u": np.ones((41, 41)), "r": np.zeros((41, 41))})
    added = set(_COUNTER_CACHE.keys()) - before
    assert added  # the binding's counter arrays are shared through the cache
    del bound, kernel
    gc.collect()
    assert not added & set(_COUNTER_CACHE.keys())


def test_steady_state_run_performs_no_array_allocations():
    """Acceptance: zero NumPy array allocations per steady-state run.

    After warm-up (which sizes the replay-tape buffers), repeated
    ``BoundPlan.run`` calls allocate no array data: net traced memory
    does not grow, and the transient peak stays far below the smallest
    full-box temporary the allocating path would create per statement.
    """
    prob = heat_problem(2)
    n = 32
    kernel, base = _adjoint_case(prob, n, np.random.default_rng(3), np.float64)
    arrays = {k: v.copy() for k, v in base.items()}
    bound = kernel.plan().bind(arrays)
    # Every statement of this gather kernel must take the in-place path;
    # a silent fallback to allocating eval would void the assertion.
    assert bound.inplace_statement_count == bound.statement_count > 0
    bound.run()
    bound.run()  # steady state reached

    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    for _ in range(5):
        bound.run()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    smallest_box_bytes = (n - 4) * (n - 4) * 8  # smallest interior temp
    assert current - before == 0, "steady-state run retained memory"
    assert peak - before < smallest_box_bytes, (
        f"steady-state run transiently allocated {peak - before} bytes "
        f"(>= one {smallest_box_bytes}-byte box temporary)"
    )


def test_plan_run_rebinds_after_array_replacement(rng):
    """Replacing an array object in the dict invalidates stale views."""
    prob = heat_problem(1)
    n = 24
    kernel, base = _adjoint_case(prob, n, rng, np.float64)
    arrays = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan()
    plan.run(arrays)  # first call: binds and memoises
    first = plan.bound_for(arrays)
    assert first.matches(arrays)

    # Replace every array with a *new object* holding new values.
    rng2 = np.random.default_rng(999)
    base2 = prob.allocate(n, rng=rng2)
    base2.update(prob.allocate_adjoints(n, rng=rng2))
    for name, arr in base2.items():
        arrays[name] = arr.copy()
    assert not first.matches(arrays)

    ref = {k: v.copy() for k, v in base2.items()}
    _seed_serial(kernel, ref)
    snapshot = {k: v.copy() for k, v in arrays.items()}
    plan.run(arrays)  # stale binding detected: must not use old views
    for name in ref:
        np.testing.assert_array_equal(ref[name], arrays[name])
    for name, arr in snapshot.items():
        arrays[name][...] = arr
    plan.run(arrays)  # rebinds for the replaced arrays
    assert plan.bound_for(arrays) is not first
    for name in ref:
        np.testing.assert_array_equal(ref[name], arrays[name])


def test_plan_run_memoises_binding_for_stable_arrays(rng):
    """Identity-stable arrays dicts reuse one binding across runs."""
    prob = heat_problem(1)
    n = 24
    kernel, base = _adjoint_case(prob, n, rng, np.float64)
    arrays = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan()
    plan.close()  # plans memoise on cached kernels: drop earlier bindings
    assert not plan._bound_memo
    plan.run(arrays)  # first call binds
    assert len(plan._bound_memo) == 1
    bound = plan.bound_for(arrays)
    arrays[next(iter(arrays))][...] *= 1.0  # in-place update: still valid
    plan.run(arrays)
    assert plan.bound_for(arrays) is bound


def test_bind_rejects_missing_array(rng):
    prob = heat_problem(1)
    kernel, base = _adjoint_case(prob, 16, rng, np.float64)
    arrays = {k: v.copy() for k, v in base.items()}
    arrays.pop("u_1_b")
    with pytest.raises(KernelError, match=r"needs arrays \['u_1_b'\]"):
        kernel.plan().bind(arrays)
