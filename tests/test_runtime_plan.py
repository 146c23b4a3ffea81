"""ExecutionPlan tests: one entry point, identical results for every
discipline (serial, threaded) on every app.

The pointwise interpreter is the semantic oracle; the compiled kernels
evaluate the same expression trees element-wise, so agreement is exact
(bitwise), and every planned discipline must preserve that.
"""

import sys
import threading

import numpy as np
import pytest
import sympy as sp

from repro.apps import heat_problem
from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import (
    Bindings,
    ExecutionConfig,
    KernelError,
    compile_nests,
    interpret_nests,
    stack_arrays,
)

CONFIGS = [
    ("serial", dict(num_threads=1)),
    ("threads1", dict(num_threads=1, min_block_iterations=1)),
    ("threads2", dict(num_threads=2, min_block_iterations=1)),
    ("threads4", dict(num_threads=4, min_block_iterations=1)),
]

# Interpreter results per (problem, n): the oracle is deterministic for
# the fixture rng seed, so it is computed once and shared across configs.
_ORACLE: dict = {}


def _oracle(prob, n, nests, base, bindings):
    key = (prob.name, n)
    if key not in _ORACLE:
        interp = {k: v.copy() for k, v in base.items()}
        interpret_nests(nests, interp, bindings)
        _ORACLE[key] = interp
    return _ORACLE[key]


@pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_plan_matches_interpreter_bitwise(any_problem, rng, label, config):
    prob, n = any_problem
    bindings = prob.bindings(n)
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, bindings)
    base = prob.allocate(n, rng=rng)
    base.update(prob.allocate_adjoints(n, rng=rng))
    interp = _oracle(prob, n, nests, base, bindings)

    planned = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(**config)
    try:
        plan.run(planned)
    finally:
        plan.close()

    name_map = prob.adjoint_name_map()
    for prim in prob.active_input_names():
        np.testing.assert_array_equal(
            planned[name_map[prim]], interp[name_map[prim]]
        )


@pytest.mark.parametrize("label,config", CONFIGS[1:], ids=[c[0] for c in CONFIGS[1:]])
def test_plan_bitwise_identical_to_serial_kernel(any_problem, rng, label, config):
    """Every planned discipline reproduces the serial path bit for bit."""
    prob, n = any_problem
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(n))
    base = prob.allocate(n, rng=rng)
    base.update(prob.allocate_adjoints(n, rng=rng))

    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)

    planned = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(**config)
    try:
        plan.run(planned)
    finally:
        plan.close()

    for name in serial:
        np.testing.assert_array_equal(serial[name], planned[name])


def test_plan_memoised_per_config():
    from repro.apps import heat_problem

    prob = heat_problem(1)
    kernel = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(24)
    )
    p1 = kernel.plan(num_threads=2, min_block_iterations=8)
    p2 = kernel.plan(num_threads=np.int64(2), min_block_iterations=8)
    p3 = kernel.plan(num_threads=2)
    assert p1 is p2
    assert p1 is not p3


def test_plan_task_is_one_box():
    """A task is one block's statement boxes: ``unit_count`` is
    ``task_count``."""
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i), counters=[i], bounds={i: [0, n]}
    )
    kernel = compile_nests([nest], Bindings(sizes={n: 31}), cache=False)
    plan = kernel.plan(num_threads=4, min_block_iterations=1)
    (rp,) = plan.region_plans
    assert rp.tasks == (
        (((0, 7),),), (((8, 15),),), (((16, 23),),), (((24, 31),),),
    )
    assert plan.unit_count == plan.task_count == 4


def test_config_validation():
    with pytest.raises(ValueError):
        ExecutionConfig(num_threads=0)


def test_config_validates_min_block_iterations():
    with pytest.raises(ValueError, match="min_block_iterations"):
        ExecutionConfig(min_block_iterations=0)


@pytest.mark.parametrize(
    "config",
    [
        dict(backend="native", native_threads=1.5),
        dict(num_threads=2.5),
        dict(min_block_iterations=1.5),
    ],
    ids=["native_threads", "num_threads", "min_block"],
)
def test_config_validates_thread_counts_as_integers(config):
    """A fractional OpenMP width used to reach the C source as
    ``num_threads(1.5)``, a fractional pool width ``split_box``."""
    (name,) = (k for k in config if k != "backend")
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ExecutionConfig(**config)


def _dependent_regions_kernel(N, delay):
    """Two nests where the second reads what the first writes.

    The first region is large (parallel tasks) and slowed down by a
    bound function; the second is tiny, so it runs inline on the
    submitting thread — the exact shape of the read-after-write hazard
    ``_run_threaded`` used to have before regions were separated by
    conflict barriers.
    """
    import time as _time

    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, a, b = sp.Function("u"), sp.Function("a"), sp.Function("b")
    f = sp.Function("f")
    produce = make_loop_nest(
        lhs=a(i), rhs=f(u(i)), counters=[i], bounds={i: [0, n]}, name="produce"
    )
    consume = make_loop_nest(
        lhs=b(i), rhs=a(i), counters=[i], bounds={i: [0, 1]}, name="consume"
    )

    def slow_double(x):
        _time.sleep(delay)
        return x * 2.0

    bindings = Bindings(sizes={n: N}, functions={"f": slow_double})
    return compile_nests([produce, consume], bindings, cache=False)


def test_threaded_plan_barrier_between_dependent_regions(rng):
    """Read-after-write across regions: the consumer must see the
    producer's values, not stale zeros, for both execution paths."""
    N = 4000
    kernel = _dependent_regions_kernel(N, delay=0.05)
    plan = kernel.plan(num_threads=2)
    assert plan.barriers == (False, True)
    for runner in (plan.run, plan.run_unbound):
        arrays = {
            "u": rng.standard_normal(N + 1),
            "a": np.zeros(N + 1),
            "b": np.zeros(N + 1),
        }
        runner(arrays)
        np.testing.assert_array_equal(arrays["b"][:2], 2.0 * arrays["u"][:2])
    plan.close()


def test_threaded_plan_no_barrier_for_disjoint_adjoint_regions():
    """PerforAD adjoint regions write disjoint boxes of one array: they
    must keep the single final join (no barriers), per Section 1."""
    from repro.apps import wave_problem
    from repro.core import adjoint_loops

    prob = wave_problem(2)
    kernel = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(18)
    )
    plan = kernel.plan(num_threads=4, min_block_iterations=1)
    assert not any(plan.barriers)


def test_empty_region_has_no_plan_work():
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = make_loop_nest(lhs=r(i), rhs=u(i), counters=[i], bounds={i: [5, n]})
    kernel = compile_nests([nest], Bindings(sizes={n: 3}), cache=False)
    plan = kernel.plan()
    assert plan.unit_count == 0
    arrays = {"u": np.ones(10), "r": np.zeros(10)}
    plan.run(arrays)
    assert not arrays["r"].any()


def test_threaded_plan_propagates_exceptions():
    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = make_loop_nest(
        lhs=r(i), rhs=u(i - 1), counters=[i], bounds={i: [0, n]}
    )
    kernel = compile_nests([nest], Bindings(sizes={n: 4000}), cache=False)
    arrays = {"u": np.zeros(4001), "r": np.zeros(4001)}  # u(i-1) at i=0 OOB
    with kernel.plan(num_threads=2, min_block_iterations=1) as plan:
        with pytest.raises(KernelError):
            plan.run(arrays)


# -- the plan-owned worker pool ----------------------------------------------------


def test_concurrent_callers_share_one_memoised_threaded_plan():
    """Memoised plans are shared process-wide, so two callers may run
    the same threaded plan at once (each on its own arrays and binding);
    their batches share the plan's pool without mixing."""
    prob = heat_problem(2)
    n = 48
    kernel = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(n)
    )
    states = [prob.allocate_state(n, seed=s) for s in range(2)]
    refs = [{k: v.copy() for k, v in st.items()} for st in states]
    for ref in refs:
        bound = kernel.plan().bind(ref)
        for _ in range(50):
            bound.run()
    plan = kernel.plan(num_threads=2, min_block_iterations=1)
    assert kernel.plan(num_threads=2, min_block_iterations=1) is plan
    errors = []

    def drive(state):
        try:
            bound = plan.bind(state)
            for _ in range(50):
                bound.run()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    callers = [threading.Thread(target=drive, args=(st,)) for st in states]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        plan.close()
    assert not any(t.is_alive() for t in callers)
    assert not errors, errors
    for ref, state in zip(refs, states):
        for name in ref:
            assert ref[name].tobytes() == state[name].tobytes(), name


def test_close_releases_the_plans_pool_threads(new_pool_threads):
    prob = heat_problem(2)
    n = 16
    kernel = compile_nests(  # uncached: no earlier test holds its pools
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(n),
        cache=False,
    )
    plan = kernel.plan(num_threads=2, min_block_iterations=1)
    plan.bind(prob.allocate_state(n, seed=0)).run()
    assert len(new_pool_threads()) == 2
    plan.close()
    assert not new_pool_threads()

    batched = stack_arrays([prob.allocate_state(n, seed=m) for m in range(6)])
    ensemble = kernel.plan().ensemble(batched, workers=2)
    ensemble.run()
    assert len(new_pool_threads()) == 2
    ensemble.close()
    assert not new_pool_threads()
