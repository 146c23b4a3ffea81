"""Ensemble execution tests: batched runs equal looped runs, bit for bit.

The contract: an :class:`~repro.runtime.ensemble.EnsemblePlan` over
stacked member states produces, for every member, exactly the bits a
single-scenario :class:`~repro.runtime.bound.BoundPlan` run produces —
across applications, backends, plan disciplines, dtypes, worker counts
and chunkings (asserted by the execution lattice,
``tests/test_lattice.py``).  Plus unit coverage of the runtime's one
thread pool, :class:`~repro.runtime.scheduler.WorkerPool` (one shared
first-in first-out task deque), and the binding/validation surface.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
import sympy as sp

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import (
    Bindings,
    EnsemblePlan,
    KernelError,
    NumericalDivergenceError,
    WorkerPool,
    batch_safe_statement,
    compile_nests,
    native_available,
    stack_arrays,
)
from test_lattice import replaced

BACKENDS = ["python"] + (["native"] if native_available() else [])


def _kernel(prob, n, dtype=np.float64):
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    return compile_nests(nests, prob.bindings(n, dtype=dtype), name="ens_test")


def _member_states(prob, n, members, dtype=np.float64):
    return [prob.allocate_state(n, seed=m, dtype=dtype) for m in range(members)]


def _looped_reference(plan, states, steps=1):
    """Single-scenario bound runs, the reference the ensemble must match."""
    arrays = [{k: v.copy() for k, v in st.items()} for st in states]
    for member in arrays:
        bound = plan.bind(member)
        for _ in range(steps):
            bound.run()
    return arrays


def _assert_members_match(ensemble, refs):
    for m, ref in enumerate(refs):
        views = ensemble.member_arrays(m)
        for name in ref:
            assert ref[name].tobytes() == views[name].tobytes(), (
                f"member {m} array {name} diverged from the looped run"
            )


# -- bitwise identity across apps x backends x dtypes -------------------------


test_batched_equals_looped = replaced("test_batched_equals_looped")
test_batched_equals_looped_threaded_plans = replaced("test_batched_equals_looped_threaded_plans")
test_worker_and_chunk_count_never_change_results = replaced("test_worker_and_chunk_count_never_change_results")


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
def test_native_ensemble_chains_whole_step_into_one_call():
    """A fully native ensemble binds every statement natively and chains."""
    prob = heat_problem(2)
    kernel = _kernel(prob, 12)
    plan = kernel.plan(backend="native")
    states = _member_states(prob, 12, members=6)
    with EnsemblePlan(plan, stack_arrays(states)) as ensemble:
        assert ensemble.native_statement_count == 6 * plan.bind(
            {k: v.copy() for k, v in states[0].items()}
        ).statement_count
        assert ensemble.batched_statement_count == 0
        assert ensemble.member_statement_count == 0
        # all statements of all members collapsed into one chain runnable
        (chunk,) = ensemble._chunks
        assert len(chunk.items) == 1


# -- per-member fallback for non-elementwise expressions ----------------------


def _user_function_kernel(fn, n=16):
    """A kernel whose RHS calls a user-bound (non-batchable) function."""
    i = sp.Symbol("i", integer=True)
    nsym = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    f = sp.Function("f")
    nest = make_loop_nest(
        lhs=r(i),
        rhs=f(u(i)) + u(i - 1),
        counters=[i],
        bounds={i: [1, nsym - 1]},
        name="userfn",
    )
    bindings = Bindings(sizes={nsym: n}, functions={"f": fn})
    return compile_nests([nest], bindings, name="userfn"), n


def test_user_bound_functions_fall_back_per_member():
    """A member-mixing implementation must never see stacked operands."""

    def squish(x):  # correct elementwise for one member ...
        # ... but would be wrong batched *if* it reduced; make sure the
        # runtime never hands it a member-stacked operand at all.
        assert x.ndim == 1, "user function saw a batched operand"
        return np.tanh(x)

    kernel, n = _user_function_kernel(squish)
    plan = kernel.plan()
    states = [
        {
            "u": np.random.default_rng(m).standard_normal(n + 1),
            "r": np.zeros(n + 1),
        }
        for m in range(4)
    ]
    refs = _looped_reference(plan, states, steps=2)
    with EnsemblePlan(plan, stack_arrays(states)) as ensemble:
        assert ensemble.batched_statement_count == 0
        assert ensemble.member_statement_count == 4
        # the three shapes partition the bound statements
        assert ensemble.statement_count == (
            ensemble.batched_statement_count
            + ensemble.native_statement_count
            + ensemble.member_statement_count
        )
        ensemble.run()
        ensemble.run()
        _assert_members_match(ensemble, refs)


def test_batch_safe_statement_verdicts():
    heat = heat_problem(2)
    kernel = _kernel(heat, 10)
    for region in kernel.regions:
        for st in region.statements:
            assert batch_safe_statement(st)  # linear stencil: pure ufuncs
    burgers = burgers_problem(1)
    bkernel = _kernel(burgers, 16)
    assert all(
        batch_safe_statement(st)
        for region in bkernel.regions
        for st in region.statements
    )  # Min/Max/Heaviside are elementwise
    ukernel, _ = _user_function_kernel(np.tanh)
    verdicts = [
        batch_safe_statement(st)
        for region in ukernel.regions
        for st in region.statements
    ]
    assert not all(verdicts)  # the user-function statement is gated


# -- binding surface ----------------------------------------------------------


def test_stack_arrays_validation_and_shape():
    a = {"u": np.zeros((3, 3)), "v": np.ones(2)}
    b = {"u": np.ones((3, 3)), "v": np.zeros(2)}
    batched = stack_arrays([a, b])
    assert batched["u"].shape == (2, 3, 3)
    assert batched["v"].shape == (2, 2)
    assert batched["u"].flags.c_contiguous
    batched["u"][0] += 1.0  # copies: inputs unaliased
    assert a["u"].sum() == 0.0
    with pytest.raises(ValueError, match="at least one"):
        stack_arrays([])
    with pytest.raises(ValueError, match="member 1"):
        stack_arrays([a, {"u": np.zeros((3, 3))}])
    # np.stack would silently promote mixed dtypes, breaking the
    # bitwise-identity contract — must fail loudly instead
    with pytest.raises(ValueError, match="must match exactly"):
        stack_arrays([a, {"u": np.ones((3, 3), np.float32), "v": b["v"]}])
    with pytest.raises(ValueError, match="must match exactly"):
        stack_arrays([a, {"u": np.ones((2, 3)), "v": b["v"]}])


def test_ensemble_rejects_bad_batches_and_configs():
    prob = heat_problem(1)
    kernel = _kernel(prob, 10)
    plan = kernel.plan()
    states = _member_states(prob, 10, members=3)
    batched = stack_arrays(states)
    with pytest.raises(KernelError, match="missing kernel arrays"):
        EnsemblePlan(plan, {"u": batched["u"]})
    ragged = dict(batched)
    ragged["u_b"] = batched["u_b"][:2]
    with pytest.raises(KernelError, match="leading member axis"):
        EnsemblePlan(plan, ragged)
    with pytest.raises(ValueError, match="workers"):
        EnsemblePlan(plan, batched, workers=0)
    # A per-run backup of the stacked arrays is a sweep nobody asked
    # for; silently dropping the knob (the parent's behaviour) is worse.
    with pytest.raises(KernelError, match="transactional"):
        kernel.plan(transactional=True).ensemble(batched)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ensemble_honours_the_divergence_watchdog(backend):
    """Regression: ``check="nan"`` was silently ignored by ensembles — a
    NaN planted in one member ran to completion on both backends."""
    prob = heat_problem(2)
    kernel = _kernel(prob, 16)
    states = _member_states(prob, 16, members=3)
    states[1]["u_b"][5, 5] = np.nan
    plan = kernel.plan(backend=backend, check="nan")
    with plan.ensemble(stack_arrays(states)) as ensemble:
        with pytest.raises(NumericalDivergenceError, match="'u_1_b' of region") as err:
            ensemble.run()
    # Member 1: named by the per-member native statement's label, or by
    # the leading index into the batch-shifted python statement's target.
    assert err.value.step == 1
    assert "(member 1)" in err.value.statement or "index (1, " in str(err.value)
    # The single-scenario binding of the same member says the same.
    with pytest.raises(NumericalDivergenceError, match="'u_1_b' of region"):
        plan.bind(states[1]).run()
    plan.close()


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
def test_ensemble_watchdog_stands_fusion_down_like_a_bound_plan():
    """Regression: the ensemble's copy of the fusion gate had drifted —
    it fused (4 groups, no watchdog) where ``BoundPlan`` refuses to."""
    prob = wave_problem(2)
    kernel = _kernel(prob, 24)
    states = _member_states(prob, 24, members=2)
    plan = kernel.plan(backend="native", check="nan")
    bound = plan.bind({k: v.copy() for k, v in states[0].items()})
    with plan.ensemble(stack_arrays(states)) as ensemble:
        assert ensemble.fused_group_count == bound.fused_group_count == 0
        assert ensemble.native_statement_count == 2 * bound.native_statement_count
        assert ensemble.mode == bound.mode


def test_member_arrays_are_live_views():
    prob = heat_problem(1)
    kernel = _kernel(prob, 10)
    plan = kernel.plan()
    states = _member_states(prob, 10, members=2)
    with EnsemblePlan(plan, stack_arrays(states)) as ensemble:
        views = ensemble.member_arrays(1)
        views["u_1_b"][...] = 0.25  # in-place writes update the ensemble
        refs = [dict(states[0]), {k: v.copy() for k, v in states[1].items()}]
        refs[1]["u_1_b"][...] = 0.25
        refs = _looped_reference(plan, refs)
        ensemble.run()
        _assert_members_match(ensemble, refs)
        with pytest.raises(IndexError):
            ensemble.member_arrays(2)
        with pytest.raises(IndexError):
            ensemble.member_arrays(-1)


def test_plan_ensemble_entry_point():
    prob = heat_problem(1)
    kernel = _kernel(prob, 10)
    states = _member_states(prob, 10, members=3)
    with kernel.plan().ensemble(stack_arrays(states), workers=2) as ensemble:
        assert ensemble.members == 3
        assert ensemble.workers == 2
        ensemble.run()


# -- the worker pool -----------------------------------------------------------


def test_scheduler_runs_every_task_and_is_reusable():
    with WorkerPool(3) as sched:
        for _ in range(3):  # generations reuse the persistent workers
            hits = []
            lock = threading.Lock()

            def task(i):
                with lock:
                    hits.append(i)

            sched.run([lambda i=i: task(i) for i in range(17)])
            assert sorted(hits) == list(range(17))


def test_scheduler_steals_from_loaded_workers():
    """An unbalanced batch finishes on the thief, not behind the owner."""
    with WorkerPool(2) as sched:
        ran_by = {}
        lock = threading.Lock()

        def slow():
            ran_by[threading.get_ident()] = ran_by.get(
                threading.get_ident(), 0
            ) + 1
            time.sleep(0.05)

        def fast(i):
            with lock:
                ran_by[threading.get_ident()] = ran_by.get(
                    threading.get_ident(), 0
                ) + 1

        # Round-robin seeds slow tasks onto worker 0 and fast onto 1;
        # worker 1 must steal worker 0's backlog.
        tasks = []
        for i in range(4):
            tasks.append(slow)
            tasks.append(lambda i=i: fast(i))
        start = time.perf_counter()
        sched.run(tasks)
        elapsed = time.perf_counter() - start
        assert sum(ran_by.values()) == 8
        # 4 x 0.05s of slow work over 2 workers: stealing keeps the
        # critical path near 0.1s; a no-steal schedule would be 0.2s.
        assert elapsed < 0.19, f"stealing failed to rebalance ({elapsed:.3f}s)"


def test_scheduler_propagates_task_exceptions():
    with WorkerPool(2) as sched:
        done = []

        def boom():
            raise RuntimeError("member 3 diverged")

        with pytest.raises(RuntimeError, match="member 3 diverged"):
            sched.run([boom, lambda: done.append(1), lambda: done.append(2)])
        # Tasks already running when the failure was recorded complete;
        # tasks still queued are cancelled.  Either way the batch
        # accounts for every submitted task.
        assert len(done) + sched.last_cancelled == 2
        sched.run([lambda: done.append(3)])  # scheduler survives the failure
        assert 3 in done
        assert sched.last_cancelled == 0


def test_scheduler_close_is_idempotent_and_final():
    sched = WorkerPool(2)
    sched.run([lambda: None])
    sched.close()
    sched.close()
    with pytest.raises(RuntimeError, match="closed"):
        sched.run([lambda: None])
    with pytest.raises(ValueError):
        WorkerPool(0)


# -- ensemble steady state ----------------------------------------------------


def test_fused_steady_state_is_allocation_free():
    """Pure-ufunc ensembles replay with zero array allocations."""
    import tracemalloc

    prob = heat_problem(2)
    kernel = _kernel(prob, 12)
    plan = kernel.plan()
    states = _member_states(prob, 12, members=8)
    with EnsemblePlan(plan, stack_arrays(states)) as ensemble:
        assert ensemble.member_statement_count == 0
        for _ in range(3):
            ensemble.run()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            ensemble.run()
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert current - before < 2048, (
            f"steady-state ensemble allocated {current - before} bytes"
        )
