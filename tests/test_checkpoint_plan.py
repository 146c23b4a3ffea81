"""Checkpointed adjoint runtime: bitwise identity, memory, allocations.

The contract of :class:`repro.runtime.checkpoint.CheckpointedAdjointPlan`:

* adjoints are **bitwise identical** to :meth:`run_store_all` — and to
  an independent, unbound-kernel store-all reference — across
  heat/wave/burgers, python/native backends, f64/f32 and snapshot
  counts (the reverse sweep consumes the same primal states by
  construction);
* steady-state sweeps (after the recording warm-up) perform **zero
  array allocations**;
* the forward evaluation count per sweep equals the revolve optimum
  ``optimal_cost(steps, snaps) - steps`` exactly, and snapshot memory
  is ``snaps / steps`` of the store-all state bytes;
* with ``members``, one schedule runs the whole ensemble, each member
  bitwise identical to its single-scenario checkpointed run;
* an all-native plan runs a sweep as **one recorded C program** (one
  foreign call per chunk, one join), bitwise identical to the per-action
  sweep it was recorded from — which an active fault injector selects.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import adjoint_loops
from repro.driver import optimal_cost
from repro.verify import bitwise_equal as _bitwise
from repro.runtime import (
    KernelError,
    NumericalDivergenceError,
    SnapshotPool,
    clear_kernel_cache,
    compile_nests,
    faults,
    native_available,
)
from repro.runtime import native as native_mod

needs_cc = pytest.mark.skipif(not native_available(), reason="no C toolchain")

PROBLEMS = {
    "heat1d": (lambda: heat_problem(1), 16),
    "heat2d": (lambda: heat_problem(2), 12),
    "wave1d": (lambda: wave_problem(1), 16),
    "wave2d": (lambda: wave_problem(2), 10),
    "burgers1d": (lambda: burgers_problem(1), 20),
}

BACKENDS = ["python"] + (["native"] if native_available() else [])


def _inputs(prob, n, dtype=np.float64, seed_offset=0):
    shape = prob.array_shape(n)
    rng = np.random.default_rng(11 + seed_offset)
    state0 = [
        (rng.standard_normal(shape) * 0.1).astype(dtype)
        for _ in prob.history_fields()
    ]
    seed = rng.standard_normal(shape).astype(dtype)
    constants = {
        name: (rng.standard_normal(shape) * 0.1).astype(dtype)
        for name in prob.constant_fields()
    }
    return state0, seed, constants


def _reference_store_all(prob, n, steps, state0, seed, constants, dtype):
    """Store-all adjoint via unbound kernel calls — independent of the
    checkpoint runtime's buffers, bindings and schedule execution."""
    shape = prob.array_shape(n)
    bindings = prob.bindings(n, dtype=dtype)
    fwd = compile_nests([prob.primal], bindings)
    adj = compile_nests(adjoint_loops(prob.primal, prob.adjoint_map), bindings)
    history = prob.history_fields()
    name_map = prob.adjoint_name_map()
    h = len(history)

    states = [tuple(arr.copy() for arr in state0)]
    for _ in range(steps):
        arrays = {prob.output_name: np.zeros(shape, dtype=dtype), **constants}
        arrays.update(
            {history[k]: states[-1][k] for k in range(h)}
        )
        fwd(arrays)
        states.append((arrays[prob.output_name], *states[-1][:h - 1]))

    lam = [seed.copy()] + [np.zeros(shape, dtype=dtype) for _ in range(h - 1)]
    const_adj = {
        name_map[c]: np.zeros(shape, dtype=dtype)
        for c in prob.constant_fields()
        if c in name_map
    }
    for t in reversed(range(steps)):
        arrays = {
            name_map[prob.output_name]: lam[0].copy(),
            **{history[k]: states[t][k] for k in range(h)},
            **{
                name_map[history[k]]: (
                    lam[k + 1].copy() if k + 1 < h else np.zeros(shape, dtype=dtype)
                )
                for k in range(h)
            },
            **constants,
            **const_adj,
        }
        adj(arrays)
        lam = [arrays[name_map[history[k]]] for k in range(h)]
    out = {name_map[history[k]]: lam[k] for k in range(h)}
    out.update(const_adj)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("label", sorted(PROBLEMS))
def test_checkpointed_bitwise_identical_to_store_all(label, backend, dtype):
    factory, n = PROBLEMS[label]
    prob = factory()
    steps, snaps = 9, 3
    state0, seed, constants = _inputs(prob, n, dtype)
    plan = prob.checkpointed_adjoint(
        n, steps=steps, snaps=snaps, dtype=dtype, backend=backend,
        constants=constants,
    )
    ref = {k: v.copy() for k, v in plan.run_store_all(state0, seed).items()}
    out = plan.adjoint(state0, seed)
    assert sorted(out) == sorted(ref)
    for k in ref:
        assert _bitwise(out[k], ref[k]), f"{k} diverged from store-all"

    indep = _reference_store_all(prob, n, steps, state0, seed, constants, dtype)
    for k in indep:
        assert _bitwise(out[k], indep[k]), (
            f"{k} diverged from the independent unbound reference"
        )


@pytest.mark.parametrize("snaps", [1, 2, 4, 9])
def test_snapshot_counts_change_cost_not_bits(snaps):
    prob = burgers_problem(1)
    n, steps = 20, 9
    plan = prob.checkpointed_adjoint(n, steps=steps, snaps=snaps)
    state0, seed, _ = _inputs(prob, n)
    ref = {k: v.copy() for k, v in plan.run_store_all(state0, seed).items()}
    out = plan.adjoint(state0, seed)
    for k in ref:
        assert _bitwise(out[k], ref[k])
    assert plan.forward_steps == optimal_cost(steps, snaps) - steps
    assert plan.snapshot_bytes == snaps * (n + 1) * 8
    assert plan.store_all_bytes == steps * (n + 1) * 8


def _assert_steady_state_allocates_nothing(plan, prob, n):
    state0, seed, _ = _inputs(prob, n)
    plan.adjoint(state0, seed)  # records the slot tapes
    plan.adjoint(state0, seed)  # steady state reached

    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    for _ in range(3):
        plan.adjoint(state0, seed)
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    state_bytes = (n + 1) * 8
    assert current - before <= 256, "steady-state sweep retained memory"
    assert peak - before < state_bytes, (
        f"steady-state sweep transiently allocated {peak - before} bytes "
        f"(>= one {state_bytes}-byte state array)"
    )


def test_steady_state_sweeps_allocate_no_arrays():
    """Post-warm-up adjoint sweeps must not allocate NumPy arrays."""
    prob = heat_problem(1)
    n = 2000  # one state array is 16 KB: any array allocation is visible
    plan = prob.checkpointed_adjoint(n, steps=8, snaps=3)
    assert plan.sweep.rung == "per-action"
    _assert_steady_state_allocates_nothing(plan, prob, n)


def test_result_buffers_are_stable_objects():
    """adjoint() returns the plan's persistent buffers every call."""
    prob = heat_problem(1)
    plan = prob.checkpointed_adjoint(12, steps=5, snaps=2)
    state0, seed, _ = _inputs(prob, 12)
    first = plan.adjoint(state0, seed)
    second = plan.adjoint(state0, seed)
    assert all(first[k] is second[k] for k in first)


def test_wave_constant_gradient_accumulates_once_per_step():
    """The velocity-model gradient matches store-all despite recompute:
    reverse runs exactly once per step, so `c_b` accumulates exactly
    once per step even though forward steps replay."""
    prob = wave_problem(1)
    n, steps = 16, 11
    shape = prob.array_shape(n)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(shape) * 0.1
    plan = prob.checkpointed_adjoint(n, steps=steps, snaps=2, constants={"c": c})
    state0, seed, _ = _inputs(prob, n)
    ref = {k: v.copy() for k, v in plan.run_store_all(state0, seed).items()}
    out = plan.adjoint(state0, seed)
    assert _bitwise(out["c_b"], ref["c_b"])
    assert float(np.abs(out["c_b"]).max()) > 0.0


def test_run_forward_matches_manual_loop():
    prob = heat_problem(1)
    n, steps = 16, 6
    shape = prob.array_shape(n)
    plan = prob.checkpointed_adjoint(n, steps=steps, snaps=2)
    state0, _, _ = _inputs(prob, n)
    (final,) = plan.run_forward(state0)
    fwd = compile_nests([prob.primal], prob.bindings(n))
    u = state0[0].copy()
    for _ in range(steps):
        arrays = {"u": np.zeros(shape), "u_1": u}
        fwd(arrays)
        u = arrays["u"]
    np.testing.assert_array_equal(final, u)


def test_checkpointed_gradient_verified_by_finite_differences():
    prob = burgers_problem(1)
    n, steps = 24, 7
    shape = prob.array_shape(n)
    plan = prob.checkpointed_adjoint(n, steps=steps, snaps=3)
    rng = np.random.default_rng(9)
    u0 = rng.standard_normal(shape) * 0.1

    def J(u_init):
        (final,) = plan.run_forward([u_init])
        return 0.5 * float(np.sum(final**2))

    (final,) = plan.run_forward([u0])
    grad = plan.adjoint([u0], final)["u_1_b"].copy()
    v = rng.standard_normal(shape)
    h = 1e-7
    fd = (J(u0 + h * v) - J(u0 - h * v)) / (2 * h)
    ad = float(np.vdot(grad, v))
    assert abs(fd - ad) / max(abs(fd), 1e-30) < 1e-6


# -- the sweep rung: one recorded native program ---------------------------------


def _per_action():
    """Force the per-action rung for the duration: an injector that is
    active but armed with nothing."""
    return faults.inject("bound.run", times=0)


def _copied(result):
    return {k: v.copy() for k, v in result.items()}


@needs_cc
@pytest.mark.parametrize(
    "members, workers", [(None, 1), (3, 1), (3, 2)], ids=["single", "m3w1", "m3w2"]
)
@pytest.mark.parametrize("snaps", [1, 3, 7])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("label", ["heat1d", "heat2d", "wave2d"])
def test_program_sweep_bitwise_identical_to_every_oracle(
    label, dtype, snaps, members, workers
):
    """Program rung == per-action rung == store-all == the independent
    unbound reference, for ``adjoint`` and ``run_forward``, and the
    bookkeeping a sweep leaves behind is the per-action sweep's."""
    factory, n = PROBLEMS[label]
    prob = factory()
    steps = 7
    cases = [_inputs(prob, n, dtype, seed_offset=m) for m in range(members or 1)]
    constants = cases[0][2]
    if members is None:
        state0, seed = cases[0][0], cases[0][1]
    else:
        state0 = [np.stack(fields) for fields in zip(*(c[0] for c in cases))]
        seed = np.stack([c[1] for c in cases])
    with prob.checkpointed_adjoint(
        n, steps=steps, snaps=snaps, dtype=dtype, backend="native",
        constants=constants, members=members, workers=workers,
    ) as plan:
        assert plan.sweep.rung == "program" and plan.sweep.reason is None
        assert plan.explain()[0].startswith("sweep: program (")

        out = _copied(plan.adjoint(state0, seed))
        after = (plan.forward_steps, plan._live)
        again = _copied(plan.adjoint(state0, seed))
        final = plan.run_forward(state0)
        after_forward = (plan.forward_steps, plan._live)
        with _per_action():
            oracle = _copied(plan.adjoint(state0, seed))
            assert (plan.forward_steps, plan._live) == after
            oracle_final = plan.run_forward(state0)
            assert (plan.forward_steps, plan._live) == after_forward
        store_all = _copied(plan.run_store_all(state0, seed))

    assert after[0] == optimal_cost(steps, snaps) - steps
    assert after_forward == (steps, steps % (len(state0) + 1))
    assert sorted(out) == sorted(oracle)
    for k in out:
        assert _bitwise(out[k], oracle[k]), f"{k}: program != per-action"
        assert _bitwise(again[k], oracle[k]), f"{k}: second program sweep"
        assert _bitwise(out[k], store_all[k]), f"{k}: program != store-all"
    for got, want in zip(final, oracle_final):
        assert _bitwise(got, want), "run_forward: program != per-action"
    for m, (s0, sd, _) in enumerate(cases):
        indep = _reference_store_all(prob, n, steps, s0, sd, constants, dtype)
        for k in indep:
            member = out[k] if members is None else out[k][m]
            assert _bitwise(member, indep[k]), f"{k}: member {m} != reference"


@needs_cc
def test_program_sweep_is_one_foreign_call(monkeypatch):
    """One ``adjoint()`` and one ``run_forward()`` cross the FFI once —
    and a sweep too long for one slice once per 4,096 entries, with the
    program still a few KB."""
    prob = heat_problem(1)
    calls = []

    def counted(plan):
        lib = plan._programs["adjoint"][0][0]._lib  # at any native width
        real = lib.run_program
        monkeypatch.setattr(
            lib, "run_program", lambda n, *blocks: (calls.append(n), real(n, *blocks))
        )

    plan = prob.checkpointed_adjoint(16, steps=12, snaps=3, backend="native")
    counted(plan)
    state0, seed, _ = _inputs(prob, 16)
    plan.adjoint(state0, seed)
    (program,), _ = plan._programs["adjoint"]
    assert calls == [len(program)] and program.calls == 1
    del calls[:]
    plan.run_forward(state0)
    assert calls == [len(plan._programs["forward"][0][0])]

    # (400 steps, not thousands: the revolve planner's recurrence is
    # recursive and quadratic in the step count.)
    long = prob.checkpointed_adjoint(8, steps=400, snaps=3, backend="native")
    counted(long)  # another grid, another kernel, another library
    (program,), _ = long._programs["adjoint"]
    assert 2 * native_mod.PROGRAM_SLICE == 8192 < len(program)
    assert program.nbytes < 64 * 1024
    state0, seed, _ = _inputs(prob, 8)
    del calls[:]
    out = _copied(long.adjoint(state0, seed))
    assert len(calls) == program.calls == math.ceil(len(program) / 4096)
    assert sum(calls) == len(program) and max(calls) == 4096
    with _per_action():
        oracle = long.adjoint(state0, seed)
        assert all(_bitwise(out[k], oracle[k]) for k in oracle)


@needs_cc
def test_steady_state_program_sweeps_allocate_no_arrays():
    prob = heat_problem(1)
    n = 2000
    plan = prob.checkpointed_adjoint(n, steps=8, snaps=3, backend="native")
    assert plan.sweep.rung == "program"
    _assert_steady_state_allocates_nothing(plan, prob, n)


@needs_cc
def test_ensemble_program_sweep_is_one_batch_one_join(monkeypatch):
    """members=4, workers=2: every chunk's sweep is one task of a single
    pool batch — one submit and one join per sweep, not one per run."""
    prob = wave_problem(2)
    n, members = 10, 4
    with prob.checkpointed_adjoint(
        n, steps=6, snaps=2, backend="native", members=members, workers=2
    ) as plan:
        assert plan.explain()[0].endswith("x 4 chunks, one join")
        pool = plan._fwd[0].plan.worker_pool(2)
        batches = []
        real = pool.run
        monkeypatch.setattr(
            pool, "run", lambda tasks: (batches.append(len(tasks)), real(tasks))
        )
        rng = np.random.default_rng(3)
        shape = (members, *prob.array_shape(n))
        state0 = [rng.standard_normal(shape) * 0.1 for _ in range(2)]
        plan.adjoint(state0, rng.standard_normal(shape))
        assert batches == [4]
        plan.run_forward(state0)
        assert batches == [4, 4]


@needs_cc
@pytest.mark.parametrize("members", [None, 4], ids=["single", "members4"])
def test_fused_source_is_generated_once_per_group(monkeypatch, members):
    """The fused C depends on the arrays through their strides only, so
    the rotation parities (and the ensemble members) of one build share
    one generated nest per fusion group; a different stride regenerates."""
    calls = []
    real = native_mod.generate_fused_source
    monkeypatch.setattr(
        native_mod, "generate_fused_source",
        lambda *a, **k: (calls.append(1), real(*a, **k))[1],
    )
    clear_kernel_cache()  # a warm kernel already carries its nests
    prob = wave_problem(2)
    plan = prob.checkpointed_adjoint(
        10, steps=4, snaps=2, backend="native", members=members
    )
    groups = sum(b.fused_group_count for b in (plan._fwd[0], plan._rev[0]))
    if members:
        groups //= members
    assert groups == 2 and len(calls) == groups
    plan.close()

    # Same kernel, same group, Fortran-ordered arrays: new strides, new C.
    rev_plan = plan._rev[0].plan
    shape = prob.array_shape(10)
    arrays = {
        name: np.asfortranarray(np.zeros(shape)) for name in rev_plan.kernel.array_names
    }
    rev_plan.bind(arrays)
    assert len(calls) == 2 * groups
    rev_plan.bind({name: arr.copy(order="F") for name, arr in arrays.items()})
    assert len(calls) == 2 * groups  # same strides again: memo hit


# -- ensemble mode ---------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_ensemble_members_bitwise_equal_singles(backend):
    prob = burgers_problem(1)
    n, steps, snaps, members = 16, 7, 3, 3
    shape = prob.array_shape(n)
    cases = []
    for m in range(members):
        rng = np.random.default_rng(50 + m)
        cases.append(
            (rng.standard_normal(shape) * 0.1, rng.standard_normal(shape))
        )
    ens = prob.checkpointed_adjoint(
        n, steps=steps, snaps=snaps, backend=backend, members=members
    )
    out = ens.adjoint(
        [np.stack([u0 for u0, _ in cases])], np.stack([s for _, s in cases])
    )
    assert out["u_1_b"].shape == (members, *shape)
    for m, (u0, seed) in enumerate(cases):
        single = prob.checkpointed_adjoint(
            n, steps=steps, snaps=snaps, backend=backend
        )
        ref = single.adjoint([u0], seed)
        assert _bitwise(out["u_1_b"][m], ref["u_1_b"]), f"member {m} diverged"


def test_ensemble_workers_do_not_change_bits():
    prob = heat_problem(1)
    n, steps, members = 14, 6, 8
    shape = prob.array_shape(n)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal((members, *shape)) * 0.1
    seed = rng.standard_normal((members, *shape))
    fused = prob.checkpointed_adjoint(n, steps=steps, snaps=2, members=members)
    ref = {k: v.copy() for k, v in fused.adjoint([u0], seed).items()}
    with prob.checkpointed_adjoint(
        n, steps=steps, snaps=2, members=members, workers=3
    ) as threaded:
        out = threaded.adjoint([u0], seed)
        for k in ref:
            assert _bitwise(out[k], ref[k])


def test_checkpointed_ensemble_holds_one_pool_per_plan(new_pool_threads):
    """The 2 * (h + 1) parity bindings borrow their plan's worker pool:
    one pool for the forward plan, one for the reverse plan — never one
    per binding — and ``close()`` releases both."""
    prob = wave_problem(2)  # two history fields: 3 + 3 parity bindings
    n, members, workers = 14, 8, 2
    shape = prob.array_shape(n)
    rng = np.random.default_rng(6)
    plan = prob.checkpointed_adjoint(
        n, steps=6, snaps=2, members=members, workers=workers
    )
    assert len(plan._fwd) + len(plan._rev) == 6
    state0 = [rng.standard_normal((members, *shape)) * 0.1 for _ in range(2)]
    plan.adjoint(state0, rng.standard_normal((members, *shape)))
    assert 0 < len(new_pool_threads()) <= 2 * workers
    plan.close()
    assert not new_pool_threads()


@pytest.mark.parametrize(
    "config",
    [dict(check="nan", backend=b) for b in BACKENDS] + [dict(transactional=True)],
    ids=lambda c: "-".join(map(str, c.values())),
)
def test_ensemble_mode_honours_reliability_knobs(config):
    """Regression: the member ensembles dropped ``check`` and
    ``transactional`` silently, so every tier above them did too."""
    prob = heat_problem(2)
    n, members = 12, 2
    fwd = compile_nests([prob.primal], prob.bindings(n))
    rev = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(n)
    )

    def build():
        return fwd.plan(**config).checkpointed_adjoint(
            rev.plan(**config), prob.array_shape(n), steps=4, snaps=2,
            members=members,
        )

    if config.get("transactional"):
        with pytest.raises(KernelError, match="transactional"):
            build()
        return
    state0, seed, _ = _inputs(prob, n)
    stacked = [np.stack([f] * members) for f in state0]
    stacked[0][1, 3, 3] = np.nan  # member 1 only
    with build() as chk:
        assert all(b.fused_group_count == 0 for b in (*chk._fwd, *chk._rev))
        with pytest.raises(NumericalDivergenceError, match="'u' of region"):
            chk.adjoint(stacked, np.stack([seed] * members))


def test_ensemble_helper_broadcasts_per_scenario_constants():
    """A per-scenario constant field works in ensemble mode exactly as
    it does single-scenario: the helper broadcasts it over members."""
    prob = wave_problem(1)
    n, members = 12, 3
    shape = prob.array_shape(n)
    rng = np.random.default_rng(13)
    c = rng.standard_normal(shape) * 0.1
    ens = prob.checkpointed_adjoint(
        n, steps=5, snaps=2, members=members, constants={"c": c}
    )
    u0 = rng.standard_normal((members, *shape)) * 0.1
    um1 = rng.standard_normal((members, *shape)) * 0.1
    seed = rng.standard_normal((members, *shape))
    out = ens.adjoint([u0, um1], seed)
    single = prob.checkpointed_adjoint(n, steps=5, snaps=2, constants={"c": c})
    ref = single.adjoint([u0[1], um1[1]], seed[1])
    for k in ref:
        assert _bitwise(out[k][1], ref[k])


def test_ensemble_store_all_matches_checkpointed():
    prob = wave_problem(1)
    n, steps, members = 12, 6, 2
    shape = prob.array_shape(n)
    rng = np.random.default_rng(8)
    consts = {
        "c": rng.standard_normal((members, *shape)) * 0.1
    }
    plan = prob.checkpointed_adjoint(
        n, steps=steps, snaps=2, members=members, constants=consts
    )
    state0 = [
        rng.standard_normal((members, *shape)) * 0.1,
        rng.standard_normal((members, *shape)) * 0.1,
    ]
    seed = rng.standard_normal((members, *shape))
    ref = {k: v.copy() for k, v in plan.run_store_all(state0, seed).items()}
    out = plan.adjoint(state0, seed)
    for k in ref:
        assert _bitwise(out[k], ref[k])


# -- construction / input validation ---------------------------------------------


def test_snapshot_pool_validation():
    with pytest.raises(ValueError):
        SnapshotPool(0, (4,), np.float64)
    with pytest.raises(ValueError):
        SnapshotPool(2, (4,), np.float64, fields=0)
    pool = SnapshotPool(2, (4,), np.float64, fields=2)
    with pytest.raises(ValueError):
        pool.store(0, [np.zeros(4)])  # wrong field count
    with pytest.raises(ValueError):
        pool.load(0, [np.zeros(4)])
    with pytest.raises(IndexError):
        pool.store(5, [np.zeros(4), np.zeros(4)])


def test_plan_rejects_bad_arguments():
    prob = heat_problem(1)
    with pytest.raises(ValueError, match="steps"):
        prob.checkpointed_adjoint(12, steps=0, snaps=1)
    with pytest.raises(ValueError, match="snaps"):
        prob.checkpointed_adjoint(12, steps=4, snaps=0)
    with pytest.raises(ValueError, match="members"):
        prob.checkpointed_adjoint(12, steps=4, snaps=2, members=0)


def test_plan_rejects_state_model_mismatches():
    prob = wave_problem(1)
    n = 12
    fwd = compile_nests([prob.primal], prob.bindings(n))
    rev = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(n)
    )
    shape = prob.array_shape(n)
    # forward kernel reads u_2 and c, neither declared
    with pytest.raises(KernelError, match="forward kernel"):
        fwd.plan().checkpointed_adjoint(
            rev.plan(), shape, steps=4, snaps=2, history=("u_1",)
        )
    # constant with the wrong shape
    with pytest.raises(ValueError, match="constant 'c'"):
        fwd.plan().checkpointed_adjoint(
            rev.plan(), shape, steps=4, snaps=2, history=("u_1", "u_2"),
            constants={"c": np.zeros((3,))},
        )
    # constant with a promoted dtype silently widening an f32 sweep
    with pytest.raises(ValueError, match="reduced-precision"):
        fwd.plan().checkpointed_adjoint(
            rev.plan(), shape, steps=4, snaps=2, history=("u_1", "u_2"),
            constants={"c": np.zeros(shape)}, dtype=np.float32,
        )
    # a reverse kernel reading the primal *output* has no binding slot:
    # reject at construction, not as a KeyError from binding
    with pytest.raises(KernelError, match="reverse kernel"):
        fwd.plan().checkpointed_adjoint(
            fwd.plan(), shape, steps=4, snaps=2, history=("u_1", "u_2"),
            constants={"c": np.zeros(shape)},
        )


def test_adjoint_validates_state0_and_seed():
    prob = wave_problem(1)
    n = 12
    shape = prob.array_shape(n)
    plan = prob.checkpointed_adjoint(n, steps=4, snaps=2)
    good = [np.zeros(shape), np.zeros(shape)]
    with pytest.raises(ValueError, match="state0 must hold 2"):
        plan.adjoint([np.zeros(shape)], np.zeros(shape))
    with pytest.raises(ValueError, match="state0 arrays"):
        plan.adjoint([np.zeros(3), np.zeros(shape)], np.zeros(shape))
    with pytest.raises(ValueError, match="seed"):
        plan.adjoint(good, np.zeros(3))
    with pytest.raises(ValueError, match="seed"):
        plan.run_store_all(good, np.zeros(3))


def test_execution_plan_surface_method():
    """plan.checkpointed_adjoint wires through to the runtime class."""
    prob = heat_problem(1)
    n = 16
    fwd = compile_nests([prob.primal], prob.bindings(n))
    rev = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(n)
    )
    chk = fwd.plan().checkpointed_adjoint(
        rev.plan(), prob.array_shape(n), steps=6, snaps=2
    )
    assert chk.evaluation_cost == optimal_cost(6, 2)
    helper = prob.checkpointed_adjoint(n, steps=6, snaps=2)
    state0, seed, _ = _inputs(prob, n)
    a = {k: v.copy() for k, v in chk.adjoint(state0, seed).items()}
    b = helper.adjoint(state0, seed)
    for k in a:
        assert _bitwise(a[k], b[k])
