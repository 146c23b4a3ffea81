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
  bitwise identical to its single-scenario checkpointed run.
"""

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
    compile_nests,
    native_available,
)

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


def test_steady_state_sweeps_allocate_no_arrays():
    """Post-warm-up adjoint sweeps must not allocate NumPy arrays."""
    prob = heat_problem(1)
    n = 2000  # one state array is 16 KB: any array allocation is visible
    plan = prob.checkpointed_adjoint(n, steps=8, snaps=3)
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


def test_plan_rejects_scatter_plans():
    prob = heat_problem(1)
    n = 12
    fwd = compile_nests([prob.primal], prob.bindings(n))
    rev = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map, strategy="guarded"),
        prob.bindings(n),
    )
    scatter_plan = fwd.plan(scatter=True)
    with pytest.raises(KernelError, match="scatter"):
        scatter_plan.checkpointed_adjoint(
            rev.plan(), prob.array_shape(n), steps=4, snaps=2
        )


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
