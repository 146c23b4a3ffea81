"""Tests for revolve checkpointing and the adjoint time-stepping driver."""

import numpy as np
import pytest

from repro.apps import burgers_problem, heat_problem
from repro.core import adjoint_loops
from repro.driver import (
    Action,
    AdjointTimeStepper,
    execute_schedule,
    optimal_cost,
    schedule,
    schedule_cost,
)
from repro.runtime import compile_nests


def simulate_schedule(actions, steps, snaps):
    """Replay a schedule checking slot/step validity; returns the peak
    resident snapshot count.

    The simulator asserts the full execution contract: every snapshot
    stores the live step into a valid slot, every restore loads a slot
    holding exactly the step it claims, advances move forward from the
    live state, at most *snaps* snapshots are ever resident, and every
    step is reversed exactly once in descending order.
    """
    slots: dict[int, int] = {}
    live = 0
    reversed_steps = []
    max_resident = 0

    for a in actions:
        if a.kind == "snapshot":
            assert 0 <= a.slot < snaps, f"slot {a.slot} outside budget {snaps}"
            assert a.step == live, "snapshot of a non-live step"
            slots[a.slot] = live
            max_resident = max(max_resident, len(slots))
        elif a.kind == "advance":
            assert a.step == live, "advance from a non-live step"
            assert a.step < a.step2 <= steps, "advance outside the sweep"
            live = a.step2
        elif a.kind == "restore":
            assert a.slot in slots, f"restore from empty slot {a.slot}"
            assert slots[a.slot] == a.step, "restore claims the wrong step"
            live = a.step
        elif a.kind == "reverse":
            assert a.step == live, "reverse of a non-live step"
            reversed_steps.append(a.step)
        else:  # pragma: no cover - schedule only emits the four kinds
            raise AssertionError(f"unknown action {a.kind}")
    assert reversed_steps == list(range(steps - 1, -1, -1)), (
        "steps must be reversed exactly once, in descending order"
    )
    assert max_resident <= snaps
    return max_resident


# -- revolve schedule ------------------------------------------------------------


def test_optimal_cost_base_cases():
    assert optimal_cost(0, 1) == 0
    assert optimal_cost(1, 1) == 1
    assert optimal_cost(5, 1) == 15  # triangular
    assert optimal_cost(1, 10) == 1


def test_optimal_cost_enough_snaps_is_linear():
    # With snaps >= steps, each step is advanced once and re-evaluated
    # once inside its reverse: 2l - 1 evaluations (the last step is never
    # advanced past).
    assert optimal_cost(10, 10) == 19
    assert optimal_cost(10, 64) == 19


def test_optimal_cost_monotone_in_snaps():
    costs = [optimal_cost(30, s) for s in range(1, 10)]
    assert all(costs[k + 1] <= costs[k] for k in range(len(costs) - 1))


def test_optimal_cost_rejects_zero_snaps():
    with pytest.raises(ValueError):
        optimal_cost(5, 0)


@pytest.mark.parametrize("steps,snaps", [
    (1, 1), (2, 1), (7, 1), (10, 2), (10, 3), (17, 3), (25, 4), (33, 5), (40, 2),
])
def test_schedule_is_optimal(steps, snaps):
    """The emitted schedule's evaluation count equals the DP optimum."""
    acts = schedule(steps, snaps)
    assert schedule_cost(acts) == optimal_cost(steps, snaps)


@pytest.mark.parametrize("steps,snaps", [(10, 3), (17, 2), (25, 4), (7, 7)])
def test_schedule_semantics_by_simulation(steps, snaps):
    """Simulate the schedule: slot budget respected, every step reversed
    exactly once in descending order, states consistent."""
    simulate_schedule(schedule(steps, snaps), steps, snaps)


@pytest.mark.parametrize("snaps", range(1, 13))
def test_exhaustive_certification_over_full_grid(snaps):
    """Exhaustive revolve certification: for the full grid of sweep
    lengths l <= 64 and this snapshot budget, the emitted schedule (a)
    passes the validity simulator and (b) costs *exactly* the dynamic-
    programming optimum ``t(l, s)`` of Griewank & Walther's recurrence
    — the emitter is certified optimal, not just heuristically close."""
    for steps in range(1, 65):
        acts = schedule(steps, snaps)
        assert schedule_cost(acts) == optimal_cost(steps, snaps), (
            f"suboptimal schedule for steps={steps}, snaps={snaps}"
        )
        simulate_schedule(acts, steps, snaps)


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        schedule(0, 1)
    with pytest.raises(ValueError):
        schedule(5, 0)


def recurrence_tables(max_steps, max_snaps):
    """``t(l, s)`` and its smallest optimal split, tabulated straight from
    Griewank's recurrence — the oracle for the closed form."""
    cost, split = {}, {}
    for s in range(1, max_snaps + 1):
        for l in range(max_steps + 1):
            if l <= 1:
                cost[l, s] = l
            elif s == 1:
                cost[l, s] = l * (l + 1) // 2
            else:
                def total(m):
                    return m + cost[l - m, s - 1] + cost[m, s]

                split[l, s] = min(range(1, l), key=total)  # first minimum
                cost[l, s] = total(split[l, s])
    return cost, split


def recursive_schedule(steps, snaps, split):
    """The recurrence unrolled by plain recursion over *split* — the
    action order every recorded program and bitwise suite was built on."""
    actions, free = [], list(range(snaps))

    def rec(begin, end, slot):
        if end - begin == 1:
            actions.append(Action("reverse", begin))
            return
        own = slot is None
        if own:
            slot = free.pop()
            actions.append(Action("snapshot", begin, slot=slot))
        s = len(free) + 1
        if s == 1:
            for target in range(end - 1, begin, -1):
                actions.append(Action("advance", begin, target))
                actions.append(Action("reverse", target))
                actions.append(Action("restore", begin, slot=slot))
            actions.append(Action("reverse", begin))
        else:
            mid = begin + split[end - begin, s]
            actions.append(Action("advance", begin, mid))
            rec(mid, end, None)
            actions.append(Action("restore", begin, slot=slot))
            rec(begin, mid, slot)
        if own:
            free.append(slot)

    rec(0, steps, None)
    return actions


def test_closed_form_planner_emits_the_recurrences_schedule():
    cost, split = recurrence_tables(64, 6)
    for (steps, snaps), want in cost.items():
        assert optimal_cost(steps, snaps) == want, (steps, snaps)
    for snaps in range(1, 7):
        for steps in range(1, 65):
            assert schedule(steps, snaps) == recursive_schedule(
                steps, snaps, split
            ), f"action list moved for steps={steps}, snaps={snaps}"


@pytest.mark.parametrize(
    "steps,snaps", [(2000, 10), (2000, 50), (3000, 3000)]
)
def test_planning_a_long_sweep_is_fast_at_any_depth(steps, snaps):
    """Was a memoised recursion scanning every split: 5.8 s, 36 s and a
    RecursionError (its depth grew with ``steps``) on these three."""
    import time

    t0 = time.perf_counter()
    acts = schedule(steps, snaps)
    assert time.perf_counter() - t0 < 1.0
    assert schedule_cost(acts) == optimal_cost(steps, snaps)
    simulate_schedule(acts, steps, snaps)


# -- the shared schedule executor -------------------------------------------------


def _recording_handlers(log):
    return dict(
        snapshot=lambda slot, step: log.append(("snapshot", slot, step)),
        advance=lambda begin, end: log.append(("advance", begin, end)),
        restore=lambda slot, step: log.append(("restore", slot, step)),
        reverse=lambda step: log.append(("reverse", step)),
    )


def test_execute_schedule_replays_every_action():
    acts = schedule(9, 3)
    log = []
    execute_schedule(acts, **_recording_handlers(log))
    assert len(log) == len(acts)
    assert [e for e in log if e[0] == "reverse"] == [
        ("reverse", t) for t in range(8, -1, -1)
    ]


@pytest.mark.parametrize("bad,match", [
    ([Action("snapshot", 3, slot=0)], "snapshot of step 3"),
    ([Action("advance", 2, 5)], "advance from step 2"),
    ([Action("advance", 0, 0)], "advance must move forward"),
    ([Action("advance", 0, 2), Action("reverse", 1)], "reverse of step 1"),
    ([Action("restore", 0, slot=1)], "holds no snapshot"),
    ([Action("snapshot", 0, slot=0), Action("advance", 0, 2),
      Action("restore", 1, slot=0)], "slot 0 holds step 0"),
    ([Action("noop", 0)], "unknown action"),
])
def test_execute_schedule_rejects_inconsistent_sequences(bad, match):
    """Hand-built action lists that desynchronise the live state fail
    loudly instead of adjoining the wrong step."""
    with pytest.raises(ValueError, match=match):
        execute_schedule(bad, **_recording_handlers([]))


# -- adjoint time-stepping driver -------------------------------------------------


def make_burgers_stepper(n=48):
    prob = burgers_problem(1)
    bindings = prob.bindings(n)
    shape = prob.array_shape(n)
    fwd = compile_nests([prob.primal], bindings)
    adj = compile_nests(adjoint_loops(prob.primal, prob.adjoint_map), bindings)

    def forward_step(state):
        arrays = {"u": np.zeros(shape), "u_1": state["u"]}
        fwd(arrays)
        return {"u": arrays["u"]}

    def reverse_step(saved, lam):
        arrays = {
            "u_b": lam["u"].copy(),
            "u_1": saved["u"],
            "u_1_b": np.zeros(shape),
        }
        adj(arrays)
        return {"u": arrays["u_1_b"]}

    return AdjointTimeStepper(forward_step, reverse_step), prob, n, shape


def test_forward_run_matches_manual(rng):
    stepper, prob, n, shape = make_burgers_stepper()
    u0 = rng.standard_normal(shape) * 0.1
    final = stepper.run_forward({"u": u0}, steps=5)
    # manual
    u = u0.copy()
    fwd = compile_nests([prob.primal], prob.bindings(n))
    for _ in range(5):
        arrays = {"u": np.zeros(shape), "u_1": u}
        fwd(arrays)
        u = arrays["u"]
    np.testing.assert_array_equal(final["u"], u)


def test_run_forward_result_survives_later_sweeps(rng):
    """run_forward's return value must not alias reusable step storage.

    make_stencil_steps' double-buffered forward_step returns views of
    internal buffers that later sweeps overwrite; run_forward copies its
    result so holding it across another sweep is safe."""
    from repro.driver import make_stencil_steps

    prob = burgers_problem(1)
    n = 48
    shape = prob.array_shape(n)
    fwd = compile_nests([prob.primal], prob.bindings(n))
    adj = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(n)
    )
    fstep, rstep = make_stencil_steps(fwd.plan().run, adj.plan().run, shape)
    stepper = AdjointTimeStepper(fstep, rstep)
    u0 = rng.standard_normal(shape) * 0.1
    u1 = rng.standard_normal(shape) * 0.1
    y0 = stepper.run_forward({"u": u0}, 3)
    expected = y0["u"].copy()
    y1 = stepper.run_forward({"u": u1}, 3)
    assert y1["u"] is not y0["u"]
    np.testing.assert_array_equal(y0["u"], expected)
    # ... and an adjoint sweep must not corrupt it either.
    stepper.run_store_all({"u": u1}, 4, {"u": rng.standard_normal(shape)})
    np.testing.assert_array_equal(y0["u"], expected)


@pytest.mark.parametrize("steps,snaps", [(6, 2), (9, 3), (12, 2), (5, 5)])
def test_checkpointed_equals_store_all(rng, steps, snaps):
    """Revolve-checkpointed adjoint is bitwise identical to store-all."""
    stepper, prob, n, shape = make_burgers_stepper()
    u0 = rng.standard_normal(shape) * 0.1
    seed = {"u": rng.standard_normal(shape)}
    ref = stepper.run_store_all({"u": u0}, steps, seed)
    chk = stepper.run_checkpointed({"u": u0}, steps, seed, snaps=snaps)
    np.testing.assert_array_equal(ref["u"], chk["u"])


def test_checkpointed_gradient_verified_by_fd(rng):
    """d(0.5||u^T||^2)/du^0 via checkpointed sweep matches FD."""
    stepper, prob, n, shape = make_burgers_stepper()
    steps, snaps = 8, 3
    u0 = rng.standard_normal(shape) * 0.1

    def J(u_init):
        return 0.5 * float(
            np.sum(stepper.run_forward({"u": u_init}, steps)["u"] ** 2)
        )

    final = stepper.run_forward({"u": u0}, steps)
    grad = stepper.run_checkpointed({"u": u0}, steps, {"u": final["u"]}, snaps)
    v = rng.standard_normal(shape)
    h = 1e-7
    fd = (J(u0 + h * v) - J(u0 - h * v)) / (2 * h)
    ad = float(np.vdot(grad["u"], v))
    assert abs(fd - ad) / max(abs(fd), 1e-30) < 1e-6


def test_heat_two_array_state(rng):
    """Driver works for states with several arrays (heat with sources)."""
    prob = heat_problem(2)
    N = 12
    bindings = prob.bindings(N)
    shape = prob.array_shape(N)
    fwd = compile_nests([prob.primal], bindings)
    adj = compile_nests(adjoint_loops(prob.primal, prob.adjoint_map), bindings)

    def forward_step(state):
        arrays = {"u": np.zeros(shape), "u_1": state["u"]}
        fwd(arrays)
        return {"u": arrays["u"]}

    def reverse_step(saved, lam):
        arrays = {"u_b": lam["u"].copy(), "u_1": saved["u"],
                  "u_1_b": np.zeros(shape)}
        adj(arrays)
        return {"u": arrays["u_1_b"]}

    stepper = AdjointTimeStepper(forward_step, reverse_step)
    u0 = rng.standard_normal(shape) * 0.1
    seed = {"u": rng.standard_normal(shape)}
    ref = stepper.run_store_all({"u": u0}, 7, seed)
    chk = stepper.run_checkpointed({"u": u0}, 7, seed, snaps=2)
    np.testing.assert_array_equal(ref["u"], chk["u"])
