"""Binomial (revolve-style) checkpointing schedules.

Stencil adjoints reverse one loop; reversing a *time-stepping* program
around them (the job the paper leaves to "a general-purpose AD tool",
Section 3.1) needs the primal state at every step, which for large grids
cannot all be stored.  The classical answer is Griewank & Walther's
*revolve* algorithm: with ``s`` checkpoint slots, recompute forward
sub-sweeps from strategically placed snapshots so that the total number
of primal step evaluations is minimal (binomial in the step count).

:func:`schedule` emits the optimal action sequence; :func:`optimal_cost`
gives the provably minimal evaluation count (the binomial closed form of
the recurrence below, which the test suite checks against the recurrence
itself), and certifies the emitted schedule's optimality
(``schedule_cost(schedule(l, s)) == optimal_cost(l, s)``).
:class:`repro.driver.timestepping.CheckpointedAdjoint` executes schedules
against real stencil kernels.

Conventions: ``optimal_cost(l, s)`` counts one evaluation per ``advance``
step plus one per ``reverse`` (reversing a step re-evaluates it for its
intermediate values).  ``s`` counts *all* snapshot slots, including the
one holding the subrange's initial state, matching Griewank's recurrence
``t(l, s) = min_m ( m + t(l-m, s-1) + t(m, s) )`` with
``t(1, s) = 1`` and ``t(l, 1) = l (l + 1) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Action",
    "execute_schedule",
    "schedule",
    "optimal_cost",
    "schedule_cost",
]


@dataclass(frozen=True)
class Action:
    """One schedule action.

    kind:
        * ``"snapshot"`` — store the live state (at ``step``) in ``slot``;
        * ``"advance"``  — run primal steps ``step`` .. ``step2 - 1``,
          leaving the live state at ``step2``;
        * ``"reverse"``  — adjoin step ``step`` (live state is at ``step``);
        * ``"restore"``  — load ``slot`` (state at ``step``) as live state.
    """

    kind: str
    step: int
    step2: int = -1
    slot: int = -1


def _cost(steps: int, snaps: int) -> float:
    """``t(steps, snaps)`` in closed form (Griewank's binomial formula).

    With ``r`` the smallest repetition count whose binomial reach
    ``C(snaps + r, snaps)`` covers *steps*, the recurrence's minimum is
    ``r * steps - C(snaps + r, snaps + 1)`` advances plus one evaluation
    per reverse.  No table, no recursion: planning a sweep costs
    ``O(steps log steps)`` of these.
    """
    if steps in (0, 1):
        return float(steps)
    if snaps < 1:
        return math.inf
    if snaps == 1:
        return steps * (steps + 1) / 2
    r = 1
    while math.comb(snaps + r, snaps) < steps:
        r += 1
    return float((r + 1) * steps - math.comb(snaps + r, snaps + 1))


def optimal_cost(steps: int, snaps: int) -> int:
    """Minimal number of primal step evaluations to reverse *steps* steps
    with *snaps* snapshot slots."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    c = _cost(steps, snaps)
    if math.isinf(c):
        raise ValueError(f"cannot reverse {steps} steps with {snaps} snapshots")
    return int(c)


def _best_split(steps: int, snaps: int) -> int:
    """Arg-min of the revolve recurrence (smallest optimal split).

    ``t(., s)`` is convex in the step count (piecewise linear, slopes
    ``r + 1`` non-decreasing), so the split cost is convex in ``mid``
    and its smallest minimiser is the first ``mid`` whose successor is
    no cheaper — found by bisection instead of a scan.
    """

    def cost(mid: int) -> float:
        return mid + _cost(steps - mid, snaps - 1) + _cost(mid, snaps)

    lo, hi = 1, steps - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cost(mid + 1) < cost(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def schedule(steps: int, snaps: int) -> list[Action]:
    """Optimal checkpointing schedule reversing ``steps`` primal steps.

    Execution model: the state at step 0 is live when the schedule starts;
    at most ``snaps`` snapshots are resident at any time; ``reverse`` is
    emitted exactly once per step, in descending step order.  The
    schedule's evaluation count equals :func:`optimal_cost`.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if snaps < 1:
        raise ValueError("snaps must be >= 1")
    actions: list[Action] = []
    free_slots = list(range(snaps))
    # The recurrence, unrolled onto a work stack popped in execution
    # order (its depth would otherwise grow with ``steps``): a range
    # ``(begin, end, slot)`` still to reverse — live state at ``begin``,
    # ``slot`` holding a snapshot of it or None — an Action to emit
    # after the ranges pushed above it, or a slot number to give back
    # once the range that took it is done.
    todo: list = [(0, steps, None)]
    while todo:
        item = todo.pop()
        if isinstance(item, Action):
            actions.append(item)
            continue
        if isinstance(item, int):
            free_slots.append(item)
            continue
        begin, end, slot = item
        if end - begin == 1:
            actions.append(Action("reverse", begin))
            continue
        if slot is None:
            slot = free_slots.pop()
            actions.append(Action("snapshot", begin, slot=slot))
            todo.append(slot)
        if not free_slots:
            # One slot in all, the held one: triangular sweep from it.
            for target in range(end - 1, begin, -1):
                actions.append(Action("advance", begin, target))
                actions.append(Action("reverse", target))
                actions.append(Action("restore", begin, slot=slot))
            actions.append(Action("reverse", begin))
        else:
            mid = begin + _best_split(end - begin, len(free_slots) + 1)
            actions.append(Action("advance", begin, mid))
            todo.append((begin, mid, slot))
            todo.append(Action("restore", begin, slot=slot))
            todo.append((mid, end, None))
    return actions


def execute_schedule(
    actions,
    *,
    snapshot,
    advance,
    restore,
    reverse,
) -> None:
    """Drive a schedule through four action callbacks, checking validity.

    The executor owns the live-step bookkeeping every schedule consumer
    needs (and previously duplicated): ``snapshot(slot, step)`` and
    ``reverse(step)`` only fire when the live state is at ``step``,
    ``advance(begin, end)`` only from ``begin``; a schedule that
    violates this — impossible for :func:`schedule` output, possible
    for hand-built action lists — raises :class:`ValueError` instead of
    silently adjoining the wrong state.  Both
    :meth:`repro.driver.timestepping.AdjointTimeStepper.run_checkpointed`
    and :class:`repro.runtime.checkpoint.CheckpointedAdjointPlan`
    execute their sweeps through this one loop.
    """
    live = 0
    stored: dict[int, int] = {}  # slot -> step it holds
    for a in actions:
        if a.kind == "snapshot":
            if a.step != live:
                raise ValueError(
                    f"snapshot of step {a.step} but live state is at {live}"
                )
            stored[a.slot] = live
            snapshot(a.slot, a.step)
        elif a.kind == "advance":
            if a.step != live:
                raise ValueError(
                    f"advance from step {a.step} but live state is at {live}"
                )
            if a.step2 <= a.step:
                raise ValueError(
                    f"advance must move forward, got {a.step} -> {a.step2}"
                )
            advance(a.step, a.step2)
            live = a.step2
        elif a.kind == "restore":
            if a.slot not in stored:
                raise ValueError(
                    f"restore from slot {a.slot}, which holds no snapshot"
                )
            if stored[a.slot] != a.step:
                raise ValueError(
                    f"restore claims step {a.step} but slot {a.slot} holds "
                    f"step {stored[a.slot]}"
                )
            restore(a.slot, a.step)
            live = a.step
        elif a.kind == "reverse":
            if a.step != live:
                raise ValueError(
                    f"reverse of step {a.step} but live state is at {live}"
                )
            reverse(a.step)
        else:
            raise ValueError(f"unknown action kind {a.kind!r}")


def schedule_cost(actions: list[Action]) -> int:
    """Primal step evaluations performed by a schedule (advance spans plus
    the re-evaluation inside each reverse)."""
    cost = 0
    for a in actions:
        if a.kind == "advance":
            cost += a.step2 - a.step
        elif a.kind == "reverse":
            cost += 1
    return cost
