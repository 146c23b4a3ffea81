"""Adjoint time-stepping driver with optional revolve checkpointing.

Composes the stencil-level adjoints (this paper's contribution) with a
reverse sweep over the time loop (the surrounding-program reversal the
paper delegates to a general-purpose AD tool).  The driver is generic
over the state layout: the user provides a ``forward_step`` that maps a
state dict to the next state, and a ``reverse_step`` that, given the
saved primal state at step ``t`` and the incoming adjoint state, returns
the adjoint state at ``t`` (typically by seeding and running the adjoint
stencil kernels).

Two storage policies:

* :meth:`AdjointTimeStepper.run_store_all` — keep every state (the
  baseline; memory O(steps));
* :meth:`AdjointTimeStepper.run_checkpointed` — execute a revolve
  schedule with a bounded number of snapshots, recomputing forward
  sub-sweeps (memory O(snaps), evaluations provably minimal).

Both produce bitwise-identical adjoints (the reverse sweep consumes
exactly the same primal states either way), which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .revolve import execute_schedule, schedule

__all__ = ["AdjointTimeStepper", "make_stencil_steps"]

State = dict[str, np.ndarray]


def make_stencil_steps(
    forward_run: Callable[[dict[str, np.ndarray]], object],
    reverse_run: Callable[[dict[str, np.ndarray]], object],
    shape: tuple[int, ...],
    output: str = "u",
    prev: str = "u_1",
    adjoint_map: Mapping[str, str] | None = None,
    dtype: type = np.float64,
) -> tuple[Callable[[State], State], Callable[[State, State], State]]:
    """Build ``(forward_step, reverse_step)`` around stencil runners.

    Covers the common single-field timestepping layout of the benchmarks
    and examples: the primal kernel reads ``prev`` and writes ``output``;
    the adjoint kernel reads the saved primal state plus the incoming
    adjoint of ``output`` and accumulates the adjoint of ``prev``.

    ``forward_run``/``reverse_run`` are any array-dict runners — a
    :class:`~repro.runtime.compiler.CompiledKernel` or a planned
    :meth:`~repro.runtime.plan.ExecutionPlan.run` — so one time loop
    composes with every execution discipline the runtime offers.  The
    persistent work arrays are allocated in ``dtype``, keeping
    reduced-precision sweeps reduced-precision end to end.

    The forward sweep is **double-buffered**: two persistent state
    arrays alternate between the ``output`` and ``prev`` roles through
    two fixed arrays dicts, instead of allocating ``np.zeros(shape)``
    per step.  Array identity is therefore stable across the whole time
    loop, so an :class:`~repro.runtime.plan.ExecutionPlan` runner binds
    each parity's arrays once and every subsequent step hits the
    allocation-free bound path.  The returned state aliases an internal
    buffer that is overwritten two steps later — the driver's storage
    policies copy states they keep (``run_store_all`` history, revolve
    snapshots), so this is only visible to callers that stash a returned
    state and keep stepping.  The reverse sweep reuses one persistent
    arrays dict the same way and returns a fresh copy of the adjoint
    (reverse results are the sweep's *output* and must outlive it).
    """
    adjoint_map = dict(adjoint_map or {output: f"{output}_b", prev: f"{prev}_b"})
    out_adj, prev_adj = adjoint_map[output], adjoint_map[prev]

    buf_a = np.zeros(shape, dtype=dtype)
    buf_b = np.zeros(shape, dtype=dtype)
    # Two fixed role assignments: whichever buffer holds the incoming
    # state plays `prev`, the other is overwritten as `output`.
    write_a = {output: buf_a, prev: buf_b}
    write_b = {output: buf_b, prev: buf_a}

    def forward_step(state: State) -> State:
        src = state[output]
        arrays = write_b if src is buf_a else write_a
        if src is not arrays[prev]:
            np.copyto(arrays[prev], src)
        arrays[output][...] = 0
        forward_run(arrays)
        return {output: arrays[output]}

    rev_arrays = {
        out_adj: np.zeros(shape, dtype=dtype),
        prev: np.zeros(shape, dtype=dtype),
        prev_adj: np.zeros(shape, dtype=dtype),
    }

    def reverse_step(saved: State, lam: State) -> State:
        np.copyto(rev_arrays[out_adj], lam[output])
        np.copyto(rev_arrays[prev], saved[output])
        rev_arrays[prev_adj][...] = 0
        reverse_run(rev_arrays)
        return {output: rev_arrays[prev_adj].copy()}

    return forward_step, reverse_step


def _copy(state: State) -> State:
    return {k: v.copy() for k, v in state.items()}


@dataclass
class AdjointTimeStepper:
    """Reverse a time loop around stencil kernels.

    Parameters
    ----------
    forward_step:
        ``state -> next state``; must not mutate its argument.
    reverse_step:
        ``(saved_state_at_t, adjoint_state) -> adjoint state at t``; may
        also accumulate parameter gradients into arrays it closes over.
    """

    forward_step: Callable[[State], State]
    reverse_step: Callable[[State, State], State]

    # -- forward -----------------------------------------------------------

    def run_forward(self, state0: State, steps: int) -> State:
        state = _copy(state0)
        for _ in range(steps):
            state = self.forward_step(state)
        # forward_step may return a view of double-buffered storage (see
        # make_stencil_steps); copy so the result survives later sweeps.
        return _copy(state)

    # -- reverse, store-all ---------------------------------------------------

    def run_store_all(
        self, state0: State, steps: int, adjoint_seed: State
    ) -> State:
        """Adjoint sweep storing every intermediate state."""
        history = [_copy(state0)]
        state = _copy(state0)
        for _ in range(steps):
            state = self.forward_step(state)
            history.append(_copy(state))
        lam = _copy(adjoint_seed)
        for t in reversed(range(steps)):
            lam = self.reverse_step(history[t], lam)
        return lam

    # -- reverse, revolve-checkpointed ---------------------------------------

    def run_checkpointed(
        self,
        state0: State,
        steps: int,
        adjoint_seed: State,
        snaps: int,
    ) -> State:
        """Adjoint sweep with at most *snaps* resident snapshots.

        Executes the optimal revolve schedule through the shared
        :func:`repro.driver.revolve.execute_schedule` driver (which owns
        the live-step bookkeeping); evaluation count equals
        :func:`repro.driver.revolve.optimal_cost` and the result is
        bitwise identical to :meth:`run_store_all`.

        This is the generic-callable compatibility path (snapshots are
        fresh state copies); time loops over compiled stencil kernels
        should prefer the allocation-free
        :class:`repro.runtime.checkpoint.CheckpointedAdjointPlan`, which
        replays the same schedule with preallocated snapshot pools and
        bound plan runs.
        """
        slots: dict[int, State] = {}
        box = {"live": _copy(state0), "lam": _copy(adjoint_seed)}

        def advance(begin: int, end: int) -> None:
            for _ in range(end - begin):
                box["live"] = self.forward_step(box["live"])

        def reverse(step: int) -> None:
            box["lam"] = self.reverse_step(box["live"], box["lam"])

        execute_schedule(
            schedule(steps, snaps),
            snapshot=lambda slot, step: slots.__setitem__(
                slot, _copy(box["live"])
            ),
            advance=advance,
            restore=lambda slot, step: box.__setitem__(
                "live", _copy(slots[slot])
            ),
            reverse=reverse,
        )
        return box["lam"]
