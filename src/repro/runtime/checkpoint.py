"""Checkpointed adjoint time loops over bound execution plans.

The paper reverses one stencil loop and delegates reversal of the
surrounding *time* loop to "a general-purpose AD tool" (Section 3.1).
:mod:`repro.driver` fills that gap generically — revolve schedules plus
an :class:`~repro.driver.timestepping.AdjointTimeStepper` over arbitrary
step callables — but every snapshot and restore there is a fresh
``.copy()``, which contradicts the allocation-free steady-state contract
the plan/bind runtime establishes.  This module is the runtime-native
integration: the revolve schedule becomes *data* executed by a layer
that owns all of its buffers, in the PyOP2 style the rest of the
runtime follows.

* :class:`SnapshotPool` — a preallocated ring of state buffers sized
  from the revolve schedule (``snaps`` slots of the full time-stepping
  state); ``np.copyto`` in and out, zero steady-state allocations.
* :class:`CheckpointedAdjointPlan` — binds a forward plan and a reverse
  (adjoint) plan **once** against a rotating set of state buffers (one
  binding per rotation parity, so every schedule action replays a bound
  ``run()``), then executes the optimal revolve action sequence per
  :meth:`~CheckpointedAdjointPlan.adjoint` call.  Memory is O(snaps)
  instead of O(steps); the evaluation count is provably minimal
  (:func:`repro.driver.revolve.optimal_cost`); and the result is
  **bitwise identical** to :meth:`~CheckpointedAdjointPlan.run_store_all`
  by construction, because the reverse sweep consumes exactly the same
  primal states either way.

The state model covers the repository's time-stepping applications: one
output field (``u``) computed from ``h`` earlier time levels
(``history = ("u_1",)`` for heat/Burgers, ``("u_1", "u_2")`` for wave)
plus optional *constant* fields (the wave velocity model ``c``) whose
gradients accumulate across the whole reverse sweep.  A forward step
rotates ``h + 1`` persistent buffers (the :func:`make_stencil_steps`
double-buffering generalised to any history depth); since rotation
only permutes *roles*, each of the ``h + 1`` parities binds the plans
once and every subsequent step of that parity is a pure bound run.

With ``members`` set, the same schedule runs across a leading member
axis through :class:`~repro.runtime.ensemble.EnsemblePlan` bindings:
one revolve action sequence advances and reverses the whole ensemble,
member ``m`` bitwise identical to its single-scenario checkpointed run.

The sweep itself — rotation, adjoint shift, the four schedule handlers,
``run_forward`` and ``adjoint`` — is written once, in
:class:`_RevolveDriver`, over opaque buffer handles.
:class:`CheckpointedAdjointPlan` stores each buffer as a NumPy array it
owns; :class:`ShardedCheckpointedAdjoint` stores it as a named buffer
block-decomposed across a
:class:`~repro.runtime.distributed.ShardedPlan`.

Nothing a sweep *does* depends on data: the schedule is fixed at
construction, the rotation restarts at buffer 0 every sweep, and every
buffer is plan-owned.  So when every parity binding is native
(:func:`~repro.runtime.decisions.program_gate`), the plan replays the
sweep once at construction through the same handlers over a third,
*recording* store (:class:`_SweepRecorder`) and keeps the result as a
:class:`~repro.runtime.native.NativeProgram`: ``adjoint()`` is then one
GIL-released foreign call — per ensemble chunk, joined once — instead of
one bound run per schedule action.  The per-action sweep stays as the
lower rung and the oracle; an active fault injector selects it per call,
since the program has no Python-visible failure site to fire at.

>>> import numpy as np
>>> from repro.apps import heat_problem
>>> prob = heat_problem(1)
>>> plan = prob.checkpointed_adjoint(16, steps=6, snaps=2)
>>> u0 = prob.allocate_state(16, seed=0)["u_1"]
>>> seed = prob.allocate_adjoints(16)["u_b"]
>>> ref = {k: v.copy() for k, v in plan.run_store_all([u0], seed).items()}
>>> out = plan.adjoint([u0], seed)
>>> all(np.array_equal(out[k], ref[k]) for k in ref)
True
>>> plan.forward_steps == plan.evaluation_cost - plan.steps
True
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..driver.revolve import execute_schedule, schedule, schedule_cost
from ..errors import CheckpointError, NativeBuildError, ReproError
from . import decisions, faults, native
from .compiler import KernelError

__all__ = [
    "SnapshotPool",
    "CheckpointedAdjointPlan",
    "ShardedCheckpointedAdjoint",
]


class SnapshotPool:
    """A preallocated ring of revolve snapshot buffers.

    ``slots`` snapshots, each holding ``fields`` state arrays of
    ``shape``/``dtype`` (one per history level of the time stepper).
    All memory is allocated here, once; :meth:`store` and :meth:`load`
    are pure ``np.copyto`` calls, so a steady-state revolve sweep
    performs zero snapshot allocations.

    >>> import numpy as np
    >>> pool = SnapshotPool(3, (4, 4), np.float64, fields=2)
    >>> pool.slots, pool.fields, pool.nbytes
    (3, 2, 768)
    >>> state = [np.ones((4, 4)), np.zeros((4, 4))]
    >>> pool.store(1, state)
    >>> out = [np.empty((4, 4)), np.empty((4, 4))]
    >>> pool.load(1, out)
    >>> bool(np.array_equal(out[0], state[0]))
    True
    """

    __slots__ = ("_bufs", "shape", "dtype")

    def __init__(
        self, slots: int, shape: tuple[int, ...], dtype, fields: int = 1
    ) -> None:
        if slots < 1:
            raise ValueError("snapshot pool needs at least one slot")
        if fields < 1:
            raise ValueError("snapshot pool needs at least one field per slot")
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._bufs = tuple(
            tuple(np.empty(self.shape, dtype=self.dtype) for _ in range(fields))
            for _ in range(slots)
        )

    @property
    def slots(self) -> int:
        return len(self._bufs)

    @property
    def fields(self) -> int:
        return len(self._bufs[0])

    @property
    def nbytes(self) -> int:
        """Total bytes held by the pool (the resident snapshot memory)."""
        return sum(buf.nbytes for slot in self._bufs for buf in slot)

    def store(self, slot: int, state: Sequence[np.ndarray]) -> None:
        """Copy *state* (one array per field) into *slot*.

        A failed copy (the OS refusing to commit the preallocated pages,
        surfacing as ``MemoryError``/``OSError`` under memory pressure)
        raises :class:`~repro.errors.CheckpointError` naming the slot;
        the pool's buffers are still valid and the owning sweep is
        recoverable by its next :meth:`CheckpointedAdjointPlan.adjoint`
        call, which reloads all state from scratch.
        """
        bufs = self._bufs[slot]
        if len(state) != len(bufs):
            raise ValueError(
                f"snapshot needs {len(bufs)} field(s), got {len(state)}"
            )
        try:
            faults.check("checkpoint.snapshot")
            for buf, arr in zip(bufs, state):
                np.copyto(buf, arr)
        except (MemoryError, OSError) as exc:
            raise CheckpointError(
                f"storing snapshot into pool slot {slot} failed: {exc}"
            ) from exc

    def load(self, slot: int, out: Sequence[np.ndarray]) -> None:
        """Copy *slot*'s snapshot into the *out* arrays (one per field)."""
        bufs = self._bufs[slot]
        if len(out) != len(bufs):
            raise ValueError(
                f"snapshot holds {len(bufs)} field(s), got {len(out)} outputs"
            )
        for buf, arr in zip(bufs, out):
            np.copyto(arr, buf)


class _RevolveDriver:
    """The revolve sweep over ``h + 1`` rotating state buffers.

    Holds everything the two public plans share: the state-model
    validation, the rotation and adjoint-shift bookkeeping, the four
    schedule action handlers and the ``run_forward``/``adjoint`` entry
    points.  A *buffer* is an opaque handle here.  A subclass decides
    where buffers live and how a step runs by providing

    * the handles ``_rot`` (the ``h + 1`` rotating state buffers; buffer
      ``_live`` holds the newest state component, ``_live - 1`` the one
      before, and so on mod ``h + 1`` — a forward step writes the oldest
      buffer, so rotation is a pointer move, never a copy), ``_seed``
      (the output adjoint), ``_hist_adj`` (one accumulator per history
      field) and ``_const_adj`` (the constant-adjoint accumulators, in
      ``_const_adj_names`` order);
    * the buffer store ``_load(buf, values)``, ``_zero(buf)``,
      ``_copy(dst, src)``, ``_snapshot(slot, bufs)``,
      ``_restore(slot, bufs)`` and ``_read(bufs)``;
    * ``_step_forward(q)`` (from the state whose newest component is in
      buffer ``q``: zero the buffer the step writes, then run the
      primal), ``_step_reverse(q)`` (run the adjoint at that state) and
      ``_gradients()``, what ``adjoint`` returns.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        rev_names: frozenset[str],
        *,
        steps: int,
        snaps: int,
        output: str,
        history: Sequence[str],
        constants: Mapping[str, np.ndarray],
        adjoint_map: Mapping[str, str] | None,
        dtype,
    ) -> None:
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if snaps < 1:
            raise ValueError("snaps must be >= 1")
        history = tuple(history)
        if not history:
            raise ValueError("need at least one history field")
        self.steps = steps
        self.snaps = snaps
        self.output = output
        self.history = history
        self.dtype = np.dtype(dtype)
        self._shape = shape
        for name, arr in constants.items():
            if tuple(arr.shape) != shape:
                raise ValueError(
                    f"constant {name!r} has shape {arr.shape}, expected "
                    f"{shape} (the member axis leads in ensemble mode)"
                )
            if arr.dtype != self.dtype:
                raise ValueError(
                    f"constant {name!r} is {arr.dtype}, expected "
                    f"{self.dtype}: a promoted constant would break the "
                    f"end-to-end reduced-precision contract; cast it first"
                )
        adjoint_map = dict(adjoint_map or {})
        adj = lambda name: adjoint_map.get(name, f"{name}_b")  # noqa: E731
        self._adj = adj
        self._seed_name = adj(output)
        self._hist_adj_names = tuple(adj(name) for name in history)
        self._const_adj_names = tuple(
            adj(name) for name in sorted(constants) if adj(name) in rev_names
        )
        self._pool = SnapshotPool(snaps, shape, self.dtype, fields=len(history))
        self._actions = tuple(schedule(steps, snaps))
        self.evaluation_cost = schedule_cost(list(self._actions))
        self.forward_steps = 0  # actual primal runs of the last sweep
        self._live = 0  # rotation pointer: buffer holding the newest state
        self._fresh_seed = True  # next reverse consumes the seed directly

    # -- queries -----------------------------------------------------------

    @property
    def actions(self) -> tuple:
        """The revolve action sequence executed per :meth:`adjoint` call."""
        return self._actions

    @property
    def snapshot_pool(self) -> SnapshotPool:
        return self._pool

    # -- rotation: all of its modular arithmetic is these two helpers ------

    def _state(self, q: int) -> list:
        """The buffers of the state whose newest component is in buffer
        *q*: one per history field, newest first."""
        m = len(self._rot)
        return [self._rot[(q - k) % m] for k in range(len(self.history))]

    def _after(self, q: int) -> int:
        """The buffer the step from state *q* writes — the oldest one,
        which then holds the newest component."""
        return (q + 1) % len(self._rot)

    # -- state plumbing ----------------------------------------------------

    def _live_state(self) -> list:
        """The live state's buffers, newest first."""
        return self._state(self._live)

    def _load_state0(self, state0: Sequence[np.ndarray]) -> None:
        h = len(self.history)
        state0 = list(state0)
        if len(state0) != h:
            raise ValueError(
                f"state0 must hold {h} array(s) (newest first, one per "
                f"history field {self.history}), got {len(state0)}"
            )
        for arr in state0:
            if tuple(np.shape(arr)) != self._shape:
                raise ValueError(
                    f"state0 arrays must have shape {self._shape}, "
                    f"got {tuple(np.shape(arr))}"
                )
        self._live = 0
        self.forward_steps = 0
        for buf, arr in zip(self._state(0), state0):
            self._load(buf, arr)

    def _advance(self, count: int) -> None:
        for _ in range(count):
            self._step_forward(self._live)
            self._live = self._after(self._live)
        self.forward_steps += count

    def _begin_reverse(self, seed: np.ndarray) -> None:
        self._load(self._seed, seed)
        for buf in (*self._hist_adj, *self._const_adj):
            self._zero(buf)
        self._fresh_seed = True

    def _rotate_adjoint(self) -> None:
        # lambda state for step t from step t+1: the output adjoint is
        # the previous newest history adjoint; each history adjoint
        # accumulator is preloaded with the next-older one (the pure
        # "shift" part of the state adjoint); the oldest starts at 0.
        self._copy(self._seed, self._hist_adj[0])
        for k in range(len(self._hist_adj) - 1):
            self._copy(self._hist_adj[k], self._hist_adj[k + 1])
        self._zero(self._hist_adj[-1])

    def _check_seed(self, seed: np.ndarray) -> None:
        if tuple(np.shape(seed)) != self._shape:
            raise ValueError(
                f"seed must have shape {self._shape}, got "
                f"{tuple(np.shape(seed))}"
            )

    # -- schedule action handlers (bound once, reused every sweep) ---------

    def _on_snapshot(self, slot: int, step: int) -> None:
        self._snapshot(slot, self._live_state())

    def _on_advance(self, begin: int, end: int) -> None:
        self._advance(end - begin)

    def _on_restore(self, slot: int, step: int) -> None:
        self._restore(slot, self._live_state())

    def _on_reverse(self, step: int) -> None:
        # The first reverse of a sweep consumes the caller's seed
        # directly; every later one first shifts the adjoint state.
        if self._fresh_seed:
            self._fresh_seed = False
        else:
            self._rotate_adjoint()
        self._step_reverse(self._live)

    # -- execution ---------------------------------------------------------

    def _sweep(self, kind: str) -> None:
        """Run the ``"forward"`` sweep (``steps`` primal steps) or the
        ``"adjoint"`` sweep (the revolve schedule) on loaded buffers,
        one store call per action."""
        if kind == "forward":
            self._advance(self.steps)
        else:
            execute_schedule(
                self._actions,
                snapshot=self._on_snapshot,
                advance=self._on_advance,
                restore=self._on_restore,
                reverse=self._on_reverse,
            )

    def run_forward(self, state0: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Run the primal ``steps`` steps; returns fresh arrays holding
        the final state (newest first — the final output field leads)."""
        self._load_state0(state0)
        self._sweep("forward")
        return self._read(self._live_state())

    def adjoint(
        self, state0: Sequence[np.ndarray], seed: np.ndarray
    ) -> dict[str, np.ndarray]:
        """One checkpointed adjoint sweep: revolve with bound runs.

        *state0* holds the initial state (newest first, one array per
        history field); *seed* is the adjoint of the final output
        (``dJ/du^T``).  Returns the adjoint of initial-state component
        ``k`` under the adjoint name of ``history[k]``, plus accumulated
        constant adjoints.  Bitwise identical to a store-all sweep by
        construction — the reverse sweep consumes exactly the same
        primal states.
        """
        self._check_seed(seed)
        self._load_state0(state0)
        self._begin_reverse(seed)
        try:
            self._sweep("adjoint")
        except ReproError:
            # Already typed (CheckpointError from the pool, KernelError
            # from a bound run, ...).  The caller's arrays are untouched
            # either way: the sweep works exclusively on plan-owned
            # buffers, and the next adjoint() call reloads and re-zeros
            # all of them, so a failed sweep leaves no poisoned state.
            raise
        except Exception as exc:
            raise CheckpointError(
                f"checkpointed adjoint sweep failed mid-schedule: {exc}; "
                "the plan is reusable — the next adjoint() call reloads "
                "all state"
            ) from exc
        return self._gradients()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CheckpointedAdjointPlan(_RevolveDriver):
    """A revolve schedule executed entirely through bound plan runs.

    Parameters
    ----------
    forward_plan:
        :class:`~repro.runtime.plan.ExecutionPlan` of the primal kernel:
        writes *output* reading the *history* fields (and *constants*).
    reverse_plan:
        Plan of the adjoint kernel: reads the adjoint of *output* plus
        the saved primal state, accumulates (``+=``) into the adjoints
        of the history fields and constants.
    shape:
        Per-member array shape of every state field.
    steps:
        Time steps to reverse (the primal runs ``steps`` steps).
    snaps:
        Resident snapshot slots; memory is ``snaps`` states instead of
        the ``steps`` states a store-all sweep keeps.
    output, history:
        Field names: the written field and the earlier time levels it
        is computed from, newest first (``("u_1",)`` or
        ``("u_1", "u_2")``).
    constants:
        Name -> array for kernel fields constant in time (e.g. the wave
        velocity model ``c``).  In ensemble mode these carry the member
        axis like everything else.
    adjoint_map:
        Primal name -> adjoint name; defaults to ``name + "_b"``.
    dtype:
        State dtype (reduced-precision sweeps stay reduced end to end).
    members:
        ``None`` for a single scenario; an integer ``m >= 1`` runs one
        schedule across a leading member axis of extent ``m`` via
        :class:`~repro.runtime.ensemble.EnsemblePlan` bindings.
    workers:
        Ensemble worker threads (ignored without *members*).

    The plan preallocates everything at construction: ``h + 1`` rotating
    state buffers bound against both plans once per parity, the reverse
    working set, and a :class:`SnapshotPool` sized ``snaps`` from the
    revolve schedule.  Steady-state :meth:`adjoint` calls (after the
    first, which records the slot tapes) perform **zero array
    allocations** — asserted by ``tests/test_checkpoint_plan.py``.

    ``sweep`` is the :class:`~repro.runtime.decisions.Verdict` on how a
    sweep runs: rung ``"program"`` (recorded at construction, one
    foreign call per chunk) or ``"per-action"`` with the reason from
    :func:`~repro.runtime.decisions.program_gate`; :meth:`explain`
    prints it above the bindings' own lines.

    The returned mapping holds the plan's persistent result buffers
    (adjoints of the step-0 state in the history-adjoint names, plus
    the constant adjoints); they are overwritten by the next sweep, so
    copy anything that must survive one.
    """

    def __init__(
        self,
        forward_plan,
        reverse_plan,
        shape: tuple[int, ...],
        *,
        steps: int,
        snaps: int,
        output: str = "u",
        history: Sequence[str] = ("u_1",),
        constants: Mapping[str, np.ndarray] | None = None,
        adjoint_map: Mapping[str, str] | None = None,
        dtype=np.float64,
        members: int | None = None,
        workers: int = 1,
    ) -> None:
        if members is not None and members < 1:
            raise ValueError("members must be >= 1")
        constants = dict(constants or {})
        shape = tuple(shape)
        full_shape = shape if members is None else (members, *shape)
        rev_names = reverse_plan.kernel.array_names
        super().__init__(
            full_shape, rev_names, steps=steps, snaps=snaps, output=output,
            history=history, constants=constants, adjoint_map=adjoint_map,
            dtype=dtype,
        )
        self.members = members
        history, adj = self.history, self._adj
        h = len(history)

        # Validate the plans against the state model up front: a missing
        # field would otherwise surface as a bare KeyError from binding.
        fwd_names = forward_plan.kernel.array_names
        allowed_fwd = {output, *history, *constants}
        if not fwd_names <= allowed_fwd:
            raise KernelError(
                f"forward kernel touches arrays "
                f"{sorted(fwd_names - allowed_fwd)} outside the time-"
                f"stepping state (output={output!r}, history={history}, "
                f"constants={sorted(constants)})"
            )
        # The reverse binding holds the saved history, the constants and
        # the adjoint working set — *not* the primal output, which the
        # repository's adjoint kernels never read (they consume its
        # adjoint instead).  A reverse kernel reading it must fail here,
        # not as a bare KeyError from binding.
        allowed_rev = {*history, *constants, adj(output)} | {
            adj(name) for name in (*history, *constants)
        }
        if not rev_names <= allowed_rev:
            raise KernelError(
                f"reverse kernel touches arrays "
                f"{sorted(rev_names - allowed_rev)} outside the adjoint "
                f"state (allowed: {sorted(allowed_rev)})"
            )

        # Every buffer is a NumPy array owned here.  Each rotation
        # parity's role assignment is a fixed arrays dict that binds
        # once.
        def zeros() -> np.ndarray:
            return np.zeros(full_shape, dtype=self.dtype)

        self._rot = tuple(zeros() for _ in range(h + 1))
        self._seed = zeros()
        self._hist_adj = tuple(zeros() for _ in range(h))
        self._const_adj = tuple(zeros() for _ in self._const_adj_names)
        self._result = dict(
            zip(
                (*self._hist_adj_names, *self._const_adj_names),
                (*self._hist_adj, *self._const_adj),
            )
        )

        # Ensemble bindings borrow their plan's worker pool, so the
        # h + 1 parity bindings of each plan share one set of threads.
        def bind(plan, arrays):
            if members is None:
                return plan.bind(arrays)
            return plan.ensemble(arrays, workers=workers)

        # One forward and one reverse binding per live pointer q (the
        # buffer holding the newest state component).
        def roles(q: int) -> dict[str, np.ndarray]:
            return dict(zip(history, self._state(q)))

        self._fwd = tuple(
            bind(
                forward_plan,
                {output: self._rot[self._after(q)], **roles(q), **constants},
            )
            for q in range(h + 1)
        )
        rev_arrays_base = {
            self._seed_name: self._seed, **self._result, **constants
        }
        self._rev = tuple(
            bind(reverse_plan, {**rev_arrays_base, **roles(q)})
            for q in range(h + 1)
        )

        # The sweep rung.  Each part is a member range no other part
        # touches (everything, without members), so its whole sweep is
        # one program; recording replays the driver's own handlers.
        self._workers = workers
        self._parts = (
            (...,) if members is None
            else tuple(slice(lo, hi + 1) for lo, hi in self._fwd[0].chunk_members)
        )
        self._programs: dict[str, tuple] = {}
        why = decisions.program_gate((*self._fwd, *self._rev))
        if why is None:
            try:
                self._programs = {
                    kind: self._record(kind) for kind in ("adjoint", "forward")
                }
            except NativeBuildError as exc:
                why = str(exc)
        if why is None:
            first = self._programs["adjoint"][0][0]
            self.sweep = decisions.Verdict(
                "sweep", "program", None, first.distinct, len(first)
            )
        else:
            self.sweep = decisions.Verdict("sweep", "per-action", why)

    def _record(self, kind: str) -> tuple:
        """``(one sealed program per part, end state)`` of sweep *kind*."""
        head = self._fwd[0]
        lib = native.library_for_kernel(head.plan.kernel, head.mode.threads)
        recorders = [
            _SweepRecorder(self, lib, index) for index in range(len(self._parts))
        ]
        for rec in recorders:
            rec._sweep(kind)
        end = recorders[0]
        return (
            tuple(rec.program.seal() for rec in recorders),
            (end.forward_steps, end._live, end._fresh_seed),
        )

    # -- queries -----------------------------------------------------------

    @property
    def snapshot_bytes(self) -> int:
        """Resident snapshot memory (the checkpointed sweep's state cost)."""
        return self._pool.nbytes

    @property
    def store_all_bytes(self) -> int:
        """State bytes a store-all sweep keeps (``steps`` saved states)."""
        per_state = len(self.history) * int(
            np.prod(self._shape, dtype=np.int64)
        ) * self.dtype.itemsize
        return self.steps * per_state

    @property
    def decisions(self) -> tuple:
        """The sweep verdict, then the first forward and reverse
        bindings' records (the parities lower alike)."""
        return (self.sweep, *self._fwd[0].decisions, *self._rev[0].decisions)

    def explain(self) -> list[str]:
        """Human lines: how a sweep runs and why, then each binding's
        own :meth:`~repro.runtime.decisions.Lowered.explain`."""
        sweep = self.sweep
        if sweep.reason is None:
            programs = self._programs["adjoint"][0]
            calls = programs[0].calls
            line = (
                f"sweep: program ({sweep.count:,} entries, {sweep.statements} "
                f"distinct, {calls} call{'s' if calls > 1 else ''})"
            )
            if len(programs) > 1:
                line += f" x {len(programs)} chunks, one join"
        else:
            line = f"sweep: per-action — {sweep.reason}"
        lines = [line]
        for label, bound in (("forward", self._fwd[0]), ("reverse", self._rev[0])):
            lines.append(f"{label} binding:")
            lines.extend(f"  {text}" for text in bound.explain())
        return lines

    # -- buffer store: NumPy arrays ----------------------------------------

    _load = _copy = staticmethod(np.copyto)

    @staticmethod
    def _zero(buf: np.ndarray) -> None:
        buf[...] = 0

    def _snapshot(self, slot: int, bufs: Sequence[np.ndarray]) -> None:
        self._pool.store(slot, bufs)

    def _restore(self, slot: int, bufs: Sequence[np.ndarray]) -> None:
        self._pool.load(slot, bufs)

    @staticmethod
    def _read(bufs: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [buf.copy() for buf in bufs]

    def _step_forward(self, q: int) -> None:
        self._rot[self._after(q)][...] = 0
        self._fwd[q].run()

    def _step_reverse(self, q: int) -> None:
        self._rev[q].run()

    def _gradients(self) -> dict[str, np.ndarray]:
        return self._result

    # -- execution ---------------------------------------------------------

    def _sweep(self, kind: str) -> None:
        recorded = self._programs.get(kind)
        # An armed injector takes the per-action rung, where the fault
        # points (checkpoint.snapshot, bound.run, scheduler.task) still
        # sit on the executed path: it may change the rung, never bits.
        if recorded is None or faults.active_injector() is not None:
            super()._sweep(kind)
            return
        programs, end = recorded
        if len(programs) == 1:
            programs[0].run()
        else:
            pool = self._fwd[0].plan.worker_pool(self._workers)
            pool.run([program.run for program in programs])
        self.forward_steps, self._live, self._fresh_seed = end

    def run_store_all(
        self, state0: Sequence[np.ndarray], seed: np.ndarray
    ) -> dict[str, np.ndarray]:
        """The O(steps)-memory reference sweep over the same bound plans.

        Stores a copy of every intermediate state during one forward
        pass (``steps`` states — the baseline the memory gate compares
        against), then reverses consuming them in descending step
        order.  This path allocates its history per call; it exists as
        the bitwise reference and benchmark baseline, not a steady-state
        path.
        """
        self._check_seed(seed)
        self._load_state0(state0)
        history = []
        for _ in range(self.steps):
            history.append(self._read(self._live_state()))
            self._advance(1)
        self._begin_reverse(seed)
        for t in reversed(range(self.steps)):
            for arr, saved in zip(self._live_state(), history[t]):
                np.copyto(arr, saved)
            self._on_reverse(t)
        return self._result

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the forward and reverse plans' worker threads."""
        self._fwd[0].plan.close()
        self._rev[0].plan.close()


class _SweepRecorder(_RevolveDriver):
    """A :class:`CheckpointedAdjointPlan`'s sweep over a store that
    appends to a :class:`~repro.runtime.native.NativeProgram` instead of
    executing: the same handlers, rotation and schedule, so the program
    is the per-action sweep's call sequence by construction.

    Records part *index* of the plan: memory entries cover that member
    slice of each buffer, kernel entries are that chunk's runnables.
    """

    def __init__(self, plan: CheckpointedAdjointPlan, lib, index: int) -> None:
        # The plan's handles, schedule and bindings, by reference; the
        # rotation state is only ever rebound, so the plan's stays put.
        self.__dict__.update(plan.__dict__)
        self._live, self.forward_steps, self._fresh_seed = 0, 0, True
        self._index = index
        self._part = plan._parts[index]
        snapshots = [buf for slot in self._pool._bufs for buf in slot]
        self.program = native.NativeProgram(
            lib,
            frozenset(
                map(id, (*self._rot, self._seed, *self._hist_adj, *snapshots))
            ),
        )

    def _copy(self, dst: np.ndarray, src: np.ndarray) -> None:
        self.program.copy(dst[self._part], src[self._part])

    def _zero(self, buf: np.ndarray) -> None:
        self.program.zero(buf[self._part])

    def _snapshot(self, slot: int, bufs: Sequence[np.ndarray]) -> None:
        for saved, buf in zip(self._pool._bufs[slot], bufs):
            self._copy(saved, buf)

    def _restore(self, slot: int, bufs: Sequence[np.ndarray]) -> None:
        for saved, buf in zip(self._pool._bufs[slot], bufs):
            self._copy(buf, saved)

    def _run(self, bound) -> None:
        items = (
            bound._serial_items if self.members is None
            else bound._chunks[self._index].items
        )
        for item in items:
            self.program.call(item)

    def _step_forward(self, q: int) -> None:
        self._zero(self._rot[self._after(q)])
        self._run(self._fwd[q])

    def _step_reverse(self, q: int) -> None:
        self._run(self._rev[q])


class ShardedCheckpointedAdjoint(_RevolveDriver):
    """Checkpointed adjoint sweeps over a block-decomposed sharded grid.

    The sharded sibling of :class:`CheckpointedAdjointPlan`: the same
    ``h + 1`` rotating-buffer state model and the same **single**
    revolve schedule, but every buffer is block-decomposed across the
    ranks of one :class:`~repro.runtime.distributed.ShardedPlan`, and
    every schedule action runs as one sharded step — per-shard bound
    plans for each rotation parity (keys ``("fwd", q)`` / ``("rev", q)``
    with alias maps assigning the rotating physical buffers to kernel
    roles), a history-field halo exchange before each run, and the
    adjoint accumulate-back merged in fixed rank order after each
    reverse run.  Snapshots store **global** assemblies of the owned
    rows (halo state is canonical — a restore re-scatters exactly what
    an exchange would produce), so the pool is rank-count independent
    and a mid-sweep single-shard degradation keeps every stored
    snapshot usable.

    Results are bitwise identical to the unsharded
    :class:`CheckpointedAdjointPlan` for any rank count — asserted by
    ``tests/test_sharded_plan.py``.  Unlike the unsharded plan, the
    result mapping holds fresh gathered arrays, not persistent buffers.
    """

    def __init__(
        self,
        forward_kernel,
        reverse_kernel,
        shape: tuple[int, ...],
        *,
        nranks: int,
        halo: int,
        steps: int,
        snaps: int,
        output: str = "u",
        history: Sequence[str] = ("u_1",),
        constants: Mapping[str, np.ndarray] | None = None,
        adjoint_map: Mapping[str, str] | None = None,
        dtype=np.float64,
        config=None,
        use_workers: bool = True,
    ) -> None:
        from .distributed import ShardedPlan  # avoids import cycle

        constants = dict(constants or {})
        shape = tuple(shape)
        super().__init__(
            shape, reverse_kernel.array_names, steps=steps,
            snaps=snaps, output=output, history=history, constants=constants,
            adjoint_map=adjoint_map, dtype=dtype,
        )
        history = self.history
        h = len(history)
        m = h + 1

        # Every buffer is a name in one ShardedPlan namespace: h + 1
        # rotating state buffers, the reverse working set, and the
        # constants.  Role assignment per rotation parity happens
        # through the ShardedPlan alias maps.
        self._rot = tuple(f"__rot{k}" for k in range(m))
        self._seed = self._seed_name
        self._hist_adj = self._hist_adj_names
        self._const_adj = self._const_adj_names
        arrays: dict[str, np.ndarray] = {
            name: np.zeros(shape, dtype=self.dtype)
            for name in (
                *self._rot,
                self._seed,
                *self._hist_adj,
                *self._const_adj,
            )
        }
        arrays.update(constants)

        kernels = {}
        aliases = {}
        for q in range(m):
            kernels[("fwd", q)] = forward_kernel
            aliases[("fwd", q)] = {
                output: self._rot[self._after(q)],
                **dict(zip(history, self._state(q))),
            }
        for q in range(m):
            kernels[("rev", q)] = reverse_kernel
            aliases[("rev", q)] = dict(zip(history, self._state(q)))
        self._plan = ShardedPlan(
            kernels,
            arrays,
            nranks=nranks,
            halo=halo,
            config=config,
            aliases=aliases,
            use_workers=use_workers,
        )
        self.nranks = self._plan.nranks
        self.effective_nranks = self._plan.effective_nranks
        # Snapshots hold global assemblies (staged through _scratch), so
        # one pool serves any rank count and survives a mid-sweep
        # single-shard degradation.
        self._scratch = tuple(
            np.empty(shape, dtype=self.dtype) for _ in range(h)
        )

    @property
    def degraded(self) -> bool:
        """Whether the underlying sharded plan fell back to one shard."""
        return self._plan.degraded

    # -- buffer store: names in the ShardedPlan ----------------------------

    def _load(self, name: str, values: np.ndarray) -> None:
        self._plan.load(name, values)

    def _copy(self, dst: str, src: str) -> None:
        self._plan.copy(dst, src)

    def _zero(self, name: str) -> None:
        self._plan.fill(name, 0.0)

    def _snapshot(self, slot: int, names: Sequence[str]) -> None:
        for name, dst in zip(names, self._scratch):
            self._plan.gather_into(name, dst)
        self._pool.store(slot, self._scratch)

    def _restore(self, slot: int, names: Sequence[str]) -> None:
        self._pool.load(slot, self._scratch)
        for name, src in zip(names, self._scratch):
            self._plan.load(name, src)

    def _read(self, names: Sequence[str]) -> list[np.ndarray]:
        gathered = self._plan.gather(names)
        return [gathered[name] for name in names]

    def _step_forward(self, q: int) -> None:
        self._plan.fill(self._rot[self._after(q)], 0.0)
        self._plan.step(("fwd", q), exchange=self._state(q))

    def _step_reverse(self, q: int) -> None:
        self._plan.step(
            ("rev", q),
            exchange=[self._seed, *self._state(q)],
            accumulate=[*self._hist_adj, *self._const_adj],
        )

    def _gradients(self) -> dict[str, np.ndarray]:
        return self._plan.gather([*self._hist_adj, *self._const_adj])

    def close(self) -> None:
        """Stop shard workers and release shared-memory segments."""
        self._plan.close()
