"""Bound execution plans: allocation-free steady-state kernel runs.

The paper's measured regime is steady state — one compiled adjoint
stencil executed for thousands of timesteps on fixed-size arrays — where
per-iteration overhead, not compilation, decides throughput.  The
:class:`~repro.runtime.plan.ExecutionPlan` (PR 1) froze the work
*decomposition*; this module freezes the work *bindings*: everything
that is invariant for a fixed set of arrays, so a timestep redoes none
of it.  ``BoundPlan.run()`` is the one route by which this repository
executes a kernel — every tier (ensemble, checkpoint, shard, server)
runs bound units.

:meth:`ExecutionPlan.bind(arrays) <repro.runtime.plan.ExecutionPlan.bind>`
resolves, once per (plan, arrays):

* every per-task per-statement ndarray **view** — the slice/moveaxis/
  reshape geometry ``_frame_view``/``_target_view_and_missing`` used to
  rebuild on every call;
* **counter arrays** — bare loop counters materialise as ``np.arange``
  arrays shared per ``(axis, lo, hi, dim, dtype)`` among all live
  bindings instead of being reallocated per statement per call;
* a per-statement **ufunc slot pool** so the expression itself evaluates
  through ``out=``-style in-place NumPy ops (see below).

After a warm-up call (which lets NumPy size and type the slot buffers),
a steady-state :meth:`BoundPlan.run` performs **zero NumPy array
allocations** for gather kernels built from ``+``, ``*``, ``**`` and
plain ufunc math — the benchmark/test suite asserts this with
``tracemalloc``.

How in-place evaluation stays bitwise identical
-----------------------------------------------

We do *not* re-derive an evaluation order from the SymPy tree (any
re-association would change floating-point results).  Instead the bound
statement calls the *same* ``lambdify``-generated ``eval_fn`` as the
allocating path, but passes :class:`_Operand` wrappers around the
pre-resolved views.  Every NumPy operation inside the generated code
then dispatches through ``_Operand.__array_ufunc__``, which executes the
identical ufunc on the identical operands — only routing the result into
a preallocated slot buffer via ``out=``.  The op-site sequence of a
generated expression is fixed (no data-dependent branches survive
compilation), so slot ``k`` of a statement always receives the result of
the same operation on the same shapes and dtypes: the first call
allocates each slot from the ufunc's own natural result, and subsequent
calls replay into it.  The computation is therefore bitwise identical to
the allocating path by construction, at every thread count.

Statements whose expression contains constructs that do not evaluate as
pure ufunc calls (user-bound functions, ``Heaviside``/``DiracDelta``
fallbacks, ``Piecewise``) keep the allocating ``eval_fn`` path — still
through pre-resolved views, so they avoid the per-call geometry work.

Lifetime and invalidation
-------------------------

A ``BoundPlan`` holds concrete views into the arrays it was bound to.
It is valid exactly as long as the mapping still contains the *same
array objects*; :meth:`BoundPlan.matches` checks that cheaply, and
``ExecutionPlan.run`` rebinds automatically when a caller replaces an
array (see the plan's bounded bind-memo).  Rebinding is required after
replacing any array object in the mapping; resizing is impossible
without replacement, and in-place value updates (``arr[...] = ...``)
never invalidate a binding.

Threading caveats: slot pools are private to one work task, so one
``BoundPlan`` may run its own tasks concurrently; but a single
``BoundPlan`` must not be entered by two *callers* at once (the same
arrays would be mutated from both).  Two callers running their
*own* bindings of one plan share the plan's worker pool safely: each
``run()`` is its own :class:`~repro.runtime.scheduler.Batch`.

Threaded runs go through one method,
:meth:`BoundPlan._run_parallel`; it is the only place this module
submits to a pool, and every policy about worker threads, joins and
failing tasks lives in :mod:`repro.runtime.scheduler`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Mapping

import numpy as np
import sympy as sp

from ..errors import KernelError, ReproError, ValidationError
from . import faults
from .compiler import (
    CompiledStatement,
    _frame_view,
    _target_view_and_missing,
)
from .decisions import Ladder, Lowered, serial_stream, task_stream

__all__ = ["BoundPlan"]

Box = tuple[tuple[int, int], ...]


# -- cached counter arrays ----------------------------------------------------

# Weak-valued: the bound statements using an array keep it alive, and the
# entry dies with the last of them (a strong dict would pin every
# full-frame counter array ever bound for the life of the process).
_COUNTER_CACHE = weakref.WeakValueDictionary()  # key tuple -> ndarray
_COUNTER_LOCK = threading.Lock()


def _counter_array(
    axis: int,
    lo: int,
    hi: int,
    dim: int,
    dtype,
    frame_shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """The frame-aligned counter values for one bare loop counter.

    Shared among live bindings and marked read-only: every plan bound
    over the same (axis, range, rank, dtype) shares one array instead of
    materialising a fresh ``np.arange`` per statement per call.  With
    *frame_shape*, the values are materialised full-frame and contiguous
    (what the in-place ufunc path needs — broadcast operands would make
    NumPy buffer internally); those constant arrays are cached under the
    extended key so every statement, task and binding over the same
    frame shares one copy.
    """
    key = (axis, lo, hi, dim, np.dtype(dtype).str, frame_shape)
    arr = _COUNTER_CACHE.get(key)
    if arr is None:
        shape = [1] * dim
        shape[axis] = -1
        arr = np.arange(lo, hi + 1, dtype=dtype).reshape(shape)
        if frame_shape is not None:
            arr = np.ascontiguousarray(np.broadcast_to(arr, frame_shape))
        arr.flags.writeable = False
        with _COUNTER_LOCK:
            arr = _COUNTER_CACHE.setdefault(key, arr)
    return arr


# -- in-place ufunc evaluation -------------------------------------------------

_ALLOWED_FUNCS = (
    sp.sin, sp.cos, sp.tan, sp.asin, sp.acos, sp.atan, sp.atan2,
    sp.sinh, sp.cosh, sp.tanh, sp.exp, sp.log, sp.Abs, sp.sign,
)


def _supports_inplace(stmt: CompiledStatement) -> bool:
    """True when *stmt*'s generated code evaluates as pure ufunc calls.

    Arithmetic (Add/Mul/Pow) and the whitelisted elementary functions
    print to operators and ``numpy.<ufunc>`` calls, all of which dispatch
    through ``__array_ufunc__`` and accept ``out=``.  Anything else —
    user-bound functions, ``Heaviside``/``DiracDelta`` (module-dict
    fallbacks calling ``np.where``), ``Piecewise`` (``numpy.select``) —
    would bypass the protocol, so the statement keeps the allocating
    path.  Memoised on the statement.
    """
    if stmt.inplace_ok is None:
        ok = stmt.rhs_expr is not None
        if ok:
            for node in sp.preorder_traversal(stmt.rhs_expr):
                if isinstance(node, (sp.Add, sp.Mul, sp.Pow)):
                    continue
                if isinstance(node, (sp.Number, sp.NumberSymbol, sp.Symbol)):
                    continue
                if isinstance(node, _ALLOWED_FUNCS):
                    continue
                ok = False
                break
        stmt.inplace_ok = ok
    return stmt.inplace_ok


class _SlotPool:
    """Records one statement's ufunc call sites into a replay tape.

    The generated expression code executes the same ufunc sequence every
    call — no data-dependent branches survive compilation — so the first
    (recording) run captures, per call site, the ufunc, its resolved
    operand objects and its natural result array.  Every operand is
    either a bound view/stage/counter array (stable object, live
    values), an earlier site's result buffer (same), or a Python/NumPy
    scalar folded from constants (stable value).  Replaying
    ``ufunc(*args, out=buf)`` over the tape therefore recomputes the
    identical expression with zero allocations and without re-entering
    the generated code.  ``dirty`` flags dispatches the tape cannot
    represent (never produced by whitelisted expressions); the statement
    then stays on per-call wrapped evaluation.
    """

    __slots__ = ("tape", "dirty")

    def __init__(self) -> None:
        self.tape: list[tuple] = []
        self.dirty = False

    def run(self, ufunc, args):
        res = ufunc(*args)
        if isinstance(res, np.ndarray):
            # Scalar results (constant subexpressions) need no slot: the
            # value is baked into the recorded args of later sites.
            self.tape.append((ufunc, tuple(args), res))
        return res


class _Operand(np.lib.mixins.NDArrayOperatorsMixin):
    """An ndarray wrapper that routes every ufunc into pooled buffers.

    Arithmetic operators come from ``NDArrayOperatorsMixin`` and NumPy
    module functions (``numpy.sin`` ...) dispatch here via the
    ``__array_ufunc__`` protocol, so the lambdify-generated code runs
    unchanged — same ops, same order, same operands — with results
    landing in reused slots instead of fresh allocations.
    """

    __slots__ = ("array", "pool")

    def __init__(self, array, pool: _SlotPool) -> None:
        self.array = array
        self.pool = pool

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        pool = self.pool
        args = [x.array if type(x) is _Operand else x for x in inputs]
        if method != "__call__" or kwargs:
            # Reductions/kwargs never occur in whitelisted expression
            # code; execute allocating and mark the tape unusable.
            pool.dirty = True
            kwargs = {
                k: (v.array if type(v) is _Operand else v)
                for k, v in kwargs.items()
            }
            res = getattr(ufunc, method)(*args, **kwargs)
            return _Operand(res, pool) if isinstance(res, np.ndarray) else res
        return _Operand(pool.run(ufunc, args), pool)


# -- bound statements / units ---------------------------------------------------


class _BoundStatement:
    """One statement of one task, resolved against concrete arrays.

    Holds the read views, counter arrays, target view and reduction
    geometry that the unbound path rebuilt on every call; :meth:`run`
    only computes.

    For in-place-eligible statements every expression operand is kept
    **full-frame and C-contiguous**: NumPy's ufunc machinery internally
    allocates iteration buffers for strided or broadcast operands even
    when ``out=`` is given, so strided/broadcast read views are staged
    into persistent contiguous buffers with ``np.copyto`` (which never
    allocates) at the top of each run, and bare-counter values are
    materialised full-frame once at bind time.  Staging only changes
    operand *layout*, never values, so results stay bitwise identical.
    """

    __slots__ = (
        "eval_fn", "op", "args", "wrapped", "pool", "stages", "tview",
        "tstage", "missing", "sel", "frame_shape", "_red", "_cast",
        "_tape", "_rhs_src", "inplace",
    )

    def __init__(
        self,
        st: CompiledStatement,
        arrays: Mapping[str, np.ndarray],
        eff: Box,
        dtype,
    ) -> None:
        frame_shape = tuple(hi - lo + 1 for lo, hi in eff)
        self.frame_shape = frame_shape
        self.eval_fn = st.eval_fn
        self.op = st.op
        self.inplace = _supports_inplace(st)
        views = [
            _frame_view(arrays[acc.name], acc, eff, st.dim) for acc in st.reads
        ]
        stages: list[tuple[np.ndarray, np.ndarray]] = []
        args: list[np.ndarray] = []
        if self.inplace:
            for v in views:
                if v.shape == frame_shape and v.flags.c_contiguous:
                    args.append(v)
                else:
                    stage = np.empty(frame_shape, dtype=v.dtype)
                    stages.append((stage, v))
                    args.append(stage)
            for axis in st.bare_axes:
                lo, hi = eff[axis]
                args.append(
                    _counter_array(axis, lo, hi, st.dim, dtype, frame_shape)
                )
            self.pool = _SlotPool()
            self.wrapped = tuple(_Operand(a, self.pool) for a in args)
        else:
            args = views
            for axis in st.bare_axes:
                lo, hi = eff[axis]
                args.append(_counter_array(axis, lo, hi, st.dim, dtype))
            self.pool = None
            self.wrapped = None
        self.args = tuple(args)
        self.stages = tuple(stages)
        self.tview, self.missing = _target_view_and_missing(
            arrays[st.target.name], st.target, eff, st.dim
        )
        self.sel = tuple(
            -1 if d in self.missing else slice(None) for d in range(st.dim)
        )
        # '+=' into a strided target would make the final add buffer
        # internally; round-trip through a contiguous stage instead.
        if self.op == "+=" and not self.tview.flags.c_contiguous:
            self.tstage = np.empty(self.tview.shape, dtype=self.tview.dtype)
        else:
            self.tstage = None
        self._red = None
        self._cast = None
        self._tape = None  # None: record next run; False: never tape
        self._rhs_src = None

    def run(self) -> None:
        # Mirrors RegionKernel._execute_statement step for step; every
        # branch performs the same NumPy operation on the same operand
        # values, only with preallocated outputs.
        pool = self.pool
        if pool is None:
            rhs = self.eval_fn(*self.args)
        else:
            for stage, view in self.stages:
                np.copyto(stage, view)
            tape = self._tape
            if tape is None or tape is False:
                pool.tape.clear()
                rhs = self.eval_fn(*self.wrapped)
                if type(rhs) is _Operand:
                    rhs = rhs.array
                if tape is None:  # first run: adopt the recording
                    if pool.dirty:
                        self._tape = False
                    else:
                        self._tape = tuple(pool.tape)
                        self._rhs_src = (
                            rhs if isinstance(rhs, np.ndarray) else np.asarray(rhs)
                        )
                    pool.tape.clear()
            else:
                for ufunc, op_args, out in tape:
                    ufunc(*op_args, out=out)
                rhs = self._rhs_src
        if self.missing:
            if self.op == "+=":
                red = self._red
                if red is None:
                    # np.sum dispatches to np.add.reduce; letting the
                    # first call allocate fixes the replay dtype/shape.
                    rhs = self._red = np.asarray(rhs).sum(axis=self.missing)
                else:
                    np.add.reduce(rhs, axis=self.missing, out=red)
                    rhs = red
            else:
                rhs = np.broadcast_to(np.asarray(rhs), self.frame_shape)[self.sel]
        if not isinstance(rhs, np.ndarray):
            rhs = np.asarray(rhs)
        tview = self.tview
        if rhs.dtype != tview.dtype:
            cast = self._cast
            if cast is None:
                rhs = self._cast = rhs.astype(tview.dtype)
            else:
                np.copyto(cast, rhs, casting="unsafe")
                rhs = cast
        if self.op == "+=":
            tstage = self.tstage
            if tstage is None:
                np.add(tview, rhs, out=tview)
            else:
                np.copyto(tstage, tview)
                np.add(tstage, rhs, out=tstage)
                np.copyto(tview, tstage)
        else:
            np.copyto(tview, rhs)


class _BoundTask:
    """One schedulable task: its execution-ordered runnables.

    ``items`` are Python bound statements, native statements, or sealed
    programs of consecutive native statements run as one FFI call.
    """

    __slots__ = ("items",)

    def __init__(self, items) -> None:
        self.items = tuple(items)

    def __call__(self) -> None:
        for s in self.items:
            faults.check("bound.run")
            s.run()


# -- the bound plan --------------------------------------------------------------


class BoundPlan(Lowered):
    """An :class:`~repro.runtime.plan.ExecutionPlan` resolved against arrays.

    Build via :meth:`ExecutionPlan.bind`; ``ExecutionPlan.run`` also
    builds (and memoises) one transparently.  :meth:`run` executes the
    kernel with the discipline fixed at plan-build time, touching only
    compute in steady state.

    >>> from repro import adjoint_loops, heat_problem
    >>> from repro.runtime import compile_nests
    >>> prob = heat_problem(1)
    >>> kernel = compile_nests(
    ...     adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(16))
    >>> arrays = prob.allocate_state(16, seed=0)
    >>> bound = kernel.plan().bind(arrays)
    >>> for _ in range(10):     # first run records, the rest replay
    ...     bound.run()
    >>> bound.inplace_statement_count == bound.statement_count
    True
    >>> bound.matches(arrays)   # still bound to these exact objects
    True
    >>> bound.matches({**arrays, "u_b": arrays["u_b"].copy()})
    False
    """

    def __init__(self, plan, arrays: Mapping[str, np.ndarray]) -> None:
        self.plan = plan
        stmts = [st for rp in plan.region_plans for st in rp.region.statements]
        names = sorted(plan.kernel.array_names)
        unbound = [n for n in names if not isinstance(arrays.get(n), np.ndarray)]
        if unbound:
            raise KernelError(
                f"kernel {plan.kernel.name!r} needs arrays {unbound} that are "
                f"missing from the binding or are not numpy arrays; it "
                f"touches {names}"
            )
        shard = getattr(plan, "shard", None)
        if shard is not None:
            # Shard-aware bind: the plan's statement boxes were
            # translated into local slab coordinates, so every bound
            # array must span exactly the shard's slab.  Catching a
            # mismatch here names the rank and the array instead of
            # surfacing as an opaque out-of-bounds view error.
            for name in names:
                extent = arrays[name].shape[0]
                if extent != shard.slab_extent:
                    raise ValidationError(
                        f"shard rank {shard.rank}: array {name!r} has "
                        f"axis-0 extent {extent} but the shard's slab "
                        f"spans {shard.slab_extent} rows (global rows "
                        f"[{shard.slab_lo}, "
                        f"{shard.slab_lo + shard.slab_extent - 1}]); "
                        f"bind slab-sized arrays"
                    )
        sources = {name: arrays[name] for name in names}
        self._sources = sources
        # Reliability bookkeeping: the run counter feeds the divergence
        # watchdog's reports; written-array identities and their lazily
        # allocated backups implement the transactional guard.
        self._step = 0
        self._written = tuple(
            sources[name] for name in sorted({st.target.name for st in stmts})
        )
        self._backups: tuple | None = None

        ladder = Ladder(plan, self)
        python: list[_BoundStatement] = []

        def lower(stream, arrays) -> list:
            def python_rung(region, _si, st, eff):
                python.append(_BoundStatement(st, arrays, eff, region.dtype))
                return "python", python[-1:]

            return ladder.lower(stream, {None: arrays}, python_rung)

        # Serial execution order is the flat statement order, so a plan
        # with no parallel region lowers one stream across region/task
        # boundaries: a fully native kernel runs one FFI call per
        # timestep, and a pool config whose regions were all refused a
        # split never starts the pool.  Plans with a parallel region
        # lower per task.  Only the variant this plan's run() uses is
        # bound — the other would be dead weight per bind.
        self._serial_items: tuple = ()
        # Per region: (tasks, barrier before it, tasks may run concurrently).
        regions: list[tuple[tuple[_BoundTask, ...], bool, bool]] = []
        if not any(rp.parallel for rp in plan.region_plans):
            self._serial_items = tuple(lower(serial_stream(plan), sources))
        else:
            for rp, barrier in zip(plan.region_plans, plan.barriers):
                tasks = tuple(
                    _BoundTask(lower(task_stream(rp.region, boxes), sources))
                    for boxes in rp.tasks
                )
                regions.append((tasks, barrier, rp.parallel))
        self._regions = tuple(regions)
        # Read after lowering: a runners object failing in the bind's
        # batch moves the library rung, and the mode with it.
        self.mode = ladder.mode
        self.decisions = tuple(ladder.decisions)
        # Statements running through the allocation-free ufunc slots.
        self.inplace_statement_count = sum(1 for b in python if b.inplace)

    # -- queries -----------------------------------------------------------

    def matches(self, arrays: Mapping[str, np.ndarray]) -> bool:
        """True while *arrays* still holds the exact bound array objects.

        Replacing an array object (rather than updating values in place)
        invalidates the binding; ``ExecutionPlan.run`` uses this check to
        rebind transparently.
        """
        for name, arr in self._sources.items():
            if arrays.get(name) is not arr:
                return False
        return True

    # -- execution ---------------------------------------------------------

    def run(self) -> None:
        """Execute the bound kernel with the plan's discipline.

        With ``ExecutionConfig(transactional=True)``, a statement
        raising mid-run restores every written array to its pre-call
        contents before the exception propagates (re-typed as
        :class:`~repro.errors.KernelError` unless already a
        :class:`~repro.errors.ReproError`) — the graceful-degradation
        contract's "no half-updated user arrays" clause.  Off by
        default: the backup copy costs one memory sweep per run, which
        the fused native hot path cannot afford.
        """
        self._step += 1
        if not self.plan.config.transactional:
            self._run_inner()
            return
        backups = self._backups
        if backups is None:
            backups = self._backups = tuple(
                (arr, np.empty_like(arr)) for arr in self._written
            )
        for arr, buf in backups:
            np.copyto(buf, arr)
        try:
            self._run_inner()
        except BaseException as exc:
            for arr, buf in backups:
                np.copyto(arr, buf)
            if isinstance(exc, ReproError) or not isinstance(exc, Exception):
                raise
            raise KernelError(
                f"bound run of kernel {self.plan.kernel.name!r} failed "
                f"mid-execution; user arrays were restored: {exc}"
            ) from exc

    def _run_inner(self) -> None:
        if self._regions:
            self._run_parallel()
        else:
            for s in self._serial_items:
                faults.check("bound.run")
                s.run()

    def _run_parallel(self) -> None:
        """Threaded runs: one batch on the plan's pool.

        Parallel regions' tasks are submitted as they are reached and
        joined at the plan's barriers and at the end — for disjoint-
        write gather regions, the paper's single final join.  Other
        regions run inline on this thread *between* submissions (the
        barrier table only tracks in-flight parallel regions, so moving
        them into the batch would race).  Whatever fails, the batch is
        joined before the failure leaves the ``with`` block, so
        :meth:`run`'s transactional restore sees quiescent arrays.
        """
        pool = self.plan.worker_pool(self.plan.config.num_threads)
        with pool.batch() as batch:
            for tasks, barrier, parallel in self._regions:
                if barrier:
                    batch.join()
                if parallel:
                    batch.submit(tasks)
                else:
                    for task in tasks:
                        task()
