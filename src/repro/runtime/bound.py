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

* every per-unit per-statement ndarray **view** — the slice/moveaxis/
  reshape geometry ``_frame_view``/``_target_view_and_missing`` used to
  rebuild on every call;
* **counter arrays** — bare loop counters materialise as ``np.arange``
  arrays shared per ``(axis, lo, hi, dim, dtype)`` among all live
  bindings instead of being reallocated per statement per call;
* a per-statement **ufunc slot pool** so the expression itself evaluates
  through ``out=``-style in-place NumPy ops (see below);
* for the scatter discipline, **persistent thread-private scratch**
  arrays that are zeroed in place per run instead of ``np.zeros_like``
  per task per run.

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
the allocating path by construction, for every discipline.

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

Threading caveats: slot pools and scatter scratch are private to one
work task, so one ``BoundPlan`` may run its own tasks concurrently; but
a single ``BoundPlan`` must not be entered by two *callers* at once (the
same arrays would be mutated from both).  Two callers running their
*own* bindings of one plan share the plan's worker pool safely: each
``run()`` is its own :class:`~repro.runtime.scheduler.Batch`.

Threaded and scatter runs go through one method,
:meth:`BoundPlan._run_parallel`; it is the only place this module
submits to a pool, and every policy about worker threads, joins and
failing tasks lives in :mod:`repro.runtime.scheduler`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Mapping, Sequence

import numpy as np
import sympy as sp

from ..codegen.native_c import native_eligibility
from ..core.fusion import FusionEntry, describe_groups, plan_groups
from ..errors import (
    KernelError,
    NumericalDivergenceError,
    ReproError,
    ValidationError,
)
from . import faults
from .compiler import (
    CompiledStatement,
    RegionKernel,
    _frame_view,
    _target_view_and_missing,
)
from .native import (
    NativeStatement,
    chain_runnables,
    library_for_kernel,
    make_fused_statement,
    make_native_statement,
    native_thread_count,
)

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
    """One statement of one work unit, resolved against concrete arrays.

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


def _bind_unit(
    region: RegionKernel,
    stmt_boxes: Sequence[Box | None],
    arrays: Mapping[str, np.ndarray],
    native_lib=None,
) -> list:
    """Bind one work unit's statements, native where possible.

    With a native library, each statement that was lowered to C *and*
    whose concrete arrays satisfy the lowering assumptions binds to a
    :class:`~repro.runtime.native.NativeStatement`; everything else
    keeps the Python slot-tape path.  Both expose ``run()``.  Returns
    ``(bound, statement, eff_box)`` triples so the caller can feed the
    fusion planner without re-deriving the statement stream.
    """
    out: list = []
    for si, (st, eff) in enumerate(zip(region.statements, stmt_boxes)):
        if eff is None:
            continue
        bound = None
        if native_lib is not None:
            bound = make_native_statement(native_lib, region, si, st, arrays, eff)
        if bound is None:
            bound = _BoundStatement(st, arrays, eff, region.dtype)
        out.append((bound, st, eff))
    return out


class _CheckedStatement:
    """Divergence-watchdog wrapper: scan the target after each statement.

    Installed by ``ExecutionConfig(check="nan")`` bindings around every
    runnable (fusion and native chaining are disabled there, so the
    granularity is exactly one statement).  After the inner statement
    runs, its written values are scanned; the first non-finite value
    raises :class:`~repro.errors.NumericalDivergenceError` carrying the
    plan's step counter and the statement's identity — turning "the
    simulation went NaN somewhere" into "statement X at step N".
    """

    __slots__ = ("inner", "target", "label", "owner")

    def __init__(self, inner, target: np.ndarray, label: str, owner) -> None:
        self.inner = inner
        self.target = target
        self.label = label
        self.owner = owner

    def run(self) -> None:
        self.inner.run()
        finite = np.isfinite(self.target)
        if not finite.all():
            flat_idx = int(np.argmin(finite.ravel()))
            idx = np.unravel_index(flat_idx, self.target.shape)
            value = self.target[idx]
            step = self.owner._step
            raise NumericalDivergenceError(
                f"non-finite value {value!r} first written at index "
                f"{tuple(int(i) for i in idx)} by statement {self.label} "
                f"during run #{step}",
                step=step,
                statement=self.label,
            )


class _BoundTask:
    """One schedulable task: its runnables plus optional scatter scratch.

    ``items`` are execution-ordered runnables: Python bound statements,
    native statements, or chains of consecutive native statements fused
    into one FFI call.
    """

    __slots__ = ("items", "scratch")

    def __init__(self, items, scratch=None) -> None:
        self.items = tuple(items)
        self.scratch = scratch  # {name: persistent private array} | None

    def __call__(self) -> None:
        scratch = self.scratch
        if scratch is not None:
            for buf in scratch.values():
                buf[...] = 0
        for s in self.items:
            faults.check("bound.run")
            s.run()


# -- the bound plan --------------------------------------------------------------


class BoundPlan:
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
        config = plan.config
        scatter_mode = config.scatter and config.num_threads > 1
        native_lib = (
            library_for_kernel(plan.kernel, native_thread_count(config))
            if config.backend == "native"
            else None
        )
        shard = getattr(plan, "shard", None)
        if shard is not None:
            # Shard-aware bind: the plan's statement boxes were
            # translated into local slab coordinates, so every bound
            # array must span exactly the shard's slab.  Catching a
            # mismatch here names the rank and the array instead of
            # surfacing as an opaque out-of-bounds view error.
            names = set()
            for rp in plan.region_plans:
                for st in rp.region.statements:
                    names.add(st.target.name)
                    names.update(acc.name for acc in st.reads)
            for name in sorted(names):
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
        sources: dict[str, np.ndarray] = {}

        def resolve(name: str) -> np.ndarray:
            arr = sources.get(name)
            if arr is None:
                arr = sources[name] = arrays[name]
            return arr

        # Serial configs execute through the cross-task _serial_items
        # chain; threaded/scatter configs execute through per-task
        # chains.  Pack only the variant this config's run() uses —
        # the other would be dead ctypes-array weight per bind.
        serial_mode = config.num_threads == 1
        # The divergence watchdog needs per-statement granularity:
        # chaining and fusion would hide which statement produced the
        # first non-finite value, so both stay off under check="nan".
        check_mode = config.check == "nan"
        # Per region: (tasks, barrier before it, tasks may run concurrently).
        regions: list[tuple[tuple[_BoundTask, ...], bool, bool]] = []
        flat: list = []
        meta: list = []  # (region, statement, eff box) aligned with flat
        for rp, barrier in zip(plan.region_plans, plan.barriers):
            names = {st.target.name for st in rp.region.statements}
            names.update(
                acc.name for st in rp.region.statements for acc in st.reads
            )
            local = {name: resolve(name) for name in sorted(names)}
            written = sorted(
                {st.target.name for st in rp.region.statements}
            )
            tasks = []
            for task_boxes in rp.tasks:
                if scatter_mode:
                    scratch = {
                        name: np.zeros_like(local[name]) for name in written
                    }
                    task_arrays = {**local, **scratch}
                else:
                    scratch = None
                    task_arrays = local
                stmts: list = []
                for boxes in task_boxes:
                    for bound, st, eff in _bind_unit(
                        rp.region, boxes, task_arrays, native_lib
                    ):
                        stmts.append(bound)
                        meta.append((rp.region, st, eff))
                items = (
                    stmts
                    if serial_mode or check_mode
                    else chain_runnables(native_lib, stmts)
                )
                task = _BoundTask(items, scratch)
                tasks.append(task)
                flat.extend(stmts)
            regions.append((tuple(tasks), barrier, rp.parallel))
        self._sources = sources
        self._regions = tuple(regions)
        self._flat: tuple = tuple(flat)
        # Dependence-aware fusion is a post-pass over the serial stream:
        # per-statement binds stay (counters, the reference oracle);
        # fused groups substitute contiguous slices of the
        # execution stream only.  Restricted to serial untiled native
        # bindings — the fused nests bake their geometry, so per-tile or
        # per-thread boxes would mean one compile per tile.
        self.fused_group_count = 0
        self.fused_statement_count = 0
        self._fusion_groups: tuple = ()
        self._fusion_bound: tuple[bool, ...] = ()
        # The *effective* thread count: the library's, after the OpenMP
        # probe and build-failure fallbacks, so fused binds and
        # introspection agree with what the C code actually does.
        self.native_threads = native_lib.nthreads if native_lib else 1
        stream: list = flat
        if (
            serial_mode
            and native_lib is not None
            and config.fusion != "off"
            and config.tile_shape is None
            and not scatter_mode
            and not check_mode
        ):
            stream = self._apply_fusion(flat, meta)
        # Reliability bookkeeping: the run counter feeds the divergence
        # watchdog's reports; written-array identities and their lazily
        # allocated backups implement the transactional guard.
        self._step = 0
        written_names = sorted(
            {
                st.target.name
                for rp in plan.region_plans
                for st in rp.region.statements
            }
        )
        self._written = tuple(
            sources[name] for name in written_names if name in sources
        )
        self._backups: tuple | None = None
        if check_mode:
            labels = {
                id(b): f"{st.target.name!r} of region {region.name!r}"
                for b, (region, st, _eff) in zip(flat, meta)
            }

            def _wrap(bound):
                target = (
                    bound.arrays[0]
                    if isinstance(bound, NativeStatement)
                    else bound.tview
                )
                return _CheckedStatement(bound, target, labels[id(bound)], self)

            for tasks, _barrier, _parallel in regions:
                for task in tasks:
                    task.items = tuple(_wrap(s) for s in task.items)
            stream = [_wrap(s) for s in stream]
        # Serial execution order is the flat statement order, so chain
        # across region/task boundaries: a fully native kernel runs one
        # FFI call per timestep.  (Unused — and unchained — for
        # threaded/scatter configs, whose run() goes through the tasks.)
        if serial_mode:
            self._serial_items: tuple = (
                tuple(stream)
                if check_mode
                else tuple(chain_runnables(native_lib, stream))
            )
        else:
            self._serial_items = self._flat

    def _apply_fusion(self, flat: list, meta: list) -> list:
        """Substitute fused groups into the serial execution stream.

        Plans groups over the bound statement stream (statements that
        fell back to Python, or were never lowered, enter as blocked
        singletons), then binds each multi-statement group to one
        generated nest.  A group failing a bind-time gate or its build
        keeps its original per-statement slice — fallback is per group,
        never all-or-nothing.
        """
        kernel = self.plan.kernel
        dim = len(kernel.counters)
        entries = []
        for bound, (region, st, eff) in zip(flat, meta):
            dtype_name = (
                getattr(region.dtype, "__name__", None) or str(region.dtype)
            )
            if isinstance(bound, NativeStatement):
                blocker = None
            else:
                blocker = native_eligibility(st, dim, region.dtype) or (
                    "bind-time native fallback (arrays failed a lowering gate)"
                )
            entries.append(
                FusionEntry(
                    stmt=st, box=eff, dim=dim, dtype=dtype_name, blocker=blocker
                )
            )
        groups = plan_groups(entries)
        stream: list = []
        bound_flags: list[bool] = []
        pos = 0
        for group in groups:
            n = len(group.entries)
            fused = None
            if group.fused:
                fused = make_fused_statement(
                    kernel, group.entries, self._sources,
                    nthreads=self.native_threads,
                )
            if fused is not None:
                stream.append(fused)
                self.fused_group_count += 1
                self.fused_statement_count += fused.members
                bound_flags.append(True)
            else:
                stream.extend(flat[pos:pos + n])
                bound_flags.append(False)
            pos += n
        self._fusion_groups = tuple(groups)
        self._fusion_bound = tuple(bound_flags)
        return stream

    # -- queries -----------------------------------------------------------

    @property
    def statement_count(self) -> int:
        return len(self._flat)

    @property
    def inplace_statement_count(self) -> int:
        """Statements running through the allocation-free ufunc slots."""
        return sum(1 for s in self._flat if getattr(s, "inplace", False))

    @property
    def native_statement_count(self) -> int:
        """Statements dispatched to JIT-built C (0 on the python backend)."""
        return sum(1 for s in self._flat if isinstance(s, NativeStatement))

    @property
    def sweep_count(self) -> int:
        """Memory sweeps per serial run after fusion.

        Each unfused statement is one pass over its arrays; each fused
        group is one.  Without fusion this equals ``statement_count``.
        """
        return (
            self.statement_count
            - self.fused_statement_count
            + self.fused_group_count
        )

    def fusion_explain(self) -> list[str]:
        """Human lines describing what fused and why the rest did not.

        Backs ``repro fuse --explain``.  Groups that planned fusable but
        failed a bind-time gate (aliasing arrays, a failed build) are
        annotated — they execute per-statement.
        """
        if not self._fusion_groups:
            return [
                "fusion inactive for this binding (python backend, "
                "threaded/tiled/scatter config, fusion='off', or no C "
                "toolchain)"
            ]
        lines = describe_groups(self._fusion_groups)
        for gi, (group, ok) in enumerate(
            zip(self._fusion_groups, self._fusion_bound)
        ):
            if group.fused and not ok:
                lines.append(
                    f"group {gi}: planned fusable but failed a bind-time "
                    f"gate; executing per-statement"
                )
        lines.append(
            f"sweeps per timestep: {self.sweep_count} "
            f"({self.statement_count} statements; {self.fused_group_count} "
            f"fused groups covering {self.fused_statement_count})"
        )
        return lines

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
        if self.plan.config.num_threads > 1:
            self._run_parallel()
        else:
            for s in self._serial_items:
                faults.check("bound.run")
                s.run()

    def _run_parallel(self) -> None:
        """Gather and scatter disciplines: one batch on the plan's pool.

        Parallel regions' tasks are submitted as they are reached and
        joined at the plan's barriers and at the end — for disjoint-
        write gather regions, the paper's single final join.  Other
        regions run inline on this thread *between* submissions (the
        barrier table only tracks in-flight parallel regions, so moving
        them into the batch would race).  Whatever fails, the batch is
        joined before the failure leaves the ``with`` block, so
        :meth:`run`'s transactional restore sees quiescent arrays.
        """
        config = self.plan.config
        unmerged: list[_BoundTask] = []  # scatter tasks, submission order

        def join() -> None:
            batch.join()
            for task in unmerged:
                # The deterministic merge: private scratches fold into
                # the global arrays in task-submission order.  A failure
                # here leaves the arrays partially merged — exactly the
                # state the transactional guard exists to restore, so
                # the fault point sits inside the loop.
                faults.check("scatter.merge")
                for name, buf in task.scratch.items():
                    tgt = self._sources[name]
                    np.add(tgt, buf, out=tgt)
            unmerged.clear()

        with self.plan.worker_pool(config.num_threads).batch() as batch:
            for tasks, barrier, parallel in self._regions:
                if barrier:
                    join()
                if parallel:
                    batch.submit(tasks)
                    if config.scatter:
                        unmerged.extend(tasks)
                else:
                    for task in tasks:
                        task()
            join()
