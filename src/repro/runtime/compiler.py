"""Kernel compiler: symbolic loop nests -> vectorised NumPy callables.

This is the reproduction's analogue of the paper's ``icc -O3 -fopenmp``
step: every :class:`~repro.core.loopnest.LoopNest` (primal stencil, adjoint
core/boundary nests, or conventional scatter adjoints) is lowered to a
:class:`RegionKernel` that executes the nest's statements as NumPy slice
arithmetic.  The evaluation frame of a kernel is the loop-nest iteration
space (one array axis per counter, outermost first); each array access
becomes a view aligned to that frame, so a statement evaluates in a single
vectorised expression per region — the Python idiom for a stencil loop.

``RegionKernel.execute`` accepts an optional sub-box of the region's
iteration space, which is how the shared-memory parallel executor
(:mod:`repro.runtime.parallel`) assigns disjoint blocks to threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

from ..codegen.base import match_derivative_call
from ..core.accesses import classify_applied, extract_access
from ..core.loopnest import LoopNest, Statement
from ..errors import KernelError
from .bindings import Bindings

__all__ = [
    "CompiledAccess",
    "CompiledStatement",
    "RegionKernel",
    "CompiledKernel",
    "compile_nests",
    "assert_disjoint_writes",
    "KernelError",
]

# KernelError used to be defined here; it now lives in repro.errors as
# part of the typed hierarchy (ReproError -> KernelError) and stays
# re-exported via __all__.  It still subclasses RuntimeError, so every
# pre-existing `except` clause keeps working.


_NUMPY_FALLBACKS = {
    # Paper semantics for the upwinding derivative: H(0) = 1 (Figure 7's
    # ``(u >= 0) ? 1.0 : 0.0``).  SymPy's own Heaviside(0) default is 1/2.
    "Heaviside": lambda x, h=None: np.where(np.asarray(x) >= 0, 1.0, 0.0),
    "DiracDelta": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
}


@dataclass(frozen=True)
class CompiledAccess:
    """An array access bound to frame axes: one ``(axis, offset)`` per slot."""

    name: str
    slots: tuple[tuple[int, int], ...]  # (frame axis, constant offset)


@dataclass
class CompiledStatement:
    """One statement of a region, ready to execute on NumPy arrays.

    Array accesses become ``__accN`` placeholders (``reads`` says which
    access each one is), and the right-hand side goes through common
    subexpression elimination exactly once:

    >>> from repro.frontend import parse_stencil
    >>> from repro.runtime import Bindings, compile_nests
    >>> nest = parse_stencil("stencil s { iterate i = 1 .. n-2"
    ...     "  u[i] += (v[i-1] + v[i+1])/(1.0 + (v[i-1] + v[i+1])) }")
    >>> kernel = compile_nests([nest], Bindings(sizes={"n": 8}), cache=False)
    >>> st = kernel.regions[0].statements[0]
    >>> st.rhs_expr
    (__acc0 + __acc1)/(__acc0 + __acc1 + 1.0)
    >>> st.cse      # what eval_fn evaluates and the C emitters print
    ([(x0, __acc0 + __acc1)], x0/(x0 + 1.0))
    """

    target: CompiledAccess
    op: str
    eval_fn: Callable
    reads: tuple[CompiledAccess, ...]
    bare_axes: tuple[int, ...]
    guard_box: tuple[tuple[int, int], ...] | None  # per frame axis, or None
    dim: int
    # Placeholder-substituted RHS the eval_fn was lambdified from; the
    # bound-execution layer (:mod:`repro.runtime.bound`) inspects it to
    # decide whether the statement can run through in-place ufunc slots.
    rhs_expr: sp.Expr | None = None
    # The statement's one CSE pass over ``rhs_expr``: ``(temporaries,
    # reduced)``.  eval_fn was lambdified from it and both C emitters
    # print it, so the Python and C paths perform the same operations
    # in the same order by construction, not by re-running the pass.
    cse: tuple | None = None
    # Lazily filled by repro.runtime.bound (memoised eligibility check).
    inplace_ok: bool | None = None
    # Lazily filled by repro.runtime.ensemble: True when the expression
    # evaluates strictly elementwise, so stacking a member axis onto the
    # operands cannot change any per-member result bit.
    batch_safe: bool | None = None


def _statement_args(
    st: CompiledStatement,
    arrays: Mapping[str, np.ndarray],
    eff: Sequence[tuple[int, int]],
    dtype,
) -> list[np.ndarray]:
    """The operands of *st*'s ``eval_fn`` over box *eff*.

    One frame view per read, then one counter array per bare axis.
    Counter values enter the expression in the kernel *dtype*: an int64
    ``arange`` would silently promote float32 math to float64
    mid-expression.
    """
    args = [_frame_view(arrays[acc.name], acc, eff, st.dim) for acc in st.reads]
    for axis in st.bare_axes:
        lo, hi = eff[axis]
        shape = [1] * st.dim
        shape[axis] = -1
        args.append(np.arange(lo, hi + 1, dtype=dtype).reshape(shape))
    return args


def _frame_view(
    arr: np.ndarray, acc: CompiledAccess, bounds: Sequence[tuple[int, int]], dim: int
) -> np.ndarray:
    """Slice *arr* for *acc* and align the axes to the iteration frame.

    Returns a view shaped so that axis ``d`` of the result corresponds to
    frame axis ``d`` where the access uses it, with length-1 axes inserted
    for frame axes the access does not use (so the view broadcasts inside
    the frame).  Raises on out-of-bounds slices (NumPy would silently wrap
    negative starts, which must never happen in a stencil kernel).
    """
    slices = []
    for slot, (axis, off) in enumerate(acc.slots):
        lo, hi = bounds[axis]
        start, stop = lo + off, hi + 1 + off
        if start < 0 or stop > arr.shape[slot]:
            raise KernelError(
                f"access {acc.name}{acc.slots} out of bounds: slot {slot} "
                f"range [{start}, {stop}) exceeds extent {arr.shape[slot]}"
            )
        slices.append(slice(start, stop))
    view = arr[tuple(slices)]
    axes = [axis for axis, _ in acc.slots]
    order = sorted(range(len(axes)), key=lambda s: axes[s])
    if order != list(range(len(axes))):
        view = np.moveaxis(view, order, range(len(axes)))
    present = sorted(axes)
    if len(present) < dim:
        shape_iter = iter(view.shape)
        new_shape = tuple(
            next(shape_iter) if d in present else 1 for d in range(dim)
        )
        view = view.reshape(new_shape)
    return view


def _target_view_and_missing(
    arr: np.ndarray, acc: CompiledAccess, bounds: Sequence[tuple[int, int]], dim: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Like :func:`_frame_view` but for write targets.

    Does not insert broadcast axes; instead returns the frame axes missing
    from the target, which the caller must reduce over (sum for ``+=``,
    last-iteration selection for ``=``).
    """
    slices = []
    for slot, (axis, off) in enumerate(acc.slots):
        lo, hi = bounds[axis]
        start, stop = lo + off, hi + 1 + off
        if start < 0 or stop > arr.shape[slot]:
            raise KernelError(
                f"write access {acc.name}{acc.slots} out of bounds: slot "
                f"{slot} range [{start}, {stop}) exceeds extent {arr.shape[slot]}"
            )
        slices.append(slice(start, stop))
    view = arr[tuple(slices)]
    axes = [axis for axis, _ in acc.slots]
    order = sorted(range(len(axes)), key=lambda s: axes[s])
    if order != list(range(len(axes))):
        view = np.moveaxis(view, order, range(len(axes)))
    missing = tuple(d for d in range(dim) if d not in axes)
    return view, missing


def _rewrite_derivative_calls(expr: sp.Expr) -> sp.Expr:
    """Replace Derivative/Subs of uninterpreted functions with named calls.

    ``Subs(Derivative(f(x, b), x), x, a)`` becomes ``f_d1(a, b)``, matching
    the call convention of the code generators, so user-supplied derivative
    implementations bind by name.
    """
    replacements = {}
    for node in expr.atoms(sp.Subs) | expr.atoms(sp.Derivative):
        call = match_derivative_call(node)
        if call is not None:
            fn = sp.Function(f"{call.func_name}_d{call.argindex}")
            replacements[node] = fn(*call.args)
    return expr.xreplace(replacements) if replacements else expr


def _compile_statement(
    stmt: Statement,
    counters: Sequence[sp.Symbol],
    bindings: Bindings,
) -> CompiledStatement:
    dim = len(counters)
    axis_of = {c: d for d, c in enumerate(counters)}

    lhs_pat = extract_access(stmt.lhs, counters)
    target = CompiledAccess(
        name=lhs_pat.name,
        slots=tuple(
            (axis_of[c], o) for c, o in zip(lhs_pat.counters, lhs_pat.offsets)
        ),
    )

    rhs = bindings.substitute(_rewrite_derivative_calls(stmt.rhs))
    accesses, _calls = classify_applied(rhs, counters)
    placeholders: list[sp.Symbol] = []
    reads: list[CompiledAccess] = []
    repl: dict[AppliedUndef, sp.Symbol] = {}
    for idx, acc in enumerate(accesses):
        ph = sp.Symbol(f"__acc{idx}")
        pat = extract_access(acc, counters)
        reads.append(
            CompiledAccess(
                name=pat.name,
                slots=tuple(
                    (axis_of[c], o) for c, o in zip(pat.counters, pat.offsets)
                ),
            )
        )
        placeholders.append(ph)
        repl[acc] = ph
    rhs_sub = rhs.xreplace(repl)

    bare = sorted(
        (s for s in rhs_sub.free_symbols if s in axis_of), key=lambda s: axis_of[s]
    )
    bare_axes = tuple(axis_of[s] for s in bare)

    leftover = rhs_sub.free_symbols - set(placeholders) - set(bare)
    if leftover:
        raise KernelError(
            f"unbound symbols {sorted(leftover, key=str)} in statement "
            f"{stmt}; bind them via Bindings.params/sizes"
        )

    modules = [dict(_NUMPY_FALLBACKS), dict(bindings.functions), "numpy"]
    # CSE shares repeated subexpressions inside the generated code.
    # Sharing an identical subexpression is bitwise-neutral (the same ops
    # on the same operands run once instead of twice), and the bound
    # execution layer relies on the op-site sequence being fixed per call.
    # Substitution can regroup a product, though (x0 = 0.2*Min(...) pulls
    # the third factor ahead of the second), so the pass runs once, here,
    # and every consumer takes its result: lambdify through its ``cse=``
    # callable, the native emitters from the statement.
    program = sp.cse(rhs_sub, list=False)
    eval_fn = sp.lambdify(
        placeholders + bare, rhs_sub, modules=modules, cse=lambda _expr: program
    )

    guard_box = None
    if stmt.guard is not None:
        guard_box = _concrete_guard_box(stmt.guard, counters, bindings)

    return CompiledStatement(
        target=target,
        op=stmt.op,
        eval_fn=eval_fn,
        reads=tuple(reads),
        bare_axes=bare_axes,
        guard_box=guard_box,
        dim=dim,
        rhs_expr=rhs_sub,
        cse=program,
    )


def _normalise_guard_cond(
    cond: sp.Basic, counters: Sequence[sp.Symbol], bindings: Bindings
) -> tuple[sp.Symbol, str, int] | None:
    """Reduce one relational guard to ``(counter, "lo"|"hi", bound)``.

    Accepts the full inequality language the pointwise interpreter
    evaluates: non-strict and strict comparisons, with the counter on
    either side.  Strict forms are normalised to inclusive integer bounds
    (``i > a`` -> ``i >= a + 1``); mirrored forms are flipped
    (``a >= i`` -> ``i <= a``).  Returns None for unsupported shapes.
    """
    if not isinstance(cond, (sp.Ge, sp.Gt, sp.Le, sp.Lt)):
        return None
    if cond.lhs in counters and not cond.rhs.free_symbols & set(counters):
        c, bound = cond.lhs, bindings.int_bound(cond.rhs)
        if isinstance(cond, sp.Ge):
            return c, "lo", bound
        if isinstance(cond, sp.Gt):
            return c, "lo", bound + 1
        if isinstance(cond, sp.Le):
            return c, "hi", bound
        return c, "hi", bound - 1
    if cond.rhs in counters and not cond.lhs.free_symbols & set(counters):
        c, bound = cond.rhs, bindings.int_bound(cond.lhs)
        if isinstance(cond, sp.Ge):  # a >= i  <=>  i <= a
            return c, "hi", bound
        if isinstance(cond, sp.Gt):  # a > i  <=>  i <= a - 1
            return c, "hi", bound - 1
        if isinstance(cond, sp.Le):  # a <= i  <=>  i >= a
            return c, "lo", bound
        return c, "lo", bound + 1  # a < i  <=>  i >= a + 1
    return None


def _concrete_guard_box(
    guard: sp.Basic, counters: Sequence[sp.Symbol], bindings: Bindings
) -> tuple[tuple[int, int], ...]:
    """Evaluate a guard condition to a concrete per-axis interval box."""
    conds = list(guard.args) if isinstance(guard, sp.And) else [guard]
    lo = {c: -np.inf for c in counters}
    hi = {c: np.inf for c in counters}
    for cond in conds:
        norm = _normalise_guard_cond(cond, counters, bindings)
        if norm is None:
            raise KernelError(f"unsupported guard condition {cond}")
        c, side, bound = norm
        if side == "lo":
            lo[c] = max(lo[c], bound)
        else:
            hi[c] = min(hi[c], bound)
    box = []
    for c in counters:
        l = int(lo[c]) if np.isfinite(lo[c]) else -(2**62)
        h = int(hi[c]) if np.isfinite(hi[c]) else 2**62
        box.append((l, h))
    return tuple(box)


def _guarded_box(
    bounds: Sequence[tuple[int, int]], st: CompiledStatement
) -> tuple[tuple[int, int], ...] | None:
    """Intersect *bounds* with *st*'s guard box; None when empty.

    The single source of truth for a statement's effective iteration
    box — used per-unit by :meth:`RegionKernel.statement_boxes` and over
    full region bounds by :meth:`RegionKernel.write_boxes` /
    :meth:`RegionKernel.read_boxes` (barrier geometry).
    """
    eff = tuple(bounds)
    if st.guard_box is not None:
        eff = tuple(
            (max(lo, glo), min(hi, ghi))
            for (lo, hi), (glo, ghi) in zip(eff, st.guard_box)
        )
    if any(lo > hi for lo, hi in eff):
        return None
    return eff


@dataclass
class RegionKernel:
    """Executable form of one loop nest (one region of an adjoint)."""

    name: str
    bounds: tuple[tuple[int, int], ...]  # inclusive, per frame axis
    statements: tuple[CompiledStatement, ...]
    dtype: type = np.float64

    @property
    def is_empty(self) -> bool:
        return any(lo > hi for lo, hi in self.bounds)

    def iteration_count(self, bounds: Sequence[tuple[int, int]] | None = None) -> int:
        bounds = self.bounds if bounds is None else bounds
        total = 1
        for lo, hi in bounds:
            total *= max(0, hi - lo + 1)
        return total

    def statement_boxes(
        self, bounds: Sequence[tuple[int, int]] | None = None
    ) -> tuple[tuple[tuple[int, int], ...] | None, ...]:
        """Guard-intersected effective box per statement over *bounds*.

        ``None`` entries mark statements whose guard excludes the whole
        box.  This is the per-execution geometry the
        :class:`~repro.runtime.plan.ExecutionPlan` precomputes once.
        """
        eff_region = self.bounds if bounds is None else tuple(bounds)
        if any(lo > hi for lo, hi in eff_region):
            return tuple(None for _ in self.statements)
        return tuple(_guarded_box(eff_region, st) for st in self.statements)

    def execute(
        self,
        arrays: Mapping[str, np.ndarray],
        bounds: Sequence[tuple[int, int]] | None = None,
    ) -> None:
        """Run the region's statements over ``bounds`` (default: full region).

        ``bounds`` must be a sub-box of the region bounds; this is what the
        parallel executor uses to hand disjoint blocks to threads.
        """
        self.execute_boxes(arrays, self.statement_boxes(bounds))

    def execute_boxes(
        self,
        arrays: Mapping[str, np.ndarray],
        stmt_boxes: Sequence[tuple[tuple[int, int], ...] | None],
    ) -> None:
        """Run the statements over precomputed per-statement boxes.

        ``stmt_boxes`` aligns with ``self.statements`` (see
        :meth:`statement_boxes`); ``None`` entries are skipped.  Execution
        plans call this directly so guard intersection happens once per
        plan instead of once per run.
        """
        for st, eff in zip(self.statements, stmt_boxes):
            if eff is None:
                continue
            self._execute_statement(st, arrays, eff)

    def _execute_statement(
        self,
        st: CompiledStatement,
        arrays: Mapping[str, np.ndarray],
        eff: tuple[tuple[int, int], ...],
    ) -> None:
        rhs = st.eval_fn(*_statement_args(st, arrays, eff, self.dtype))
        tview, missing = _target_view_and_missing(
            arrays[st.target.name], st.target, eff, st.dim
        )
        if missing:
            if st.op == "+=":
                rhs = np.asarray(rhs).sum(axis=missing)
            else:
                sel = tuple(
                    -1 if d in missing else slice(None) for d in range(st.dim)
                )
                rhs = np.broadcast_to(
                    np.asarray(rhs), tuple(hi - lo + 1 for lo, hi in eff)
                )[sel]
        rhs = np.asarray(rhs)
        if rhs.dtype != tview.dtype:
            rhs = rhs.astype(tview.dtype)
        if st.op == "+=":
            tview += rhs
        else:
            tview[...] = rhs

    def write_boxes(self) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
        """Concrete index boxes written by each statement (array space)."""
        out = []
        for st in self.statements:
            eff = _guarded_box(self.bounds, st)
            if eff is None:
                continue
            box = tuple(
                (eff[axis][0] + off, eff[axis][1] + off)
                for axis, off in st.target.slots
            )
            out.append((st.target.name, box))
        return out

    def read_boxes(self) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
        """Concrete index boxes read by each statement (array space).

        The counterpart of :meth:`write_boxes`; the execution plan uses
        both to decide where a barrier is required between regions whose
        tasks would otherwise be in flight simultaneously (a region that
        reads what an earlier region writes must wait for it).
        """
        out = []
        for st in self.statements:
            eff = _guarded_box(self.bounds, st)
            if eff is None:
                continue
            for acc in st.reads:
                box = tuple(
                    (eff[axis][0] + off, eff[axis][1] + off)
                    for axis, off in acc.slots
                )
                out.append((acc.name, box))
        return out


@dataclass
class CompiledKernel:
    """A sequence of region kernels implementing a full computation."""

    name: str
    regions: tuple[RegionKernel, ...]
    counters: tuple[sp.Symbol, ...]
    _plans: dict = field(default_factory=dict, repr=False, compare=False)
    # {nthreads: (NativeLibrary | None, ladder verdict)} memo filled by
    # runtime.native (1 is the serial library), valid for the toolchain
    # `_native_cc`.
    _native: dict | None = field(default=None, repr=False, compare=False)
    _native_cc: str | None = field(default=None, repr=False, compare=False)
    # Loaded fused nests by (group, strides, threads, cc, flags), filled
    # by runtime.native.make_fused_statement.
    _fused: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, arrays: Mapping[str, np.ndarray]) -> None:
        # Shorthand for the one execution route: the default serial
        # plan, bound (and memoised) against *arrays*, then run.
        self.plan().run(arrays)

    def total_iterations(self) -> int:
        return sum(rk.iteration_count() for rk in self.regions)

    def release(self) -> None:
        """Drop the plan, native-library and fused-nest memos.

        Called by every owner that drops the kernel (a cache evicting or
        clearing it, the server evicting or closing): each plan refers
        back to its kernel, so without this a dropped kernel and all it
        built are freed only by a full garbage collection.  A kernel
        still in use stays correct — it plans and loads again on demand.
        """
        self._plans = {}
        self._native = None
        self._fused = {}

    @cached_property
    def array_names(self) -> frozenset[str]:
        """Every array the kernel's statements read or write — what a
        binding of any tier must supply."""
        return frozenset(
            name
            for region in self.regions
            for st in region.statements
            for name in (st.target.name, *(acc.name for acc in st.reads))
        )

    def plan(self, **config) -> "ExecutionPlan":
        """The cached :class:`~repro.runtime.plan.ExecutionPlan` for a config.

        *config* holds :class:`~repro.runtime.plan.ExecutionConfig`
        fields (``backend``, ``num_threads`` for the python backend's
        worker pool, ``native_threads`` for the native backend's OpenMP
        nests, ... — documented and validated there).
        Plans precompute guard boxes and thread blocks once;
        repeated calls with an equal configuration return the same plan
        object, so every timestep of a run reuses the decomposition.
        """
        from .plan import ExecutionConfig, ExecutionPlan  # avoids cycle

        key = ExecutionConfig(**config)
        plan = self._plans.get(key)
        if plan is None:
            plan = ExecutionPlan.build(self, key)
            self._plans[key] = plan
        return plan


def _compile_nests_uncached(
    nests: Sequence[LoopNest],
    bindings: Bindings,
    name: str,
    counters: tuple[sp.Symbol, ...],
) -> CompiledKernel:
    regions = []
    for nest in nests:
        bounds = tuple(
            (bindings.int_bound(nest.bounds[c][0]), bindings.int_bound(nest.bounds[c][1]))
            for c in counters
        )
        stmts = tuple(
            _compile_statement(st, counters, bindings) for st in nest.statements
        )
        regions.append(
            RegionKernel(
                name=nest.name or name,
                bounds=bounds,
                statements=stmts,
                dtype=bindings.dtype,
            )
        )
    return CompiledKernel(name=name, regions=tuple(regions), counters=counters)


def compile_nests(
    nests: Sequence[LoopNest],
    bindings: Bindings,
    name: str = "kernel",
    cache: "KernelCache | bool | None" = None,
) -> CompiledKernel:
    """Compile loop nests sharing one counter frame into a kernel.

    Compilation (SymPy printing + ``exec`` via ``lambdify``) dominates
    small-kernel run time, so results are memoised in a content-addressed
    cache: calling again with structurally equal nests, equal bindings and
    the same name returns the identical :class:`CompiledKernel` object.

    ``cache`` selects the cache: ``None`` (default) uses the process-wide
    cache, a :class:`~repro.runtime.cache.KernelCache` instance uses that
    cache, and ``False`` bypasses caching entirely.
    """
    nests = list(nests)
    if not nests:
        raise KernelError("no loop nests to compile")
    counters = nests[0].counters
    for nest in nests:
        if nest.counters != counters:
            raise KernelError("all nests of a kernel must share their counters")
    if cache is False:
        return _compile_nests_uncached(nests, bindings, name, counters)
    from .cache import get_kernel_cache, kernel_key  # avoids import cycle

    store = get_kernel_cache() if cache is None or cache is True else cache
    key = kernel_key(nests, bindings, name=name)
    return store.get_or_compile(
        key, lambda: _compile_nests_uncached(nests, bindings, name, counters)
    )


def _boxes_overlap(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> bool:
    return all(alo <= bhi and blo <= ahi for (alo, ahi), (blo, bhi) in zip(a, b))


def assert_disjoint_writes(kernel: CompiledKernel) -> None:
    """Verify that no two *regions* write overlapping index boxes.

    This is the property that lets the adjoint stencil run without any
    synchronisation between region loop nests (Section 3.3.4).  Violations
    indicate a grid too small for the disjoint split (each dimension must
    be at least as wide as the stencil's offset spread) or a transformation
    bug.  Raises :class:`KernelError` on overlap.
    """
    per_region: list[list[tuple[str, tuple[tuple[int, int], ...]]]] = [
        rk.write_boxes() if not rk.is_empty else [] for rk in kernel.regions
    ]
    for ia in range(len(per_region)):
        for ib in range(ia + 1, len(per_region)):
            for name_a, box_a in per_region[ia]:
                for name_b, box_b in per_region[ib]:
                    if name_a == name_b and _boxes_overlap(box_a, box_b):
                        raise KernelError(
                            f"regions {kernel.regions[ia].name!r} and "
                            f"{kernel.regions[ib].name!r} both write "
                            f"{name_a} on overlapping boxes {box_a} / {box_b}"
                        )
