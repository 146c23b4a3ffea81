"""Precomputed execution plans: decompose once, bind once, run many.

The paper's measured workflow fixes the execution configuration (thread
count, problem size) once and then runs the compiled kernel for every
timestep and repetition.  Redoing the per-run bookkeeping — guard-box
intersection, the partition verdict, thread blocking — inside every
call would dominate small-grid steps.

An :class:`ExecutionPlan` is built once per ``(kernel, ExecutionConfig)``
(PyOP2's parallel-plan idea): it freezes the full work decomposition —
per-region thread tasks, each one box with its guard-intersected
statement boxes — for serial and threaded configurations alike.
Plans are memoised on the kernel via
:meth:`~repro.runtime.compiler.CompiledKernel.plan`.

There is one route to the machine: ``kernel.plan(...)`` →
:meth:`ExecutionPlan.bind` → :meth:`BoundPlan.run()
<repro.runtime.bound.BoundPlan.run>` (PyOP2's plan/bind split).  Binding
materialises all views, counter arrays and scratch once, and steady-
state runs touch only compute.  :meth:`ExecutionPlan.run` is that route
with the binding memoised per arrays identity (bounded, identity-
validated), for callers that hold an arrays dict rather than a binding.
:meth:`ExecutionPlan.run_unbound` is not a second route but the
allocating serial *reference* the bound path is bitwise-verified
against.

Regions whose tasks would race — a region reading or overwriting what an
earlier, still-in-flight region writes — are separated by barriers
computed at build time from concrete read/write boxes; disjoint-write
regions (the Section 3.3.4 property) still all run with a single final
join, exactly as the paper's "no additional synchronisation barriers"
describes.

Results are bitwise identical to the serial path at every thread
count: a region is split into tasks along axis 0 only when
:func:`~repro.core.fusion.parallel_safe_group` — the rule that also
decides whether an OpenMP C nest is threaded — admits its statements,
so tasks write disjoint locations and read nothing a sibling writes.
Any other region (the conventional scatter adjoint's, for one) runs as
one task.
"""

from __future__ import annotations

import operator
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.fusion import FusionEntry, parallel_safe_group
from ..errors import ValidationError
from .compiler import CompiledKernel, RegionKernel, _boxes_overlap
from .scheduler import WorkerPool, split_box

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .bound import BoundPlan

__all__ = [
    "ExecutionConfig",
    "ExecutionPlan",
    "ShardSpec",
]

Box = tuple[tuple[int, int], ...]
StmtBoxes = tuple[Box | None, ...]

# How many (arrays-identity -> BoundPlan) entries one plan retains.  A
# binding holds views (strong references) into its arrays, so the memo
# is deliberately small: steady-state callers reuse one arrays dict and
# hit the first entry forever; one-shot callers churn through and evict.
# (A weak-keyed mapping is not possible here: plain dicts — the usual
# arrays container — cannot be weak-referenced, so the memo validates
# array identity on every hit instead.)
_BOUND_MEMO_SIZE = 2


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything that selects an execution discipline for a kernel.

    One thread knob per backend.  ``num_threads`` > 1 runs the python
    backend thread-parallel on the plan's worker pool, splitting axis 0
    of each region :func:`~repro.core.fusion.parallel_safe_group` admits
    into race-free blocks; the native backend refuses it with a
    :class:`ValueError` and takes ``native_threads`` instead.
    ``min_block_iterations`` keeps tiny regions on the submitting thread.
    ``backend`` selects how bound statements execute: ``"python"`` runs
    the in-place NumPy slot tape, ``"native"`` dispatches eligible
    statements to JIT-built C (:mod:`repro.runtime.native`), falling
    back statement-wise — and entirely, with one warning, when no C
    toolchain exists — to the python path with identical results.
    ``fusion`` controls the native backend's dependence-aware statement
    fusion (:mod:`repro.core.fusion`): ``"auto"`` (default) merges
    fusable statement chains of native bindings into single C loop
    nests, ``"off"`` pins the per-statement path (the bitwise reference
    oracle).  The setting is inert for the python backend and for
    watchdog plans — one mode gate decides
    (:func:`repro.runtime.decisions.lowering_mode`) and a binding's
    ``explain()`` names the reason.

    Two opt-in reliability knobs (see ``docs/reliability.md``), both
    default-off because each costs a memory sweep the fused hot path
    cannot afford:

    ``check="nan"`` arms the divergence watchdog: serial bindings run
    statement-by-statement (fusion and native chaining are disabled to
    keep the granularity) and the first non-finite value raises
    :class:`~repro.errors.NumericalDivergenceError` naming the step and
    statement.  ``transactional=True`` makes a bound ``run()`` restore
    every written array to its pre-call contents when a statement
    raises mid-run, so user arrays are never left half-updated.
    Ensembles (``plan.ensemble``, and the checkpointed and served tiers
    built on them) honour ``check="nan"`` exactly like a bound plan —
    the error's statement label names the member — and refuse
    ``transactional=True`` with a
    :class:`~repro.runtime.compiler.KernelError` at construction: a
    per-run backup of the stacked arrays is a second full sweep.

    ``native_threads`` sets how many OpenMP threads the native
    backend's C loop nests use (``docs/threading.md``): ``None``
    (default) defers to the ``REPRO_NATIVE_THREADS`` environment
    variable at bind time, an explicit integer pins the count and wins
    over the environment.  Results are bitwise identical to the serial
    native path at every count; the knob is inert for the python
    backend and resolves to serial for watchdog plans (see
    :func:`repro.runtime.native.native_thread_count`).

    Invalid values raise :class:`ValueError` here.

    >>> from repro.runtime import ExecutionConfig
    >>> ExecutionConfig(backend="native", native_threads=2).native_threads
    2
    >>> ExecutionConfig(backend="native", num_threads=2)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    ValueError: num_threads=2 runs the python worker pool, ... native_threads=2 ...
    >>> ExecutionConfig(backend="fortran")
    Traceback (most recent call last):
        ...
    ValueError: backend must be 'python' or 'native', got 'fortran'
    >>> ExecutionConfig(check="inf")
    Traceback (most recent call last):
        ...
    ValueError: check must be 'none' or 'nan', got 'inf'
    """

    num_threads: int = 1
    min_block_iterations: int = 1024
    backend: str = "python"
    fusion: str = "auto"
    check: str = "none"
    transactional: bool = False
    native_threads: int | None = None

    def __post_init__(self) -> None:
        for name in ("num_threads", "native_threads", "min_block_iterations"):
            value = getattr(self, name)
            if value is None and name == "native_threads":
                continue  # the environment decides at bind time
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {value!r}"
                ) from None
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        if self.backend not in ("python", "native"):
            raise ValueError(
                f"backend must be 'python' or 'native', got {self.backend!r}"
            )
        if self.backend == "native" and self.num_threads > 1:
            raise ValueError(
                f"num_threads={self.num_threads} runs the python worker "
                f"pool, which the native backend does not use; set "
                f"native_threads={self.num_threads} for OpenMP-threaded C "
                f"loop nests"
            )
        if self.fusion not in ("auto", "off"):
            raise ValueError(
                f"fusion must be 'auto' or 'off', got {self.fusion!r}"
            )
        if self.check not in ("none", "nan"):
            raise ValueError(
                f"check must be 'none' or 'nan', got {self.check!r}"
            )


@dataclass(frozen=True)
class RegionPlan:
    """Frozen decomposition of one region under one config.

    ``tasks`` is the parallel dimension: each task is the per-statement
    guard-intersected boxes of one block, executed by one worker.
    ``parallel`` marks whether the tasks may run concurrently; serial
    regions (too small, or refused by
    :func:`~repro.core.fusion.parallel_safe_group`) hold a single task.
    """

    region: RegionKernel
    tasks: tuple[StmtBoxes, ...]
    parallel: bool


def _group_boxes(
    named_boxes: Sequence[tuple[str, Box]],
) -> dict[str, list[Box]]:
    out: dict[str, list[Box]] = {}
    for name, box in named_boxes:
        out.setdefault(name, []).append(box)
    return out


def _any_overlap(a: dict[str, list[Box]], b: dict[str, list[Box]]) -> bool:
    for name, boxes in a.items():
        other = b.get(name)
        if not other:
            continue
        for box_a in boxes:
            for box_b in other:
                if _boxes_overlap(box_a, box_b):
                    return True
    return False


@dataclass(frozen=True)
class ShardSpec:
    """One rank's slice of a block decomposition along frame axis 0.

    ``[own_lo, own_hi]`` are the rows this rank owns, in **global**
    coordinates.  ``slab_lo`` is the global row that local row 0 of the
    rank's slab (owned rows plus halo ghosts) maps to, and
    ``slab_extent`` is the slab's total axis-0 length.  Building a plan
    with a shard clamps every region's axis-0 bounds to the owned rows
    *before* guard intersection (guards are written in global
    coordinates), then translates the resulting statement boxes by
    ``-slab_lo`` into local slab coordinates, ready to bind against
    slab-sized arrays.

    >>> ShardSpec(rank=1, own_lo=4, own_hi=7, slab_lo=3, slab_extent=6)
    ShardSpec(rank=1, own_lo=4, own_hi=7, slab_lo=3, slab_extent=6)
    """

    rank: int
    own_lo: int
    own_hi: int
    slab_lo: int
    slab_extent: int

    def __post_init__(self) -> None:
        if self.own_lo > self.own_hi:
            raise ValidationError(
                f"shard rank {self.rank} owns no rows: "
                f"own_lo {self.own_lo} > own_hi {self.own_hi}"
            )
        if not 0 <= self.slab_lo <= self.own_lo:
            raise ValidationError(
                f"shard rank {self.rank}: slab_lo {self.slab_lo} must lie "
                f"in [0, own_lo={self.own_lo}]"
            )
        if self.slab_extent < self.own_hi - self.slab_lo + 1:
            raise ValidationError(
                f"shard rank {self.rank}: slab extent {self.slab_extent} "
                f"is too small to hold rows "
                f"[{self.slab_lo}, {self.own_hi}]"
            )


def _shift_boxes(stmt_boxes: StmtBoxes, shift: int) -> StmtBoxes:
    """Translate every statement box's axis 0 by ``-shift``."""
    if not shift:
        return stmt_boxes
    return tuple(
        None
        if box is None
        else ((box[0][0] - shift, box[0][1] - shift),) + box[1:]
        for box in stmt_boxes
    )


class ExecutionPlan:
    """A kernel frozen together with its full work decomposition.

    Build via :meth:`CompiledKernel.plan` (memoised) or
    :meth:`ExecutionPlan.build`; execute with :meth:`run` (which binds
    and memoises per arrays identity) or hold a long-lived binding
    explicitly via :meth:`bind`.  The plan owns the worker pools its
    threaded bindings and its ensembles borrow (see
    :meth:`worker_pool`).

    >>> from repro import heat_problem
    >>> from repro.runtime import compile_nests
    >>> prob = heat_problem(1)
    >>> kernel = compile_nests([prob.primal], prob.bindings(32))
    >>> plan = kernel.plan(num_threads=2, min_block_iterations=1)
    >>> plan.task_count, plan.unit_count
    (2, 2)
    >>> kernel.plan(num_threads=2, min_block_iterations=1) is plan
    True
    """

    def __init__(
        self,
        kernel: CompiledKernel,
        config: ExecutionConfig,
        region_plans: tuple[RegionPlan, ...],
        shard: ShardSpec | None = None,
    ):
        self.kernel = kernel
        self.config = config
        self.region_plans = region_plans
        self.shard = shard
        self.barriers = self._compute_barriers(region_plans)
        # Plans memoised on cached kernels can outlive their users; the
        # finalizer releases whatever worker threads exist when the plan
        # itself is collected (e.g. on kernel-cache eviction).
        self._pools: dict[int, WorkerPool] = {}
        weakref.finalize(self, _close_pools, self._pools)
        self._bound_memo: OrderedDict[int, "BoundPlan"] = OrderedDict()
        # Guards the memo and pool bookkeeping: plans are memoised per
        # kernel, so one plan may be run from several threads (on their
        # own arrays).
        self._memo_lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        kernel: CompiledKernel,
        config: ExecutionConfig,
        shard: ShardSpec | None = None,
    ) -> "ExecutionPlan":
        region_plans = []
        for region in kernel.regions:
            if region.is_empty:
                continue
            if shard is None:
                region_plans.append(cls._plan_region(region, config))
                continue
            lo, hi = region.bounds[0]
            lo, hi = max(lo, shard.own_lo), min(hi, shard.own_hi)
            if lo > hi:  # this rank owns none of the region's rows
                continue
            if shard.slab_lo and any(
                0 in st.bare_axes for st in region.statements
            ):
                raise ValidationError(
                    f"kernel {kernel.name!r} region {region.name!r} uses "
                    f"the axis-0 loop counter as a value; sharding "
                    f"translates axis 0 into local slab coordinates "
                    f"(offset {shard.slab_lo}), which would change the "
                    f"counter's value"
                )
            bounds = ((lo, hi),) + tuple(region.bounds[1:])
            region_plans.append(
                cls._plan_region(
                    region, config, bounds=bounds, shift=shard.slab_lo
                )
            )
        return cls(kernel, config, tuple(region_plans), shard=shard)

    @staticmethod
    def _plan_region(
        region: RegionKernel,
        config: ExecutionConfig,
        bounds: Box | None = None,
        shift: int = 0,
    ) -> RegionPlan:
        root: Box = region.bounds if bounds is None else bounds
        parallel = (
            config.num_threads > 1
            and region.iteration_count(root) >= config.min_block_iterations
            and parallel_safe_group([
                FusionEntry(st, root, len(root), np.dtype(region.dtype).name)
                for st in region.statements
            ]) is None
        )
        blocks = [root]
        if parallel:
            blocks = split_box(root, config.num_threads, axis=0)
        tasks = tuple(
            _shift_boxes(region.statement_boxes(block), shift) for block in blocks
        )
        return RegionPlan(region, tasks, parallel=parallel)

    @staticmethod
    def _compute_barriers(region_plans: tuple[RegionPlan, ...]) -> tuple[bool, ...]:
        """Where a region must wait for earlier regions' in-flight tasks.

        Uses concrete per-array read/write boxes: a barrier is needed
        before region B when B writes what an in-flight region reads or
        writes, or B reads what an in-flight region writes.  Name-level
        sharing with *disjoint* boxes (the PerforAD adjoint regions all
        writing disjoint slices of one adjoint array) does not barrier,
        preserving the paper's single final join for gather kernels.
        Serial (inline) regions respect the same barriers — running one
        on the submitting thread while a conflicting future is still
        writing was the read-after-write hazard this fixes.
        """
        barriers: list[bool] = []
        inflight_w: dict[str, list[Box]] = {}
        inflight_r: dict[str, list[Box]] = {}
        for rp in region_plans:
            writes = _group_boxes(rp.region.write_boxes())
            reads = _group_boxes(rp.region.read_boxes())
            need = bool(inflight_w or inflight_r) and (
                _any_overlap(writes, inflight_w)
                or _any_overlap(writes, inflight_r)
                or _any_overlap(reads, inflight_w)
            )
            if need:
                inflight_w.clear()
                inflight_r.clear()
            barriers.append(need)
            if rp.parallel:
                for name, boxes in writes.items():
                    inflight_w.setdefault(name, []).extend(boxes)
                for name, boxes in reads.items():
                    inflight_r.setdefault(name, []).extend(boxes)
        return tuple(barriers)

    # -- queries -----------------------------------------------------------

    @property
    def task_count(self) -> int:
        """Total number of schedulable tasks across regions."""
        return sum(len(rp.tasks) for rp in self.region_plans)

    @property
    def unit_count(self) -> int:
        """Work units executed per run: one box per task, so
        :attr:`task_count` (kept for the benchmark's per-layer record)."""
        return self.task_count

    # -- binding -----------------------------------------------------------

    def bind(self, arrays: Mapping[str, np.ndarray]) -> "BoundPlan":
        """Resolve this plan against concrete arrays (see :mod:`.bound`).

        Hold the result for steady-state loops: repeated
        :meth:`~repro.runtime.bound.BoundPlan.run` calls perform no
        per-call geometry work and (after warm-up) no array allocations.
        Rebind after replacing any array *object* in the mapping.

        >>> from repro import heat_problem
        >>> from repro.runtime import compile_nests
        >>> prob = heat_problem(1)
        >>> kernel = compile_nests([prob.primal], prob.bindings(16))
        >>> arrays = prob.allocate(16)
        >>> bound = kernel.plan().bind(arrays)
        >>> for _ in range(100):   # steady state: no per-call rebinding
        ...     bound.run()
        >>> bound.matches(arrays)
        True
        """
        from .bound import BoundPlan  # avoids cycle

        return BoundPlan(self, arrays)

    def bound_for(self, arrays: Mapping[str, np.ndarray]) -> "BoundPlan":
        """The memoised binding for *arrays*, rebinding when stale.

        Keyed by mapping identity and validated against the actual array
        objects on every hit, so replacing an array in the dict — or an
        id-reused new dict — transparently rebinds.  The memo keeps the
        binding (and therefore the arrays) alive; it is bounded to
        ``_BOUND_MEMO_SIZE`` entries, evicting least-recently-used.
        """
        key = id(arrays)
        memo = self._bound_memo
        with self._memo_lock:
            bound = memo.get(key)
            if bound is not None:
                if bound.matches(arrays):
                    memo.move_to_end(key)
                    return bound
                del memo[key]
        # Bind outside the lock: binding a large kernel is slow and must
        # not stall concurrent steady-state runners of this plan.
        fresh = self.bind(arrays)
        with self._memo_lock:
            bound = memo.get(key)
            if bound is not None and bound.matches(arrays):
                return bound  # a racing caller bound the same arrays first
            memo[key] = fresh
            memo.move_to_end(key)
            while len(memo) > _BOUND_MEMO_SIZE:
                memo.popitem(last=False)
        return fresh

    def ensemble(
        self,
        batched: Mapping[str, np.ndarray],
        *,
        workers: int = 1,
    ) -> "EnsemblePlan":
        """Bind this plan against a stacked ensemble of scenarios.

        *batched* maps each kernel array to a ``(members, *shape)``
        array (see :func:`~repro.runtime.ensemble.stack_arrays`); the
        returned :class:`~repro.runtime.ensemble.EnsemblePlan` advances
        all members per :meth:`~repro.runtime.ensemble.EnsemblePlan.run`
        call, bitwise identical to looping single-member bound plans.

        >>> import numpy as np
        >>> from repro.apps import heat_problem
        >>> from repro.core import adjoint_loops
        >>> from repro.runtime import compile_nests, stack_arrays
        >>> prob = heat_problem(1)
        >>> kernel = compile_nests(
        ...     adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(8))
        >>> batched = stack_arrays(
        ...     [prob.allocate_state(8, seed=m) for m in range(3)])
        >>> ensemble = kernel.plan().ensemble(batched)
        >>> ensemble.run()
        >>> ensemble.members
        3
        """
        from .ensemble import EnsemblePlan  # avoids cycle

        return EnsemblePlan(self, batched, workers=workers)

    def checkpointed_adjoint(
        self,
        reverse_plan: "ExecutionPlan",
        shape: tuple[int, ...],
        *,
        steps: int,
        snaps: int,
        **kwargs,
    ) -> "CheckpointedAdjointPlan":
        """Bind this (forward) plan and *reverse_plan* into a revolve-
        checkpointed adjoint time loop (see :mod:`.checkpoint`).

        The returned :class:`~repro.runtime.checkpoint.CheckpointedAdjointPlan`
        executes the optimal binomial schedule for ``steps`` time steps
        with ``snaps`` resident snapshots, entirely through bound plan
        runs — memory O(snaps), zero steady-state allocations, bitwise
        identical to its store-all reference.  Keyword options (field
        names, constants, dtype, ensemble ``members``) are documented
        on the class.

        >>> import numpy as np
        >>> from repro import adjoint_loops, heat_problem
        >>> from repro.runtime import compile_nests
        >>> prob = heat_problem(1)
        >>> fwd = compile_nests([prob.primal], prob.bindings(16))
        >>> rev = compile_nests(
        ...     adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(16))
        >>> chk = fwd.plan().checkpointed_adjoint(
        ...     rev.plan(), prob.array_shape(16), steps=5, snaps=2)
        >>> chk.evaluation_cost  # provably minimal primal evaluations
        11
        """
        from .checkpoint import CheckpointedAdjointPlan  # avoids cycle

        return CheckpointedAdjointPlan(
            self, reverse_plan, shape, steps=steps, snaps=snaps, **kwargs
        )

    # -- execution ---------------------------------------------------------

    def run(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Execute the planned kernel on *arrays*: bind (memoised) and run.

        One entry point for all disciplines; which one runs was fixed at
        plan-build time by the :class:`ExecutionConfig`.  The first call
        on an arrays dict binds it (see :meth:`bound_for`); every later
        call on the same intact dict replays the allocation-free
        steady-state path — so timestep loops that reuse their arrays
        pay the bind once.

        >>> import numpy as np
        >>> from repro import heat_problem
        >>> from repro.runtime import compile_nests
        >>> prob = heat_problem(1)
        >>> kernel = compile_nests([prob.primal], prob.bindings(16))
        >>> arrays = prob.allocate(16)
        >>> check = {k: v.copy() for k, v in arrays.items()}
        >>> plan = kernel.plan()
        >>> for _ in range(3):     # binds on the first call
        ...     plan.run(arrays)
        >>> for _ in range(3):
        ...     plan.run_unbound(check)    # the allocating reference
        >>> all(np.array_equal(arrays[k], check[k]) for k in arrays)
        True
        """
        self.bound_for(arrays).run()

    def run_unbound(self, arrays: Mapping[str, np.ndarray]) -> None:
        """The allocating reference: per-call views and temporaries.

        Executes the plan's decomposition serially, in task order, with
        no binding and no threads — the baseline the bound path is
        benchmarked (and bitwise-verified) against.  Serial execution
        defines the same bits as threaded runs: the tasks of a split
        region write disjoint boxes and read nothing a sibling writes.
        """
        for rp in self.region_plans:
            for boxes in rp.tasks:
                rp.region.execute_boxes(arrays, boxes)

    # -- pool lifecycle ----------------------------------------------------

    def worker_pool(self, width: int) -> WorkerPool:
        """This plan's pool of *width* workers, created on first use.

        Every binding of the plan borrows it — threaded bound plans at
        ``config.num_threads``, ensembles at their
        ``workers`` — one :class:`~repro.runtime.scheduler.Batch` per
        run.  Called from ``run()`` only, never at build or bind time:
        ``ShardedPlan`` forks after binding, and threads do not survive
        a fork.
        """
        with self._memo_lock:
            pool = self._pools.get(width)
            if pool is None:
                pool = self._pools[width] = WorkerPool(width)
        return pool

    def close(self) -> None:
        """Shut down the plan's worker pools and drop memoised bindings.

        The pools otherwise live as long as the plan — which, for plans
        memoised via :meth:`CompiledKernel.plan` on a cached kernel, can
        be the whole process.  Call ``close`` (or use the plan as a
        context manager) when a burst of runs is over; pools are
        lazily recreated on the next run.  Dropping the bind memo also
        releases the references it holds to bound arrays.
        """
        with self._memo_lock:
            self._bound_memo.clear()
        _close_pools(self._pools)

    def __enter__(self) -> "ExecutionPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _close_pools(pools: dict[int, WorkerPool]) -> None:
    while pools:
        pools.popitem()[1].close()
