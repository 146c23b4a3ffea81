"""Batched ensemble execution: many scenarios through one bound plan.

The gather-form adjoint transformation makes each timestep of a stencil
kernel embarrassingly parallel *within* one scenario; this module adds
the next scale axis the ROADMAP calls for — many scenarios (ensemble
members: different initial conditions, different parameter values)
through the same compiled kernel at hardware speed.

An :class:`EnsemblePlan` binds one
:class:`~repro.runtime.plan.ExecutionPlan` against arrays carrying a
**leading member axis**: every array of the kernel's working set is
stacked as ``(members, *shape)``, and member ``m``'s scenario lives in
the slice ``batched[name][m]``.  All members share the compiled
statements, the plan's frozen decomposition and the scratch layout;
per-member views are resolved once at bind time through the same
machinery as :class:`~repro.runtime.bound.BoundPlan`.

Statements lower through the one degradation ladder
(:mod:`repro.runtime.decisions`), every member of a chunk at once:

* **Native** (native backend) — fused nests and per-statement C entries
  bind per member exactly as in a single-scenario run, and all
  consecutive native runnables of a chunk are sealed into one
  :class:`~repro.runtime.native.NativeProgram`: a whole chunk-timestep
  stays one C call.
* **Batched** — what reaches the python rung with a strictly
  elementwise expression (:func:`batch_safe_statement`) binds a single
  :class:`~repro.runtime.bound._BoundStatement` whose geometry is
  *batch-shifted*: the member axis becomes frame axis 0 and one ufunc
  call sweeps all members of a chunk.  On small grids this amortises
  NumPy's per-call dispatch over the whole ensemble — where the
  ensemble throughput win comes from.
* **Per-member python** — everything else (user-bound functions whose
  NumPy implementations might mix members) binds one python statement
  per member against the member's slice views.

Why per-member results are bitwise identical by construction
------------------------------------------------------------

The fused path executes the *same* lambdify-generated code on the same
per-member operand values; every operation in it is a NumPy ufunc (or a
composition of ufuncs: ``where``/``select``), and ufuncs are elementwise
— the value at output index ``(m, i, j)`` depends only on the inputs at
``(m, i, j)``, computed by the same scalar kernel regardless of the
leading extent.  Reductions over *frame* axes (reduced targets) reduce
the same operand sequence per member.  Stacking members therefore
changes operand shapes but not one per-member bit; the batched run
equals a loop of single-member runs by construction, and
``tests/test_ensemble.py`` asserts it bit for bit across apps, backends
and dtypes.  The native path inherits the native backend's own bitwise
contract unchanged, since each member binds exactly like a
single-scenario run.

Member chunks and scheduling
----------------------------

Members are split into contiguous chunks (``split_box`` over the member
range).  With ``workers == 1`` there is a single chunk — maximal
fusion, no threads.  With ``workers > 1`` the chunks (four per worker,
capped at one per member, so a slow chunk leaves slack to rebalance)
run as one batch on the member plan's
:class:`~repro.runtime.scheduler.WorkerPool` — the same pool its
threaded bindings use; chunks touch disjoint member slices, so they
need no synchronisation beyond the final join.  Results are bitwise
independent of ``workers``.

Example
-------

>>> import numpy as np
>>> from repro.apps import heat_problem
>>> from repro.core import adjoint_loops
>>> from repro.runtime import compile_nests, stack_arrays
>>> prob = heat_problem(1)
>>> kernel = compile_nests(
...     adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(8))
>>> states = [prob.allocate_state(8, seed=m) for m in range(4)]
>>> ensemble = kernel.plan().ensemble(stack_arrays(states))
>>> ensemble.run()                        # one timestep, all 4 members
>>> member0 = ensemble.member_arrays(0)   # views into the batched state
>>> single = {k: v.copy() for k, v in states[0].items()}
>>> kernel.plan().bind(single).run()
>>> bool(np.array_equal(member0["u_1_b"], single["u_1_b"]))
True
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import sympy as sp

from ..errors import EnsembleBindError, ReproError
from . import faults
from .bound import _ALLOWED_FUNCS, _BoundStatement, _BoundTask, _supports_inplace
from .compiler import CompiledAccess, CompiledStatement, KernelError
from .decisions import Ladder, Lowered, serial_stream
from .scheduler import split_box

__all__ = ["EnsemblePlan", "stack_arrays", "batch_safe_statement"]


def stack_arrays(
    member_arrays: Sequence[Mapping[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Stack per-member array dicts into one batched dict.

    Every member mapping must hold the same names with equal shapes and
    dtypes; the result maps each name to a fresh C-contiguous
    ``(members, *shape)`` array (member values are copied, so mutating
    the batched state never aliases the inputs).

    >>> import numpy as np
    >>> from repro.runtime import stack_arrays
    >>> batched = stack_arrays([{"u": np.zeros(3)}, {"u": np.ones(3)}])
    >>> batched["u"].shape
    (2, 3)
    """
    members = list(member_arrays)
    if not members:
        raise ValueError("need at least one ensemble member")
    names = sorted(members[0])
    for m, arrays in enumerate(members):
        if sorted(arrays) != names:
            raise ValueError(
                f"member {m} holds arrays {sorted(arrays)}, expected {names}"
            )
        for name in names:
            # np.stack would silently promote mixed dtypes (and raise a
            # shapeless error on ragged shapes) — and a promoted member
            # is no longer bitwise-comparable to its single-scenario
            # run, so mismatches must fail loudly here.
            arr, ref = arrays[name], members[0][name]
            if arr.dtype != ref.dtype or arr.shape != ref.shape:
                raise ValueError(
                    f"member {m} array {name!r} is "
                    f"{arr.dtype}{arr.shape}, but member 0 has "
                    f"{ref.dtype}{ref.shape}; members must match exactly"
                )
    return {name: np.stack([mem[name] for mem in members]) for name in names}


# -- batch eligibility --------------------------------------------------------

# Constructs whose lambdify-generated NumPy evaluation is strictly
# elementwise, so a leading member axis cannot change per-member bits:
# the inplace whitelist (pure ufuncs), Min/Max (pairwise
# minimum/maximum), Heaviside/DiracDelta (where/zeros_like fallbacks)
# and Piecewise with relational/boolean conditions (numpy.select).
_BATCH_FUNCS = _ALLOWED_FUNCS + (
    sp.Min,
    sp.Max,
    sp.Heaviside,
    sp.DiracDelta,
)
_BATCH_NODES = (
    sp.Add,
    sp.Mul,
    sp.Pow,
    sp.Number,
    sp.NumberSymbol,
    sp.Symbol,
    sp.Piecewise,
    sp.functions.elementary.piecewise.ExprCondPair,
    sp.core.relational.Relational,
    sp.logic.boolalg.BooleanFunction,
    sp.logic.boolalg.BooleanAtom,
)


def batch_safe_statement(stmt: CompiledStatement) -> bool:
    """True when *stmt* may evaluate with a stacked member axis.

    Conservative whitelist over the statement's substituted RHS: only
    constructs known to evaluate elementwise qualify.  User-bound
    functions (arbitrary callables that could reduce across what they
    are given) and statements compiled without an inspectable expression
    stay on the per-member path.  Memoised on the statement.
    """
    if stmt.batch_safe is None:
        ok = stmt.rhs_expr is not None
        if ok:
            for node in sp.preorder_traversal(stmt.rhs_expr):
                if isinstance(node, _BATCH_FUNCS):
                    continue
                if isinstance(node, _BATCH_NODES):
                    continue
                ok = False
                break
        stmt.batch_safe = ok
    return stmt.batch_safe


def _batch_shifted(stmt: CompiledStatement) -> CompiledStatement:
    """*stmt* with its access geometry shifted one axis right.

    Frame axis 0 becomes the member axis: every access gains a leading
    ``(0, 0)`` slot (member ``m`` of the batch maps to member ``m`` of
    every operand), existing slots and bare counters move up one axis,
    and the rank grows by one.  The eval function and expression are
    shared — only geometry changes — so
    :class:`~repro.runtime.bound._BoundStatement` binds the shifted
    statement exactly as it would a ``dim+1``-dimensional kernel.
    """

    def shift(slots: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        return ((0, 0),) + tuple((axis + 1, off) for axis, off in slots)

    _supports_inplace(stmt)  # fill the memo so the verdict transfers
    return CompiledStatement(
        target=CompiledAccess(stmt.target.name, shift(stmt.target.slots)),
        op=stmt.op,
        eval_fn=stmt.eval_fn,
        reads=tuple(
            CompiledAccess(acc.name, shift(acc.slots)) for acc in stmt.reads
        ),
        bare_axes=tuple(axis + 1 for axis in stmt.bare_axes),
        guard_box=None,  # boxes arrive pre-intersected from the plan
        dim=stmt.dim + 1,
        rhs_expr=stmt.rhs_expr,
        cse=stmt.cse,
        inplace_ok=stmt.inplace_ok,
        batch_safe=stmt.batch_safe,
    )


class EnsemblePlan(Lowered):
    """One execution plan bound against a stacked ensemble of scenarios.

    Build via :meth:`ExecutionPlan.ensemble
    <repro.runtime.plan.ExecutionPlan.ensemble>` (or directly); call
    :meth:`run` once per ensemble timestep.  The binding holds views
    into the batched array objects — like a
    :class:`~repro.runtime.bound.BoundPlan`, it stays valid while the
    caller updates values in place and must be rebuilt after replacing
    an array object.

    Parameters
    ----------
    plan:
        The member execution plan.  Any configuration works
        — a python-backend ``num_threads`` decomposition is replayed per
        member in the plan's flat serial order (ensemble parallelism
        comes from ``workers``, not from the member plan's threads);
        ``backend="native"`` dispatches member statements to JIT-built C
        and chains them across members; ``check="nan"`` watches every
        member statement.  ``transactional=True`` is rejected (a backup
        of the stacked arrays per run).
    batched:
        Mapping of array name to ``(members, *shape)`` array; every
        kernel array must be present with the same leading extent (see
        :func:`stack_arrays`).
    workers:
        Ensemble worker threads.  ``1`` (default) runs a single fused
        chunk on the calling thread; ``> 1`` splits members into
        ``min(members, 4 * workers)`` chunks run on *plan*'s worker
        pool, which every ensemble of the same plan and width shares.
    """

    def __init__(
        self,
        plan,
        batched: Mapping[str, np.ndarray],
        *,
        workers: int = 1,
    ) -> None:
        config = plan.config
        if config.transactional:
            raise KernelError(
                "ensemble execution does not support transactional=True: "
                "backing up the stacked arrays is a second full sweep per "
                "run; run members through plan.bind() for the restore "
                "guarantee, or drop the knob"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        missing = sorted(plan.kernel.array_names - set(batched))
        if missing:
            raise KernelError(
                f"batched arrays missing kernel arrays {missing}"
            )
        # Keep every provided array (callers extract full member states,
        # including arrays this kernel happens not to touch), but they
        # must all share the member axis.
        names = sorted(batched)
        extents = {name: batched[name].shape[0] if batched[name].ndim else 0
                   for name in names}
        members = min(extents.values(), default=0)
        if members < 1 or len(set(extents.values())) != 1:
            raise KernelError(
                f"batched arrays must share one leading member axis; got "
                f"extents {extents}"
            )
        self.plan = plan
        self.members = members
        self.workers = workers
        self._step = 0  # run counter, for the divergence watchdog's reports
        self._batched = {name: batched[name] for name in names}
        self._member_views = [
            {name: self._batched[name][m] for name in names}
            for m in range(members)
        ]
        chunks = 1 if workers == 1 else min(members, 4 * workers)
        # Member kernels inherit in-kernel OpenMP threading through the
        # member plan's config; with multiple ensemble workers the
        # parallelism multiplies (workers x native threads), which the
        # bitwise contract tolerates — each member's arithmetic is
        # partition-invariant — but docs/threading.md flags for cost.
        ladder = Ladder(plan, self, guard=self._member_bind)
        self.mode = ladder.mode
        # One stream object for every chunk: the ladder plans fusion
        # groups once per stream.  Member views of one stacked array
        # share strides, so every member's fused nest is one build.
        stream = serial_stream(plan)
        shifted_memo: dict[int, CompiledStatement] = {}
        # A chunk is one bound task over a contiguous member range:
        # statement order is the plan's flat serial order per member,
        # and interleaving *across* members is free (disjoint slices).
        self.chunk_members = tuple(
            span for (span,) in split_box(((0, members - 1),), chunks)
        )
        self._chunks = tuple(
            _BoundTask(
                ladder.lower(
                    stream,
                    {m: self._member_views[m] for m in range(lo, hi + 1)},
                    self._python_rung(lo, hi, shifted_memo),
                )
            )
            for lo, hi in self.chunk_members
        )
        self.decisions = tuple(ladder.decisions)

    # -- binding -----------------------------------------------------------

    @staticmethod
    def _member_bind(m, fn):
        """Bind one member, typing any failure as :class:`EnsembleBindError`.

        Per-member binding is where the ensemble first touches member
        ``m``'s slice views (and, on the native path, allocates argument
        buffers) — a failure here must name the member so the caller
        knows which scenario poisoned the batch, and must not be a bare
        ``MemoryError``/``ValueError`` from three layers down.
        """
        try:
            faults.check("ensemble.bind")
            return fn()
        except ReproError:
            raise
        except Exception as exc:
            raise EnsembleBindError(
                f"binding ensemble member {m} failed: {exc}", member=m
            ) from exc

    def _python_rung(self, lo, hi, shifted_memo):
        """The ladder's last rung for members ``lo..hi``: one batch-shifted
        statement over the chunk when the expression is elementwise,
        else one python statement per member."""

        def bind(region, _si, st, eff):
            if batch_safe_statement(st):
                shifted = shifted_memo.get(id(st))
                if shifted is None:
                    shifted = shifted_memo[id(st)] = _batch_shifted(st)
                return "batched", [
                    self._member_bind(
                        f"{lo}..{hi}",
                        lambda: _BoundStatement(
                            shifted,
                            self._batched,
                            ((lo, hi),) + tuple(eff),
                            region.dtype,
                        ),
                    )
                ]
            return "python", [
                self._member_bind(
                    m,
                    lambda m=m: _BoundStatement(
                        st, self._member_views[m], eff, region.dtype
                    ),
                )
                for m in range(lo, hi + 1)
            ]

        return bind

    # -- queries -----------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        """Schedulable member chunks (1 means fully fused, no threads)."""
        return len(self._chunks)

    @property
    def batched_statement_count(self) -> int:
        """Statements bound once per chunk, batch-shifted over its members."""
        return self._count("batched")

    @property
    def member_statement_count(self) -> int:
        """Statements bound once per member on the python path."""
        return self._count("python")

    def member_arrays(self, m: int) -> dict[str, np.ndarray]:
        """Member *m*'s working set as views into the batched arrays.

        Reading gives the member's current state; writing (in place)
        updates the ensemble.  The views stay valid for the plan's
        lifetime.
        """
        if not 0 <= m < self.members:
            raise IndexError(f"member {m} out of range [0, {self.members})")
        return dict(self._member_views[m])

    # -- execution ---------------------------------------------------------

    def run(self) -> None:
        """Advance every member by one kernel application.

        Several chunks run as one batch on the plan's worker pool, a
        single chunk inline on the calling thread.  Results are bitwise
        identical either way.
        """
        self._step += 1
        chunks = self._chunks
        if len(chunks) > 1:
            self.plan.worker_pool(self.workers).run(chunks)
        else:
            chunks[0]()

    def close(self) -> None:
        """Release the member plan's worker threads (see
        :meth:`ExecutionPlan.close <repro.runtime.plan.ExecutionPlan.close>`;
        recreated lazily on the next run)."""
        self.plan.close()

    def __enter__(self) -> "EnsemblePlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
