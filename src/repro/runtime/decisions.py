"""The degradation ladder: which rung each statement binds to, and why.

Every tier lands on a rung of one ladder — fused C nest, per-statement
C, python slot tape — bitwise identical at each; this module is the one
place that decides which (``docs/reliability.md``).  :func:`lowering_mode`
is the mode gate (what a binding may do, each "off" with its reason),
:func:`array_gate` checks concrete arrays against what generated C
assumes, :class:`Ladder` lowers a statement stream against one or more
array sets (one for a ``BoundPlan``, one per member for an
``EnsemblePlan`` chunk), and every decision leaves a :class:`Verdict`:
:class:`Lowered` derives counters and ``explain()`` from those records,
:func:`degraded` is their warning view.  One rung sits above the
ladder: a checkpointed sweep whose bindings are native throughout runs
as one C program instead of one bound run per schedule action
(:func:`program_gate` for the bindings, :func:`memory_gate` for the
buffers its copies touch).

>>> from repro.runtime import ExecutionConfig
>>> from repro.runtime.decisions import lowering_mode
>>> lowering_mode(ExecutionConfig(backend="native", check="nan")).fuse_off
"check='nan' needs per-statement granularity"
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from ..codegen.native_c import native_eligibility
from ..core.fusion import FusionEntry, FusionGroup, describe_groups, plan_groups
from ..errors import NativeBuildError, NumericalDivergenceError

# Mutual import, resolved at call time on both sides: native.py reports
# its library rung through Verdict/degraded and shares array_gate; the
# ladder binds through native's builders.
from . import native

__all__ = [
    "Verdict", "Mode", "Ladder", "Lowered", "lowering_mode", "array_gate",
    "program_gate", "memory_gate", "degraded", "serial_stream", "task_stream",
]


@dataclass(frozen=True)
class Verdict:
    """One decision: *subject* landed on *rung*; *reason* is why not faster.

    ``statements`` source statements are covered as ``count`` bound
    instances (x array sets; a batch-shifted statement is one).
    """

    subject: str
    rung: str
    reason: str | None = None
    statements: int = 1
    count: int = 1
    group: FusionGroup | None = field(default=None, repr=False, compare=False)


_warned_lock = threading.Lock()
_warned: set[str] = set()


def degraded(
    subject: str, rung: str, reason: str, *, key: str, seen: set | None = None
) -> Verdict:
    """A degradation verdict, announced as one ``RuntimeWarning(reason)``
    per *key* in *seen* (process-wide by default; a plan passes its own
    set).  Check-then-add is atomic: bind threads race their fallbacks."""
    with _warned_lock:
        if seen is None:
            seen = _warned
        fresh = key not in seen
        seen.add(key)
    if fresh:
        warnings.warn(reason, RuntimeWarning, stacklevel=3)
    return Verdict(subject, rung, reason)


def _reset_warnings() -> None:
    """Test hook: make the next process-wide degradation warn again."""
    with _warned_lock:
        _warned.clear()


# -- the mode gate ---------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    """What a binding may do; each ``*_off`` is None (on) or the reason.

    ``threads`` is the OpenMP width of native code.
    """

    threads: int
    native_off: str | None
    chain_off: str | None
    fuse_off: str | None
    watch_off: str | None


def lowering_mode(config, library: Verdict | None = None) -> Mode:
    """The mode gate: what a binding of *config* may lower to.

    *library* is the library rung's verdict (None: assume it loads).
    The watchdog and a library that did not load threaded pin the
    native width to 1.
    """
    threads = config.native_threads
    if threads is None:
        try:
            threads = int(os.environ.get("REPRO_NATIVE_THREADS", ""))
        except ValueError:
            threads = 1
    watch = config.check == "nan"
    if threads < 1 or watch or (
        library is not None and library.rung != "native"
    ):
        threads = 1
    native_off = None
    if config.backend != "native":
        native_off = "python backend"
    elif library is not None and library.rung == "python":
        native_off = library.reason
    chain_off = native_off or (
        "check='nan' needs per-statement granularity" if watch else None
    )
    fuse_off = chain_off
    if fuse_off is None and config.fusion == "off":
        fuse_off = "fusion='off'"
    return Mode(
        threads, native_off, chain_off, fuse_off,
        None if watch else "check='none'",
    )


# -- the array gate --------------------------------------------------------------


def array_gate(uses, arrays, dtype, written) -> str | None:
    """Why *arrays* break what generated C assumes, or None when they fit.

    *uses* is the ``(access, box)`` pairs of one statement or one
    fusion group, *written* the names stored to.  Dependence analysis
    and ``restrict`` reason per array *name*, so a written array
    sharing memory with a differently-named one voids the lowering
    (``may_share_memory``: a false positive merely costs the fallback).
    Rank and bounds refusals reach the python rung, whose views raise
    the proper error instead of C scribbling past a buffer.
    """
    expected = np.dtype(dtype)
    names = list(dict.fromkeys(acc.name for acc, _box in uses))
    for name in names:
        arr = arrays.get(name)
        if arr is None:
            return f"{name}: not bound"
        if arr.dtype != expected:
            return f"{name}: dtype {arr.dtype} != kernel {expected}"
    for name in names:
        if name not in written:
            continue
        if not arrays[name].flags.writeable:
            return f"{name}: read-only"
        for other in names:
            if other != name and np.may_share_memory(arrays[name], arrays[other]):
                return f"{other}: aliases target {name}"
    for acc, box in uses:
        arr = arrays[acc.name]
        if arr.ndim != len(acc.slots):
            return f"{acc.name}: rank {arr.ndim} != {len(acc.slots)} slots"
        for slot, (axis, off) in enumerate(acc.slots):
            lo, hi = box[axis][0] + off, box[axis][1] + 1 + off
            if lo < 0 or hi > arr.shape[slot]:
                return (
                    f"{acc.name}: slot {slot} reads [{lo}, {hi}) outside "
                    f"extent {arr.shape[slot]}"
                )
            if arr.strides[slot] % expected.itemsize:
                return (
                    f"{acc.name}: stride {arr.strides[slot]} not a multiple "
                    f"of itemsize {expected.itemsize}"
                )
    return None


# -- the sweep rung: a checkpointed sweep as one native program ------------------


def program_gate(bindings) -> str | None:
    """Why a sweep replaying *bindings* must stay one bound run per
    schedule action, or None when it can run as one native program.

    *bindings* are the ``BoundPlan``/``EnsemblePlan`` parity bindings of
    a checkpointed plan.  A program is a flat sequence of native calls
    entered once, so it has no place for a python statement, a
    per-statement scan or a per-run backup: each of those keeps the
    per-action rung, where it keeps its per-*run* meaning.
    """
    for bound in bindings:
        config, mode = bound.plan.config, bound.mode
        if mode.native_off is not None:
            return mode.native_off
        if mode.watch_off is None:
            return "check='nan' scans after every statement of every run"
        if config.transactional:
            return "transactional=True backs up written arrays per run"
        for verdict in bound.decisions[1:]:
            if verdict.rung not in ("fused", "native"):
                return _line(verdict)
    return None


def memory_gate(dst, src, owned) -> str | None:
    """Why ``memcpy(dst, src)`` — ``memset(dst)`` with *src* None — may
    not stand in for ``np.copyto``/``dst[...] = 0``, or None when it may.

    The array gate of the program's memory statements: each operand is
    one C-contiguous block inside a buffer whose id is in *owned* (its
    pointer outlives the program and nothing else writes it), and a
    copy moves exactly ``dst.nbytes`` bytes between disjoint blocks of
    one dtype.  A wrong byte count is the off-by-one that bitwise tests
    on small grids do not notice, so it is checked, not assumed.
    """
    for arr in (dst,) if src is None else (dst, src):
        if not arr.flags.c_contiguous:
            return f"memory operand of shape {arr.shape} is not C-contiguous"
        if id(arr if arr.base is None else arr.base) not in owned:
            return f"memory operand of shape {arr.shape} is not plan-owned"
    if not dst.flags.writeable:
        return "memory target is read-only"
    if src is not None:
        if (src.dtype, src.nbytes) != (dst.dtype, dst.nbytes):
            return (
                f"copy of {src.nbytes} bytes of {src.dtype} into "
                f"{dst.nbytes} bytes of {dst.dtype}"
            )
        if np.may_share_memory(dst, src):
            return "copy target shares memory with its source"
    return None


# -- the ladder ------------------------------------------------------------------


class _CheckedStatement:
    """Divergence watchdog: scan the target after the statement runs.

    Wraps every runnable of a ``check="nan"`` binding (fusion and
    chaining are off there: one statement each).  The first non-finite
    write raises :class:`~repro.errors.NumericalDivergenceError` —
    "statement X at step N", not "it went NaN somewhere".
    """

    __slots__ = ("inner", "target", "label", "owner")

    def __init__(self, inner, label: str, owner) -> None:
        self.inner = inner
        self.target = inner.tview
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


def task_stream(region, boxes) -> list:
    """``(region, si, stmt, eff_box)`` of one task's statements, in order."""
    return [
        (region, si, st, eff)
        for si, (st, eff) in enumerate(zip(region.statements, boxes))
        if eff is not None
    ]


def serial_stream(plan) -> list:
    """The whole plan's statement stream in its flat serial order."""
    return [
        entry
        for rp in plan.region_plans
        for boxes in rp.tasks
        for entry in task_stream(rp.region, boxes)
    ]


def _name(entry) -> str:
    region, si, st, _eff = entry
    return f"{region.name}[{si}] {st.target.name!r}"


class Ladder:
    """One binding's degradation ladder: fused → native → python.

    Resolves the library rung and the mode once; :meth:`lower` appends
    one :class:`Verdict` per statement or fused group to ``decisions``
    (which opens with the library rung's).  *owner* is the binding
    (``_step`` labels watchdog reports); ``guard(member, fn)`` wraps
    each per-member native bind so a tier can type its failures.
    """

    def __init__(self, plan, owner, guard: Callable = lambda _m, fn: fn()):
        mode = lowering_mode(plan.config)
        if mode.native_off is None:
            self.lib, library = native.library_verdict(plan.kernel, mode.threads)
        else:
            self.lib, library = None, Verdict("library", "python", mode.native_off)
        self.mode = lowering_mode(plan.config, library)
        self.kernel = plan.kernel
        self.owner = owner
        self.guard = guard
        self.decisions: list[Verdict] = [library]
        self._planned: tuple | None = None  # (stream, fusion groups)

    def _every(self, members, make):
        """``make(arrays)`` for every member; one refusal refuses the rung."""
        out = []
        for member, arrays in members.items():
            runnable, why = self.guard(member, lambda: make(arrays))
            if runnable is None:
                return None, why
            out.append(runnable)
        return out, None

    def _refusal(self, members, check) -> str | None:
        """The first member's ``check(arrays)`` reason, or None."""
        for member, arrays in members.items():
            why = self.guard(member, lambda: check(arrays))
            if why is not None:
                return why
        return None

    def _entry(self, region, si):
        """``(fn, reason)``: the per-statement entry of a statement that
        passed the native gate, its unit built on first need.  A failed
        build degrades one rung at a time and says why — a threaded unit
        to the serial library's entry, a serial one to python
        (``(None, reason)``)."""
        lib, why = self.lib, None
        while lib is not None:
            try:
                return lib.stmt_fn(region, si), why
            except NativeBuildError as exc:
                key, why = native.build_refusal(self.kernel.name, lib.nthreads, exc)
                serial = lib.nthreads == 1
                degraded("statement", "python" if serial else "native", why, key=key)
                lib = None if serial else native.library_for_kernel(self.kernel, 1)
        return None, why

    def _groups(self, stream, refusals) -> Sequence[FusionGroup]:
        """Fusion groups over *stream*, planned once per stream object:
        an ensemble's first chunk plans for the rest (members share
        geometry; a later chunk failing a gate still degrades group-wise)."""
        if self._planned is None or self._planned[0] is not stream:
            dim = len(self.kernel.counters)
            entries = [
                FusionEntry(
                    stmt=st, box=eff, dim=dim, blocker=why,
                    dtype=getattr(region.dtype, "__name__", None)
                    or str(region.dtype),
                )
                for (region, _si, st, eff), why in zip(stream, refusals)
            ]
            self._planned = (stream, plan_groups(entries))
        return self._planned[1]

    def lower(
        self,
        stream: Sequence[tuple],
        members: Mapping[Hashable, Mapping[str, np.ndarray]],
        python_rung: Callable,
    ) -> list:
        """Lower *stream* against every array set of *members*.

        *stream* is ``[(region, si, stmt, eff_box)]`` in execution
        order; *members* maps a label (None for a single scenario) to
        its arrays.  Per fusion group: one fused nest, else each
        statement's native entry, else ``python_rung(region, si, stmt,
        eff) -> (rung, runnables)`` — a rung applying only when every
        member passes its gate.  Returns the runnables in order.
        """
        mode, lib, kernel = self.mode, self.lib, self.kernel
        dim = len(kernel.counters)
        # The native gate first, building nothing: a refusal here is what
        # blocks a statement from fusing.  Entries are resolved (and the
        # per-statement unit built) only for what no fused nest covers.
        refusals: list[str | None] = []
        for region, si, st, eff in stream:
            why = mode.native_off
            if why is None:
                why = self._refusal(
                    members,
                    lambda a: native.native_gate(lib, region, si, st, a, eff),
                )
                if why is not None:
                    why = native_eligibility(st, dim, region.dtype) or why
            refusals.append(why)
        if mode.fuse_off is None:
            spans = [(len(g.entries), g) for g in self._groups(stream, refusals)]
        else:
            spans = [(1, None)] * len(stream)
        items: list = []
        pos = 0
        for n, group in spans:
            fused, unfused = None, mode.fuse_off
            if group is not None and group.fused:
                fused, why = self._every(
                    members,
                    lambda a: native.make_fused_statement(
                        kernel, group.entries, a, nthreads=mode.threads
                    ),
                )
                unfused = f"fused nest refused: {why}"
            elif group is not None:
                unfused = group.reason or "no fusable neighbour"
            if fused is not None:
                subject = f"statements {_name(stream[pos])} .. {_name(stream[pos + n - 1])}"
                self.decisions.append(
                    Verdict(subject, "fused", None, n, n * len(fused), group)
                )
                items.extend(fused)
                pos += n
                continue
            for i in range(pos, pos + n):
                region, si, st, eff = stream[i]
                rung, bound, why = "native", None, refusals[i]
                if why is None:
                    fn, degraded_why = self._entry(region, si)
                    why = degraded_why or unfused
                    if fn is not None:
                        bound = [
                            self.guard(m, lambda: native.make_native_statement(fn, st, a, eff))
                            for m, a in members.items()
                        ]
                if bound is None:
                    rung, bound = python_rung(region, si, st, eff)
                self.decisions.append(
                    Verdict(f"statement {_name(stream[i])}", rung, why, 1, len(bound), group)
                )
                if mode.watch_off is None:
                    label = f"{st.target.name!r} of region {region.name!r}"
                    # One runnable per member names its member; a
                    # batch-shifted one spans them, and the reported
                    # index's leading coordinate does.
                    named = len(bound) == len(members)
                    bound = [
                        _CheckedStatement(
                            r,
                            label + (f" (member {m})" if named and m is not None else ""),
                            self.owner,
                        )
                        for r, m in zip(bound, members)
                    ]
                items.extend(bound)
            pos += n
        if mode.chain_off is None:
            items = native.chain_runnables(lib, items)
        return items


# -- the views -------------------------------------------------------------------


def _line(v: Verdict, more: str = "") -> str:
    return f"{v.subject}{more}: {v.rung}" + (f" — {v.reason}" if v.reason else "")


class Lowered:
    """A binding's counters and ``explain()``, derived from the ``mode``
    and ``decisions`` its :class:`Ladder` left (``BoundPlan``,
    ``EnsemblePlan``)."""

    mode: Mode
    decisions: tuple[Verdict, ...]

    def _count(self, *rungs: str, groups: bool = False) -> int:
        return sum(
            v.count // v.statements if groups else v.count
            for v in self.decisions[1:]
            if not rungs or v.rung in rungs
        )

    @property
    def native_threads(self) -> int:
        """The *effective* OpenMP width: the library's, after the probe
        and build-failure fallbacks — what the C code actually does (a
        statement whose threaded per-statement library failed to build
        runs the serial one, and its verdict says so)."""
        return self.mode.threads

    @property
    def statement_count(self) -> int:
        """Bound statement instances (every member's, for an ensemble)."""
        return self._count()

    @property
    def native_statement_count(self) -> int:
        """Statements dispatched to JIT-built C (0 on the python backend)."""
        return self._count("fused", "native")

    @property
    def fused_group_count(self) -> int:
        return self._count("fused", groups=True)

    @property
    def fused_statement_count(self) -> int:
        return self._count("fused")

    @property
    def sweep_count(self) -> int:
        """Memory sweeps per run: one per unfused statement, one per
        fused group.  Without fusion this equals ``statement_count``."""
        return (
            self.statement_count
            - self.fused_statement_count
            + self.fused_group_count
        )

    def explain(self) -> list[str]:
        """Human lines (``repro fuse --explain``): the mode, the library
        rung, each fusion group, each rung with the cause of its refusal;
        consecutive statements sharing one verdict are folded."""
        lines = [f"mode: {self.mode.threads} native thread(s)"]
        for gate in ("native", "fuse", "chain", "watch"):
            off = getattr(self.mode, f"{gate}_off")
            lines.append(f"  {gate}: " + ("on" if off is None else f"off — {off}"))
        library, *verdicts = self.decisions
        lines.append(_line(library))
        groups: list = []
        for v in verdicts:
            if v.group is not None and not any(v.group is g for g in groups):
                groups.append(v.group)
        lines.extend(describe_groups(groups))
        run: list[Verdict] = []
        for v in [*verdicts, None]:
            if run and (v is None or (v.rung, v.reason) != (run[0].rung, run[0].reason)):
                lines.append(
                    _line(run[0], f" (+{len(run) - 1} more)" if len(run) > 1 else "")
                )
                run = []
            if v is not None and v.rung != "fused":
                run.append(v)
        lines.append(
            f"sweeps per timestep: {self.sweep_count} "
            f"({self.statement_count} statements; {self.fused_group_count} "
            f"fused groups covering {self.fused_statement_count})"
        )
        return lines
