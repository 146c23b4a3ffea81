"""Dependence-aware statement fusion: which statement chains may share a loop.

The native backend (PR 4) lowers each compiled statement to its own C
loop nest, so a timestep of the paper's adjoint kernels makes one memory
sweep per statement.  This module decides — purely from the statements'
access footprints, the same ``(axis, offset)`` slot geometry that
:mod:`repro.core.accesses` extracts — which *contiguous* runs of
statements may instead execute interleaved inside a single loop nest,
PyOP2's "hard fusion" question asked of the gather-form stencil IR.

The model
---------

A fused group iterates the union of its members' boxes in lexicographic
order (axis 0 outermost) and executes, at each point (or row), every
member statement in original order, each guarded to its own box.  That
reorders work: statement ``b`` no longer waits for *all* of statement
``a`` — only for the points of ``a`` already visited.  Fusion is legal
exactly when no statement can observe the difference, which is the
classic dependence-distance condition evaluated on constant offsets:

* **flow** (``a`` writes what ``b`` reads): every value ``b`` reads must
  already be written, so the distance ``read_b - write_a`` must be
  lexicographically non-positive;
* **anti** (``a`` reads what ``b`` writes): ``b`` must not overwrite a
  value ``a`` has yet to read, so ``read_a - write_b`` must be
  lexicographically non-negative;
* **output** (both write): the later statement's write must land last,
  so ``write_b - write_a`` must be lexicographically non-positive.

``+=`` targets are read-modify-writes and contribute their target
offsets to the read set as well.  Distances are only defined when the
two accesses address the array through the *same* slot-to-axis map;
anything else (a transposed read of a written array) is unanalyzable
and rejects the pair.  All conditions are checked pairwise over the
full lexicographic order, which is sound for both granularities the
emitter uses (point-interleaved for equal boxes, row-interleaved for
unequal ones): row execution only ever *delays* the later statement
relative to the point order.

This module is pure analysis — no codegen, no NumPy, no runtime
imports.  Statements are duck-typed
:class:`~repro.runtime.compiler.CompiledStatement` objects; callers
(:mod:`repro.runtime.bound`) supply the per-statement eligibility
verdicts of the native backend as ``blocker`` strings.

>>> from repro.core.fusion import FusionEntry, plan_groups
>>> class Acc:  # stand-in for CompiledAccess
...     def __init__(self, name, slots): self.name, self.slots = name, slots
>>> class St:
...     def __init__(self, target, reads, op="="):
...         self.target, self.reads, self.op = target, reads, op
>>> write_u = St(Acc("u", ((0, 0),)), (Acc("v", ((0, 0),)),))
>>> read_u_left = St(Acc("w", ((0, 0),)), (Acc("u", ((0, -1),)),))
>>> groups = plan_groups([
...     FusionEntry(write_u, ((1, 8),), 1, "float64"),
...     FusionEntry(read_u_left, ((1, 8),), 1, "float64"),
... ])
>>> len(groups), groups[0].fused   # u[i-1] is already written: fusable
(1, True)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "FusionEntry",
    "FusionGroup",
    "MAX_GROUP_STATEMENTS",
    "fusable_pair",
    "parallel_safe_group",
    "plan_groups",
    "describe_groups",
]

Box = tuple[tuple[int, int], ...]

# Generated source (and compile time) grows with group size; the paper's
# kernels top out well below this, so the cap only guards degenerate
# machine-generated statement streams.
MAX_GROUP_STATEMENTS = 32


@dataclass(frozen=True)
class FusionEntry:
    """One statement of the serial execution stream, as fusion sees it.

    ``stmt`` is a compiled statement (duck-typed: ``target``/``reads``
    are accesses with ``name`` and ``slots``, ``op`` is ``"="`` or
    ``"+="``); ``box`` its guard-intersected iteration box; ``blocker``
    a human reason this statement cannot enter any fused group (native
    ineligibility, a bind-time fallback), or None when it is a
    candidate.
    """

    stmt: object
    box: Box
    dim: int
    dtype: str
    blocker: str | None = None


@dataclass(frozen=True)
class FusionGroup:
    """A maximal contiguous run of mutually fusable statements.

    ``reason`` records why this group could not extend the *previous*
    group (None for the first group): the dependence or eligibility
    verdict ``repro fuse --explain`` prints.
    """

    entries: tuple[FusionEntry, ...]
    reason: str | None = None

    @property
    def fused(self) -> bool:
        """True when the group merges more than one statement."""
        return len(self.entries) > 1


# -- dependence distances ------------------------------------------------------


def _lex_sign(delta: Sequence[int]) -> int:
    """Sign of the first nonzero component (axis 0 outermost)."""
    for d in delta:
        if d:
            return 1 if d > 0 else -1
    return 0


def _axis_deltas(writer_slots, other_slots, dim: int) -> tuple[int, ...] | None:
    """Per-axis iteration distance ``other - writer``, or None.

    Defined only when both accesses are full-rank over the frame and
    address the array through the same slot-to-axis map; a mismatch
    means the constant-offset distance model does not apply and the
    caller must reject the pair.
    """
    writer_axes = tuple(axis for axis, _ in writer_slots)
    if writer_axes != tuple(axis for axis, _ in other_slots):
        return None
    if sorted(writer_axes) != list(range(dim)):
        return None
    delta = [0] * dim
    for (axis, w_off), (_, o_off) in zip(writer_slots, other_slots):
        delta[axis] = o_off - w_off
    return tuple(delta)


def _accesses(stmt) -> tuple[list, list]:
    """*stmt*'s (writes, reads) as ``(name, slots)`` pairs.

    ``+=`` targets read the old value at the written offsets, so they
    appear in both sets.
    """
    writes = [(stmt.target.name, stmt.target.slots)]
    reads = [(acc.name, acc.slots) for acc in stmt.reads]
    if stmt.op == "+=":
        reads.append((stmt.target.name, stmt.target.slots))
    return writes, reads


def fusable_pair(a: FusionEntry, b: FusionEntry) -> str | None:
    """Why *a* (earlier) and *b* (later) must not share a loop nest, or None.

    Checks every dependence between the pair's footprints under the
    lexicographic execution order of the fused nest; the returned string
    is the first violated condition, phrased for ``--explain``.
    """
    if a.dim != b.dim or a.dtype != b.dtype:
        return (
            f"incompatible statement kinds "
            f"(dim {a.dim}/{b.dim}, dtype {a.dtype}/{b.dtype})"
        )
    dim = a.dim
    writes_a, reads_a = _accesses(a.stmt)
    writes_b, reads_b = _accesses(b.stmt)
    for name, w_slots in writes_a:
        for r_name, r_slots in reads_b:
            if r_name != name:
                continue
            delta = _axis_deltas(w_slots, r_slots, dim)
            if delta is None:
                return (
                    f"read of {name!r} not aligned with its writer "
                    f"(different slot-axis maps; distance unanalyzable)"
                )
            if _lex_sign(delta) > 0:
                return (
                    f"flow dependence on {name!r}: consumer reads at "
                    f"distance {delta} ahead of the producer"
                )
        for w_name, w2_slots in writes_b:
            if w_name != name:
                continue
            delta = _axis_deltas(w_slots, w2_slots, dim)
            if delta is None:
                return (
                    f"two writes of {name!r} through different slot-axis "
                    f"maps (distance unanalyzable)"
                )
            if _lex_sign(delta) > 0:
                return (
                    f"output dependence on {name!r}: the later write would "
                    f"land at distance {delta} before the earlier one"
                )
    for name, w_slots in writes_b:
        for r_name, r_slots in reads_a:
            if r_name != name:
                continue
            delta = _axis_deltas(w_slots, r_slots, dim)
            if delta is None:
                return (
                    f"read of {name!r} not aligned with its later writer "
                    f"(different slot-axis maps; distance unanalyzable)"
                )
            if _lex_sign(delta) < 0:
                return (
                    f"anti dependence on {name!r}: the fused nest would "
                    f"overwrite at distance {delta} before the earlier "
                    f"statement reads"
                )
    return None


# -- outer-axis thread partitioning --------------------------------------------


def parallel_safe_group(entries: Sequence[FusionEntry]) -> str | None:
    """Why *entries* cannot partition axis 0 across threads, or None.

    The one partition rule, for an OpenMP C nest
    (:func:`~repro.codegen.native_c.nest_threaded`) and a python
    region's worker-pool tasks (:class:`~repro.runtime.plan.ExecutionPlan`)
    alike.  None means contiguous blocks of the outermost axis are
    race-free and order-preserving:

    * every target indexes axis 0 exactly once, so blocks write
      disjoint elements, for ``=`` and ``+=`` alike;
    * a statement reads its own target only at the written slots, so no
      block observes an element another block writes;
    * every cross-statement dependence — flow, anti and output — has
      **zero distance on axis 0**: a nonzero outer component means one
      thread's row produces or clobbers a value another thread's row
      consumes, with no ordering between them.

    A refused group runs as one block: still bitwise identical, just
    not partitioned.

    >>> class Acc:
    ...     def __init__(self, name, slots): self.name, self.slots = name, slots
    >>> class St:
    ...     def __init__(self, target, reads, op="="):
    ...         self.target, self.reads, self.op = target, reads, op
    >>> same_row = St(Acc("w", ((0, 0), (1, 0))), (Acc("u", ((0, 0), (1, -1))),))
    >>> write_u = St(Acc("u", ((0, 0), (1, 0))), (Acc("v", ((0, 0), (1, 0))),))
    >>> entries = [
    ...     FusionEntry(write_u, ((1, 8), (1, 8)), 2, "float64"),
    ...     FusionEntry(same_row, ((1, 8), (1, 8)), 2, "float64"),
    ... ]
    >>> parallel_safe_group(entries)        # row-local dependence: safe
    >>> up_row = St(Acc("w", ((0, 0), (1, 0))), (Acc("u", ((0, -1), (1, 0))),))
    >>> entries[1] = FusionEntry(up_row, ((1, 8), (1, 8)), 2, "float64")
    >>> print(parallel_safe_group(entries))
    dependence on 'u' crosses thread rows (outer distance -1)
    >>> prefix = St(Acc("u", ((0, 0),)), (Acc("u", ((0, -1),)),), op="+=")
    >>> print(parallel_safe_group([FusionEntry(prefix, ((1, 8),), 1, "float64")]))
    read of target 'u' at shifted offsets
    """
    for entry in entries:
        target = entry.stmt.target
        if [axis for axis, _ in target.slots].count(0) != 1:
            return f"target {target.name!r} does not index axis 0 exactly once"
        for acc in entry.stmt.reads:
            if acc.name == target.name and acc.slots != target.slots:
                return f"read of target {target.name!r} at shifted offsets"
    for i, a in enumerate(entries):
        dim = a.dim
        writes_a, reads_a = _accesses(a.stmt)
        for b in entries[i + 1:]:
            writes_b, reads_b = _accesses(b.stmt)
            for w_name, w_slots in writes_a:
                for o_name, o_slots in reads_b + writes_b:
                    if o_name != w_name:
                        continue
                    delta = _axis_deltas(w_slots, o_slots, dim)
                    if delta is None:
                        return (
                            f"dependence on {w_name!r} unanalyzable "
                            f"(different slot-axis maps)"
                        )
                    if delta[0] != 0:
                        return (
                            f"dependence on {w_name!r} crosses thread "
                            f"rows (outer distance {delta[0]})"
                        )
            for w_name, w_slots in writes_b:
                for r_name, r_slots in reads_a:
                    if r_name != w_name:
                        continue
                    delta = _axis_deltas(w_slots, r_slots, dim)
                    if delta is None:
                        return (
                            f"dependence on {w_name!r} unanalyzable "
                            f"(different slot-axis maps)"
                        )
                    if delta[0] != 0:
                        return (
                            f"dependence on {w_name!r} crosses thread "
                            f"rows (outer distance {delta[0]})"
                        )
    return None


# -- grouping ------------------------------------------------------------------


def plan_groups(entries: Iterable[FusionEntry]) -> list[FusionGroup]:
    """Partition *entries* into maximal contiguous fusable groups.

    Greedy in execution order — fusion must never reorder statements, so
    the only freedom is where to cut the stream.  A candidate joins the
    current group when it is pairwise fusable with *every* member (the
    fused nest interleaves it with all of them); blocked entries form
    singleton groups carrying their blocker as the reason.
    """
    groups: list[FusionGroup] = []
    current: list[FusionEntry] = []
    current_reason: str | None = None

    def close() -> None:
        nonlocal current, current_reason
        if current:
            groups.append(FusionGroup(tuple(current), current_reason))
            current = []
            current_reason = None

    for entry in entries:
        if entry.blocker is not None:
            close()
            groups.append(FusionGroup((entry,), entry.blocker))
            continue
        if current:
            if len(current) >= MAX_GROUP_STATEMENTS:
                why = f"group size cap ({MAX_GROUP_STATEMENTS} statements)"
            else:
                why = None
                for member in current:
                    why = fusable_pair(member, entry)
                    if why is not None:
                        break
            if why is not None:
                close()
                current_reason = why
        current.append(entry)
    close()
    return groups


def describe_groups(groups: Sequence[FusionGroup]) -> list[str]:
    """Human lines for ``repro fuse --explain`` (one per group)."""
    lines: list[str] = []
    pos = 0
    for gi, group in enumerate(groups):
        names = [entry.stmt.target.name for entry in group.entries]
        span = (
            f"statement {pos}"
            if len(group.entries) == 1
            else f"statements {pos}-{pos + len(group.entries) - 1}"
        )
        if group.fused:
            lines.append(
                f"group {gi}: FUSED {len(group.entries)} statements "
                f"({span}; writes {' '.join(dict.fromkeys(names))})"
            )
            if group.reason is not None:
                lines.append(f"  split from previous group: {group.reason}")
        else:
            why = group.reason or "no fusable neighbour"
            lines.append(
                f"group {gi}: unfused write of {names[0]!r} ({span}) — {why}"
            )
        pos += len(group.entries)
    return lines
