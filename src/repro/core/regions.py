"""Iteration-space splitting (paper Sections 3.3.3 and 3.3.4).

After shifting, adjoint statement ``S_l`` (scatter offset ``o_l``) is valid
on the translated iteration space ``[s_d + o_ld, e_d + o_ld]`` per dimension
``d``.  The *core loop nest* is the intersection of all those boxes,

    [ s_d + max_l o_ld ,  e_d + min_l o_ld ],

where every statement is valid.  The boundary treatment partitions the rest
of the union of the boxes into disjoint rectangular regions, each carrying
exactly the subset of statements valid throughout that region.

The default ("disjoint") strategy reproduces PerforAD's hierarchical,
dimension-by-dimension split: dimension ``d`` is cut at every breakpoint
``s_d + o`` / ``e_d + o`` induced by the offsets *of the statements still
alive in the current slab*, and the remaining dimensions are split
recursively per slab.  For a dense ``n``-point-per-dimension stencil in
``d`` dimensions this yields exactly ``(2n-1)^d`` loop nests; for the 3-D
seven-point star of Section 4.1 it yields the paper's 53 nests.

All bounds are SymPy expressions (affine in size symbols), so the split is
purely symbolic, as in the paper.  Disjointness of the generated regions
requires each dimension's extent to satisfy ``e_d - s_d >= spread_d - 1``
(with ``spread_d = max_l o_ld - min_l o_ld``); the runtime validates this
when concrete sizes are bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import sympy as sp

from .shift import ShiftedStatement

__all__ = ["Region", "split_disjoint", "core_bounds", "union_bounds", "min_extent_required"]


@dataclass(frozen=True)
class Region:
    """A rectangular iteration-space region and the statements valid in it.

    ``bounds`` maps each loop counter to inclusive symbolic bounds.
    ``is_core`` marks the unique region in which *all* statements are valid
    and whose bounds are the full intersection box.
    """

    bounds: dict[sp.Symbol, tuple[sp.Expr, sp.Expr]]
    statements: tuple[ShiftedStatement, ...]
    is_core: bool = False

    def extent(self, sizes: Mapping[sp.Symbol, int], counters: Sequence[sp.Symbol]) -> tuple[int, ...]:
        """Concrete (inclusive) extent per dimension under given sizes."""
        out = []
        for c in counters:
            lo, hi = self.bounds[c]
            out.append(int(hi.subs(sizes)) - int(lo.subs(sizes)) + 1)
        return tuple(out)


def _dim_offsets(stmts: Sequence[ShiftedStatement], d: int) -> list[int]:
    """Sorted distinct scatter offsets of the statements in dimension d."""
    return sorted({s.offset[d] for s in stmts})


def core_bounds(
    stmts: Sequence[ShiftedStatement],
    counters: Sequence[sp.Symbol],
    bounds: Mapping[sp.Symbol, tuple[sp.Expr, sp.Expr]],
) -> dict[sp.Symbol, tuple[sp.Expr, sp.Expr]]:
    """Bounds of the core loop nest (Section 3.3.3)."""
    out = {}
    for d, c in enumerate(counters):
        offs = _dim_offsets(stmts, d)
        lo, hi = bounds[c]
        out[c] = (lo + max(offs), hi + min(offs))
    return out


def union_bounds(
    stmts: Sequence[ShiftedStatement],
    counters: Sequence[sp.Symbol],
    bounds: Mapping[sp.Symbol, tuple[sp.Expr, sp.Expr]],
) -> dict[sp.Symbol, tuple[sp.Expr, sp.Expr]]:
    """Bounding box of the union of all statements' iteration spaces."""
    out = {}
    for d, c in enumerate(counters):
        offs = _dim_offsets(stmts, d)
        lo, hi = bounds[c]
        out[c] = (lo + min(offs), hi + max(offs))
    return out


def min_extent_required(stmts: Sequence[ShiftedStatement], dim: int) -> int:
    """Minimum primal extent (inclusive count) for a valid disjoint split.

    The split's per-segment validity labels assume the primal iteration
    range in each dimension is at least as wide as the statement offset
    spread; below that, left and right remainder segments would overlap.
    """
    offs = _dim_offsets(stmts, dim)
    return (offs[-1] - offs[0]) + 1


def split_disjoint(
    stmts: Sequence[ShiftedStatement],
    counters: Sequence[sp.Symbol],
    bounds: Mapping[sp.Symbol, tuple[sp.Expr, sp.Expr]],
) -> list[Region]:
    """PerforAD's hierarchical disjoint split (Section 3.3.4, default).

    Returns regions in deterministic order (left remainders, core slab,
    right remainders; recursively per dimension).  Every region carries at
    least one statement; region iteration spaces are pairwise disjoint and
    their union is the union of the statements' translated spaces.
    """
    regions: list[Region] = []

    def rec(
        alive: tuple[ShiftedStatement, ...],
        d: int,
        fixed: dict[sp.Symbol, tuple[sp.Expr, sp.Expr]],
        all_core: bool,
    ) -> None:
        if d == len(counters):
            regions.append(
                Region(
                    bounds=dict(fixed),
                    statements=alive,
                    is_core=all_core and len(alive) == len(stmts),
                )
            )
            return
        c = counters[d]
        lo, hi = bounds[c]
        offs = _dim_offsets(alive, d)
        m = len(offs)
        if m == 1:
            # Single offset: one full-width segment, all alive statements.
            fixed[c] = (lo + offs[0], hi + offs[0])
            rec(alive, d + 1, fixed, all_core)
            del fixed[c]
            return
        # Left remainder segments: [lo+offs[t], lo+offs[t+1]-1], statements
        # whose offset in this dimension is <= offs[t].
        for t in range(m - 1):
            seg = (lo + offs[t], lo + offs[t + 1] - 1)
            sub = tuple(s for s in alive if s.offset[d] <= offs[t])
            fixed[c] = seg
            rec(sub, d + 1, fixed, False)
            del fixed[c]
        # Core slab: [lo+max, hi+min], all alive statements valid.
        fixed[c] = (lo + offs[-1], hi + offs[0])
        rec(alive, d + 1, fixed, all_core)
        del fixed[c]
        # Right remainder segments: [hi+offs[t]+1, hi+offs[t+1]], statements
        # whose offset in this dimension is >= offs[t+1].
        for t in range(m - 1):
            seg = (hi + offs[t] + 1, hi + offs[t + 1])
            sub = tuple(s for s in alive if s.offset[d] >= offs[t + 1])
            fixed[c] = seg
            rec(sub, d + 1, fixed, False)
            del fixed[c]

    rec(tuple(stmts), 0, {}, True)
    del rec  # empties the cell rec closes over: no cycle outlives the call
    return regions
