"""Loop tiling (cache blocking) for compiled region kernels.

The paper plans to combine the transformation "with polyhedral compilers
... to target more applications" (Section 6); tiling is the canonical
such optimisation for stencils.  Because the adjoint stencil regions are
gather loops whose iterations are independent, any rectangular tiling of
a region's iteration box executes the same element-wise expressions and
is bitwise identical to the untiled execution — which the tests assert —
while improving temporal locality for grids larger than cache.

Tiling is a plan transform: ``kernel.plan(tile_shape=...)`` freezes the
tile decomposition (``plan.unit_count`` tiles) and its bindings execute
it; combine with ``num_threads`` for fused tiled+threaded execution.
This module holds the geometry the planner uses.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .compiler import RegionKernel

__all__ = ["tile_box", "safe_to_tile"]

Box = tuple[tuple[int, int], ...]


def tile_box(bounds: Box, tile_shape: Sequence[int]) -> list[Box]:
    """Decompose an inclusive box into lexicographically ordered tiles.

    ``tile_shape`` gives the tile extent per dimension; dimensions beyond
    ``len(tile_shape)`` (or entries <= 0) are left unsplit.  Returns the
    empty list for empty boxes.
    """
    if any(lo > hi for lo, hi in bounds):
        return []
    per_dim: list[list[tuple[int, int]]] = []
    for d, (lo, hi) in enumerate(bounds):
        size = tile_shape[d] if d < len(tile_shape) else 0
        if size is None or size <= 0 or size >= hi - lo + 1:
            per_dim.append([(lo, hi)])
            continue
        ranges = []
        start = lo
        while start <= hi:
            ranges.append((start, min(start + size - 1, hi)))
            start += size
        per_dim.append(ranges)
    return [tuple(combo) for combo in itertools.product(*per_dim)]


def safe_to_tile(region: RegionKernel) -> bool:
    """True when every statement of *region* writes at full rank.

    A reduced write target (fewer target axes than frame axes) would
    accumulate differently across tiles for '=' semantics, so such
    regions run untiled.
    """
    dim = len(region.bounds)
    for st in region.statements:
        axes = {axis for axis, _ in st.target.slots}
        if len(axes) != dim:
            return False
    return True

