"""Unit tests for iteration-space splitting (Sections 3.3.3-3.3.4)."""

import itertools

import sympy as sp
import pytest

from repro.core import make_loop_nest
from repro.core.diff import adjoint_scatter_statements
from repro.core.regions import (
    core_bounds,
    min_extent_required,
    split_disjoint,
    union_bounds,
)
from repro.core.shift import shift_all

n = sp.Symbol("n", integer=True)


def build_shifted(offsets_list, dim):
    """Shifted statements for a synthetic stencil with given read offsets."""
    counters = sp.symbols("i j k", integer=True)[:dim]
    u, r = sp.Function("u"), sp.Function("r")
    expr = sum(
        u(*[c + o for c, o in zip(counters, offs)]) for offs in offsets_list
    )
    nest = make_loop_nest(
        lhs=r(*counters), rhs=expr, counters=list(counters),
        bounds={c: [1, n - 2] for c in counters},
    )
    contribs = adjoint_scatter_statements(
        nest, {r: sp.Function("r_b"), u: sp.Function("u_b")}
    )
    return shift_all(contribs, nest.counters), nest


def test_core_bounds_formula():
    """Core bounds = [s + max(o), e + min(o)] per dimension (Section 3.3.3)."""
    shifted, nest = build_shifted([(-1,), (0,), (2,)], 1)
    cb = core_bounds(shifted, nest.counters, nest.bounds)
    i = nest.counters[0]
    assert cb[i] == (1 + 2, (n - 2) + (-1))


def test_union_bounds_formula():
    shifted, nest = build_shifted([(-1,), (0,), (2,)], 1)
    ub = union_bounds(shifted, nest.counters, nest.bounds)
    i = nest.counters[0]
    assert ub[i] == (1 - 1, (n - 2) + 2)


def test_min_extent():
    shifted, _ = build_shifted([(-1,), (0,), (2,)], 1)
    assert min_extent_required(shifted, 0) == 4


def test_exactly_one_core_region():
    shifted, nest = build_shifted([(-1,), (0,), (1,)], 1)
    regions = split_disjoint(shifted, nest.counters, nest.bounds)
    cores = [r for r in regions if r.is_core]
    assert len(cores) == 1
    assert len(cores[0].statements) == len(shifted)


def test_every_region_nonempty_statements():
    shifted, nest = build_shifted(
        [(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)], 2
    )
    for region in split_disjoint(shifted, nest.counters, nest.bounds):
        assert region.statements


@pytest.mark.parametrize(
    "offsets,dim,expected",
    [
        ([(-1,), (0,), (1,)], 1, 5),  # Section 3.2: five loops
        ([(o1, o2) for o1 in (-1, 0, 1) for o2 in (-1, 0, 1)], 2, 25),
        ([(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0),
          (0, 0, -1), (0, 0, 1), (0, 0, 0)], 3, 53),  # 7-pt star
    ],
)
def test_region_counts_from_section334(offsets, dim, expected):
    shifted, nest = build_shifted(offsets, dim)
    regions = split_disjoint(shifted, nest.counters, nest.bounds)
    assert len(regions) == expected


def _concrete_box(region, counters, nval):
    box = []
    for c in counters:
        lo, hi = region.bounds[c]
        box.append((int(lo.subs({n: nval})), int(hi.subs({n: nval}))))
    return box


def _enumerate(box):
    return set(
        itertools.product(*[range(lo, hi + 1) for lo, hi in box])
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_partition_disjoint_and_covering(dim):
    """Regions partition the union of shifted iteration spaces exactly,
    and each region's statements are exactly those valid there."""
    offsets = (
        [(-1,), (0,), (2,)] if dim == 1
        else [(-1, 0), (0, 1), (1, -1), (0, 0)]
    )
    shifted, nest = build_shifted(offsets, dim)
    regions = split_disjoint(shifted, nest.counters, nest.bounds)
    nval = 12

    seen = {}
    for ridx, region in enumerate(regions):
        pts = _enumerate(_concrete_box(region, nest.counters, nval))
        for p in pts:
            assert p not in seen, f"point {p} in two regions"
            seen[p] = region

    # Coverage + per-point statement validity.
    prim = [(1, nval - 2)] * dim
    for sh in shifted:
        box = [(lo + o, hi + o) for (lo, hi), o in zip(prim, sh.offset)]
        for p in _enumerate(box):
            assert p in seen, f"point {p} uncovered"
            assert sh in seen[p].statements, (
                f"statement offset {sh.offset} missing at {p}"
            )
    # No statement is attached anywhere it is invalid.
    for p, region in seen.items():
        for sh in region.statements:
            for d in range(dim):
                lo, hi = prim[d]
                assert lo + sh.offset[d] <= p[d] <= hi + sh.offset[d]


def test_asymmetric_stencil_split():
    """Asymmetric (non-symmetric data flow) stencils split correctly —
    the case TF-MAD [14] could not handle, motivating this paper."""
    shifted, nest = build_shifted([(0,), (1,), (2,)], 1)
    regions = split_disjoint(shifted, nest.counters, nest.bounds)
    assert len(regions) == 5
    core = [r for r in regions if r.is_core][0]
    i = nest.counters[0]
    assert core.bounds[i] == (3, n - 2)


def test_single_offset_single_region():
    shifted, nest = build_shifted([(1,)], 1)
    regions = split_disjoint(shifted, nest.counters, nest.bounds)
    assert len(regions) == 1
    assert regions[0].is_core


def test_region_extent_helper():
    shifted, nest = build_shifted([(-1,), (1,)], 1)
    regions = split_disjoint(shifted, nest.counters, nest.bounds)
    core = [r for r in regions if r.is_core][0]
    # bounds [1, n-2] = [1, 8]; core [1+1, 8-1] = [2, 7] -> extent 6
    assert core.extent({n: 10}, nest.counters) == (6,)
