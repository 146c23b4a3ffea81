"""Data-movement properties of the sharded substrate: decomposition, slab
round trip, halo exchange and its adjoint (the accumulate-back), on an
in-process ``ShardedPlan(..., use_workers=False)``."""

import warnings

import numpy as np
import pytest

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import adjoint_loops
from repro.errors import ValidationError
from repro.runtime import CompiledKernel, ShardedPlan, compile_nests
from repro.runtime.distributed import decompose

# Data-movement properties need slabs, not compute: a kernel with no
# regions touches no array and plans no work.
_NOOP = CompiledKernel(name="noop", regions=(), counters=())


def _sharded(arrays, nranks, halo, kernel=_NOOP):
    return ShardedPlan(
        kernel, arrays, nranks=nranks, halo=halo, use_workers=False
    )


def _randomise(plan, name, seed):
    """Fill every slab of *name* (halos included) with arbitrary values."""
    r = np.random.default_rng(seed)
    for slab in plan.slabs:
        slab.arrays[name][:] = r.standard_normal(slab.arrays[name].shape)


def _flat(plan, name):
    return np.concatenate([s.arrays[name] for s in plan.slabs])


def test_decompose_covers_and_balances():
    ranges = decompose(23, 4)
    assert ranges[0][0] == 0 and ranges[-1][1] == 22
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert c == b + 1
    sizes = [b - a + 1 for a, b in ranges]
    assert max(sizes) - min(sizes) <= 1


def test_decompose_more_ranks_than_rows():
    assert len(decompose(3, 10)) == 3


def test_decompose_invalid():
    with pytest.raises(ValueError):
        decompose(10, 0)


def test_scatter_gather_round_trip(rng):
    prob = heat_problem(2)
    arrays = prob.allocate(20, rng=rng)
    with _sharded(arrays, nranks=3, halo=1) as plan:
        back = plan.gather()
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])


@pytest.mark.parametrize("nranks", [1, 2, 3, 5])
def test_distributed_primal_equals_global(rng, nranks):
    prob = wave_problem(2)
    N = 24
    kernel = compile_nests([prob.primal], prob.bindings(N))
    arrays = prob.allocate(N, rng=rng)

    ref = {k: v.copy() for k, v in arrays.items()}
    kernel(ref)

    with _sharded(arrays, nranks, halo=1, kernel=kernel) as plan:
        plan.step(exchange=["u_1", "u_2", "c"])
        out = plan.gather(["u"])
    np.testing.assert_array_equal(out["u"], ref["u"])


def _sharded_adjoint(prob, N, rng, nranks):
    """Global adjoint vs adjoint stencils + reverse halo exchange."""
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)
    with _sharded(base, nranks, halo=1, kernel=kernel) as plan:
        # Forward exchange for the values the adjoint reads (u_1, seed
        # u_b); reverse exchange folds halo contributions back to owners.
        plan.step(exchange=["u_1", "u_b"], accumulate=["u_1_b"])
        out = plan.gather(["u_1_b"])
    np.testing.assert_array_equal(out["u_1_b"], ref["u_1_b"])


@pytest.mark.parametrize("nranks", [2, 3, 4])
def test_distributed_adjoint_equals_global(rng, nranks):
    _sharded_adjoint(heat_problem(2), 24, rng, nranks)


def test_distributed_adjoint_burgers_nonlinear(rng):
    _sharded_adjoint(burgers_problem(1), 50, rng, 4)


def test_mismatched_shapes_rejected(rng):
    with pytest.raises(ValueError):
        _sharded({"a": np.zeros(5), "b": np.zeros(6)}, nranks=2, halo=1)


def test_negative_halo_rejected():
    with pytest.raises(ValueError):
        _sharded({"a": np.zeros(5)}, nranks=2, halo=-1)


# -- the three PR-10 substrate regressions, on ShardedPlan ------------------


def test_gather_preserves_float32_round_trip(rng):
    """Regression: ``gather`` must allocate in the state's dtype, not
    silently promote float32 state to float64."""
    arrays = {
        "a": rng.standard_normal((13, 3)).astype(np.float32),
        "b": rng.standard_normal((13, 3)).astype(np.float32),
    }
    with _sharded(arrays, nranks=3, halo=1) as plan:
        back = plan.gather(["a", "b"])
    for name in arrays:
        assert back[name].dtype == np.float32
        np.testing.assert_array_equal(back[name], arrays[name])


def test_halo_wider_than_smallest_slab_rejected():
    """Regression: a halo wider than the smallest owned slab would make
    the exchange read a neighbour's halo rows as if they were interior.
    It is a typed error, at construction, naming the offending rank."""
    # decompose(9, 5) -> sizes (2, 2, 2, 2, 1): rank 4 owns one row.
    with pytest.raises(ValidationError, match=r"rank 4 of 5"):
        _sharded({"x": np.zeros(9)}, nranks=5, halo=2)
    # The widest legal halo still shards.
    with _sharded({"x": np.zeros(9)}, nranks=5, halo=1) as plan:
        assert len(plan.slabs) == 5


def test_rank_clamp_is_recorded_and_warned_once():
    """Regression: when ``nranks > extent`` the decomposition clamps;
    ``effective_nranks`` records the truth and the clamp warns once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _sharded({"x": np.arange(3.0)}, nranks=10, halo=0) as plan:
            plan.load("x", np.arange(3.0))  # later traffic: no re-warn
            plan.gather()
            assert plan.nranks == 10
            assert plan.effective_nranks == 3
            assert len(plan.slabs) == 3
    clamp = [w for w in caught if "using 3 rank(s)" in str(w.message)]
    assert len(clamp) == 1
    assert issubclass(clamp[0].category, RuntimeWarning)


# -- partition / roundtrip properties -------------------------------------


@pytest.mark.parametrize("extent", [1, 2, 3, 7, 16, 23, 64, 101])
@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 7, 12])
def test_decompose_partition_property(extent, nranks):
    """Ownership ranges exactly partition [0, extent), near-balanced."""
    ranges = decompose(extent, nranks)
    assert len(ranges) == min(nranks, extent)
    covered = [g for lo, hi in ranges for g in range(lo, hi + 1)]
    assert covered == list(range(extent))  # disjoint, ordered, complete
    sizes = [hi - lo + 1 for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("halo", [0, 1, 2, 3])
@pytest.mark.parametrize("nranks", [1, 2, 3, 5])
def test_scatter_gather_roundtrip_property(rng, halo, nranks):
    """gather() of freshly built slabs == x for every halo width and rank
    count."""
    extent = 21
    arrays = {
        "a": rng.standard_normal((extent, 4)),
        "b": rng.standard_normal((extent, 4)),
    }
    with _sharded(arrays, nranks, halo) as plan:
        # Owned ranges tile the domain with no gaps or overlaps.
        owned = [g for s in plan.slabs for g in range(s.own_lo, s.own_hi + 1)]
        assert owned == list(range(extent))
        back = plan.gather(["a", "b"])
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])


@pytest.mark.parametrize("nranks", [2, 3, 5])
def test_halo_exchange_matches_global_rows(rng, nranks):
    """After the exchange, every local row equals the global row it
    shadows — interior and halo alike."""
    extent = 19
    arrays = {"x": rng.standard_normal(extent)}
    with _sharded(arrays, nranks, halo=2) as plan:
        for slab in plan.slabs:  # dirty the halos: the exchange must fix them
            lo = slab.own_lo - slab.slab_lo
            hi = slab.own_hi - slab.slab_lo
            slab.arrays["x"][:lo] = np.nan
            slab.arrays["x"][hi + 1:] = np.nan
        plan.exchange(["x"])
        for slab in plan.slabs:
            local = slab.arrays["x"]
            np.testing.assert_array_equal(
                local, arrays["x"][slab.slab_lo : slab.slab_lo + local.shape[0]]
            )


@pytest.mark.parametrize("halo", [1, 2, 3])
def test_primal_identical_for_any_halo_at_least_radius(rng, halo):
    """Halo width is an implementation choice: any width >= the stencil
    radius gives the bitwise-identical global result."""
    prob = wave_problem(2)
    N = 24
    kernel = compile_nests([prob.primal], prob.bindings(N))
    arrays = prob.allocate(N, rng=rng)
    ref = {k: v.copy() for k, v in arrays.items()}
    kernel(ref)
    with _sharded(arrays, 3, halo, kernel=kernel) as plan:
        plan.step(exchange=["u_1", "u_2", "c"])
        out = plan.gather(["u"])
    np.testing.assert_array_equal(out["u"], ref["u"])


@pytest.mark.parametrize("nranks", [2, 3, 5])
@pytest.mark.parametrize("halo", [1, 2])
def test_accumulate_back_conserves_mass_and_zeroes_halos(rng, nranks, halo):
    """The adjoint exchange moves halo contributions, never loses them:
    the total over all local storage is unchanged, halos end up zero,
    and the gathered owners hold every contribution."""
    with _sharded({"g": np.zeros(17)}, nranks, halo) as plan:
        _randomise(plan, "g", seed=7)  # adjoint contributions, halos included
        total_before = float(_flat(plan, "g").sum())
        plan.accumulate_back(["g"])
        assert float(_flat(plan, "g").sum()) == pytest.approx(
            total_before, rel=1e-12
        )
        for slab in plan.slabs:
            lo = slab.own_lo - slab.slab_lo
            hi = slab.own_hi - slab.slab_lo
            assert np.all(slab.arrays["g"][:lo] == 0.0)
            assert np.all(slab.arrays["g"][hi + 1:] == 0.0)
        gathered = plan.gather(["g"])
    assert float(gathered["g"].sum()) == pytest.approx(total_before, rel=1e-12)


@pytest.mark.parametrize("nranks", [2, 4])
def test_accumulate_back_is_the_transpose_of_the_exchange(rng, nranks):
    """Dot-product (adjoint) identity: <F x, y> == <x, F^T y> where F is
    the forward halo exchange and F^T the accumulate-back, both viewed
    as linear maps on the concatenation of all local storage."""
    zeros = {"x": np.zeros(15)}
    with _sharded(zeros, nranks, 2) as xs, _sharded(zeros, nranks, 2) as ys:
        _randomise(xs, "x", seed=1)
        _randomise(ys, "x", seed=2)
        x0, y0 = _flat(xs, "x"), _flat(ys, "x")
        xs.exchange(["x"])  # xs <- F x
        ys.accumulate_back(["x"])  # ys <- F^T y
        lhs = float(_flat(xs, "x") @ y0)
        rhs = float(x0 @ _flat(ys, "x"))
    assert lhs == pytest.approx(rhs, rel=1e-12)
