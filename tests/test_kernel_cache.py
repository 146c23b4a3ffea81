"""Kernel cache tests: equal inputs hit, distinct inputs miss."""

import numpy as np
import pytest
import sympy as sp

from repro.apps import heat_problem
from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import (
    Bindings,
    KernelCache,
    clear_kernel_cache,
    compile_nests,
    get_kernel_cache,
    kernel_key,
)

i = sp.Symbol("i", integer=True)
n = sp.Symbol("n", integer=True)
u, r = sp.Function("u"), sp.Function("r")


def _nest():
    return make_loop_nest(
        lhs=r(i), rhs=2 * u(i - 1) - u(i + 1), counters=[i], bounds={i: [1, n - 1]}
    )


def test_equal_inputs_return_cached_kernel_object():
    """Two compile_nests calls with structurally equal inputs share one kernel."""
    prob_a, prob_b = heat_problem(2), heat_problem(2)
    k_a = compile_nests(
        adjoint_loops(prob_a.primal, prob_a.adjoint_map), prob_a.bindings(16)
    )
    k_b = compile_nests(
        adjoint_loops(prob_b.primal, prob_b.adjoint_map), prob_b.bindings(16)
    )
    assert k_a is k_b


def test_distinct_bindings_miss_the_cache():
    cache = KernelCache()
    base = compile_nests([_nest()], Bindings(sizes={n: 16}), cache=cache)
    for bindings in [
        Bindings(sizes={n: 17}),  # different size
        Bindings(sizes={n: 16}, dtype=np.float32),  # different dtype
    ]:
        other = compile_nests([_nest()], bindings, cache=cache)
        assert other is not base
    assert cache.misses == 3
    assert cache.hits == 0


def test_distinct_params_miss_the_cache():
    C = sp.Symbol("C", real=True)
    nest = make_loop_nest(
        lhs=r(i), rhs=C * u(i), counters=[i], bounds={i: [0, n]}
    )
    cache = KernelCache()
    k1 = compile_nests([nest], Bindings(sizes={n: 8}, params={C: 1.0}), cache=cache)
    k2 = compile_nests([nest], Bindings(sizes={n: 8}, params={C: 2.0}), cache=cache)
    assert k1 is not k2


def test_distinct_name_misses_the_cache():
    cache = KernelCache()
    k1 = compile_nests([_nest()], Bindings(sizes={n: 8}), name="a", cache=cache)
    k2 = compile_nests([_nest()], Bindings(sizes={n: 8}), name="b", cache=cache)
    assert k1 is not k2


def test_function_rebinding_misses_the_cache():
    f = sp.Function("f")
    nest = make_loop_nest(
        lhs=r(i), rhs=f(u(i)), counters=[i], bounds={i: [0, n]}
    )
    impl_a, impl_b = (lambda x: x * 2), (lambda x: x * 3)
    cache = KernelCache()
    k_a = compile_nests(
        [nest], Bindings(sizes={n: 8}, functions={"f": impl_a}), cache=cache
    )
    k_a2 = compile_nests(
        [nest], Bindings(sizes={n: 8}, functions={"f": impl_a}), cache=cache
    )
    k_b = compile_nests(
        [nest], Bindings(sizes={n: 8}, functions={"f": impl_b}), cache=cache
    )
    assert k_a is k_a2
    assert k_a is not k_b


def test_cache_true_uses_global_cache():
    """cache=True is accepted as an explicit 'default caching' spelling."""
    clear_kernel_cache()
    k1 = compile_nests([_nest()], Bindings(sizes={n: 21}), cache=True)
    k2 = compile_nests([_nest()], Bindings(sizes={n: 21}))
    assert k1 is k2


def test_cache_bypass():
    cache = KernelCache()
    k1 = compile_nests([_nest()], Bindings(sizes={n: 8}), cache=cache)
    k2 = compile_nests([_nest()], Bindings(sizes={n: 8}), cache=False)
    assert k1 is not k2
    assert cache.stats()["entries"] == 1


def test_cache_hit_and_miss_counters():
    cache = KernelCache()
    for _ in range(3):
        compile_nests([_nest()], Bindings(sizes={n: 8}), cache=cache)
    stats = cache.stats()
    assert stats == {"hits": 2, "misses": 1, "entries": 1}


def test_cache_lru_eviction():
    cache = KernelCache(maxsize=1)
    k1 = compile_nests([_nest()], Bindings(sizes={n: 8}), cache=cache)
    compile_nests([_nest()], Bindings(sizes={n: 9}), cache=cache)  # evicts k1
    assert len(cache) == 1
    k1_again = compile_nests([_nest()], Bindings(sizes={n: 8}), cache=cache)
    assert k1_again is not k1


def test_global_cache_clear():
    k1 = compile_nests([_nest()], Bindings(sizes={n: 12}))
    assert compile_nests([_nest()], Bindings(sizes={n: 12})) is k1
    clear_kernel_cache()
    k2 = compile_nests([_nest()], Bindings(sizes={n: 12}))
    assert k2 is not k1
    assert get_kernel_cache().stats()["hits"] == 0


def test_kernel_key_stable_and_content_addressed():
    key1 = kernel_key([_nest()], Bindings(sizes={n: 8}))
    key2 = kernel_key([_nest()], Bindings(sizes={n: 8}))
    key3 = kernel_key([_nest()], Bindings(sizes={n: 9}))
    assert key1 == key2
    assert key1 != key3


def test_invalid_maxsize():
    with pytest.raises(ValueError):
        KernelCache(maxsize=0)


def test_cached_kernels_share_plans():
    """The compile-once/plan-once pipeline: both memo layers compose."""
    prob = heat_problem(1)
    k1 = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(30)
    )
    k2 = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(30)
    )
    assert k1 is k2
    assert k1.plan(min_block_iterations=8) is k2.plan(min_block_iterations=8)
