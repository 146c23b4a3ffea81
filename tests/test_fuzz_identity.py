"""Seeded random-kernel fuzzing: one semantics across every execution path.

The runtime's layered execution paths — the allocating unbound
reference, first-call ``plan.run``, bound slot-tape replay, the JIT-built C backend (per-statement and with the
dependence-aware fusion pass), batched ensembles — all claim
*bitwise* identity with the plain serial path by construction.  The
hand-written suites assert that for the application kernels; this fuzz
suite asserts it for ~50 structurally random stencil kernels (random
coefficients, access shifts, guards, dimensionality, operators, dtypes),
which exercises corners no curated kernel hits: guard boxes meeting
statement bounds at odd offsets, mixed ``=``/``+=`` statement chains,
nonlinear terms, bare-counter operands, reduced-precision sweeps.

On failure the offending kernel is *shrunk* — statements, rhs terms and
guards are removed while the mismatch persists — and the minimal
kernel's source is printed, so a fuzz regression is immediately
reproducible and readable.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
import sympy as sp

from repro.core.loopnest import LoopNest, Statement
from repro.core.validate import StencilRestrictionError, validate_loop_nest
from repro.runtime import Bindings, compile_nests, native_available
from repro.runtime.ensemble import EnsemblePlan, stack_arrays

N = 9  # grid size: arrays are (N+1,)**dim
RUNS = 3  # kernel applications per path (exercises tape replay)
KERNELS = 50

_n = sp.Symbol("n", integer=True)
_counters = sp.symbols("i j", integer=True)


# -- random kernel generation ----------------------------------------------------


def _random_nest(rng: np.random.Generator) -> tuple[LoopNest, np.dtype]:
    """One random valid stencil nest plus a random dtype."""
    dim = int(rng.integers(1, 3))
    counters = _counters[:dim]
    dtype = np.dtype(np.float64 if rng.random() < 0.5 else np.float32)
    inputs = ["u", "v"][: int(rng.integers(1, 3))]
    funcs = {name: sp.Function(name) for name in inputs}

    def access():
        name = inputs[int(rng.integers(len(inputs)))]
        offs = rng.integers(-1, 2, size=dim)
        return funcs[name](*[c + int(o) for c, o in zip(counters, offs)])

    def term():
        coeff = sp.Float(round(float(rng.standard_normal()), 6))
        expr = coeff * access()
        r = rng.random()
        if r < 0.12:
            expr = expr * access()  # nonlinear product
        elif r < 0.20:
            expr = expr * counters[int(rng.integers(dim))]  # bare counter
        elif r < 0.28:
            expr = sp.Max(expr, sp.Float(0.0))
        elif r < 0.34:
            expr = expr * access() ** 2
        elif r < 0.40:
            expr = sp.sin(expr)
        return expr

    def guard():
        if rng.random() >= 0.35:
            return None
        c = counters[int(rng.integers(dim))]
        kind = rng.integers(4)
        if kind == 0:
            return sp.Gt(c, 2)
        if kind == 1:
            return sp.Ge(c, 3)
        if kind == 2:
            return sp.Lt(c, _n - 3)
        return sp.Ge(_n - 4, c)  # mirrored form: a >= i

    def statement(target_name: str, op: str) -> Statement:
        rhs = sp.Add(*[term() for _ in range(int(rng.integers(1, 4)))])
        return Statement(
            lhs=sp.Function(target_name)(*counters),
            rhs=rhs,
            op=op,
            guard=guard(),
        )

    statements = [statement("r", "=" if rng.random() < 0.5 else "+=")]
    extra = rng.random()
    if extra < 0.25:
        statements.append(statement("r", "+="))  # same-target chain
    elif extra < 0.5:
        statements.append(statement("w", "=" if rng.random() < 0.5 else "+="))
    nest = LoopNest(
        statements=tuple(statements),
        counters=counters,
        bounds={c: (1, _n - 2) for c in counters},
        name="fuzz",
    )
    validate_loop_nest(nest)
    return nest, dtype


def _base_arrays(nest: LoopNest, dtype: np.dtype) -> dict[str, np.ndarray]:
    shape = (N + 1,) * nest.dim
    # crc32, not hash(): str hashing is PYTHONHASHSEED-randomised, and
    # a failing kernel must reproduce with the same input data anywhere.
    rng = np.random.default_rng(zlib.crc32(str(nest).encode()))
    return {
        name: (rng.standard_normal(shape) * 0.5).astype(dtype)
        for name in (*nest.read_arrays(), *nest.written_arrays())
    }


# -- the identity oracle ---------------------------------------------------------


def _mismatch(nest: LoopNest, dtype: np.dtype) -> str | None:
    """Run the nest through every path; a message naming the first
    diverging path, or None when all paths agree bitwise."""
    try:
        kernel = compile_nests(
            [nest], Bindings(sizes={_n: N}, params={}, dtype=dtype),
            name="fuzz", cache=False,
        )
    except Exception as exc:  # compile rejection is not an identity bug
        raise pytest.skip.Exception(f"kernel rejected: {exc}") from exc
    base = _base_arrays(nest, dtype)
    plan = kernel.plan()

    ref = {k: v.copy() for k, v in base.items()}
    plan.run_unbound(ref)
    first = {k: v.copy() for k, v in ref.items()}  # one application
    for _ in range(RUNS - 1):
        plan.run_unbound(ref)

    def check(label: str, final: dict[str, np.ndarray], want=ref) -> str | None:
        for name in want:
            if want[name].tobytes() != final[name].tobytes():
                return f"{label} diverged on {name!r} ({dtype})"
        return None

    # ExecutionPlan.run binds on its first call: a one-shot caller on
    # fresh arrays sees exactly the reference's first application.
    fresh = {k: v.copy() for k, v in base.items()}
    plan.run(fresh)
    fail = check("first-call plan.run", fresh, first)
    if fail:
        return fail

    bound_arrays = {k: v.copy() for k, v in base.items()}
    bound = plan.bind(bound_arrays)
    for _ in range(RUNS):
        bound.run()
    fail = check("bound plan", bound_arrays)
    if fail:
        return fail

    if native_available():
        native_arrays = {k: v.copy() for k, v in base.items()}
        nplan = kernel.plan(backend="native", fusion="off")
        nbound = nplan.bind(native_arrays)
        for _ in range(RUNS):
            nbound.run()
        fail = check(
            f"native backend ({nbound.native_statement_count}/"
            f"{nbound.statement_count} native)",
            native_arrays,
        )
        if fail:
            return fail

        fused_arrays = {k: v.copy() for k, v in base.items()}
        fplan = kernel.plan(backend="native", fusion="auto")
        fbound = fplan.bind(fused_arrays)
        for _ in range(RUNS):
            fbound.run()
        fail = check(
            f"fused native backend ({fbound.fused_group_count} groups "
            f"covering {fbound.fused_statement_count}/"
            f"{fbound.statement_count} statements)",
            fused_arrays,
        )
        if fail:
            return fail

        # Threaded native: bitwise at every thread count, by construction
        # (injective writes partition race-free).  Thread count goes in
        # the label so a shrunk reproducer pins the failing width.
        for nthreads in (2, 4):
            mt_arrays = {k: v.copy() for k, v in base.items()}
            mtplan = kernel.plan(backend="native", native_threads=nthreads)
            mtbound = mtplan.bind(mt_arrays)
            for _ in range(RUNS):
                mtbound.run()
            fail = check(
                f"threaded native backend (native_threads={nthreads}, "
                f"effective {mtbound.native_threads})",
                mt_arrays,
            )
            if fail:
                return fail

    batched = stack_arrays([{k: v.copy() for k, v in base.items()}])
    ensemble = EnsemblePlan(plan, batched)
    for _ in range(RUNS):
        ensemble.run()
    fail = check(
        "ensemble-of-1", {name: batched[name][0] for name in ref}
    )
    if fail:
        return fail
    return None


# -- shrinking -------------------------------------------------------------------


def _variants(nest: LoopNest):
    """Strictly smaller candidate nests, most aggressive first."""
    stmts = nest.statements
    if len(stmts) > 1:
        for drop in range(len(stmts)):
            kept = tuple(s for k, s in enumerate(stmts) if k != drop)
            yield LoopNest(kept, nest.counters, nest.bounds, name=nest.name)
    for si, st in enumerate(stmts):
        if st.guard is not None:
            new = list(stmts)
            new[si] = st.with_guard(None)
            yield LoopNest(tuple(new), nest.counters, nest.bounds, name=nest.name)
        if isinstance(st.rhs, sp.Add) and len(st.rhs.args) > 1:
            for drop in range(len(st.rhs.args)):
                rhs = sp.Add(
                    *[a for k, a in enumerate(st.rhs.args) if k != drop]
                )
                new = list(stmts)
                new[si] = Statement(lhs=st.lhs, rhs=rhs, op=st.op, guard=st.guard)
                yield LoopNest(
                    tuple(new), nest.counters, nest.bounds, name=nest.name
                )


def _shrink(nest: LoopNest, dtype: np.dtype, fail: str) -> tuple[LoopNest, str]:
    """Greedily minimise a failing nest while the mismatch persists."""
    for _ in range(64):  # bounded: each accepted step strictly shrinks
        for candidate in _variants(nest):
            try:
                validate_loop_nest(candidate)
                smaller_fail = _mismatch(candidate, dtype)
            except (StencilRestrictionError, pytest.skip.Exception):
                continue
            if smaller_fail is not None:
                nest, fail = candidate, smaller_fail
                break
        else:
            return nest, fail
    return nest, fail


@pytest.mark.parametrize("seed", range(KERNELS))
def test_random_kernel_paths_agree_bitwise(seed):
    rng = np.random.default_rng(0xF022 + seed)
    nest, dtype = _random_nest(rng)
    fail = _mismatch(nest, dtype)
    if fail is not None:
        nest, fail = _shrink(nest, dtype, fail)
        pytest.fail(
            f"{fail}\nminimal failing kernel (seed {seed}, {dtype}):\n{nest}"
        )
