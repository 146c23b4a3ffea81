"""Threaded native execution: determinism by construction, at every width.

The contract under test is the PR's hard requirement: a threaded native
run is **bitwise identical** to the serial native run (and therefore to
the Python seed path) at every thread count.  The suite drives the
acceptance matrix — heat/wave/burgers/anisotropic, f64/f32, bound /
fused / ensemble / checkpointed-adjoint — at 1, 2 and 4 threads, and
pins the operational story around it: the thread-count knob precedence
(explicit config beats ``REPRO_NATIVE_THREADS`` beats serial), the
bind-time gates that force ineligible configurations serial, the
one-rung-at-a-time fallback ladder when OpenMP is unavailable, and the
content-addressed cache keeping one ``.so`` per threading mode.

Why the identity holds (and why these are *assertions*, not
tolerances): every natively eligible statement writes through an
injective iteration→element map — the target's subscripts cover each
frame axis exactly once — so partitioning the outermost loop into
contiguous thread blocks partitions the *writes*.  Each element's value
is computed by exactly one thread, with the same scalar arithmetic
sequence as the serial loop.  No reduction, no scratch, no merge —
nothing whose order could perturb a single bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.apps import (
    anisotropic_problem,
    burgers_problem,
    heat_problem,
    wave_problem,
)
from repro.codegen.native_c import (
    generate_fused_source,
    generate_native_source,
    nest_threaded,
)
from repro.core import adjoint_loops
from repro.core.fusion import FusionEntry, parallel_safe_group
from repro.runtime import (
    ExecutionConfig,
    compile_nests,
    faults,
    native_available,
    native_thread_count,
    stack_arrays,
)
from repro.runtime import decisions as decisions_mod
from repro.runtime import native as native_mod

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine"
)

PROBLEMS = [
    ("heat2d", lambda: heat_problem(2), 18),
    ("wave2d", lambda: wave_problem(2), 18),
    ("burgers1d", lambda: burgers_problem(1), 40),
    ("anisotropic", lambda: anisotropic_problem(), 16),
]
THREADS = [1, 2, 4]


def _case(factory, n, dtype=np.float64, seed=0, cache=True):
    prob = factory()
    nests = [prob.primal] + list(adjoint_loops(prob.primal, prob.adjoint_map))
    kernel = compile_nests(nests, prob.bindings(n, dtype=dtype), cache=cache)
    rng = np.random.default_rng(seed)
    base = prob.allocate(n, rng=rng, dtype=dtype)
    base.update(prob.allocate_adjoints(n, rng=rng, dtype=dtype))
    return prob, kernel, base


def _run(kernel, base, replays=2, **plan_kwargs):
    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(backend="native", **plan_kwargs)
    try:
        bound = plan.bind(got)
        for _ in range(replays):
            bound.run()
        return got, bound
    finally:
        plan.close()


def _assert_bitwise(ref, got, label):
    for name in ref:
        assert ref[name].tobytes() == got[name].tobytes(), (
            f"{label} diverged from serial native on {name!r}"
        )


# -- the acceptance matrix ----------------------------------------------------


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("name,factory,n", PROBLEMS, ids=[p[0] for p in PROBLEMS])
def test_bound_bitwise_across_thread_counts(name, factory, n, dtype):
    """Bound plans: serial native == threaded native, bit for bit."""
    _, kernel, base = _case(factory, n, dtype=dtype)
    ref, _ = _run(kernel, base, fusion="off")
    for nthreads in THREADS[1:]:
        got, bound = _run(kernel, base, fusion="off", native_threads=nthreads)
        _assert_bitwise(ref, got, f"{name} native_threads={nthreads}")
        assert bound.native_threads == nthreads


@needs_cc
@pytest.mark.parametrize("name,factory,n", PROBLEMS, ids=[p[0] for p in PROBLEMS])
def test_fused_bitwise_across_thread_counts(name, factory, n):
    """Fused nests: the parallel variant matches the serial fused path."""
    _, kernel, base = _case(factory, n)
    ref, _ = _run(kernel, base, fusion="auto")
    for nthreads in THREADS[1:]:
        got, _ = _run(kernel, base, fusion="auto", native_threads=nthreads)
        _assert_bitwise(ref, got, f"{name} fused native_threads={nthreads}")


@needs_cc
@pytest.mark.parametrize("name,factory,n", PROBLEMS, ids=[p[0] for p in PROBLEMS])
def test_ensemble_bitwise_across_thread_counts(name, factory, n):
    """Ensembles inherit in-kernel threading; members stay bitwise exact."""
    prob, kernel, _ = _case(factory, n)
    states = [prob.allocate_state(n, seed=m) for m in range(2)]
    refs = []
    for st in states:
        ref = {k: v.copy() for k, v in st.items()}
        kernel(ref)
        refs.append(ref)
    for nthreads in (1, 2):
        ens = kernel.plan(backend="native", native_threads=nthreads).ensemble(
            stack_arrays(states)
        )
        with ens:
            ens.run()
            for m, ref in enumerate(refs):
                got = ens.member_arrays(m)
                _assert_bitwise(
                    ref, got, f"{name} ensemble member {m} at {nthreads} threads"
                )


@needs_cc
@pytest.mark.parametrize("nthreads", THREADS)
def test_checkpointed_adjoint_bitwise(nthreads):
    """Revolve-checkpointed adjoints: same gradients at every width."""
    prob = heat_problem(1)
    n = 32
    u0 = prob.allocate_state(n, seed=0)["u_1"]
    seed = prob.allocate_adjoints(n)["u_b"]
    with prob.checkpointed_adjoint(n, steps=6, snaps=2) as py_plan:
        ref = {k: v.copy() for k, v in py_plan.adjoint([u0], seed).items()}
    with prob.checkpointed_adjoint(
        n, steps=6, snaps=2, backend="native", native_threads=nthreads
    ) as plan:
        got = plan.adjoint([u0], seed)
    _assert_bitwise(ref, got, f"checkpointed adjoint at {nthreads} threads")


# -- knob precedence and bind-time gates --------------------------------------


def test_explicit_config_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
    assert native_thread_count(ExecutionConfig(native_threads=2)) == 2
    assert native_thread_count(ExecutionConfig()) == 8


def test_environment_knob_defaults_and_invalid_values(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    assert native_thread_count(ExecutionConfig()) == 1
    for bad in ("banana", "", "-3", "0"):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", bad)
        assert native_thread_count(ExecutionConfig()) == 1


@pytest.mark.parametrize(
    "config",
    [ExecutionConfig(backend="native", check="nan", native_threads=4)],
    ids=["nan-watchdog"],
)
def test_ineligible_configs_gate_to_serial(config):
    """The watchdog forces serial."""
    assert native_thread_count(config) == 1


def test_native_backend_refuses_the_python_pool():
    """One thread knob per backend: the native backend threads its C
    nests through ``native_threads`` and refuses ``num_threads > 1``."""
    with pytest.raises(ValueError, match="native_threads=2"):
        ExecutionConfig(backend="native", num_threads=2)
    with pytest.raises(ValueError, match="native_threads=4"):
        ExecutionConfig(backend="native", num_threads=4)
    assert ExecutionConfig(backend="native", native_threads=2).num_threads == 1


def test_config_rejects_nonpositive_thread_counts():
    with pytest.raises(ValueError, match="native_threads"):
        ExecutionConfig(native_threads=0)
    ExecutionConfig(native_threads=None)  # the default: env decides


# -- the fallback ladder ------------------------------------------------------


@needs_cc
def test_no_openmp_falls_back_one_rung_to_serial_native():
    """A compiler without OpenMP keeps the *serial native* path (not
    python), warns exactly once, and stays bitwise-identical."""
    # cache=False: the library verdict is memoised on the kernel object,
    # so the probe must be hit by a kernel nothing has threaded yet; the
    # reference run pins width 1 explicitly so an ambient
    # REPRO_NATIVE_THREADS (the CI thread matrix) cannot pre-probe.
    _, kernel, base = _case(*PROBLEMS[0][1:], cache=False)
    ref, _ = _run(kernel, base, native_threads=1)
    decisions_mod._reset_warnings()
    native_mod._omp_flags_memo.clear()
    try:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always", RuntimeWarning)
            with faults.inject("native.omp.probe"):
                got, bound = _run(kernel, base, native_threads=2)
                _assert_bitwise(ref, got, "omp-less threaded request")
                assert bound.native_threads == 1  # the effective width
                _run(kernel, base, native_threads=2)  # second request
        omp_warnings = [w for w in rec if "-fopenmp" in str(w.message)]
        assert len(omp_warnings) == 1  # warned once, not per bind
    finally:
        native_mod._omp_flags_memo.clear()
        decisions_mod._reset_warnings()


@needs_cc
def test_threaded_libraries_are_distinct_cache_entries():
    """One .so per threading mode: the build key covers the width."""
    _, kernel, base = _case(*PROBLEMS[0][1:])
    _run(kernel, base)  # serial verdict
    lib2 = native_mod.library_for_kernel(kernel, 2)
    lib4 = native_mod.library_for_kernel(kernel, 4)
    serial = native_mod.library_for_kernel(kernel)
    assert serial.nthreads == 1
    assert (lib2.nthreads, lib4.nthreads) == (2, 4)
    paths = {serial.so_path, lib2.so_path, lib4.so_path}
    assert len(paths) == 3, "threading modes must not share a cache entry"
    # The verdicts are memoised: repeated requests return the same object.
    assert native_mod.library_for_kernel(kernel, 2) is lib2


# -- generated source ---------------------------------------------------------


def _heat_kernel(dim=2, n=12):
    prob = heat_problem(dim)
    nests = [prob.primal] + list(adjoint_loops(prob.primal, prob.adjoint_map))
    return compile_nests(nests, prob.bindings(n))


def _heat2d_kernel(n=12):
    return _heat_kernel(2, n)


@pytest.mark.parametrize("dim", [1, 2], ids=["heat1d", "heat2d"])
def test_threaded_source_carries_pragmas_serial_does_not(dim):
    """Every per-statement nest is threaded — 1-D ones too, on their
    only loop (1-D *fused* groups stay serial: the dim1 fallback test)."""
    kernel = _heat_kernel(dim)
    serial_src, _ = generate_native_source(kernel)
    threaded_src, manifest = generate_native_source(kernel, 4)
    assert "#pragma omp" not in serial_src
    assert threaded_src.count("num_threads(4)") == len(manifest) > 0
    assert "schedule(static)" in threaded_src
    assert "/* threaded variant: 4 OpenMP threads */" in threaded_src
    # Stripping the threading artifacts recovers the serial source: the
    # loop bodies — the arithmetic — are untouched by the transform.
    stripped = [
        line
        for line in threaded_src.splitlines()
        if "#pragma omp" not in line and "threaded variant" not in line
    ]
    assert stripped == serial_src.splitlines()


def test_a_nest_without_a_loop_is_not_threaded():
    stmt = _heat2d_kernel().regions[0].statements[0]
    assert not nest_threaded([FusionEntry(stmt, None, 0, "float64")], 4)
    assert nest_threaded([FusionEntry(stmt, None, 2, "float64")], 4)


def _fused_groups(kernel, base):
    """(fused groups, name->array sources) from a real fusion bind."""
    arrays = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(backend="native", fusion="auto")
    try:
        bound = plan.bind(arrays)
        groups = [v.group for v in bound.decisions if v.rung == "fused"]
        return groups, dict(bound._sources)
    finally:
        plan.close()


@needs_cc
def test_fused_threaded_source_and_dim1_fallback():
    """dim>=2 fused nests get the pragma; dim-1 nests stay serial."""
    kernel2 = _heat2d_kernel()
    prob2 = heat_problem(2)
    base2 = prob2.allocate_state(12, seed=0)
    groups, sources = _fused_groups(kernel2, base2)
    assert groups, "heat2d adjoint should produce fusable groups"
    for group in groups:
        assert parallel_safe_group(group.entries) is None
    src2, _, _ = generate_fused_source(
        groups[0].entries, sources, kernel2.counters, 2
    )
    assert "num_threads(2)" in src2
    serial2, _, _ = generate_fused_source(
        groups[0].entries, sources, kernel2.counters
    )
    assert "#pragma omp" not in serial2

    prob1 = heat_problem(1)
    nests = [prob1.primal] + list(
        adjoint_loops(prob1.primal, prob1.adjoint_map)
    )
    kernel1 = compile_nests(nests, prob1.bindings(40))
    base1 = prob1.allocate_state(40, seed=0)
    groups1, sources1 = _fused_groups(kernel1, base1)
    for group in groups1:
        src, _, _ = generate_fused_source(
            group.entries, sources1, kernel1.counters, 4
        )
        assert "#pragma omp" not in src  # dim-1: no outer loop to split
