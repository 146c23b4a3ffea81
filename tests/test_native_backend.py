"""Native-backend tests: JIT-built C statements, bitwise-identical.

The contract under test is absolute: ``backend="native"`` must
reproduce the serial seed path *bit for bit* — on the first run and on
steady-state replay, across disciplines, apps and dtypes — or fall back
to the Python path statement-wise (and then trivially match).  The
suite also pins the operational story: the content-addressed ``.so``
disk cache reuses builds without invoking the compiler, a machine
without a C toolchain warns exactly once and produces identical
results, and the scalar-semantics assumptions the lowering whitelist
rests on (``x**2`` is ``x*x``, NumPy min/max tie-breaking) hold on this
platform.
"""

import gc
import os
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
import sympy as sp

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.baselines.scatter import tapenade_style_adjoint
from repro.codegen.native_c import generate_native_source, native_eligibility
from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import (
    Bindings,
    ExecutionConfig,
    clear_kernel_cache,
    compile_nests,
    interpret_nests,
    native_available,
)
from repro.runtime import decisions as decisions_mod
from repro.runtime import native as native_mod
from test_lattice import replaced

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine"
)


def _seed_serial(kernel, arrays):
    """The pre-plan seed execution path: per-call views and temporaries."""
    for region in kernel.regions:
        region.execute(arrays)


def _case(prob, n, rng, dtype=np.float64, with_primal=True, scatter=False):
    if scatter:
        nests = [tapenade_style_adjoint(prob.primal, prob.adjoint_map)]
    else:
        nests = list(adjoint_loops(prob.primal, prob.adjoint_map))
        if with_primal:
            nests = [prob.primal] + nests
    kernel = compile_nests(nests, prob.bindings(n, dtype=dtype))
    base = prob.allocate(n, rng=rng, dtype=dtype)
    base.update(prob.allocate_adjoints(n, rng=rng, dtype=dtype))
    return kernel, base


def _assert_native_matches_seed(kernel, base, replays=2, **plan_kwargs):
    """Native bound runs equal the seed serial path bitwise."""
    ref = {k: v.copy() for k, v in base.items()}
    _seed_serial(kernel, ref)
    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(backend="native", **plan_kwargs)
    try:
        bound = plan.bind(got)
        for _ in range(replays):
            bound.run()
            for name in ref:
                assert ref[name].tobytes() == got[name].tobytes(), (
                    f"{name} diverged from the seed serial path"
                )
            for name, arr in base.items():
                got[name][...] = arr
        return bound
    finally:
        plan.close()


# -- bitwise identity ---------------------------------------------------------


test_heat2d_forward_and_adjoint_bitwise = needs_cc(replaced("test_heat2d_forward_and_adjoint_bitwise"))
test_adjoint_apps_bitwise = needs_cc(replaced("test_adjoint_apps_bitwise"))
test_scatter_kernel_bitwise = needs_cc(replaced("test_scatter_kernel_bitwise"))


@needs_cc
def test_burgers_float32_partial_fallback_still_exact(rng):
    """Heaviside statements fall back on f32; results stay bitwise exact."""
    kernel, base = _case(burgers_problem(2), 16, rng, dtype=np.float32)
    bound = _assert_native_matches_seed(kernel, base)
    assert 0 < bound.native_statement_count < bound.statement_count


@needs_cc
def test_plan_run_memoised_binding_uses_native(rng):
    """ExecutionPlan.run's transparent binding also hits the native path."""
    kernel, base = _case(heat_problem(2), 18, rng)
    ref = {k: v.copy() for k, v in base.items()}
    _seed_serial(kernel, ref)
    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(backend="native")
    try:
        plan.run(got)  # first sighting: unbound python reference path
        for name, arr in base.items():
            got[name][...] = arr
        plan.run(got)  # second sighting: binds natively
        for name in ref:
            assert ref[name].tobytes() == got[name].tobytes()
    finally:
        plan.close()


# -- fallback without a toolchain --------------------------------------------


def test_no_compiler_falls_back_and_warns_once(rng, monkeypatch, tmp_path):
    """Pinned to a nonexistent compiler: one warning, identical results."""
    monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(native_mod, "_toolchain_memo", {})
    monkeypatch.setattr(decisions_mod, "_warned", set())
    assert not native_available()

    prob = heat_problem(2)
    nests = [prob.primal] + list(adjoint_loops(prob.primal, prob.adjoint_map))
    kernel = compile_nests(nests, prob.bindings(12), cache=False)
    base = prob.allocate(12, rng=rng)
    base.update(prob.allocate_adjoints(12, rng=rng))

    ref = {k: v.copy() for k, v in base.items()}
    _seed_serial(kernel, ref)

    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(backend="native")
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        bound = plan.bind(got)
    assert bound.native_statement_count == 0  # full python fallback
    bound.run()
    for name in ref:
        assert ref[name].tobytes() == got[name].tobytes()

    # The second binding must not warn again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rebound = plan.bind({k: v.copy() for k, v in base.items()})
    assert rebound.native_statement_count == 0
    plan.close()


@needs_cc
def test_toolchain_change_revalidates_kernel_memo(rng, monkeypatch, tmp_path):
    """A kernel bound under a dead toolchain recovers once cc is back."""
    prob = heat_problem(1)
    nests = list(adjoint_loops(prob.primal, prob.adjoint_map))
    kernel = compile_nests(nests, prob.bindings(20), cache=False)
    base = prob.allocate(20, rng=rng)
    base.update(prob.allocate_adjoints(20, rng=rng))

    monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(native_mod, "_toolchain_memo", {})
    monkeypatch.setattr(decisions_mod, "_warned", set())
    with pytest.warns(RuntimeWarning):
        plan = kernel.plan(backend="native")
        assert plan.bind(dict(base)).native_statement_count == 0

    monkeypatch.delenv("REPRO_CC")
    monkeypatch.setattr(native_mod, "_toolchain_memo", {})
    bound = kernel.plan(backend="native").bind(dict(base))
    assert bound.native_statement_count > 0


# -- disk cache ---------------------------------------------------------------


@needs_cc
def test_shared_object_disk_cache_reuses_builds(rng, monkeypatch, tmp_path):
    """Same kernel content: second build reuses the .so without compiling.

    The library rung compiles nothing; the runners object is built once
    per cache directory (here: ``runners()``), each kernel's
    per-statement object on first use (here: ``so_path``).
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    prob = heat_problem(2)
    nests = list(adjoint_loops(prob.primal, prob.adjoint_map))

    calls = {"n": 0}
    real_popen = native_mod.subprocess.Popen

    def counting_popen(cmd, **kwargs):
        if isinstance(cmd, list) and "-shared" in cmd:
            calls["n"] += 1
        return real_popen(cmd, **kwargs)

    monkeypatch.setattr(native_mod.subprocess, "Popen", counting_popen)

    k1 = compile_nests(nests, prob.bindings(12), cache=False)
    lib1 = native_mod.library_for_kernel(k1)
    assert lib1 is not None and calls["n"] == 0
    lib1.runners()
    assert calls["n"] == 1  # the runners only
    assert lib1.so_path.exists() and calls["n"] == 2
    assert lib1.so_path.with_suffix(".c").exists()  # source kept for debugging

    # A content-equal kernel compiled separately: cache hit, no cc call.
    k2 = compile_nests(nests, prob.bindings(12), cache=False)
    lib2 = native_mod.library_for_kernel(k2)
    lib2.runners()
    assert lib2 is not None and calls["n"] == 2
    assert lib2.so_path == lib1.so_path and calls["n"] == 2

    # Grid size lives in the runtime geometry, not the source: a
    # different n still hits the same shared object.
    k3 = compile_nests(nests, prob.bindings(14), cache=False)
    lib3 = native_mod.library_for_kernel(k3)
    assert lib3 is not None and calls["n"] == 2
    assert lib3.so_path == lib1.so_path and calls["n"] == 2

    # Different generated code (dtype changes the typedef): rebuild the
    # per-statement object; the runners object is shared.
    k4 = compile_nests(nests, prob.bindings(12, dtype=np.float32), cache=False)
    lib4 = native_mod.library_for_kernel(k4)
    lib4.runners()
    assert lib4 is not None and calls["n"] == 2
    assert lib4.so_path != lib1.so_path and calls["n"] == 3


@needs_cc
def test_concurrent_first_binds_compile_once_per_object(monkeypatch, tmp_path):
    """Regression: check → compile → rename was not under one lock, so
    four threads binding one fresh kernel ran the compiler 8x, not 3x
    (the library and its two fused nests)."""
    real_cc = native_mod.native_toolchain()
    log = tmp_path / "cc.log"
    stub = tmp_path / "counting-cc"
    stub.write_text(
        f'#!/bin/sh\ncase " $* " in *" -shared "*) echo x >> "{log}";; esac\n'
        f'exec "{real_cc}" "$@"\n'
    )
    stub.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(stub))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(native_mod, "_toolchain_memo", {})
    # The per-compiler probes are not the bind.
    native_mod._host_cflags(str(stub))
    native_mod._omp_cflags(str(stub))
    log.write_text("")

    prob = wave_problem(2)
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)),
        prob.bindings(32),
        cache=False,
    )
    plan = kernel.plan(backend="native")
    states = [prob.allocate_state(32, seed=0) for _ in range(4)]
    bounds, errors = [None] * 4, []
    go = threading.Barrier(4)

    def first_bind(k):
        try:
            go.wait(timeout=30)
            bounds[k] = plan.bind(states[k])
            bounds[k].run()
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=first_bind, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(log.read_text().split()) == 3
    assert all(b.fused_group_count == 2 for b in bounds)
    for state in states[1:]:
        for name in state:
            assert state[name].tobytes() == states[0][name].tobytes()
    plan.close()


# -- build plan: only the rungs that run are compiled --------------------------


def _logging_cc(monkeypatch, tmp_path, fail=(), hang=()):
    """Point ``REPRO_CC`` at a stub that logs the C source of every
    shared-object build and runs the real compiler — or exits 1 on a
    source matching every ``grep`` pattern in *fail*, or sleeps (in a
    child of its own) on one matching every pattern in *hang*.  Returns
    the log's reader: one entry per build, ``"runners"``, ``"fused"``,
    ``"literal"`` (a one-statement literal nest) or the kernel name of a
    per-statement unit (the probes run beforehand); its ``spans()``
    gives each kind's ``(start, end)`` wall-clock times."""
    real_cc = native_mod.native_toolchain()
    log = tmp_path / "cc.log"
    times = tmp_path / "cc.times"
    stub = tmp_path / "logging-cc"

    def matching(patterns, then):
        return "".join(f'grep -q "{p}" "$src" && ' for p in patterns) + then if patterns else ""

    stub.write_text(
        "#!/bin/sh\n"
        'for a; do case "$a" in *.c) src="$a";; esac; done\n'
        f'case " $* " in *" -shared "*) echo "$src" >> "{log}";; esac\n'
        + matching(fail, "exit 1\n")
        + matching(hang, "{ sleep 60; exit 1; }\n")
        + "start=$(date +%s.%N)\n"
        f'"{real_cc}" "$@"; code=$?\n'
        f'echo "$src $start $(date +%s.%N)" >> "{times}"\n'
        "exit $code\n"
    )
    stub.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(stub))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(native_mod, "_toolchain_memo", {})
    native_mod._host_cflags(str(stub))  # the per-compiler probes are not binds
    native_mod._omp_cflags(str(stub))
    log.write_text("")
    times.write_text("")

    def kind(path: str) -> str:
        with open(path) as fh:
            head = fh.read()
        for mark, name in (("(runners)", "runners"), ("(fused)", "fused"),
                           ("(literal nest)", "literal")):
            if mark in head:
                return name
        return head.split("kernel '")[1].split("'")[0]

    def built() -> list[str]:
        return sorted(kind(path) for path in log.read_text().split())

    def spans() -> dict[str, list[tuple[float, float]]]:
        out: dict = {}
        for line in times.read_text().splitlines():
            path, start, end = line.split()
            out.setdefault(kind(path), []).append((float(start), float(end)))
        return out

    built.spans = spans
    return built


def _overlap(a, b) -> bool:
    return max(a[0], b[0]) < min(a[1], b[1])


def _first_gradient(n=32, native_threads=1, primal_fusion="auto"):
    """The cold workload's shape: wave2d primal (one statement: a
    literal nest, or its per-statement entry under
    ``primal_fusion="off"``) then its adjoint (35 statements in two
    fused nests), bound on one state and run once, bitwise equal to
    ``interpret_nests``; returns the two bindings.  The width is pinned,
    so the build plan does not follow ``REPRO_NATIVE_THREADS``."""
    prob = wave_problem(2)
    adjoint = list(adjoint_loops(prob.primal, prob.adjoint_map))
    bindings = prob.bindings(n)
    kernels = [
        compile_nests([prob.primal], bindings, name="wave2d", cache=False),
        compile_nests(adjoint, bindings, name="wave2d_b", cache=False),
    ]
    state = prob.allocate_state(n, seed=3)
    want = {k: v.copy() for k, v in state.items()}
    interpret_nests([prob.primal], want, bindings)
    interpret_nests(adjoint, want, bindings)
    plans = [
        k.plan(backend="native", native_threads=native_threads, fusion=fusion)
        for k, fusion in zip(kernels, (primal_fusion, "auto"))
    ]
    bounds = [p.bind(state) for p in plans]
    for bound in bounds:
        bound.run()
    for plan in plans:
        plan.close()
    for name in want:
        assert state[name].tobytes() == want[name].tobytes(), name
    return bounds


@needs_cc
def test_cold_first_gradient_builds_only_the_rungs_that_run(monkeypatch, tmp_path):
    """Runners once, the adjoint's two fused nests and the primal's
    literal nest: neither kernel's per-statement unit (35 functions and
    one, none of which runs) is printed or compiled."""
    built = _logging_cc(monkeypatch, tmp_path)
    printed = []
    real = native_mod.native_unit
    monkeypatch.setattr(
        native_mod, "native_unit", lambda *a: (printed.append(a[0]), real(*a))[1]
    )
    primal, adjoint = _first_gradient()
    assert built() == ["fused", "fused", "literal", "runners"]
    assert printed == []
    assert primal.native_statement_count == primal.statement_count == 1
    assert primal.decisions[1].geometry == "literal nest"
    assert primal.fused_group_count == 0 and primal.sweep_count == 1
    assert adjoint.fused_statement_count == adjoint.statement_count == 35
    assert adjoint.fused_group_count == 2


@needs_cc
def test_per_statement_unit_builds_once_across_first_binds(monkeypatch, tmp_path):
    """``fusion="off"``: four threads' first binds need the per-statement
    unit at once; it is compiled exactly once (single-flight)."""
    built = _logging_cc(monkeypatch, tmp_path)
    prob = wave_problem(2)
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)),
        prob.bindings(32),
        name="wave2d_b",
        cache=False,
    )
    plan = kernel.plan(backend="native", fusion="off")
    states = [prob.allocate_state(32, seed=0) for _ in range(4)]
    bounds, errors = [None] * 4, []
    go = threading.Barrier(4)

    def first_bind(k):
        try:
            go.wait(timeout=30)
            bounds[k] = plan.bind(states[k])
            bounds[k].run()
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=first_bind, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the check-then-build densely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    plan.close()
    assert not errors and not any(t.is_alive() for t in threads)
    assert built() == ["runners", "wave2d_b"]
    assert all(b.native_statement_count == b.statement_count == 35 for b in bounds)
    for state in states[1:]:
        for name in state:
            assert state[name].tobytes() == states[0][name].tobytes()


# The comment line opening a per-statement unit ("ABI v3, kernel 'x'");
# runners and fused nests open differently.
_PER_STATEMENT_UNIT = "^/\\* ABI v[0-9]*, kernel "


@needs_cc
def test_failed_per_statement_unit_degrades_only_its_statements(
    monkeypatch, tmp_path
):
    """A compiler failing only the per-statement unit: the fused nests
    stay native, the statement that needed the unit (the primal under
    ``fusion="off"``) binds to python with the ``build-failed`` verdict
    (one warning), and the results stay bitwise."""
    built = _logging_cc(monkeypatch, tmp_path, fail=[_PER_STATEMENT_UNIT])
    decisions_mod._reset_warnings()
    with pytest.warns(RuntimeWarning, match="native build of kernel 'wave2d' failed"):
        primal, adjoint = _first_gradient(primal_fusion="off")
    assert built() == ["fused", "fused", "runners", "wave2d"]
    assert primal.decisions[0].rung == "native"  # the runners built
    (verdict,) = primal.decisions[1:]
    assert verdict.rung == "python"
    assert "falling back to the python backend" in verdict.reason
    assert primal.native_statement_count == 0
    assert adjoint.fused_statement_count == adjoint.statement_count == 35


@needs_cc
def test_failed_threaded_unit_lands_on_the_serial_library(monkeypatch, tmp_path):
    """The threaded variant: only the OpenMP per-statement unit fails, so
    its statement (the primal under ``fusion="off"``) binds to the
    *serial* library's entry — still native, with the ``mt-build-failed``
    reason — and the results stay bitwise."""
    if native_mod._omp_cflags(native_mod.native_toolchain()) is None:
        pytest.skip("the compiler cannot build OpenMP code")
    built = _logging_cc(
        monkeypatch, tmp_path, fail=[_PER_STATEMENT_UNIT, "^/\\* threaded variant"]
    )
    decisions_mod._reset_warnings()
    with pytest.warns(RuntimeWarning, match="threaded native build of kernel 'wave2d'"):
        primal, adjoint = _first_gradient(native_threads=2, primal_fusion="off")
    # The threaded unit's failed attempt, then the serial unit.
    assert built() == ["fused", "fused", "runners", "wave2d", "wave2d"]
    (verdict,) = primal.decisions[1:]
    assert verdict.rung == "native"
    assert "falling back to the serial native path" in verdict.reason
    kernel = primal.plan.kernel
    serial = native_mod.library_for_kernel(kernel, 1)
    (stmt,) = primal._serial_items
    assert stmt.fn is serial.stmt_fn(kernel.regions[0], 0)
    assert adjoint.fused_statement_count == adjoint.statement_count == 35


@needs_cc
def test_failed_literal_nest_lands_a_singleton_on_its_per_statement_entry(
    monkeypatch, tmp_path
):
    """A compiler failing only the one-statement literal nest: the
    primal binds to its per-statement ``geom`` entry — still native,
    with the refusal as its reason and one warning — the adjoint's
    fused nests are untouched, and the results stay bitwise."""
    built = _logging_cc(monkeypatch, tmp_path, fail=["(literal nest)"])
    decisions_mod._reset_warnings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        primal, adjoint = _first_gradient()
    said = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert len(said) == 1 and "literal nest build for kernel 'wave2d'" in said[0]
    assert built() == ["fused", "fused", "literal", "runners", "wave2d"]
    (verdict,) = primal.decisions[1:]
    assert (verdict.rung, verdict.geometry) == ("native", "geom entry")
    assert verdict.reason.startswith("literal nest refused: literal nest build")
    assert primal.native_statement_count == primal.statement_count == 1
    assert adjoint.fused_statement_count == adjoint.statement_count == 35


@needs_cc
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_a_bind_compiles_its_objects_at_once(monkeypatch, tmp_path):
    """One batch per bind: the primal's literal nest compiles while the
    runners object does, and the adjoint's two fused nests compile
    together — four objects, two rounds, bitwise equal to python.  A
    warm bind compiles nothing."""
    built = _logging_cc(monkeypatch, tmp_path)
    _first_gradient()
    assert built() == ["fused", "fused", "literal", "runners"]
    spans = built.spans()
    assert _overlap(spans["runners"][0], spans["literal"][0]), spans
    assert _overlap(*spans["fused"]), spans
    _first_gradient()  # fresh kernels, warm cache: their batches start no cc
    assert built() == ["fused", "fused", "literal", "runners"]


@needs_cc
def test_a_failed_object_degrades_only_its_own_group(monkeypatch, tmp_path):
    """A compiler failing only the 32-statement group's source: that group
    lands on its per-statement entries with one warning and the refusal
    in ``explain()``; the 3-statement group compiled beside it and the
    primal stay literal nests, and the results stay bitwise."""
    built = _logging_cc(monkeypatch, tmp_path, fail=["32-statement group"])
    decisions_mod._reset_warnings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        primal, adjoint = _first_gradient()
    said = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert len(said) == 1
    assert said[0].startswith("fused native build for kernel 'wave2d_b' failed (cache: ")
    assert "the group falls back to per-statement execution" in said[0]
    assert built() == ["fused", "fused", "literal", "runners", "wave2d_b"]
    assert primal.decisions[1].geometry == "literal nest"
    assert adjoint.fused_group_count == 1 and adjoint.fused_statement_count == 3
    assert adjoint.native_statement_count == adjoint.statement_count == 35
    refused = f"native (geom entry) — fused nest refused: {said[0]}"
    assert any(line.endswith(refused) for line in adjoint.explain())


@needs_cc
def test_a_hung_compile_is_killed_and_its_siblings_load(monkeypatch, tmp_path, started):
    """A compiler hanging on the 3-statement group's source under a small
    ``REPRO_CC_TIMEOUT``: that compile (and the child it started) is
    killed at its deadline, no process or descriptor outlives the batch,
    and the 32-statement group built beside it still loads."""
    built = _logging_cc(monkeypatch, tmp_path, hang=["3-statement group"])
    monkeypatch.setenv("REPRO_CC_TIMEOUT", "2")
    decisions_mod._reset_warnings()
    with pytest.warns(RuntimeWarning, match="timed out after 2s"):
        _primal, adjoint = _first_gradient()
    assert not started().children and not started().fds
    assert built() == ["fused", "fused", "literal", "runners", "wave2d_b"]
    assert adjoint.fused_group_count == 1 and adjoint.fused_statement_count == 32
    assert adjoint.native_statement_count == adjoint.statement_count == 35


@needs_cc
def test_fault_points_fire_in_batch_order(monkeypatch, tmp_path):
    """The bind's batch draws the runners object, then each group's nest
    in stream order, and the fault points fire as they are drawn: a
    cache write failing on its second occurrence fails exactly the
    32-statement group, the first nest of the adjoint's batch."""
    from repro.runtime import faults

    built = _logging_cc(monkeypatch, tmp_path)
    decisions_mod._reset_warnings()
    prob = wave_problem(2)
    adjoint = list(adjoint_loops(prob.primal, prob.adjoint_map))
    kernel = compile_nests(adjoint, prob.bindings(32), name="wave2d_b", cache=False)
    state = prob.allocate_state(32, seed=3)
    want = {k: v.copy() for k, v in state.items()}
    interpret_nests(adjoint, want, prob.bindings(32))
    with kernel.plan(backend="native") as plan:
        with faults.inject("native.cache.write", skip=1) as inj:
            with pytest.warns(RuntimeWarning, match="cannot write native cache"):
                bound = plan.bind(state)
        bound.run()
    assert inj.fired("native.cache.write") == 1
    assert built() == ["fused", "runners", "wave2d_b"]
    assert bound.fused_group_count == 1 and bound.fused_statement_count == 3
    for name in want:
        assert state[name].tobytes() == want[name].tobytes(), name


def test_the_leak_census_names_each_descriptor_kind(started, tmp_path):
    """A pipe left open (what a killed compile could leak) reads "pipe"
    in the census, a socket "socket" and anything else "file"."""
    import socket

    r, w = os.pipe()
    a, b = socket.socketpair()
    f = open(tmp_path / "x", "w")
    try:
        kinds = sorted(fd.split()[1] for fd in started().fds)
    finally:
        for x in (a, b, f):
            x.close()
        os.close(r)
        os.close(w)
    assert kinds == ["file", "pipe", "pipe", "socket", "socket"]


@needs_cc
def test_failed_runners_in_a_batch_fall_back_like_a_failed_library(
    monkeypatch, tmp_path
):
    """The runners object fails in the bind's batch: the library verdict,
    the one warning and the python run are a failed library build's."""
    built = _logging_cc(monkeypatch, tmp_path, fail=["(runners)"])
    decisions_mod._reset_warnings()
    prob = wave_problem(2)
    adjoint = list(adjoint_loops(prob.primal, prob.adjoint_map))
    kernel = compile_nests(adjoint, prob.bindings(32), name="wave2d_b", cache=False)
    state = prob.allocate_state(32, seed=3)
    want = {k: v.copy() for k, v in state.items()}
    interpret_nests(adjoint, want, prob.bindings(32))
    with kernel.plan(backend="native") as plan:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bound = plan.bind(state)
            plan.bind({k: v.copy() for k, v in state.items()})  # memoised
        bound.run()
    said = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert len(said) == 1 and said[0].startswith(
        "native build of kernel 'wave2d_b' failed (cache: "
    )
    assert "falling back to the python backend" in said[0]
    assert bound.decisions[0] == decisions_mod.Verdict("library", "python", said[0])
    assert native_mod.library_verdict(kernel) == (None, bound.decisions[0])
    assert bound.mode.native_off == said[0]
    assert bound.native_statement_count == 0 and "runners" in built()
    for name in want:
        assert state[name].tobytes() == want[name].tobytes(), name


@needs_cc
def test_a_statement_the_unit_printer_refuses_runs_python_and_says_why(monkeypatch):
    """The per-statement unit is printed on first need, after the gate
    admitted its statements: one the printer then leaves out binds to
    python with the printer's reason, and its neighbours stay native."""
    real = native_mod.native_unit

    def refusing(*args):
        source, manifest, refused = real(*args)
        refused[min(manifest)] = "pretend the printer choked"
        del manifest[min(manifest)]
        return source, manifest, refused

    monkeypatch.setattr(native_mod, "native_unit", refusing)
    prob = heat_problem(2)
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)), prob.bindings(10),
        cache=False,
    )
    base = prob.allocate_state(10, seed=3)
    want = {k: v.copy() for k, v in base.items()}
    _seed_serial(kernel, want)
    with kernel.plan(backend="native", fusion="off") as plan:
        bound = plan.bind(base)
        bound.run()
    (verdict,) = [v for v in bound.decisions[1:] if v.rung == "python"]
    assert verdict.reason == (
        "C printer refused the statement: pretend the printer choked"
    )
    assert bound.native_statement_count == bound.statement_count - 1
    for name in want:
        assert base[name].tobytes() == want[name].tobytes(), name


@needs_cc
def test_literal_nest_memo_is_bounded_and_evicted_bindings_keep_running(monkeypatch):
    """One one-statement kernel bound at more geometries (row strides)
    than the memo's cap: the memo stays at the cap, every binding —
    those whose entry was evicted included — runs bitwise equal to the
    python plan, and an evicted geometry regenerates on its next bind."""
    monkeypatch.setattr(native_mod, "MAX_LITERAL_NESTS", 3)
    calls = []
    real = native_mod.generate_fused_source
    monkeypatch.setattr(
        native_mod, "generate_fused_source",
        lambda *a, **k: (calls.append(1), real(*a, **k))[1],
    )
    prob = heat_problem(2)
    n = 12
    kernel = compile_nests([prob.primal], prob.bindings(n), cache=False)
    native, python = kernel.plan(backend="native"), kernel.plan()
    base = prob.allocate(n, rng=np.random.default_rng(5))

    def padded(pad):
        """*base* as row-padded views: the same values, another stride."""
        out = {}
        for name, arr in base.items():
            rows, cols = arr.shape
            out[name] = np.zeros((rows, cols + pad))[:, :cols]
            out[name][...] = arr
        return out

    bindings = []
    for pad in range(5):
        arrays = padded(pad)
        bound = native.bind(arrays)
        assert bound.decisions[1].geometry == "literal nest"
        bindings.append((arrays, bound))
        assert len(kernel._fused) <= 3
    assert len(calls) == 5 and len(kernel._fused) == 3
    for _ in range(2):
        for pad, (arrays, bound) in enumerate(bindings):
            want = {k: v.copy() for k, v in arrays.items()}
            python.bind(want).run()
            bound.run()
            for name in want:
                assert arrays[name].tobytes() == want[name].tobytes(), (pad, name)
    native.bind(padded(0))  # evicted first: generated again
    assert len(calls) == 6 and len(kernel._fused) == 3
    native.close()
    python.close()


@pytest.fixture
def gc_off():
    """Reference counting only: what needs the cycle collector survives."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@needs_cc
def test_dropped_kernel_is_freed_without_the_cycle_collector(
    gc_off, monkeypatch, tmp_path
):
    """A cached kernel, its plans, a binding and its library go as soon
    as the last user reference does and the cache drops the kernel — a
    full collection used to be the only thing that freed a cold build."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    prob = wave_problem(2)
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)), prob.bindings(16)
    )
    fused = kernel.plan(backend="native")
    plan = kernel.plan(backend="native", fusion="off")
    for p in (fused, plan):
        bound = p.bind(prob.allocate_state(16, seed=0))
        bound.run()
    lib = native_mod.library_for_kernel(kernel)
    assert lib.so_path.exists() and kernel._fused  # both native rungs built
    refs = [weakref.ref(o) for o in (kernel, fused, plan, bound, lib)]
    del kernel, fused, plan, p, bound, lib
    clear_kernel_cache()
    assert [r() for r in refs] == [None] * len(refs)


@needs_cc
def test_library_memoised_on_kernel(rng):
    prob = heat_problem(1)
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)),
        prob.bindings(16),
        cache=False,
    )
    assert native_mod.library_for_kernel(kernel) is native_mod.library_for_kernel(
        kernel
    )


# -- eligibility gating -------------------------------------------------------


def _one_statement_kernel(rhs_builder, n=24, op="="):
    i = sp.Symbol("i", integer=True)
    nsym = sp.Symbol("n", integer=True)
    u, v = sp.Function("u"), sp.Function("v")
    nest = make_loop_nest(
        lhs=v(i),
        rhs=rhs_builder(u, i),
        counters=[i],
        bounds={i: [1, nsym - 2]},
        op=op,
        name="gate",
    )
    bindings = Bindings(sizes={nsym: n})
    kernel = compile_nests([nest], bindings, cache=False)
    arrays = {
        "u": np.random.default_rng(3).standard_normal(n + 1) * 0.5 + 1.5,
        "v": np.zeros(n + 1),
    }
    return kernel, arrays


@pytest.mark.parametrize(
    "builder,reason_part",
    [
        (lambda u, i: sp.sin(u(i)), "no bitwise-exact native lowering"),
        (lambda u, i: u(i) ** 3, "pow exponent 3"),
        (lambda u, i: u(i) ** -2, "pow exponent -2"),
    ],
    ids=["sin", "cube", "invsquare"],
)
def test_ineligible_expressions_are_gated(builder, reason_part):
    kernel, _ = _one_statement_kernel(builder)
    st = kernel.regions[0].statements[0]
    reason = native_eligibility(st, dim=1, dtype=kernel.regions[0].dtype)
    assert reason is not None and reason_part in reason
    _, manifest = generate_native_source(kernel)
    assert manifest == {}


def _self_ref_statement(read_offset: int):
    """A hand-built compiled statement writing the array it reads.

    The front-end's stencil validation (Section 3.4) rejects such
    nests, but transformed/merged adjoint statements are not funnelled
    through it — the eligibility gate is the runtime's own last line.
    """
    from repro.runtime.compiler import CompiledAccess, CompiledStatement

    acc_w = CompiledAccess(name="u", slots=((0, 0),))
    acc_r = CompiledAccess(name="u", slots=((0, read_offset),))
    return CompiledStatement(
        target=acc_w,
        op="+=",
        eval_fn=lambda a: 0.5 * a,
        reads=(acc_r,),
        bare_axes=(),
        guard_box=None,
        dim=1,
        rhs_expr=sp.Float(0.5) * sp.Symbol("__acc0"),
    )


def test_shifted_self_reference_is_gated():
    """u[i] += f(u[i-1]) fuses differently in a C loop: must fall back."""
    st = _self_ref_statement(read_offset=-1)
    reason = native_eligibility(st, dim=1, dtype=np.float64)
    assert reason is not None and "shifted offsets" in reason


def test_elementwise_self_reference_is_eligible():
    """u[i] += f(u[i]) reads before it writes in both paths: eligible."""
    st = _self_ref_statement(read_offset=0)
    assert native_eligibility(st, dim=1, dtype=np.float64) is None


@needs_cc
@pytest.mark.parametrize(
    "builder",
    [
        lambda u, i: u(i) ** 2 + 0.25 * u(i - 1) * u(i + 1),
        lambda u, i: sp.sqrt(u(i)) + 1 / u(i + 1),
        lambda u, i: sp.Max(0, u(i)) * u(i - 1) + sp.Min(0, u(i)) * u(i + 1),
        lambda u, i: sp.Heaviside(u(i) - 1.5) * u(i - 1),
        lambda u, i: sp.Rational(1, 3) * u(i) + u(i + 1) / 7,
        lambda u, i: u(i) / sp.sqrt(u(i + 1)),
        lambda u, i: 0.1 * i * u(i),  # bare counter operand
    ],
    ids=["square", "sqrt-recip", "minmax", "heaviside", "rational", "rsqrt", "counter"],
)
def test_eligible_scalar_semantics_bitwise(builder):
    """Each whitelisted construct matches the NumPy path bit for bit."""
    kernel, arrays = _one_statement_kernel(builder)
    ref = {k: v.copy() for k, v in arrays.items()}
    _seed_serial(kernel, ref)
    got = {k: v.copy() for k, v in arrays.items()}
    plan = kernel.plan(backend="native")
    try:
        bound = plan.bind(got)
        assert bound.native_statement_count == 1
        bound.run()
        assert ref["v"].tobytes() == got["v"].tobytes()
    finally:
        plan.close()


@needs_cc
def test_minmax_nan_and_signed_zero_semantics():
    """np.maximum/minimum edge semantics survive the C lowering exactly.

    The lowering encodes strict-comparison ternaries that break ties to
    the *second* operand and propagate NaN payloads; this exercises the
    full special-value matrix through a real kernel.
    """
    i = sp.Symbol("i", integer=True)
    nsym = sp.Symbol("n", integer=True)
    u, w, v = sp.Function("u"), sp.Function("w"), sp.Function("v")
    nest = make_loop_nest(
        lhs=v(i),
        rhs=sp.Max(u(i), w(i)) + 2.0 * sp.Min(u(i), w(i)),
        counters=[i],
        bounds={i: [0, nsym - 1]},
        name="mm",
    )
    specials = np.array(
        [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, 3.5,
         np.frombuffer(np.int64(0x7FF8000000000001).tobytes(), np.float64)[0]]
    )
    n = len(specials) ** 2
    kernel = compile_nests([nest], Bindings(sizes={nsym: n}), cache=False)
    a, b = np.meshgrid(specials, specials)
    arrays = {"u": a.ravel(), "w": b.ravel(), "v": np.zeros(n)}
    ref = {k: v_.copy() for k, v_ in arrays.items()}
    with np.errstate(invalid="ignore"):  # inf + -inf operands are the point
        _seed_serial(kernel, ref)
    plan = kernel.plan(backend="native")
    try:
        bound = plan.bind(arrays)
        assert bound.native_statement_count == 1
        bound.run()
        assert ref["v"].tobytes() == arrays["v"].tobytes()
    finally:
        plan.close()


# -- config / bind-time validation -------------------------------------------


def test_backend_config_validation():
    with pytest.raises(ValueError, match="backend"):
        ExecutionConfig(backend="gpu")
    assert ExecutionConfig(backend="native").backend == "native"


def test_wide_minmax_is_gated():
    i = sp.Symbol("i", integer=True)
    expr = sp.Max(
        sp.Symbol("__acc0"), sp.Symbol("__acc1"), sp.Symbol("__acc2")
    )
    from repro.codegen.native_c import _expr_eligible

    assert _expr_eligible(expr, "float64") is not None
    assert _expr_eligible(expr.args[0] + expr.args[1], "float64") is None


def _strided(arr):
    """*arr*'s values behind a 12-byte stride: not a whole number of elements."""
    raw = np.zeros(arr.size * 12, dtype=np.uint8)
    view = np.ndarray(arr.shape, arr.dtype, buffer=raw, strides=(12,))
    view[...] = arr
    return view


def _frozen(arr):
    arr.flags.writeable = False
    return arr


# name -> (arrays from a fresh {u, v, w}, the gate's reason, which entries
# refuse).  Only the group-wide aliasing rule is stricter than the
# per-statement one: u aliasing w touches no single statement.
_GATE_CASES = {
    "foreign-dtype": (
        lambda a: {k: x.astype(np.float32) for k, x in a.items()},
        "v: dtype float32 != kernel float64",
        {"statement", "fused"},
    ),
    "rank-mismatch": (
        lambda a: {k: np.stack([x] * 3, axis=1) for k, x in a.items()},
        "v: rank 2 != 1 slots",
        {"statement", "fused"},
    ),
    "out-of-bounds": (
        lambda a: {k: x[:-4].copy() for k, x in a.items()},
        "v: slot 0 reads [1, 31) outside extent 29",
        {"statement", "fused"},
    ),
    "non-element-stride": (
        lambda a: {**a, "u": _strided(a["u"])},
        "u: stride 12 not a multiple of itemsize 8",
        {"statement", "fused"},
    ),
    "alias-in-statement": (
        lambda a: {**a, "v": a["u"]},
        "u: aliases target v",
        {"statement", "fused"},
    ),
    "alias-across-group": (
        lambda a: {**a, "w": a["u"]},
        "u: aliases target w",
        {"fused"},
    ),
    "read-only-target": (
        lambda a: {**a, "w": _frozen(a["w"])},
        "w: read-only",
        {"statement", "fused"},
    ),
}


@needs_cc
@pytest.mark.parametrize("case", sorted(_GATE_CASES))
def test_array_gate_names_its_reason_and_stays_exact(case):
    """One gate behind both native entries: arrays that break a lowering
    assumption are refused with the reason ``explain()`` then prints,
    and the binding behaves exactly like the python plan — same bits,
    or the same error where python refuses the arrays too."""
    make, reason, refused_by = _GATE_CASES[case]
    i = sp.Symbol("i", integer=True)
    nsym = sp.Symbol("n", integer=True)
    u, v, w = sp.Function("u"), sp.Function("v"), sp.Function("w")
    bounds = {i: [1, nsym - 2]}
    kernel = compile_nests(
        [
            make_loop_nest(lhs=v(i), rhs=0.5 * u(i) + 0.25 * u(i - 1),
                           counters=[i], bounds=bounds, name="produce"),
            make_loop_nest(lhs=w(i), rhs=2.0 * v(i), counters=[i],
                           bounds=bounds, name="consume"),
        ],
        Bindings(sizes={nsym: 32}),
        cache=False,
    )

    def fresh():
        rng = np.random.default_rng(3)
        return make({k: rng.standard_normal(33) for k in "uvw"})

    def outcome(plan):
        """('ok', arrays, bound) or (where it raised, exception type)."""
        arrays = fresh()
        try:
            bound = plan.bind(arrays)
        except Exception as exc:  # noqa: BLE001 - compared below
            return "bind", type(exc)
        try:
            bound.run()
            bound.run()
        except Exception as exc:  # noqa: BLE001 - compared below
            return "run", type(exc), bound
        return "ok", {k: x.tobytes() for k, x in arrays.items()}, bound

    fused_plan = kernel.plan(backend="native")
    good = fused_plan.bind({k: np.zeros(33) for k in "uvw"})
    (group,) = [d.group for d in good.decisions if d.rung == "fused"]
    lib = native_mod.library_for_kernel(kernel)
    direct = {
        "statement": [
            native_mod.native_gate(lib, region, si, st, fresh(), eff)
            for region, si, st, eff in decisions_mod.serial_stream(fused_plan)
        ],
        "fused": [
            native_mod.make_fused_statement(kernel, group.entries, fresh())[1]
        ],
    }
    for entry, reasons in direct.items():
        assert (reason in reasons) == (entry in refused_by), (entry, reasons)

    want = outcome(kernel.plan())
    for fusion, entry in (("off", "statement"), ("auto", "fused")):
        got = outcome(kernel.plan(backend="native", fusion=fusion))
        assert got[:2] == want[:2], f"fusion={fusion} diverged from python"
        if got[0] != "bind":
            assert got[2].fused_group_count == 0
            said = reason in "\n".join(got[2].explain())
            assert said == (entry in refused_by or "statement" in refused_by)


# -- platform assumptions -----------------------------------------------------


def test_platform_pow_assumptions():
    """The whitelist rests on these NumPy scalar identities."""
    x = np.random.default_rng(0).standard_normal(4096) * 3
    assert (x**2).tobytes() == (x * x).tobytes()
    pos = np.abs(x) + 0.01
    assert (pos**-1).tobytes() == (1.0 / pos).tobytes()
    assert (pos**0.5).tobytes() == np.sqrt(pos).tobytes()
    xf = x.astype(np.float32)
    assert (xf**2).tobytes() == (xf * xf).tobytes()


# -- one CSE pass per statement -----------------------------------------------


def _wave2d_adjoint(n=18):
    prob = wave_problem(2)
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)),
        prob.bindings(n),
        cache=False,
    )
    return prob, kernel


@needs_cc
def test_cse_runs_once_per_statement_for_python_and_both_c_emitters(
    monkeypatch,
):
    """eval_fn, the per-statement C and the fused C all take the program
    ``_compile_statement`` computed: three passes that had to agree on
    their temporaries (and their order) are one."""
    import importlib

    # cse() reaches tree_cse through its module globals on every call,
    # however the caller imported cse itself.
    cse_main = importlib.import_module("sympy.simplify.cse_main")
    passes = []
    real = cse_main.tree_cse

    def counted(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cse_main, "tree_cse", counted)
    prob, kernel = _wave2d_adjoint()
    statements = sum(len(r.statements) for r in kernel.regions)
    plan = kernel.plan(backend="native", fusion="auto")
    try:
        bound = plan.bind(prob.allocate_state(18, seed=0))
        assert bound.native_statement_count == statements
        assert bound.fused_group_count >= 1  # both emitters ran
    finally:
        plan.close()
    assert len(passes) == statements == 35


def test_c_emitter_prints_the_statements_stored_cse_program():
    prob = burgers_problem(2)  # upwinding repeats Min/Max subexpressions
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)),
        prob.bindings(12),
        cache=False,
    )
    st = next(
        st for r in kernel.regions for st in r.statements if st.cse[0]
    )
    temporaries, reduced = st.cse
    renamed = {
        sym: sp.Symbol(f"shared{k}") for k, (sym, _) in enumerate(temporaries)
    }
    st.cse = (
        [(renamed[sym], sub.xreplace(renamed)) for sym, sub in temporaries],
        reduced.xreplace(renamed),
    )
    source, _ = generate_native_source(kernel)
    assert "shared0 =" in source
