"""Chaos suite: the graceful-degradation contract, fault point by fault point.

Three layers:

* the **registry contract** — every fault point declared in
  :mod:`repro.runtime.faults` has a covering chaos scenario
  (:mod:`repro.verify.chaos`), and each scenario passes: bitwise-identical
  fallback for ``contract="fallback"`` points, one typed
  :class:`~repro.errors.ReproError` subclass with intact/restored user
  arrays for ``contract="typed-error"`` points;
* **end-to-end compiler hardening** with stub ``REPRO_CC`` compilers
  (a hanging compiler, a flaky signal-killed one, a missing one) — the
  real subprocess ladder, not the injector;
* **regression tests** for the satellite behaviours: scheduler
  cancellation, ``.so`` cache corruption self-healing across all four
  native consumers, the NaN watchdog, transactional runs, untrusted-spec
  resource caps, CLI exit codes and thread-safe one-shot warnings.
"""

from __future__ import annotations

import os
import stat
import threading
import time
import warnings

import numpy as np
import pytest

from repro import cli
from repro.apps import heat_problem
from repro.core import adjoint_loops
from repro.core.validate import SpecLimits
from repro.errors import (
    CheckpointError,
    EnsembleBindError,
    KernelError,
    NativeBuildError,
    NumericalDivergenceError,
    ReproError,
    SchedulerError,
    ValidationError,
)
from repro.frontend.parser import parse_stencil, parse_stencils
from repro.runtime import (
    ExecutionConfig,
    clear_kernel_cache,
    compile_nests,
    faults,
    native_available,
    stack_arrays,
)
from repro.runtime import decisions as decisions_mod
from repro.runtime import native as native_mod
from repro.runtime.cache import native_cache_dir
from repro.runtime.scheduler import WorkerPool
from repro.verify.chaos import ChaosResult, _fresh_case, chaos_scenarios, run_chaos

N = 12


def _reference(kernel, base):
    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)
    return ref


def _assert_bitwise(ref, got):
    bad = sorted(k for k in ref if not np.array_equal(ref[k], got[k]))
    assert not bad, f"results diverged on {bad}"


# -- the chaos suite over the registry ----------------------------------------


def test_every_registered_point_has_a_scenario():
    registered = {p.name for p in faults.registered_fault_points()}
    covered = set(chaos_scenarios())
    assert covered == registered


@pytest.mark.parametrize(
    "point", sorted(p.name for p in faults.registered_fault_points())
)
def test_chaos_scenario(point):
    """Each fault point satisfies its declared degradation contract."""
    detail = chaos_scenarios()[point]()
    assert isinstance(detail, str) and detail


def test_run_chaos_reports_every_point():
    results = run_chaos()
    assert [r.point for r in results] == [
        p.name for p in faults.registered_fault_points()
    ]
    assert all(isinstance(r, ChaosResult) for r in results)
    assert faults.active_injector() is None  # never leaks an injector


# -- injector mechanics -------------------------------------------------------


def test_check_is_noop_without_injector():
    assert faults.active_injector() is None
    faults.check("bound.run")  # must not raise


def test_inject_scripted_skip_and_times():
    hits = []
    with faults.inject("bound.run", times=2, skip=1) as inj:
        for _ in range(5):
            try:
                faults.check("bound.run")
                hits.append("ok")
            except RuntimeError:
                hits.append("boom")
    assert hits == ["ok", "boom", "boom", "ok", "ok"]
    assert inj.hits("bound.run") == 5
    assert inj.fired("bound.run") == 2


def test_inject_custom_exception_and_nesting():
    with faults.inject("scheduler.task", exc=OSError("outer")) as outer:
        with faults.inject("bound.run") as inner:
            assert inner is outer  # nested scopes share one injector
            with pytest.raises(RuntimeError):
                faults.check("bound.run")
        faults.check("bound.run")  # inner disarmed on exit
        with pytest.raises(OSError, match="outer"):
            faults.check("scheduler.task")
    assert faults.active_injector() is None


def test_unregistered_names_are_rejected():
    with pytest.raises(KeyError):
        faults.FaultInjector().arm("no.such.point")
    with faults.inject("bound.run"):
        with pytest.raises(LookupError, match="unregistered"):
            faults.check("no.such.point")


def test_random_mode_is_seeded_and_deterministic():
    def firing_pattern():
        inj = faults.activate(faults.FaultInjector(seed=7, rate=0.5))
        try:
            pattern = []
            for _ in range(32):
                try:
                    faults.check("bound.run")
                    pattern.append(0)
                except RuntimeError:
                    pattern.append(1)
            return pattern, inj.fired("bound.run")
        finally:
            faults.deactivate()

    first, fired = firing_pattern()
    assert firing_pattern() == (first, fired)
    assert 0 < fired < 32  # rate=0.5 actually fires, but not always


def test_injector_rejects_bad_rate():
    with pytest.raises(ValueError):
        faults.FaultInjector(rate=1.5)


# -- compiler hardening, end to end with stub compilers -----------------------


def _stub_cc(tmp_path, name, body):
    script = tmp_path / name
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return str(script)


@pytest.fixture
def fresh_native(tmp_path, monkeypatch):
    """Isolated native state: private cache dir, cleared memos."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with native_mod._toolchain_lock:
        native_mod._toolchain_memo.clear()
    decisions_mod._reset_warnings()
    yield tmp_path
    with native_mod._toolchain_lock:
        native_mod._toolchain_memo.clear()
    decisions_mod._reset_warnings()


def test_missing_compiler_falls_back_with_cache_path(fresh_native, monkeypatch):
    monkeypatch.setenv("REPRO_CC", str(fresh_native / "no-such-cc"))
    kernel, base = _fresh_case()
    ref = _reference(kernel, base)
    got = {k: v.copy() for k, v in base.items()}
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        plan = kernel.plan(backend="native")
        try:
            plan.bind(got).run()
        finally:
            plan.close()
    _assert_bitwise(ref, got)


def test_hung_compiler_times_out_and_falls_back(fresh_native, monkeypatch):
    cc = _stub_cc(
        fresh_native,
        "hang-cc",
        'case "$1" in --version) echo hang-cc-1.0; exit 0;; esac\nsleep 30\n',
    )
    monkeypatch.setenv("REPRO_CC", cc)
    monkeypatch.setenv("REPRO_CC_TIMEOUT", "0.3")
    kernel, base = _fresh_case()
    ref = _reference(kernel, base)
    got = {k: v.copy() for k, v in base.items()}
    with pytest.warns(RuntimeWarning, match="timed out") as rec:
        plan = kernel.plan(backend="native")
        try:
            plan.bind(got).run()
        finally:
            plan.close()
    _assert_bitwise(ref, got)
    # The fallback warning points operators at the cache directory.
    assert any(str(native_cache_dir()) in str(w.message) for w in rec)


@pytest.mark.skipif(not native_available(), reason="needs a real C compiler")
def test_flaky_compiler_is_retried_and_recovers(fresh_native, monkeypatch):
    """A signal-killed compiler is transient: one retry, native path wins."""
    real_cc = native_mod.native_toolchain()
    marker = fresh_native / "flaked"
    cc = _stub_cc(
        fresh_native,
        "flaky-cc",
        f'case "$1" in --version) echo flaky-cc-1.0; exit 0;; esac\n'
        f'if [ ! -e "{marker}" ]; then touch "{marker}"; kill -9 $$; fi\n'
        f'exec "{real_cc}" "$@"\n',
    )
    with native_mod._toolchain_lock:
        native_mod._toolchain_memo.clear()
    monkeypatch.setenv("REPRO_CC", cc)
    monkeypatch.setattr(native_mod, "CC_BACKOFF", 0.0)
    kernel, base = _fresh_case()
    ref = _reference(kernel, base)
    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(backend="native")
    try:
        plan.bind(got).run()
    finally:
        plan.close()
    assert marker.exists()  # the stub really was killed once
    assert kernel._native[1][0] is not None  # and the retry recovered native
    _assert_bitwise(ref, got)


def test_deterministic_compile_failure_is_not_retried(fresh_native, monkeypatch):
    """Nonzero exit = the source does not compile; exactly one attempt
    per source (the bind's batch tries each of its objects once)."""
    count = fresh_native / "attempts"
    cc = _stub_cc(
        fresh_native,
        "broken-cc",
        f'case "$1" in --version) echo broken-cc-1.0; exit 0;; esac\n'
        'for a; do case "$a" in *.c) src="$a";; esac; done\n'
        f'echo "$src" >> "{count}"\n'
        "echo 'fatal error: no' >&2\nexit 1\n",
    )
    monkeypatch.setenv("REPRO_CC", cc)
    monkeypatch.setattr(native_mod, "CC_BACKOFF", 0.0)
    kernel, base = _fresh_case()
    ref = _reference(kernel, base)
    got = {k: v.copy() for k, v in base.items()}
    with pytest.warns(RuntimeWarning, match="falling back"):
        plan = kernel.plan(backend="native")
        try:
            plan.bind(got).run()
        finally:
            plan.close()
    _assert_bitwise(ref, got)
    attempts = count.read_text().split()
    assert attempts and len(attempts) == len(set(attempts))


def test_cc_limit_knobs_fall_back_on_invalid_values(monkeypatch):
    monkeypatch.setenv("REPRO_CC_TIMEOUT", "not-a-number")
    assert native_mod._cc_limits()[0] == 300.0  # unparsable -> default
    monkeypatch.setenv("REPRO_CC_TIMEOUT", "-3")
    assert native_mod._cc_limits()[0] == 300.0  # negative -> default
    monkeypatch.setenv("REPRO_CC_TIMEOUT", "0.25")
    assert native_mod._cc_limits()[0] == 0.25  # valid values win


def test_warn_once_is_thread_safe():
    decisions_mod._reset_warnings()
    try:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            threads = [
                threading.Thread(
                    target=decisions_mod.degraded,
                    args=("race", "python", "only once"),
                    kwargs={"key": "race-key"},
                )
                for _ in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(rec) == 1
    finally:
        decisions_mod._reset_warnings()


# -- .so cache corruption self-heals for every native consumer ----------------


def _corrupt_cache_and_reset():
    so_files = sorted(native_cache_dir().glob("*.so"))
    assert so_files, "warm phase left no cached objects"
    for path in so_files:
        # Replace, don't rewrite in place: libraries loaded by the warm
        # phase stay mapped in this process, and truncating their inode
        # under them would SIGBUS the interpreter rather than simulate
        # a corrupt entry found on disk.
        garbage = path.with_suffix(".corrupt")
        garbage.write_bytes(b"\x7fNOT-AN-ELF garbage " * 8)
        os.replace(garbage, path)
    with native_mod._lib_lock:
        native_mod._lib_memo.clear()
    clear_kernel_cache()


@pytest.mark.skipif(not native_available(), reason="needs a real C compiler")
@pytest.mark.parametrize("consumer", ["bound", "fused", "ensemble", "checkpoint"])
def test_so_cache_corruption_self_heals(consumer, fresh_native):
    """Every native consumer recovers a corrupt cache entry transparently.

    A garbage ``.so`` under the content-keyed path makes ``dlopen``
    fail; the runtime unlinks and rebuilds it once, so the very next
    bind works natively and bitwise-identically — for plain bound
    plans, fused plans, ensembles and checkpointed adjoints alike.
    """
    prob = heat_problem(1)
    nests = adjoint_loops(prob.primal, prob.adjoint_map)

    def fresh_kernel():
        return compile_nests(nests, prob.bindings(N), name="heal", cache=False)

    fusion = "auto" if consumer == "fused" else "off"

    if consumer in ("bound", "fused"):
        rng = np.random.default_rng(0)
        base = prob.allocate(N, rng=rng)
        base.update(prob.allocate_adjoints(N, rng=rng))
        ref = _reference(fresh_kernel(), base)

        def drive():
            kernel = fresh_kernel()
            got = {k: v.copy() for k, v in base.items()}
            plan = kernel.plan(backend="native", fusion=fusion)
            try:
                plan.bind(got).run()
            finally:
                plan.close()
            return kernel, got

        drive()  # warm: populates the cache
        _corrupt_cache_and_reset()
        kernel, got = drive()
        assert kernel._native[1][0] is not None
        _assert_bitwise(ref, got)
    elif consumer == "ensemble":
        states = [prob.allocate_state(N, seed=m) for m in range(2)]
        refs = []
        for st in states:
            ref = {k: v.copy() for k, v in st.items()}
            fresh_kernel()(ref)
            refs.append(ref)

        def drive():
            kernel = fresh_kernel()
            ens = kernel.plan(backend="native").ensemble(
                stack_arrays(states)
            )
            with ens:
                ens.run()
                out = [
                    {k: v.copy() for k, v in ens.member_arrays(m).items()}
                    for m in range(2)
                ]
            return kernel, out

        drive()
        _corrupt_cache_and_reset()
        kernel, out = drive()
        assert kernel._native[1][0] is not None
        for ref, got in zip(refs, out):
            _assert_bitwise(ref, got)
    else:  # checkpoint
        u0 = prob.allocate_state(N, seed=0)["u_1"]
        seed = prob.allocate_adjoints(N)["u_b"]
        with prob.checkpointed_adjoint(N, steps=4, snaps=2) as py_plan:
            ref = {
                k: v.copy() for k, v in py_plan.adjoint([u0], seed).items()
            }

        def drive():
            with prob.checkpointed_adjoint(
                N, steps=4, snaps=2, backend="native"
            ) as plan:
                return {
                    k: v.copy() for k, v in plan.adjoint([u0], seed).items()
                }

        drive()
        _corrupt_cache_and_reset()
        _assert_bitwise(ref, drive())


@pytest.mark.skipif(not native_available(), reason="needs a real C compiler")
def test_snapshot_fault_on_a_native_plan_fires_on_the_per_action_rung():
    """Native twin of the ``checkpoint.snapshot`` chaos scenario (which
    runs on python): the program rung has no failure site, so an armed
    injector runs the per-action sweep — the fault fires once, types as
    :class:`CheckpointError`, and the next, un-injected sweep is the
    program again and bitwise."""
    prob = heat_problem(1)
    u0 = prob.allocate_state(N, seed=0)["u_1"]
    seed = prob.allocate_adjoints(N)["u_b"]
    with prob.checkpointed_adjoint(N, steps=6, snaps=2, backend="native") as plan:
        assert plan.sweep.rung == "program"
        (program,), _ = plan._programs["adjoint"]
        runs = []
        real_run = program.run
        program.run = lambda: (runs.append(1), real_run())
        ref = {k: v.copy() for k, v in plan.adjoint([u0], seed).items()}
        assert runs == [1]
        with faults.inject("checkpoint.snapshot") as inj:
            with pytest.raises(CheckpointError, match="pool slot"):
                plan.adjoint([u0], seed)
            assert inj.fired("checkpoint.snapshot") == 1
        assert runs == [1]  # the armed sweep never entered the program
        _assert_bitwise(ref, plan.adjoint([u0], seed))
        assert runs == [1, 1]


# -- scheduler cancellation ---------------------------------------------------


def test_scheduler_cancels_queued_tasks_after_failure():
    """Satellite regression: one worker makes cancellation deterministic."""
    ran = []

    def boom():
        raise ValueError("task 0 failed")

    with WorkerPool(1) as sched:
        tasks = [boom] + [lambda i=i: ran.append(i) for i in range(1, 4)]
        with pytest.raises(SchedulerError, match="task 0 failed"):
            sched.run(tasks)
        assert ran == []  # everything queued behind the failure was dropped
        assert sched.last_cancelled == 3
        sched.run([lambda: ran.append("ok")])  # scheduler survives
        assert ran == ["ok"]
        assert sched.last_cancelled == 0  # a clean batch resets the count


def test_scheduler_first_failure_accounting_under_contention():
    """Satellite: dequeue and cancellation move together under the lock.

    With four workers racing for the queue, whichever interleaving the
    OS produces, first-failure cancellation must account for every task
    exactly once: tasks that ran plus tasks cancelled equals the batch
    size minus the failing task — no task double-popped, none lost.
    """
    with WorkerPool(4) as sched:
        for _ in range(20):
            ran = []

            def boom():
                raise ValueError("first failure")

            tasks = [boom] + [lambda: ran.append(1) for _ in range(63)]
            with pytest.raises(SchedulerError, match="cancelled"):
                sched.run(tasks)
            assert len(ran) + sched.last_cancelled == 63
        done = []
        sched.run([lambda: done.append("ok")])  # still usable afterwards
        assert done == ["ok"]


def test_scheduler_passes_typed_errors_through_unchanged():
    with WorkerPool(1) as sched:

        def diverge():
            raise NumericalDivergenceError("nan at step 3", step=3)

        with pytest.raises(NumericalDivergenceError) as excinfo:
            sched.run([diverge])
        assert excinfo.value.step == 3


# -- divergence watchdog and transactional runs -------------------------------


def test_execution_config_rejects_unknown_check_mode():
    with pytest.raises(ValueError, match="check"):
        ExecutionConfig(check="inf")


def test_nan_watchdog_reports_step_and_statement():
    kernel, base = _fresh_case()
    arrays = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(check="nan")
    try:
        bound = plan.bind(arrays)
        bound.run()  # finite state: no report
        for arr in arrays.values():
            arr.flat[arr.size // 2] = np.nan
        with pytest.raises(NumericalDivergenceError) as excinfo:
            bound.run()
    finally:
        plan.close()
    err = excinfo.value
    assert err.step == 2  # second run of this binding
    assert err.statement is not None
    assert "index" in str(err) and str(err.step) in str(err)
    assert isinstance(err, FloatingPointError)  # historic base preserved


def test_watchdog_off_by_default():
    kernel, base = _fresh_case()
    arrays = {k: v.copy() for k, v in base.items()}
    for arr in arrays.values():
        arr.flat[0] = np.nan
    plan = kernel.plan()
    try:
        plan.bind(arrays).run()  # silently propagates NaN, as NumPy does
    finally:
        plan.close()


def test_transactional_run_restores_arrays_and_types_error():
    kernel, base = _fresh_case()
    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(transactional=True)
    try:
        bound = plan.bind(got)
        with faults.inject("bound.run", skip=2, exc=ValueError("mid-run")):
            with pytest.raises(KernelError, match="restored"):
                bound.run()
        _assert_bitwise(base, got)  # rolled back to the pre-call state
        bound.run()
        _assert_bitwise(_reference(kernel, base), got)
    finally:
        plan.close()


def test_transactional_restore_waits_for_sibling_tasks():
    """A task failing under ``num_threads=2`` must not be rolled back
    while its sibling is still writing: the arrays equal their pre-run
    copies at the raise *and* once every thread has had time to finish.
    """
    prob = heat_problem(2)
    n = 768  # large enough that the two tasks of a region overlap
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(n), cache=False)
    rng = np.random.default_rng(0)
    base = prob.allocate(n, rng=rng)
    base.update(prob.allocate_adjoints(n, rng=rng))
    got = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(
        num_threads=2, transactional=True, min_block_iterations=1
    )
    try:
        bound = plan.bind(got)
        with faults.inject("bound.run", skip=3) as inj:
            with pytest.raises(KernelError):
                bound.run()
            assert inj.fired("bound.run") == 1
        _assert_bitwise(base, got)
        time.sleep(0.3)
        _assert_bitwise(base, got)  # no straggler wrote after the restore
        bound.run()
        ref = {k: v.copy() for k, v in base.items()}
        plan.run_unbound(ref)  # the serial reference
        _assert_bitwise(ref, got)
    finally:
        plan.close()


# -- untrusted-spec resource caps ---------------------------------------------

_GOOD_SRC = """
stencil ok {
  iterate i = 1 .. n-2
  u[i] += v[i-1] + v[i+1]
}
"""


def test_untrusted_caps_are_on_by_default():
    deep = "(" * 300 + "v[i-1]" + ")" * 300
    src = f"stencil deep {{\n  iterate i = 1 .. n-2\n  u[i] += {deep}\n}}\n"
    with pytest.raises(ValidationError, match="nesting exceeds"):
        parse_stencil(src)


def test_trusted_parse_skips_resource_caps():
    # Tight custom caps reject the good spec; limits=None trusts it.
    with pytest.raises(ValidationError, match="expression nodes"):
        parse_stencil(_GOOD_SRC, limits=SpecLimits(max_expr_nodes=2))
    nest = parse_stencil(_GOOD_SRC, limits=None)
    assert nest.name == "ok"


def test_source_size_cap():
    src = _GOOD_SRC + "#" + " " * (1 << 20)
    with pytest.raises(ValidationError, match="bytes"):
        parse_stencils(src)


def test_statement_count_cap():
    with pytest.raises(ValidationError, match="statements"):
        parse_stencil(_GOOD_SRC, limits=SpecLimits(max_statements=0))


def test_loop_extent_cap():
    src = "stencil huge {\n  iterate i = 0 .. 8589934593\n  u[i] += v[i]\n}\n"
    with pytest.raises(ValidationError, match="iterations"):
        parse_stencil(src)
    assert parse_stencil(src, limits=None).name == "huge"


# -- CLI exit codes -----------------------------------------------------------


def test_cli_exit_code_mapping():
    assert cli.exit_code_for(ValidationError("x")) == cli.EXIT_VALIDATION == 3
    assert cli.exit_code_for(NativeBuildError("x")) == cli.EXIT_BUILD == 4
    assert (
        cli.exit_code_for(NumericalDivergenceError("x"))
        == cli.EXIT_DIVERGENCE
        == 5
    )
    assert cli.exit_code_for(KernelError("x")) == cli.EXIT_ERROR == 1
    assert cli.exit_code_for(CheckpointError("x")) == 1
    assert cli.exit_code_for(EnsembleBindError("x")) == 1
    assert cli.exit_code_for(SchedulerError("x")) == 1


def test_cli_validation_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.stencil"
    bad.write_text("this is not a stencil\n")
    assert cli.main(["generate", "--file", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, code",
    [
        (NativeBuildError("cc exploded"), 4),
        (NumericalDivergenceError("nan"), 5),
        (KernelError("other"), 1),
        (ReproError("generic"), 1),
    ],
)
def test_cli_typed_errors_map_to_exit_codes(monkeypatch, capsys, exc, code):
    def blow_up(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_loop_counts", blow_up)
    assert cli.main(["loop-counts"]) == code
    assert str(exc) in capsys.readouterr().err


def test_cli_verify_requires_problem_or_chaos(capsys):
    assert cli.main(["verify"]) == 2
    assert "--chaos" in capsys.readouterr().err
