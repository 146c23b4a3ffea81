"""Chaos verification: exercise every registered fault point's contract.

The runtime's graceful-degradation contract (``docs/reliability.md``)
says every failure either **falls back** bitwise-identically or raises
one **typed** :class:`~repro.errors.ReproError` subclass with user
arrays intact.  This module is the executable form of that sentence:
one scenario per fault point registered in
:mod:`repro.runtime.faults`, each arming the injector, driving the
*production* code path (real plans, real binds, real compiler
invocations when a toolchain exists) and asserting the contract clause
the registry declares for that point.

:func:`run_chaos` runs all scenarios and is surfaced as
``repro verify --chaos`` and as ``tests/test_faults.py``; a fault
point with no covering scenario is itself a failure, so adding a point
to the registry without a scenario breaks the suite — the coverage is
closed by construction.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import (
    CheckpointError,
    EnsembleBindError,
    KernelError,
    SchedulerError,
)
from ..runtime import faults

__all__ = ["ChaosResult", "run_chaos", "chaos_scenarios"]


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one fault-point scenario."""

    point: str
    contract: str
    ok: bool
    detail: str


@contextlib.contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def _fresh_case(seed: int = 0):
    """A freshly compiled (uncached) heat1d adjoint kernel and arrays.

    ``cache=False`` matters: the native library verdict is memoised on
    the kernel object, so scenarios that poison the toolchain or the
    build must start from a kernel nothing has bound yet.
    """
    from ..apps import heat_problem
    from ..core import adjoint_loops
    from ..runtime import compile_nests

    prob = heat_problem(1)
    n = 12
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(n), name="chaos", cache=False)
    rng = np.random.default_rng(seed)
    arrays = prob.allocate(n, rng=rng)
    arrays.update(prob.allocate_adjoints(n, rng=rng))
    return kernel, arrays


def _mismatches(ref, got) -> list[str]:
    return sorted(k for k in ref if not np.array_equal(ref[k], got[k]))


def _native_scenario(point: str, *, times: int = 1, why: str | None) -> str:
    """Shared shape of the five native fault points.

    Runs the serial python reference, then the native-backend bound run
    with *point* armed, in a fresh cache directory (so the build really
    happens) — and asserts the results are bitwise identical and the
    binding's library verdict says what happened: rung ``python`` with
    *why* in its reason when the fault forces the fallback, rung
    ``native`` (``why=None``) when retry/self-heal recovers.
    """
    from ..runtime import decisions as _decisions
    from ..runtime import native as _native

    kernel, base = _fresh_case()
    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)
    got = {k: v.copy() for k, v in base.items()}
    _decisions._reset_warnings()
    with _native._toolchain_lock:
        _native._toolchain_memo.clear()
    with tempfile.TemporaryDirectory() as tmp, _env("REPRO_CACHE_DIR", tmp):
        with warnings.catch_warnings():
            # Fallback warnings are part of the contract, not noise to
            # the chaos run; tests assert them separately.
            warnings.simplefilter("ignore", RuntimeWarning)
            with faults.inject(point, times=times) as inj:
                plan = kernel.plan(backend="native")
                try:
                    bound = plan.bind(got)
                    bound.run()
                finally:
                    plan.close()
                fired = inj.fired(point)
    if fired == 0:
        raise AssertionError(f"{point} was armed but never fired")
    bad = _mismatches(ref, got)
    if bad:
        raise AssertionError(f"degraded run diverged from reference on {bad}")
    library = bound.decisions[0]
    rung = "native" if why is None else "python"
    if library.rung != rung or (why or "") not in (library.reason or ""):
        raise AssertionError(
            f"expected a {rung} library verdict naming {why!r}, got {library}"
        )
    mode = "native path recovered" if why is None else "python fallback"
    return f"fired {fired}x; {mode}; bitwise-identical"


def _scenario_toolchain() -> str:
    return _native_scenario("native.toolchain", why="no C compiler")


def _scenario_cc_spawn() -> str:
    from ..runtime import native_available

    # One transient spawn failure: the backoff ladder retries and the
    # build (and therefore the native path) succeeds.  Without a
    # compiler the spawn is never reached, so the point degrades to the
    # no-toolchain fallback, which the toolchain scenario already
    # covers deterministically.
    if not native_available():
        return _scenario_toolchain()
    return _native_scenario("native.cc.spawn", why=None)


def _scenario_cc_timeout() -> str:
    from ..runtime import native_available

    if not native_available():
        return _scenario_toolchain()
    # A hung compiler is not retried: the build fails, the run degrades.
    return _native_scenario("native.cc.timeout", times=64, why="timed out")


def _scenario_cache_write() -> str:
    from ..runtime import native_available

    if not native_available():
        return _scenario_toolchain()
    return _native_scenario(
        "native.cache.write", times=64, why="cannot write native cache"
    )


def _scenario_cache_load() -> str:
    from ..runtime import native_available

    if not native_available():
        return _scenario_toolchain()
    # One corrupt .so: the content-addressed entry is unlinked and
    # rebuilt once (self-heal), so the native path survives.
    return _native_scenario("native.cache.load", why=None)


def _scenario_omp_probe() -> str:
    from ..runtime import decisions as _decisions
    from ..runtime import native as _native
    from ..runtime import native_available

    if not native_available():
        return _scenario_toolchain()
    # A compiler without OpenMP: the threaded request degrades one rung,
    # to the *serial native* library, and stays bitwise-identical.
    kernel, base = _fresh_case()
    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)
    got = {k: v.copy() for k, v in base.items()}
    _decisions._reset_warnings()
    _native._omp_flags_memo.clear()
    try:
        with tempfile.TemporaryDirectory() as tmp, _env("REPRO_CACHE_DIR", tmp):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with faults.inject("native.omp.probe") as inj:
                    plan = kernel.plan(backend="native", native_threads=2)
                    try:
                        plan.bind(got).run()
                    finally:
                        plan.close()
                    fired = inj.fired("native.omp.probe")
    finally:
        # The poisoned probe verdict is memoised per compiler; clear it
        # so later (non-chaos) threaded builds re-probe honestly.
        _native._omp_flags_memo.clear()
    if fired == 0:
        raise AssertionError("native.omp.probe was armed but never fired")
    bad = _mismatches(ref, got)
    if bad:
        raise AssertionError(f"degraded run diverged from reference on {bad}")
    lib, verdict = _native.library_verdict(kernel, 2)
    if (
        lib is None
        or lib.nthreads != 1
        or verdict.rung != "serial native"
        or "-fopenmp" not in verdict.reason
    ):
        raise AssertionError(
            f"expected the serial native library as the degraded verdict, "
            f"got {verdict}"
        )
    return "fired 1x; serial native fallback; bitwise-identical"


def _transactional_scenario(plan, base, ref, point: str, skip: int = 0) -> None:
    """The transactional-run contract for one plan.

    Fires *point* inside a bound run of *plan* (``transactional=True``)
    on a copy of *base* and asserts the contract: one typed
    ``KernelError``, every array restored, and a clean re-run bitwise
    equal to *ref*.  Closes *plan*.
    """
    got = {k: v.copy() for k, v in base.items()}
    try:
        bound = plan.bind(got)
        with faults.inject(point, skip=skip) as inj:
            try:
                bound.run()
                raise AssertionError(f"injected {point} fault did not propagate")
            except KernelError:
                pass
            if inj.fired(point) != 1:
                raise AssertionError(f"{point} fault never fired")
        bad = _mismatches(base, got)
        if bad:
            raise AssertionError(
                f"transactional restore missed {bad} after the {point} "
                f"fault (num_threads={plan.config.num_threads})"
            )
        bound.run()
        bad = _mismatches(ref, got)
        if bad:
            raise AssertionError(f"post-restore rerun diverged on {bad}")
    finally:
        plan.close()


def _scenario_scheduler_task() -> str:
    from ..runtime.scheduler import WorkerPool

    done: list[int] = []
    with WorkerPool(2) as sched:
        with faults.inject("scheduler.task") as inj:
            try:
                sched.run([lambda i=i: done.append(i) for i in range(6)])
                raise AssertionError("injected task fault did not propagate")
            except SchedulerError:
                pass
            fired = inj.fired("scheduler.task")
        if fired != 1:
            raise AssertionError(f"expected one firing, got {fired}")
        cancelled = sched.last_cancelled
        if len(done) + cancelled != 5:
            raise AssertionError(
                f"batch accounting broken: {len(done)} ran, "
                f"{cancelled} cancelled, 5 expected"
            )
        sched.run([lambda: done.append(99)])
        if 99 not in done:
            raise AssertionError("scheduler did not survive the failure")
    return (
        f"typed SchedulerError; {cancelled} queued task(s) cancelled; "
        f"pool reusable"
    )


def _scenario_checkpoint_snapshot() -> str:
    from ..apps import heat_problem

    prob = heat_problem(1)
    n = 12
    u0 = prob.allocate_state(n, seed=0)["u_1"]
    seed = prob.allocate_adjoints(n)["u_b"]
    with prob.checkpointed_adjoint(n, steps=6, snaps=2) as plan:
        ref = {k: v.copy() for k, v in plan.adjoint([u0], seed).items()}
        with faults.inject("checkpoint.snapshot") as inj:
            try:
                plan.adjoint([u0], seed)
                raise AssertionError("injected snapshot fault did not propagate")
            except CheckpointError:
                pass
            if inj.fired("checkpoint.snapshot") != 1:
                raise AssertionError("snapshot fault never fired")
        out = plan.adjoint([u0], seed)
        bad = _mismatches(ref, out)
        if bad:
            raise AssertionError(f"post-failure sweep diverged on {bad}")
    return "typed CheckpointError; next sweep recovered bitwise-identically"


def _scenario_ensemble_bind() -> str:
    from ..runtime import stack_arrays

    kernel, _ = _fresh_case()
    from ..apps import heat_problem

    prob = heat_problem(1)
    n = 12
    batched = stack_arrays(
        [prob.allocate_state(n, seed=m) for m in range(3)]
    )
    snap = {k: v.copy() for k, v in batched.items()}
    with faults.inject("ensemble.bind", skip=1) as inj:
        try:
            kernel.plan().ensemble(batched)
            raise AssertionError("injected bind fault did not propagate")
        except EnsembleBindError as exc:
            member = exc.member
        if inj.fired("ensemble.bind") != 1:
            raise AssertionError("bind fault never fired")
    if member is None:
        raise AssertionError("EnsembleBindError did not name the member")
    bad = _mismatches(snap, batched)
    if bad:
        raise AssertionError(f"failed bind mutated batched arrays {bad}")
    return (
        f"typed EnsembleBindError naming member(s) {member}; "
        f"batched arrays intact"
    )


def _scenario_bound_run() -> str:
    kernel, base = _fresh_case()
    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)
    # Serial, then threaded: a failing task must be joined with its
    # siblings before the restore, or they write after it.
    for threads in (1, 2):
        plan = kernel.plan(
            transactional=True, num_threads=threads, min_block_iterations=1
        )
        _transactional_scenario(plan, base, ref, "bound.run", skip=1)
    return (
        "typed KernelError; arrays restored; clean rerun bitwise-identical "
        "(num_threads 1 and 2)"
    )


# -- the serving daemon's fault points ----------------------------------------

_SERVE_SPEC = (
    "stencil chaos_serve {\n"
    "  iterate i = 1 .. n-2\n"
    "  u[i] += c*(v[i-1] - 2.0*v[i] + v[i+1])\n"
    "}\n"
)
_SERVE_N = 16
_SERVE_SIZES = {"n": _SERVE_N}
_SERVE_PARAMS = {"c": 0.25}


def _serve_state(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "u": rng.standard_normal(_SERVE_N),
        "v": rng.standard_normal(_SERVE_N),
    }


def _serve_reference(seed: int, steps: int = 1) -> dict[str, np.ndarray]:
    """A fresh single-process bound run: the bitwise oracle."""
    from ..frontend import parse_stencil
    from ..runtime import Bindings, compile_nests

    nest = parse_stencil(_SERVE_SPEC)
    kernel = compile_nests(
        [nest],
        Bindings(sizes=_SERVE_SIZES, params=_SERVE_PARAMS),
        name=nest.name,
    )
    arrays = {k: v.copy() for k, v in _serve_state(seed).items()}
    bound = kernel.plan().bind(arrays)
    for _ in range(steps):
        bound.run()
    return arrays


@contextlib.contextmanager
def _serve_daemon(**kwargs):
    from ..runtime.server import KernelServer

    with tempfile.TemporaryDirectory() as tmp:
        server = KernelServer(os.path.join(tmp, "chaos.sock"), **kwargs)
        server.start()
        try:
            yield server
        finally:
            server.close()


def _scenario_server_accept() -> str:
    from ..runtime.client import KernelClient

    ref = _serve_reference(0)
    with _serve_daemon(workers=1, batch_window_ms=0.0) as server:
        client = KernelClient(server.socket_path, retries=1)
        try:
            with faults.inject("server.accept") as inj:
                result = client.run(
                    _SERVE_SPEC,
                    sizes=_SERVE_SIZES,
                    params=_SERVE_PARAMS,
                    state=_serve_state(0),
                )
                fired = inj.fired("server.accept")
        finally:
            client.close()
        drops = server.stats()["accept_drops"]
    if fired != 1:
        raise AssertionError(f"expected one accept firing, got {fired}")
    if drops != 1:
        raise AssertionError(f"expected one dropped connection, got {drops}")
    bad = _mismatches(ref, result.state)
    if bad:
        raise AssertionError(f"retried request diverged on {bad}")
    return "fired 1x; dropped connection retried; bitwise-identical"


def _scenario_server_batch_bind() -> str:
    import threading

    from ..runtime.client import KernelClient

    refs = {seed: _serve_reference(seed) for seed in (0, 1)}
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    ready = threading.Barrier(2)
    with _serve_daemon(workers=2, max_batch=2, batch_window_ms=500.0) as server:

        def worker(seed: int) -> None:
            try:
                with KernelClient(server.socket_path) as client:
                    # Both connections are open before either sends, so
                    # the first request's window waits for the second.
                    client.ping()
                    ready.wait(timeout=60)
                    results[seed] = client.run(
                        _SERVE_SPEC,
                        sizes=_SERVE_SIZES,
                        params=_SERVE_PARAMS,
                        state=_serve_state(seed),
                    )
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        with faults.inject("server.batch.bind") as inj:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            fired = inj.fired("server.batch.bind")
        stats = server.stats()
        fallbacks, reason = stats["batch_fallbacks"], stats["last_batch_fallback"]
    if errors:
        raise AssertionError(f"batch-bind fallback leaked errors: {errors}")
    if fired != 1:
        raise AssertionError(f"expected one batch-bind firing, got {fired}")
    if fallbacks != 1:
        raise AssertionError(f"expected one batch fallback, got {fallbacks}")
    if not (reason or "").startswith("MemoryError: injected fault"):
        raise AssertionError(f"batch fallback did not say why: {reason!r}")
    for seed, ref in refs.items():
        result = results[seed]
        if result.batched:
            raise AssertionError("fallback must serve per-request singles")
        bad = _mismatches(ref, result.state)
        if bad:
            raise AssertionError(f"member {seed} diverged on {bad}")
    return (
        "fired 1x; batch degraded to per-request single runs; "
        "no batchmate poisoned; bitwise-identical"
    )


def _scenario_server_shm_attach() -> str:
    from ..errors import ServeError
    from ..runtime.client import KernelClient

    ref = _serve_reference(3)
    state = _serve_state(3)
    snap = {k: v.copy() for k, v in state.items()}
    with _serve_daemon(workers=1, batch_window_ms=0.0) as server:
        with KernelClient(server.socket_path, shm_threshold=1) as client:
            with faults.inject("server.shm.attach") as inj:
                try:
                    client.run(
                        _SERVE_SPEC,
                        sizes=_SERVE_SIZES,
                        params=_SERVE_PARAMS,
                        state=state,
                    )
                    raise AssertionError(
                        "injected attach fault did not propagate"
                    )
                except ServeError:
                    pass
                if inj.fired("server.shm.attach") != 1:
                    raise AssertionError("attach fault never fired")
            bad = _mismatches(snap, state)
            if bad:
                raise AssertionError(f"failed attach mutated user arrays {bad}")
            result = client.run(
                _SERVE_SPEC,
                sizes=_SERVE_SIZES,
                params=_SERVE_PARAMS,
                state=state,
            )
    bad = _mismatches(ref, result.state)
    if bad:
        raise AssertionError(f"follow-up request diverged on {bad}")
    return (
        "typed ServeError; user arrays intact; "
        "next request on the same connection served bitwise-identically"
    )


def _shard_scenario(point: str, skip: int) -> str:
    """Shared shape of the two shard fault points.

    Runs a 3-step single-shard reference, then the same steps on a
    3-rank :class:`ShardedPlan` with *point* armed to fire mid-run
    (after *skip* occurrences — past the first step, so real sharded
    state exists when the fault lands).  Asserts the fallback contract:
    the plan degrades to single-shard execution with one warning, and
    both the gathered result and the caller's global arrays are bitwise
    identical to the never-sharded reference.
    """
    from ..runtime.distributed import ShardedPlan

    kernel, base = _fresh_case(seed=5)
    steps = 3
    exchange = ["u", "u_1", "u_b"]
    accumulate = ["u_1_b"]
    ref = {k: v.copy() for k, v in base.items()}
    bound = kernel.plan().bind(ref)
    for _ in range(steps):
        bound.run()
    arrays = {k: v.copy() for k, v in base.items()}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with faults.inject(point, skip=skip) as inj:
            with ShardedPlan(kernel, arrays, nranks=3, halo=1) as sharded:
                for _ in range(steps):
                    sharded.step(
                        "main", exchange=exchange, accumulate=accumulate
                    )
                fired = inj.fired(point)
                degraded = sharded.degraded
                verdicts = list(sharded.decisions)
                got = sharded.gather()
    if fired != 1:
        raise AssertionError(f"expected one {point} firing, got {fired}")
    if not degraded:
        raise AssertionError("injected fault did not degrade the plan")
    if sum("degraded" in str(w.message) for w in caught) != 1:
        raise AssertionError("degradation must warn exactly once")
    if [v.rung for v in verdicts] != ["single shard"] or (
        f"injected fault at {point}" not in verdicts[0].reason
    ):
        raise AssertionError(f"degrade verdict does not name {point}: {verdicts}")
    bad = _mismatches(ref, got)
    if bad:
        raise AssertionError(f"degraded run diverged from reference on {bad}")
    bad = _mismatches(ref, arrays)
    if bad:
        raise AssertionError(f"caller's global arrays diverged on {bad}")
    return (
        "fired 1x; degraded to a single shard mid-run; warned once; "
        "bitwise-identical"
    )


def _scenario_shard_exchange() -> str:
    # Two slab pairs per step: skip=3 lands the fault on the second
    # step's second pair — mid-exchange, mid-run.
    return _shard_scenario("shard.exchange", skip=3)


def _scenario_shard_worker() -> str:
    # Three liveness probes per step: skip=4 lands the fault on the
    # second step's middle rank, before any dispatch of that step.
    return _shard_scenario("shard.worker", skip=4)


_SCENARIOS = {
    "native.toolchain": _scenario_toolchain,
    "native.cc.spawn": _scenario_cc_spawn,
    "native.cc.timeout": _scenario_cc_timeout,
    "native.cache.write": _scenario_cache_write,
    "native.cache.load": _scenario_cache_load,
    "native.omp.probe": _scenario_omp_probe,
    "scheduler.task": _scenario_scheduler_task,
    "checkpoint.snapshot": _scenario_checkpoint_snapshot,
    "ensemble.bind": _scenario_ensemble_bind,
    "bound.run": _scenario_bound_run,
    "server.accept": _scenario_server_accept,
    "server.batch.bind": _scenario_server_batch_bind,
    "server.shm.attach": _scenario_server_shm_attach,
    "shard.exchange": _scenario_shard_exchange,
    "shard.worker": _scenario_shard_worker,
}


def chaos_scenarios() -> dict:
    """Scenario callables keyed by fault-point name (a copy)."""
    return dict(_SCENARIOS)


def run_chaos() -> list[ChaosResult]:
    """Run every fault-point scenario; never raises.

    Returns one :class:`ChaosResult` per *registered* fault point, in
    registration order.  A registered point without a scenario is
    reported as a failure — the suite's coverage is closed over the
    registry, not over whatever scenarios happen to exist.
    """
    results: list[ChaosResult] = []
    for point in faults.registered_fault_points():
        fn = _SCENARIOS.get(point.name)
        if fn is None:
            results.append(
                ChaosResult(
                    point.name,
                    point.contract,
                    False,
                    "no scenario covers this registered fault point",
                )
            )
            continue
        try:
            detail = fn()
            results.append(ChaosResult(point.name, point.contract, True, detail))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            results.append(
                ChaosResult(
                    point.name,
                    point.contract,
                    False,
                    f"{type(exc).__name__}: {exc}",
                )
            )
        finally:
            faults.deactivate()
    return results
