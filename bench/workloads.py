"""The eight workloads, run one per process as the benchmark's child.

Every workload follows one shape: make inputs from the seed, build the
ready-to-run object once untimed (fills the on-disk ``.so`` cache and
warms SymPy), check its outputs bitwise against an oracle that is not
the path under test, time the set-up several times, then time the
operation back to back for the requested seconds.  With tracing on the
same flow runs inside spans, a shorter timed loop runs with and without
a span per operation, and the layer probes run afterwards.

Each layer is measured from outside, through its public functions; no
file under ``src/`` knows the benchmark exists.  ``run.py`` starts this
file with a clean environment and reads the record it writes.
"""

from __future__ import annotations

import argparse
import base64
import itertools
import json
import os
import resource
import statistics
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import sympy as sp

import stream
from harness import (
    NullTracer,
    Run,
    Tracer,
    alloc_bytes_per_step,
    bitwise_equal,
    calibrate_inner,
    closed_loop,
    load_spec,
    median_time,
    percentile,
    shm_segments,
    timed_blocks,
)
from repro.apps import heat_problem, wave_problem
from repro.codegen.native_c import generate_native_source
from repro.core import adjoint_loops
from repro.core.symbols import make_adjoint_function
from repro.driver import optimal_cost
from repro.frontend import parse_stencil
from repro.frontend.printer import to_source
from repro.machine import analyze_nests
from repro.runtime import (
    Bindings,
    ExecutionConfig,
    KernelClient,
    KernelServer,
    ShardedPlan,
    SnapshotPool,
    clear_kernel_cache,
    compile_nests,
    get_kernel_cache,
    interpret_nests,
    kernel_key,
    native_available,
    native_cache_dir,
    native_thread_count,
    seeded_state,
    stack_arrays,
)
from repro.runtime.native import library_for_kernel
from repro.runtime.server import encode_array

QUIET = NullTracer()
SETUP_BUILDS = (5, 64)  # at least, at most
SETUP_BUDGET_S = 3.0  # wall time of the set-up phase, disposing of each build included
NATIVE = {"backend": "native", "fusion": "auto"}
ORACLE_PYTHON_BYTES = 64 << 20


def copy_of(arrays):
    return {k: v.copy() for k, v in arrays.items()}


def fresh_kernel_cache(run: Run) -> None:
    """Empty the in-process kernel cache, keeping its counters for the run."""
    stats = get_kernel_cache().stats()
    for key in run.cache_tally:
        run.cache_tally[key] += stats[key]
    clear_kernel_cache()


# -- one kernel through the pipeline ------------------------------------------


@dataclass(frozen=True)
class Case:
    """A kernel a workload runs: problem, grid size, primal or adjoint, plan."""

    problem: object
    n: int
    adjoint: bool
    plan_kw: dict = field(default_factory=dict)
    expect: tuple | None = None  # (statements, sweeps) a native binding must show

    @property
    def native(self) -> bool:
        return self.plan_kw.get("backend") == "native"

    @property
    def name(self) -> str:
        return self.problem.name + ("_b" if self.adjoint else "")

    def at(self, n: int) -> "Case":
        return Case(self.problem, n, self.adjoint, self.plan_kw, self.expect)

    def nests(self):
        if self.adjoint:
            return adjoint_loops(self.problem.primal, self.problem.adjoint_map)
        return [self.problem.primal]


def lower(tr, case: Case):
    """nests -> compiled kernel -> plan, one span per layer."""
    if case.adjoint:
        with tr.span("core.adjoint_loops"):
            nests = case.nests()
    else:
        nests = case.nests()
    with tr.span("compiler.compile_nests"):
        kernel = compile_nests(nests, case.problem.bindings(case.n), name=case.name)
    with tr.span("plan.build"):
        plan = kernel.plan(**case.plan_kw)
    return nests, kernel, plan


def ready(tr, case: Case, arrays):
    """The bound plan of *case* on *arrays* (inputs -> ready-to-run object).

    ``library_for_kernel`` is memoised on the kernel, so calling it
    before ``bind`` splits the native load out of the bind span without
    changing what bind does.
    """
    _nests, kernel, plan = lower(tr, case)
    if case.native:
        with tr.span("native.library"):
            library_for_kernel(kernel, native_thread_count(plan.config))
    with tr.span("bound.bind"):
        return plan.bind(arrays)


def guard_native(run: Run, case: Case, bound) -> None:
    """A native workload must not silently measure the python path."""
    if not case.native:
        return
    statements, sweeps = case.expect
    run.check(
        bound.statement_count == statements
        and bound.native_statement_count == statements
        and bound.sweep_count == sweeps,
        f"{case.name}: expected {statements} native statements in {sweeps} "
        f"sweep(s), got {bound.native_statement_count}/{bound.statement_count} "
        f"in {bound.sweep_count}",
    )


def check_small(run: Run, case: Case, n: int) -> None:
    """One step of the path under test at reduced size vs ``interpret_nests``."""
    small = case.at(n)
    start = small.problem.allocate_state(n, seed=run.seed)
    got = copy_of(start)
    ready(QUIET, small, got).run()
    interpret_nests(small.nests(), start, small.problem.bindings(n))
    run.same(got, start, f"{case.name} n={n} vs interpret_nests")


def reference_steps(case: Case, arrays, steps: int):
    """*steps* runs of the oracle at full size, on a copy of what it touches.

    The oracle is the python-backend ``fusion="off"`` bound plan.  Two
    exceptions: where that is the path under test (the python workload)
    it is the unbound serial run; and past ``ORACLE_PYTHON_BYTES`` of
    state it is the native per-statement plan (``fusion="off"``), because
    the python plan's per-statement scratch would be gigabytes that this
    machine faults in at about 150 MB/s.
    """
    nests = case.nests()
    touched = {a for nest in nests for a in nest.written_arrays() + nest.read_arrays()}
    ref = {name: arrays[name].copy() for name in touched}
    kernel = compile_nests(nests, case.problem.bindings(case.n), name=case.name)
    big = sum(a.nbytes for a in ref.values()) > ORACLE_PYTHON_BYTES
    plan = kernel.plan(backend="native" if big else "python", fusion="off")
    if case.native:
        bound = plan.bind(ref)
        for _ in range(steps):
            bound.run()
    else:
        for _ in range(steps):
            plan.run_unbound(ref)
    return ref


def time_setup(run: Run, make, dispose=None):
    """``setup_s``: median build time at reference speed, in-process kernel
    cache cleared.

    Builds repeat for ``SETUP_BUDGET_S``: seven of a 0.4 s set-up, thirty
    of an 85 ms one, fifteen of a served one (50 ms, but closing a server
    takes 150 ms).  Five builds told two run-sets of one commit apart by
    half on the cheap set-ups.
    """
    least, most = SETUP_BUILDS
    raw, factors = [], []
    deadline = time.perf_counter() + run.scaled(SETUP_BUDGET_S)
    before = run.reference.factor()
    while len(raw) < run.scaled(least) or (time.perf_counter() < deadline and len(raw) < most):
        fresh_kernel_cache(run)
        with run.span("setup"):
            t0 = time.perf_counter()
            obj = make()
            raw.append(time.perf_counter() - t0)
        if dispose is not None:
            dispose(obj)
        # After disposal: a build's own workers, still busy on the other
        # core, would read as a slow machine.
        after = run.reference.factor()
        factors.append((before + after) / 2)
        before = after
    put_setup(run, raw, factors)


def put_setup(run: Run, raw, factors) -> None:
    run.put("setup_s", statistics.median(t / f for t, f in zip(raw, factors)), len(raw))
    run.notes["setup"] = {
        "raw_s": statistics.median(raw),
        "machine_factor": statistics.median(factors),
        "builds": len(raw),
    }


def time_ops(run: Run, op, span_name: str, inner: int | None = None, after=None):
    """The timed closed loop: ``op_latency_ms`` and ``ops_per_s``.

    Untraced runs spend all of ``run.seconds`` here.  Traced runs spend
    a quarter of it, then run four short blocks with one span per
    operation, which gives ``trace.overhead_share``.
    """
    if inner is None:
        inner = calibrate_inner(op)
    for _ in range(3):
        op()

    def block(budget_s, span=None, min_ops=1):
        samples = closed_loop(op, budget_s, inner, min_ops=min_ops, span=span)
        return samples, len(samples) * inner

    seconds = run.seconds / 4 if run.trace else run.seconds
    stats = timed_blocks(block, seconds, run.reference)
    run.ops(stats["ops"])
    run.timed(stats)
    if after is not None:
        after()
    if run.trace:
        # Four blocks of an eighth of the loop above each, and of at most 250
        # samples, so a microsecond operation cannot record millions of spans.
        per_block = max(1, min(250, int(seconds / 8 / stats["raw_latency_s"])) // inner)
        traced = timed_blocks(
            lambda _budget: block(0.0, lambda: run.span(span_name), per_block),
            0.0, run.reference, min_blocks=4,
        )
        put_overhead(run, stats, traced)
    return stats


def put_overhead(run: Run, plain: dict, traced: dict) -> None:
    """``trace.overhead_share``: untraced rate over traced rate, minus one."""
    run.put(
        "trace.overhead_share",
        plain["ops_per_s"] / traced["ops_per_s"] - 1.0,
        traced["samples"],
    )


# -- layer probes (traced runs only) ------------------------------------------


def probe_pipeline(run: Run, case: Case, arrays):
    """The compile pipeline's layers on this workload's own kernel."""
    tr = run.tracer
    reps = run.scaled(3)
    fresh_kernel_cache(run)
    tally = dict(run.cache_tally)  # the probe's own lookups repeat exactly
    prob = case.problem
    bindings = prob.bindings(case.n)
    source = to_source(prob.primal)
    run.put("frontend.source_bytes", len(source.encode()))
    for _ in range(reps):
        with tr.span("frontend.parse"):
            parse_stencil(source)
    for _ in range(reps):
        fresh_kernel_cache(run)
        bound = ready(tr, case, arrays)
    nests = case.nests()
    run.put("core.nest_count", len(nests))
    for _ in range(reps):
        with tr.span("cache.hit"):
            kernel = compile_nests(nests, bindings, name=case.name)
        with tr.span("cache.key"):
            kernel_key(nests, bindings, name=case.name)
    run.put(
        "compiler.statement_count", sum(len(r.statements) for r in kernel.regions)
    )
    plan = kernel.plan(**case.plan_kw)
    run.put("plan.unit_count", plan.unit_count)
    run.put("plan.task_count", plan.task_count)
    if case.native:
        probe_native_build(run, case, nests, bindings, plan)
    fresh = {k: np.empty_like(v) for k, v in arrays.items()}
    with tr.span("bound.bind_warm"):
        plan.bind(fresh)
    fresh_kernel_cache(run)
    for key, was in tally.items():
        run.put(f"cache.{key}", run.cache_tally[key] - was)
    probe_bound(run, case, bound)
    return bound


def probe_native_build(run: Run, case: Case, nests, bindings, plan) -> None:
    """Codegen, a cold build in an empty cache directory, and the cache's size."""
    tr = run.tracer
    nthreads = native_thread_count(plan.config)
    kernel = compile_nests(nests, bindings, name=case.name, cache=False)
    with tr.span("codegen.native_source"):
        source, _manifest = generate_native_source(kernel, nthreads)
    run.put("codegen.native_source_bytes", len(source.encode()))
    warm_dir = os.environ["REPRO_CACHE_DIR"]
    os.environ["REPRO_CACHE_DIR"] = str(run.workdir / "cold_probe")
    try:
        with tr.span("native.build_cold"):
            lib = library_for_kernel(kernel, nthreads)
    finally:
        os.environ["REPRO_CACHE_DIR"] = warm_dir
    run.check(lib is not None, f"{case.name}: cold native build fell back")
    objects = list(native_cache_dir().glob("*.so"))
    run.put("native.so_count", len(objects))
    run.put("native.so_bytes", sum(p.stat().st_size for p in objects))


def probe_bound(run: Run, case: Case, bound) -> None:
    """Steady-state ``bound.run``: median, p99, counts, allocation."""
    for _ in range(3):
        bound.run()
    times = sorted(closed_loop(bound.run, run.scaled(1.0), min_ops=20)[:20000])
    run_us = statistics.median(times) * 1e6
    run.put("bound.run_us", run_us, len(times))
    run.put("bound.run_p99_us", percentile(times, 0.99) * 1e6, len(times))
    run.put("bound.statement_count", bound.statement_count)
    run.put("bound.native_statement_count", bound.native_statement_count)
    run.put("bound.sweep_count", bound.sweep_count)
    run.put("bound.fused_group_count", bound.fused_group_count)
    if not case.native:
        run.put("bound.us_per_statement", run_us / bound.statement_count)
    # 100 steps, fewer of a step that takes milliseconds (a second of them).
    steps = max(10, min(100, int(1e6 / run_us)))
    run.put("bound.alloc_bytes_per_step", alloc_bytes_per_step(bound.run, steps), steps)


def probe_dispatch_fit(run: Run, case: Case, arrays=None) -> float:
    """Intercept (dispatch) and slope (per point, cache-resident) of
    ``bound.run`` time over small grids; returns the intercept in us."""
    sizes = (8, 16) if run.toy else (8, 16, 32, 64, 128)
    points, micros = [], []
    for n in sizes:
        small = case.at(n)
        bound = ready(QUIET, small, small.problem.allocate_state(n, seed=run.seed))
        inner = calibrate_inner(bound.run)
        times = closed_loop(bound.run, run.scaled(0.2), inner)
        points.append(float((n - 1) ** small.problem.dim))
        micros.append(statistics.median(times) * 1e6)
    # Relative weights, so the small grids fix the intercept.
    slope, intercept = np.polyfit(points, micros, 1, w=1.0 / np.asarray(micros))
    run.put("native.dispatch_us", intercept, len(sizes))
    run.put("native.ns_per_point_cached", slope * 1e3, len(sizes))
    return float(intercept)


SPAN_METRICS = {
    "frontend.parse": "frontend.parse_ms",
    "core.adjoint_loops": "core.adjoint_ms",
    "compiler.compile_nests": "compiler.compile_nests_ms",
    "cache.hit": "cache.hit_ms",
    "cache.key": "cache.key_ms",
    "codegen.native_source": "codegen.native_source_ms",
    "native.build_cold": "native.build_cold_ms",
    "native.library": "native.load_warm_ms",
    "plan.build": "plan.build_ms",
    "bound.bind": "bound.bind_cold_ms",
    "bound.bind_warm": "bound.bind_warm_ms",
    "checkpoint.build": "checkpoint.build_ms",
    "shard.build": "shard.build_ms",
}


def finish_layers(run: Run) -> None:
    """Per-layer metrics that are read off the recorded spans and counters."""
    tr = run.tracer
    for span_name, metric in SPAN_METRICS.items():
        values = tr.durations_ms(span_name)
        if values:
            run.put(metric, statistics.median(values), len(values))
    if "native.build_cold_ms" in run.metrics and "native.load_warm_ms" in run.metrics:
        # Both include source generation; the difference is the compiler.
        run.put(
            "native.cc_ms",
            run.metrics["native.build_cold_ms"]["value"]
            - run.metrics["native.load_warm_ms"]["value"],
        )
    run.put("verify.oracle_mismatches", run.mismatches)


# -- step workloads: dispatch_heat2d, sweep_heat2d, python_wave3d -------------


def step_workload(run: Run, case: Case, small_n: int, probes=(), arrays=None) -> None:
    if arrays is None:
        arrays = case.problem.allocate_state(case.n, seed=run.seed)
    bound = ready(run.tracer, case, arrays)
    guard_native(run, case, bound)
    check_small(run, case, min(small_n, case.n))
    ref = reference_steps(case, arrays, 2)
    bound.run()
    bound.run()
    run.same(arrays, ref, f"{case.name} n={case.n} vs python fusion=off")
    del ref
    time_setup(run, lambda: ready(run.tracer, case, arrays))
    time_ops(run, bound.run, "bound.run")
    if run.trace:
        probe_pipeline(run, case, arrays)
        for probe in probes:
            probe(run, case, arrays)


def heat_adjoint(n: int, **extra) -> Case:
    return Case(heat_problem(2), n, True, {**NATIVE, **extra}, expect=(17, 1))


def dispatch_heat2d(run: Run) -> None:
    case = heat_adjoint(16 if run.toy else 32)
    step_workload(run, case, small_n=16, probes=[probe_dispatch_fit])


def probe_sweep(run: Run, case: Case, arrays) -> None:
    """Roofline placement of the big sweep against a same-run STREAM probe."""
    machine = stream.probe(next(iter(arrays.values())).size, reps=run.scaled(5))
    run.put("machine.llc_bytes", machine["llc_bytes"])
    run.put("machine.stream_copy_gbs", machine["copy_gbs"], machine["reps"])
    run.put("machine.stream_triad_gbs", machine["triad_gbs"], machine["reps"])
    run.notes["array_bytes"] = machine["array_bytes"]
    desc = analyze_nests(case.nests(), case.problem.sizes(case.n), cse=True)
    step_bytes = desc.bytes_per_point * desc.points
    run.put("sweep.bytes_per_step_computed", step_bytes)
    run.put("sweep.flops_per_point", desc.flops_per_point)
    step_s = run.metrics["bound.run_us"]["value"] * 1e-6
    run.put("sweep.ns_per_point", step_s / desc.points * 1e9)
    achieved = step_bytes / step_s / 1e9
    run.put("sweep.achieved_gbs", achieved)
    # The roof is the better of the two probe kernels, as STREAM reports it.
    run.put("sweep.bw_fraction", achieved / max(machine["copy_gbs"], machine["triad_gbs"]))
    dispatch_us = probe_dispatch_fit(run, case)
    run.notes["dispatch_share_of_step"] = dispatch_us * 1e-6 / step_s
    if (os.cpu_count() or 1) >= 2:
        two = Case(case.problem, case.n, True, {**NATIVE, "native_threads": 2}, case.expect)
        bound2 = ready(QUIET, two, arrays)
        guard_native(run, two, bound2)
        for _ in range(2):
            bound2.run()
        times = closed_loop(bound2.run, run.scaled(0.5), min_ops=10)
        run.put("sweep.threads2_speedup", step_s / statistics.median(times), len(times))


def sweep_heat2d(run: Run) -> None:
    # n=4096: the sweep reads u_b and updates u_1_b, 134 MB each, 268 MB
    # against the 260 MiB last-level cache this VM reports (and shares).
    # n=2048 is cache-resident here and is rejected on purpose.
    case = heat_adjoint(16 if run.toy else 4096, native_threads=1)
    # Only those two arrays: the primal pair no adjoint step touches would
    # be another 268 MB of first-touch page faults, 2-8 s a run on this VM.
    arrays = case.problem.allocate_adjoints(case.n, rng=np.random.default_rng(run.seed))
    step_workload(run, case, small_n=24, probes=[probe_sweep], arrays=arrays)


def python_wave3d(run: Run) -> None:
    case = Case(wave_problem(3), 10 if run.toy else 32, True)
    step_workload(run, case, small_n=10)


# -- cold_wave2d --------------------------------------------------------------


def cold_wave2d(run: Run) -> None:
    """Stencil source text -> first adjoint result, nothing cached."""
    prob = wave_problem(2)
    n = 16 if run.toy else 64
    source = to_source(prob.primal)
    start = prob.allocate_state(n, seed=run.seed)
    fwd_case = Case(prob, n, False, {"backend": "python", "fusion": "off"})
    rev_case = Case(prob, n, True, NATIVE, expect=(35, 2))
    want = copy_of(start)
    want.update(reference_steps(fwd_case, want, 1))
    want.update(reference_steps(rev_case, want, 1))
    check_small(run, rev_case, 16)
    warm_dir = os.environ["REPRO_CACHE_DIR"]
    tr = run.tracer
    setups = []

    def first_gradient(_budget_s):
        rep = len(setups)
        # A directory never seen before: no .so on disk, no dlopen handle.
        os.environ["REPRO_CACHE_DIR"] = str(run.workdir / f"cold_{rep}")
        fresh_kernel_cache(run)
        arrays = copy_of(start)
        t0 = time.perf_counter()
        with tr.span("first_gradient"):
            with tr.span("frontend.parse"):
                nest = parse_stencil(source)
            funcs = [sp.Function(a) for a in nest.written_arrays() + nest.read_arrays()]
            amap = {f: make_adjoint_function(f) for f in funcs}
            with tr.span("core.adjoint_loops"):
                nests = adjoint_loops(nest, amap)
            bindings = Bindings(sizes={"n": n}, params=dict(prob.param_defaults))
            with tr.span("compiler.compile_nests"):
                fwd = compile_nests([nest], bindings, name="wave2d")
                rev = compile_nests(nests, bindings, name="wave2d_b")
            with tr.span("plan.build"):
                plans = [k.plan(**NATIVE) for k in (fwd, rev)]
            with tr.span("native.build_cold"):
                library_for_kernel(rev, 1)
            with tr.span("native.build_cold_primal"):
                library_for_kernel(fwd, 1)
            with tr.span("bound.bind"):
                bounds = [p.bind(arrays) for p in plans]
            setups.append(time.perf_counter() - t0)
            with tr.span("bound.run"):
                for bound in bounds:
                    bound.run()
        total = time.perf_counter() - t0
        guard_native(run, rev_case, bounds[1])
        run.same(arrays, want, f"cold rep {rep} vs python fusion=off")
        return [total], 1

    try:  # every repetition is a block of its own
        stats = timed_blocks(
            first_gradient, run.seconds / 2 if run.trace else run.seconds,
            run.reference, min_blocks=run.scaled(3),
        )
    finally:
        os.environ["REPRO_CACHE_DIR"] = warm_dir
    put_setup(run, setups, stats["block_factors"])
    run.ops(stats["ops"])
    run.timed(stats)
    if run.trace:
        self_ms = tr.self_times_ms()
        total = sum(tr.durations_ms("first_gradient"))
        pipeline = sum(
            self_ms.get(k, 0.0)
            for k in ("frontend.parse", "core.adjoint_loops", "compiler.compile_nests",
                      "plan.build", "native.build_cold", "native.build_cold_primal",
                      "bound.bind")
        )
        run.notes["compile_pipeline_share"] = pipeline / total
        # Too long an operation to repeat untraced: spans per operation
        # times the measured cost of one span, over the operation's time.
        spare = Tracer()  # not *tr*: these two thousand spans are no part of the run
        cost_s = median_time(lambda: spare.span("x").__enter__().__exit__(), 2000)
        per_op = len(tr.spans) / len(setups)
        run.put("trace.overhead_share", per_op * cost_s / stats["raw_latency_s"], len(setups))
        os.environ["REPRO_CACHE_DIR"] = str(run.workdir / f"cold_{len(setups) - 1}")
        try:
            probe_pipeline(run, rev_case, copy_of(start))
        finally:
            os.environ["REPRO_CACHE_DIR"] = warm_dir


# -- revolve_wave2d -----------------------------------------------------------


def revolve_wave2d(run: Run) -> None:
    prob = wave_problem(2)
    n, steps, snaps = (24, 12, 3) if run.toy else (96, 128, 8)
    rng = np.random.default_rng(run.seed)
    shape = prob.array_shape(n)
    state0 = [rng.standard_normal(shape) * 0.1 for _ in prob.history_fields()]
    seed = prob.allocate_adjoints(n, rng=rng)["u_b"]

    def build(backend="native", fusion="auto"):
        with run.span("checkpoint.build"):
            return prob.checkpointed_adjoint(
                n, steps=steps, snaps=snaps, backend=backend, fusion=fusion
            )

    plan = build()
    rev_case = Case(prob, n, True, NATIVE, expect=(35, 2))
    guard_native(run, rev_case, ready(QUIET, rev_case, prob.allocate_state(n, seed=run.seed)))
    check_small(run, rev_case, 16)
    want = copy_of(plan.run_store_all(state0, seed))
    with build("python", "off") as oracle:
        run.same(want, oracle.run_store_all(state0, seed), "native store-all vs python store-all")
    run.same(plan.adjoint(state0, seed), want, "checkpointed vs store-all")
    run.check(
        plan.forward_steps == optimal_cost(steps, snaps) - steps,
        f"recompute steps {plan.forward_steps} are not the revolve optimum",
    )
    time_setup(run, build, dispose=lambda p: p.close())
    result = {}

    def sweep():
        result["out"] = plan.adjoint(state0, seed)

    time_ops(
        run, sweep, "checkpoint.adjoint", inner=1,
        after=lambda: run.same(result["out"], want, "last timed sweep vs store-all"),
    )
    if run.trace:
        probe_checkpoint(run, prob, plan, rev_case, n, steps, snaps, state0, seed)
    plan.close()


def probe_checkpoint(run, prob, plan, rev_case, n, steps, snaps, state0, seed) -> None:
    gradient_s = run.notes["op"]["raw_latency_s"]  # uncorrected, like the step times below
    fwd_s = median_time(lambda: plan.run_forward(state0), run.scaled(5))
    all_s = median_time(lambda: plan.run_store_all(state0, seed), run.scaled(3))
    run.put("checkpoint.forward_s", fwd_s, run.scaled(5))
    run.put("checkpoint.store_all_s", all_s, run.scaled(3))
    plan.adjoint(state0, seed)
    run.put("checkpoint.recompute_steps", plan.forward_steps)
    run.put("checkpoint.actions", len(plan.actions))
    run.put("checkpoint.snapshot_bytes", plan.snapshot_bytes)
    run.put("checkpoint.store_all_bytes", plan.store_all_bytes)
    pool = SnapshotPool(2, prob.array_shape(n), np.float64, fields=len(state0))
    out = [np.empty_like(a) for a in state0]

    def snapshot():
        pool.store(0, state0)
        pool.load(0, out)

    copy_s = median_time(snapshot, 200)
    run.put("checkpoint.snapshot_copy_us", copy_s * 1e6, 200)
    # Pure step time: the same kernels, bound directly, no schedule around them.
    arrays = prob.allocate_state(n, seed=run.seed)
    probe_pipeline(run, rev_case, arrays)
    rev_us = run.metrics["bound.run_us"]["value"]
    fwd_bound = ready(QUIET, Case(prob, n, False, NATIVE), arrays)
    fwd_us = statistics.median(closed_loop(fwd_bound.run, run.scaled(0.3), min_ops=20)) * 1e6
    pure_s = (plan.forward_steps * fwd_us + steps * rev_us) * 1e-6
    run.put("checkpoint.overhead_ratio", gradient_s / pure_s)
    # <F(d), w> == <d, F^T w>: the forward sweep is linear in the state.
    direction = [np.random.default_rng(run.seed + 1).standard_normal(a.shape) for a in state0]
    lhs = float(np.vdot(plan.run_forward(direction)[0], seed))
    grad = plan.adjoint(direction, seed)
    names = prob.adjoint_name_map()
    rhs = sum(
        float(np.vdot(d, grad[names[h]])) for d, h in zip(direction, prob.history_fields())
    )
    run.put("verify.dot_product_rel_err", abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))


# -- serve_small, serve_bulk --------------------------------------------------

SPECS = [
    ("stencil smooth {\n  iterate i = 1 .. n-2\n"
     "  u[i] += c*(v[i-1] - 2.0*v[i] + v[i+1])\n}\n", {"c": 0.25}),
    ("stencil blend {\n  iterate i = 1 .. n-2\n"
     "  w[i] = a*r[i-1] + b*r[i+1]\n}\n", {"a": 0.5, "b": 0.125}),
    ("stencil drift {\n  iterate i = 2 .. n-3\n"
     "  u[i] += c*(v[i-2] - v[i+2])\n}\n", {"c": 0.0625}),
]
SERVE_STEPS = 2


@dataclass(eq=False)
class Request:
    spec: str
    params: dict
    sizes: dict
    state: dict
    want: dict
    kernel_id: str | None = None


def serve_requests(run: Run, n: int) -> list[Request]:
    """Twelve distinct requests (3 kernels x 4 states) with their oracles:
    fresh single-process python ``fusion="off"`` bound runs."""
    sizes = {"n": n}
    out = []
    for r in range(12):
        spec, params = SPECS[r % 3]
        nest = parse_stencil(spec)
        bindings = Bindings(sizes=sizes, params=params)
        state = seeded_state(nest, bindings, seed=run.seed * 4 + r // 3)
        want = copy_of(state)
        bound = compile_nests([nest], bindings, name=nest.name).plan(
            backend="python", fusion="off"
        ).bind(want)
        for _ in range(SERVE_STEPS):
            bound.run()
        out.append(Request(spec, params, sizes, state, want))
    return out


def send(client: KernelClient, req: Request):
    if req.kernel_id is not None:
        return client.run(kernel_id=req.kernel_id, state=req.state, steps=SERVE_STEPS)
    return client.run(
        req.spec, sizes=req.sizes, params=req.params, state=req.state, steps=SERVE_STEPS
    )


class Service:
    """A live server plus its connected closed-loop clients."""

    ids = itertools.count()

    def __init__(self, run: Run, requests, clients: int, window_ms: float, by_id: bool):
        # Relative path: a Unix socket path is capped at 108 bytes.
        self.server = KernelServer(
            f"serve_{next(Service.ids)}.sock", workers=2, max_batch=8,
            batch_window_ms=window_ms,
        )
        with run.span("server.start"):
            self.server.start()
        self.clients = [KernelClient(self.server.socket_path) for _ in range(clients)]
        self.sent = 0
        with run.span("server.warm"):
            for client in self.clients:
                client.ping()
            for req in requests[:3]:
                if by_id:
                    with run.span("client.compile"):
                        kid = self.clients[0].compile(req.spec, sizes=req.sizes, params=req.params)
                    for other in requests:
                        if other.spec == req.spec:
                            other.kernel_id = kid
                send(self.clients[0], req)
                self.sent += 1

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.close()


def client_loop(run, service, requests, seconds, traced=False, min_ops=0):
    """Closed loop, one thread per client; returns ``(latencies, count)``.

    Every response is compared bitwise with its oracle, outside the
    timed part of the request.
    """
    results = [[] for _ in service.clients]
    verdicts = [[] for _ in service.clients]
    deadline = time.perf_counter() + seconds

    def worker(i: int) -> None:
        client, k = service.clients[i], i
        # A dead server fails every request: stop after a few, not never.
        while (
            time.perf_counter() < deadline or len(results[i]) < min_ops
        ) and len(verdicts[i]) - len(results[i]) < 20:
            req = requests[k % len(requests)]
            k += len(service.clients)
            t0 = time.perf_counter()
            try:
                if traced:
                    with run.span("client.run"):
                        got = send(client, req).state
                else:
                    got = send(client, req).state
            except Exception as exc:  # a failed request is a counted failure
                verdicts[i].append((False, f"request raised {exc!r}"))
                continue
            results[i].append(time.perf_counter() - t0)
            ok = all(bitwise_equal(got[name], req.want[name]) for name in req.want)
            verdicts[i].append((ok, "served response differs from its oracle"))

    if len(service.clients) == 1:
        worker(0)
    else:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(service.clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for ok, what in (v for per in verdicts for v in per):
        if not ok:
            run.mismatches += 1
        run.check(ok, what)
    service.sent += sum(len(v) for v in verdicts)
    samples = [s for per in results for s in per]
    return samples, len(samples)


def serve_workload(run: Run, n: int, clients: int, window_ms: float, by_id: bool, warmup: int):
    os.chdir(run.workdir)
    requests = serve_requests(run, n)
    make = lambda: Service(run, requests, clients, window_ms, by_id)  # noqa: E731
    time_setup(run, make, dispose=lambda s: s.close())
    fresh_kernel_cache(run)
    service = make()
    try:
        client_loop(run, service, requests, 0.0, min_ops=warmup // clients)
        seconds = run.seconds / 4 if run.trace else run.seconds
        stats = timed_blocks(
            lambda budget: client_loop(run, service, requests, budget, min_ops=1),
            seconds, run.reference,
        )
        run.timed(stats)
        if run.trace:
            traced = timed_blocks(
                lambda _budget: client_loop(
                    run, service, requests, 0.0, traced=True, min_ops=run.scaled(25)
                ),
                0.0, run.reference, min_blocks=4,
            )
            put_overhead(run, stats, traced)
            counters = service.server.stats()
            run.put("serve.p90_ms", stats["raw_p90_s"] * 1e3, stats["samples"])
            run.put("serve.p99_ms", stats["raw_p99_s"] * 1e3, stats["samples"])
            for key in ("batched_runs", "batched_requests", "single_runs", "batch_fallbacks"):
                run.put(f"serve.{key}", counters[key])
            runs = counters["batched_runs"] + counters["single_runs"]
            run.put("serve.mean_batch_size", counters["ok"] / runs if runs else 0.0)
            run.put("serve.retries", counters["requests"] - service.sent)
    finally:
        service.close()
    return requests


def probe_serve(run: Run, requests, by_id: bool, count: int) -> None:
    """One client, window 0: split a served request into resolve / transport / direct."""
    # direct: warm bound plans in this process, state copied in and out.
    case_arrays = {}
    for req in requests[:3]:
        nest = parse_stencil(req.spec)
        kernel = compile_nests([nest], Bindings(sizes=req.sizes, params=req.params), name=nest.name)
        buffers = {k: np.zeros_like(v) for k, v in req.state.items()}
        case_arrays[req.spec] = (kernel.plan().bind(buffers), buffers)

    def direct(req):
        bound, buffers = case_arrays[req.spec]
        for name, arr in req.state.items():
            np.copyto(buffers[name], arr)
        for _ in range(SERVE_STEPS):
            bound.run()
        return copy_of(buffers)

    def p50_ms(fn, reps=count, reqs=requests):
        times = []
        for k in range(reps):
            req = reqs[k % len(reqs)]
            t0 = time.perf_counter()
            fn(req)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3, reps

    direct_ms, reps = p50_ms(direct)
    run.put("serve.direct_us", direct_ms * 1e3, reps)

    def codec(req):
        for arr in req.state.values():
            meta = encode_array(arr)
            np.frombuffer(base64.b64decode(meta["data"]), dtype=arr.dtype)

    run.put("serve.encode_inline_us", p50_ms(codec)[0] * 1e3, count)

    spec_reqs = [Request(r.spec, r.params, r.sizes, r.state, r.want) for r in requests]
    service = Service(run, requests, 1, 0.0, by_id=True)  # fills kernel_id on *requests*
    try:
        client = service.clients[0]
        times = []
        for _ in range(count * 2):
            t0 = time.perf_counter()
            client.ping()
            times.append(time.perf_counter() - t0)
        run.put("serve.ping_p50_ms", statistics.median(times) * 1e3, len(times))
        by_id_ms, _ = p50_ms(lambda r: send(client, r))
        by_spec_ms, _ = p50_ms(lambda r: send(client, r), reqs=spec_reqs)
        run.put("serve.by_id_p50_ms", by_id_ms, count)
        run.put("serve.by_spec_p50_ms", by_spec_ms, count)
        run.put("serve.spec_resolve_ms", by_spec_ms - by_id_ms)
        run.put("serve.transport_ms", by_id_ms - direct_ms)
        key = "serve.by_id_p50_ms" if by_id else "serve.by_spec_p50_ms"
        run.put("serve.window0_p50_ms", run.metrics[key]["value"], count)
        run.notes["serve_split_ms"] = {
            "spec_resolve": by_spec_ms - by_id_ms,
            "transport": by_id_ms - direct_ms,
            "direct": direct_ms,
            "one_client_by_spec_p50": by_spec_ms,
        }
        if by_id:  # bulk state: the same requests through shm and forced inline
            run.put("serve.shm_bulk_p50_ms", by_id_ms, count)
            inline = KernelClient(service.server.socket_path, shm_threshold=None)
            try:
                ms, reps = p50_ms(lambda r: send(inline, r), reps=max(5, count // 10))
            finally:
                inline.close()
            run.put("serve.inline_bulk_p50_ms", ms, reps)
    finally:
        service.close()
    if not by_id:  # the workload sends specs; take the ids off again
        for req in requests:
            req.kernel_id = None


def probe_ensemble(run: Run, requests, members: int = 8) -> None:
    """What a coalesced batch costs per member, on the served kernels."""
    per_member, shares = [], []
    for req in requests[:3]:
        nest = parse_stencil(req.spec)
        kernel = compile_nests([nest], Bindings(sizes=req.sizes, params=req.params), name=nest.name)
        batched = stack_arrays([copy_of(req.state) for _ in range(members)])
        with kernel.plan().ensemble(batched) as ens:
            ens.run()
            times = closed_loop(ens.run, run.scaled(0.2), min_ops=20)
            per_member.append(statistics.median(times) * 1e6 / members)
            shares.append(ens.batched_statement_count / ens.statement_count)
    run.put("ensemble.run_us_per_member", statistics.mean(per_member), 3)
    run.put("ensemble.batched_statement_share", statistics.mean(shares), 3)


def serve_case(run: Run, requests) -> tuple[Case, dict]:
    """The first served kernel as a pipeline-probe case."""
    req = requests[0]
    nest = parse_stencil(req.spec)

    # The slice of StencilProblem the pipeline probe reads.
    problem = SimpleNamespace(
        name=nest.name, primal=nest, dim=1,
        bindings=lambda n: Bindings(sizes=req.sizes, params=req.params),
    )
    return Case(problem, req.sizes["n"], False), copy_of(req.state)


def serve_small(run: Run) -> None:
    n = 64 if run.toy else 2048
    requests = serve_workload(run, n, clients=min(2, os.cpu_count() or 1),
                              window_ms=2.0, by_id=False, warmup=40)
    if run.trace:
        probe_serve(run, requests, by_id=False, count=run.scaled(150))
        probe_ensemble(run, requests)
        probe_pipeline(run, *serve_case(run, requests))


def serve_bulk(run: Run) -> None:
    n = 2**13 if run.toy else 2**18
    requests = serve_workload(run, n, clients=1, window_ms=0.0, by_id=True, warmup=10)
    if run.trace:
        probe_serve(run, requests, by_id=True, count=run.scaled(100))
        probe_pipeline(run, *serve_case(run, requests))


# -- shard_heat2d -------------------------------------------------------------


def shard_heat2d(run: Run) -> None:
    prob = heat_problem(2)
    n = 32 if run.toy else 1024
    nranks = min(2, os.cpu_count() or 1)
    config = ExecutionConfig(**NATIVE)
    fwd_case = Case(prob, n, False, NATIVE, expect=(1, 1))
    rev_case = Case(prob, n, True, NATIVE, expect=(17, 1))
    start = prob.allocate(n, rng=np.random.default_rng(run.seed))

    def build(case=fwd_case, arrays=None, ranks=nranks):
        with run.span("shard.build"):
            kernel = compile_nests(case.nests(), prob.bindings(n), name=case.name)
            return ShardedPlan(
                kernel, copy_of(start) if arrays is None else arrays,
                nranks=ranks, halo=1, config=config,
            )

    # Oracle: the single-shard bound plan, python backend, fusion off.
    want = reference_steps(fwd_case, start, 1)
    np.copyto(want["u_1"], want["u"])
    want = reference_steps(fwd_case, want, 1)
    guard_native(run, fwd_case, ready(QUIET, fwd_case, copy_of(start)))
    check_small(run, fwd_case, 16)
    plan = build()
    try:
        run.check(plan.effective_nranks == nranks and not plan.degraded,
                  "sharded plan degraded or lost ranks")

        def step():
            plan.step(exchange=["u_1"])
            plan.copy("u_1", "u")

        plan.step(exchange=["u_1"])
        plan.copy("u_1", "u")
        plan.step(exchange=["u_1"])
        run.same(plan.gather(["u", "u_1"]), {k: want[k] for k in ("u", "u_1")},
                 "two sharded steps vs single-shard python")
        time_setup(run, build, dispose=lambda p: p.close())
        for _ in range(run.scaled(50)):
            step()
        time_ops(run, step, "shard.step", inner=1)
        run.check(not plan.degraded, "sharded plan degraded during the timed loop")
        if run.trace:
            probe_shard(run, prob, plan, build, fwd_case, rev_case, start, n)
    finally:
        plan.close()
    # Its own segments only (their names carry this process's id): another
    # benchmark may be running beside this one.
    mine = f"repro_shard_{os.getpid()}_"
    leaked = {seg for seg in shm_segments() if mine in seg}
    run.check(not leaked, f"shared-memory segments leaked: {sorted(leaked)}")
    if run.trace:
        run.put("shard.shm_leaked", len(leaked))


def probe_shard(run, prob, plan, build, fwd_case, rev_case, start, n) -> None:
    sharded_us = run.notes["op"]["raw_latency_s"] * 1e6  # uncorrected, like single_us below
    run.put("shard.effective_nranks", plan.effective_nranks)
    single = copy_of(start)
    bound = ready(QUIET, fwd_case, single)

    def single_step():
        bound.run()
        np.copyto(single["u_1"], single["u"])

    times = closed_loop(single_step, run.scaled(0.5), min_ops=20)
    single_us = statistics.median(times) * 1e6
    run.put("shard.single_step_us", single_us, len(times))
    run.put("shard.ratio", sharded_us / single_us)
    reps = run.scaled(500)
    run.put("shard.exchange_us", median_time(lambda: plan.exchange(["u_1"]), reps) * 1e6, reps)
    row_bytes = start["u"][0].nbytes
    run.put("shard.exchange_bytes_computed", 2 * (plan.effective_nranks - 1) * row_bytes)
    run.put("shard.gather_ms", median_time(lambda: plan.gather(["u"]), 20) * 1e3, 20)
    # Adjoint steps with accumulate-back, checked against the single shard.
    astate = prob.allocate_state(n, seed=run.seed)
    want = reference_steps(rev_case, astate, 1)
    with build(rev_case, copy_of(astate)) as adj:
        adj.step(exchange=["u_1", "u_b"], accumulate=["u_1_b"])
        run.same(adj.gather(["u_1_b"]), {"u_1_b": want["u_1_b"]},
                 "sharded adjoint step vs single-shard python")
        step = lambda: adj.step(exchange=["u_1", "u_b"], accumulate=["u_1_b"])  # noqa: E731
        times = closed_loop(step, run.scaled(0.5), min_ops=20)
        run.put("shard.adjoint_step_us", statistics.median(times) * 1e6, len(times))
        run.put("shard.accumulate_back_us",
                median_time(lambda: adj.accumulate_back(["u_1_b"]), reps) * 1e6, reps)
    probe_pipeline(run, fwd_case, copy_of(start))


WORKLOADS = {
    "cold_wave2d": cold_wave2d,
    "dispatch_heat2d": dispatch_heat2d,
    "sweep_heat2d": sweep_heat2d,
    "python_wave3d": python_wave3d,
    "revolve_wave2d": revolve_wave2d,
    "serve_small": serve_small,
    "serve_bulk": serve_bulk,
    "shard_heat2d": shard_heat2d,
}
NEEDS_NATIVE = set(WORKLOADS) - {"python_wave3d", "serve_small", "serve_bulk"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    if args.workload in NEEDS_NATIVE and not native_available():
        print(f"{args.workload} needs a C compiler and none was found", file=sys.stderr)
        return 3
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy, args.workdir)
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        WORKLOADS[args.workload](run)
    for w in caught:
        # Every degradation rung in src/ announces itself with this phrase.
        if "falling back" in str(w.message) or "degrad" in str(w.message):
            run.check(False, f"fallback warning: {w.message}")
    if run.trace:
        finish_layers(run)
        run.notes["self_time_ms"] = run.tracer.self_times_ms()
        if args.trace_out:
            run.tracer.write_chrome_trace(Path(args.trace_out))
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    spec = load_spec()
    wanted = spec["per_layer" if run.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = run.metrics.get(m["name"])
        # A layer that is not on this workload's path reads 0.
        metrics[m["name"]] = {
            "value": got["value"] if got else 0.0,
            "unit": m["unit"],
            "samples": got["samples"] if got else 0,
        }
    unknown = sorted(set(run.metrics) - {m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]})
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 4
    record = {
        "workload": run.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "toy": run.toy,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": metrics,
        "notes": run.notes,
        "wall_s": time.perf_counter() - t0,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
