"""Speed-up floors: "path A still beats path B", one table, same run.

Every optimisation layer of the runtime was accepted against a floor:
cached beats cold, bound beats unbound, native beats python, the batched
ensemble beats the member loop, fused beats per-statement, threads beat
serial, a one-statement nest with literal geometry beats the entry
that reads it per call, two ranks beat one, sharding overhead shrinks
with the grid, a
checkpointed sweep recorded as one C program beats a bound run per
schedule action, inline served state stays within 3x of shared
memory, and a lone client's batch window costs at most 2x no window.
Each row times its paths back to back in one process, so none needs a
recorded baseline; comparing timings *across* commits is
``bench/run.py --compare`` and nothing else (README, "Performance
gate"), and the bitwise and counting contracts live in ``tests/``.
Every row runs the heat2d kernel and checks that its paths leave
bit-identical state before it times them::

    PYTHONPATH=src python -m pytest benchmarks/bench_speedups.py -q
"""

import os
import tempfile
import time
from contextlib import ExitStack, nullcontext
from functools import cache
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.apps import heat_problem
from repro.core import adjoint_loops
from repro.frontend.printer import to_source
from repro.runtime import (
    ExecutionConfig,
    KernelClient,
    KernelServer,
    ShardedPlan,
    compile_nests,
    faults,
    native_available,
    stack_arrays,
)
from repro.verify import bitwise_equal


def _best_of(fn, reps: int, rounds: int = 3) -> float:
    """Best per-call seconds over *rounds* loops of *reps* calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / reps


class Path(NamedTuple):
    run: Callable[[], None]  # one timed operation, advancing the state in place
    state: Callable[[], dict]  # name -> array, compared bitwise across paths


class Case:
    """The heat2d primal and adjoint at one grid size, plus pristine arrays."""

    def __init__(self, n: int):
        self.prob = heat_problem(2)
        self.n = n
        self.bindings = self.prob.bindings(n)
        self.nests = adjoint_loops(self.prob.primal, self.prob.adjoint_map)
        self.kernel = compile_nests(self.nests, self.bindings, name="speedups")
        self.base = self.prob.allocate_state(n, seed=0)

    def fresh(self) -> dict:
        return {k: v.copy() for k, v in self.base.items()}

    def bound(self, stack: ExitStack, **config) -> Path:
        arrays = self.fresh()
        plan = stack.enter_context(self.kernel.plan(**config))
        return Path(plan.bind(arrays).run, lambda: arrays)


@pytest.fixture(scope="module")
def heat2d():
    return cache(Case)


def _configs(*configs):
    """Bound plans of the adjoint kernel, one per ExecutionConfig, slow first."""
    return lambda case, stack: [case.bound(stack, **cfg) for cfg in configs]


def _cache_paths(case, stack):
    """20 compile+run iterations: lambdify every time vs kernel/plan cache hits."""
    def pipeline(cached):
        last = {}

        def run():
            for _ in range(20):
                arrays = case.fresh()
                kernel = compile_nests(case.nests, case.bindings, cache=cached)
                kernel.plan().run(arrays)
            last.update(arrays)

        return Path(run, lambda: last)

    return [pipeline(False), pipeline(True)]


def _bound_paths(case, stack):
    arrays = case.fresh()
    plan = stack.enter_context(case.kernel.plan())
    unbound = Path(lambda: plan.run_unbound(arrays), lambda: arrays)
    return [unbound, case.bound(stack)]


def _ensemble_paths(case, stack):
    members = [case.prob.allocate_state(case.n, seed=m) for m in range(64)]
    plan = stack.enter_context(case.kernel.plan())
    bounds = [plan.bind(arrays) for arrays in members]
    batched = stack_arrays(members)
    ensemble = stack.enter_context(plan.ensemble(batched))

    def loop():
        for bound in bounds:
            bound.run()

    return [
        Path(loop, lambda: stack_arrays(members)),
        Path(ensemble.run, lambda: batched),
    ]


def _shard_paths(nranks, **config):
    """Forward timestep (run + rotate): one bound plan vs a ShardedPlan."""
    def paths(case, stack):
        fwd = compile_nests([case.prob.primal], case.bindings, name="speedups_fwd")
        ref = case.prob.allocate(case.n, rng=np.random.default_rng(3))
        bound = stack.enter_context(fwd.plan(**config)).bind(ref)
        state = case.prob.allocate(case.n, rng=np.random.default_rng(3))
        sharded = stack.enter_context(ShardedPlan(
            fwd, state, nranks=nranks, halo=1, config=ExecutionConfig(**config)
        ))

        def single_step():
            bound.run()
            np.copyto(ref["u_1"], ref["u"])

        def shard_step():
            sharded.step(exchange=["u_1"])
            sharded.copy("u_1", "u")

        # For about two seconds after the fork the kernel scheduler keeps
        # the caller and its worker on one CPU, where the ranks take turns
        # (timed then, two ranks read 0.82-0.99x of one on a 2-vCPU VM),
        # and only sharded steps back to back move them apart.  So the
        # single plan steps for three seconds, then the sharded plan as
        # many times, which leaves both states equal.
        steps = 0
        end = time.perf_counter() + 3.0
        while time.perf_counter() < end:
            single_step()
            steps += 1
        for _ in range(steps):
            shard_step()

        return [
            Path(single_step, lambda: {k: ref[k] for k in ("u", "u_1")}),
            Path(shard_step, lambda: sharded.gather(["u", "u_1"])),
        ]

    return paths


def _served(case, stack, *, window_ms, by_id, shm_threshold=1 << 15):
    """One served heat2d primal step per call, from a client of its own
    against a server of its own, by kernel id or by spec."""
    tmp = stack.enter_context(tempfile.TemporaryDirectory())
    server = stack.enter_context(KernelServer(
        os.path.join(tmp, "serve.sock"), batch_window_ms=window_ms
    ))
    client = stack.enter_context(
        KernelClient(server.socket_path, shm_threshold=shm_threshold)
    )
    kernel = {"spec": to_source(case.prob.primal), "sizes": {"n": case.n},
              "params": dict(case.prob.param_defaults)}
    if by_id:
        kernel = {"kernel_id": client.compile(**kernel)}
    state = {k: case.base[k].copy() for k in ("u", "u_1")}

    def run():
        state.update(client.run(state=state, **kernel).state)

    return Path(run, lambda: state)


def _serve_paths(case, stack):
    """One served step by kernel id on 2 MiB arrays: state through
    leased shared memory vs inline in the frame's raw payload.  Inline
    may cost at most 3x shm."""
    assert case.base["u"].nbytes >= 2 << 20
    return [_served(case, stack, window_ms=0.0, by_id=True),
            _served(case, stack, window_ms=0.0, by_id=True, shm_threshold=None)]


def _window_paths(case, stack):
    """One client sends a small step by spec: to a server with window 0
    vs one with a 2 ms window.  A lone connection has nobody to wait
    for, so the window may cost at most 2x."""
    return [_served(case, stack, window_ms=w, by_id=False) for w in (0.0, 2.0)]


def _literal_paths(case, stack):
    """The heat2d primal step, one statement: its per-statement entry,
    which reads bounds and strides from ``geom`` (fusion off), vs its
    literal nest (fusion auto)."""
    kernel = compile_nests([case.prob.primal], case.bindings, name="speedups_primal")

    def bound(config):
        arrays = case.fresh()
        plan = stack.enter_context(kernel.plan(**config))
        return Path(plan.bind(arrays).run, lambda: arrays)

    return [bound(_UNFUSED), bound(_NATIVE)]


def _sweep_paths(case, stack):
    """One revolve-checkpointed gradient, 64 steps on 4 snapshots: a bound
    run per schedule action (the rung an active fault injector selects)
    vs the one recorded native program."""
    u0, seed = case.base["u_1"], case.base["u_b"]

    def sweep(rung):
        plan = stack.enter_context(
            case.prob.checkpointed_adjoint(case.n, steps=64, snaps=4, backend="native")
        )
        assert plan.sweep.rung == "program", plan.explain()[0]
        out = {}

        def run():
            with rung():
                out.update(plan.adjoint([u0], seed))

        return Path(run, lambda: out)

    return [sweep(lambda: faults.inject("bound.run", times=0)), sweep(nullcontext)]


class Row(NamedTuple):
    id: str
    paths: Callable  # (case, stack) -> [slow, fast, ...]; the best fast counts
    n: int
    reps: int  # calls per timing round (best of three rounds)
    floor: float  # t_slow / t_fast must reach this
    native: bool = False  # precondition: a C toolchain
    min_cpus: int = 1  # precondition: cores the fast path needs to win
    vs_n: int = 0  # if set, the floor bounds speedup(n) / speedup(vs_n)


_NATIVE = {"backend": "native"}  # fusion defaults to "auto"
_UNFUSED = {"backend": "native", "fusion": "off"}

ROWS = [
    Row("cache", _cache_paths, n=24, reps=1, floor=5.0),
    Row("bound", _bound_paths, n=24, reps=200, floor=2.0),
    Row("native", _configs({}, _NATIVE), n=24, reps=300, floor=3.0, native=True),
    Row("ensemble", _ensemble_paths, n=18, reps=40, floor=2.0),
    Row("fused", _configs(_UNFUSED, _NATIVE), n=128, reps=100, floor=1.3,
        native=True),
    Row("sweep", _sweep_paths, n=32, reps=20, floor=1.1, native=True),
    # Baked strides and inner bounds let the compiler vectorise the
    # inner loop: 1.17-1.75x over seven runs on a 2-vCPU VM.
    Row("literal", _literal_paths, n=1024, reps=100, floor=1.1, native=True),
    # Raw inline frames against zero-copy shm: 0.93x on a 2-vCPU VM,
    # where the base64 frame this replaced read 0.05x.
    Row("serve_inline", _serve_paths, n=512, reps=5, floor=1 / 3),
    # A lone client's 2 ms window against none: 0.77-1.19x on a 2-vCPU
    # VM, where a leader that always waited out its window read 0.09x.
    Row("serve_window", _window_paths, n=32, reps=100, floor=1 / 2),
    # Threads cannot beat serial without cores to spare: on 2 vCPUs the
    # best width measures 0.82x, so the floor engages from 4.
    Row("threads",
        _configs(*({**_UNFUSED, "native_threads": w} for w in (1, 2, 4))),
        n=192, reps=50, floor=1.5, native=True, min_cpus=4),
    # Two ranks each run and rotate half the grid (the caller is rank 0):
    # a step takes at most 0.8x the single plan's, the ROADMAP's line
    # between a speed tier and a capacity tier.
    Row("shard", _shard_paths(2, **_NATIVE), n=1024, reps=50, floor=1.25,
        native=True, min_cpus=2),
    # Halo exchange is a surface term against volume work, so the
    # shard/single time ratio at n=192 may be at most 1.25x that at n=48.
    *(
        Row(f"shard_curve-{r}", _shard_paths(r), n=192, reps=6,
            floor=1 / 1.25, min_cpus=4, vs_n=48)
        for r in (2, 4)
    ),
]


def _speedup(row, case):
    with ExitStack() as stack:
        slow, *fast = paths = row.paths(case, stack)
        for _ in range(2):  # first run and steady-state replay; also warm-up
            for path in paths:
                path.run()
            want = slow.state()
            for path in fast:
                got = path.state()
                assert all(bitwise_equal(want[k], got[k]) for k in want), (
                    f"{row.id}: paths diverged bitwise at n={case.n}"
                )
        times = [_best_of(path.run, row.reps) for path in paths]
    return times[0] / min(times[1:])


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_speedup_floor(row, heat2d):
    cpus = os.cpu_count() or 1
    if cpus < row.min_cpus:
        pytest.skip(f"needs >= {row.min_cpus} CPUs, have {cpus}")
    if row.native and not native_available():
        pytest.skip("no C toolchain")
    speedup = _speedup(row, heat2d(row.n))
    if row.vs_n:
        speedup /= _speedup(row, heat2d(row.vs_n))
    print(f"{row.id}: {speedup:.2f}x (floor {row.floor:.2f}x)")
    assert speedup >= row.floor, (
        f"{row.id}: {speedup:.2f}x is below the {row.floor:.2f}x floor"
    )
