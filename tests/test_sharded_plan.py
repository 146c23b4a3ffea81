"""The sharding contract: ShardedPlan and ShardedCheckpointedAdjoint are
bitwise identical to the single-shard run at every rank count, and their
failure modes follow the graceful-degradation contract (see
docs/sharding.md; the chaos-registry coverage of the two ``shard.*``
fault points lives in tests/test_faults.py)."""

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import adjoint_loops
from repro.errors import ShardError, ValidationError
from repro.runtime import (
    ExecutionConfig,
    ExecutionPlan,
    ShardSpec,
    ShardedCheckpointedAdjoint,
    ShardedPlan,
    compile_nests,
    faults,
    native_available,
)

_PROBLEMS = {
    "heat2d": lambda: heat_problem(2),
    "wave2d": lambda: wave_problem(2),
    "burgers1d": lambda: burgers_problem(1),
}
_BACKENDS = ["python"] + (["native"] if native_available() else [])
_FORK = "fork" in multiprocessing.get_all_start_methods()


def _kernels(prob, n, dtype=np.float64):
    bindings = prob.bindings(n, dtype=dtype)
    fwd = compile_nests([prob.primal], bindings, name=prob.name)
    rev = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), bindings,
        name=f"{prob.name}_b",
    )
    return fwd, rev


def _rotate_np(state, chain):
    for i in range(len(chain) - 1, 0, -1):
        np.copyto(state[chain[i]], state[chain[i - 1]])


def _rotate_sharded(plan, chain):
    for i in range(len(chain) - 1, 0, -1):
        plan.copy(chain[i], chain[i - 1])


def _adjoint_names(prob, rev):
    """(exchange, accumulate, compare) name sets for one reverse step."""
    seed = prob.output_name + "_b"
    targets = sorted(
        {st.target.name for rg in rev.regions for st in rg.statements}
    )
    reads = sorted(
        {acc.name for rg in rev.regions for st in rg.statements
         for acc in st.reads}
    )
    return reads, [t for t in targets if t != seed], targets


# -- the bitwise contract matrix -------------------------------------------


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
@pytest.mark.parametrize("nranks", [1, 2, 3, 7])
def test_forward_and_adjoint_bitwise(problem, nranks, dtype, backend):
    """Sharded forward state and adjoint gradients == single-shard run,
    bit for bit, for every rank count x dtype x problem x backend."""
    prob = _PROBLEMS[problem]()
    n = 24
    steps = 3
    fwd, rev = _kernels(prob, n, dtype)
    config = ExecutionConfig(backend=backend)
    chain = [prob.output_name, *prob.history_fields()]
    hist = list(prob.history_fields())

    ref = prob.allocate(n, rng=np.random.default_rng(0), dtype=dtype)
    plan = fwd.plan(backend=backend)
    bound = plan.bind(ref)
    for _ in range(steps):
        bound.run()
        _rotate_np(ref, chain)
    plan.close()

    state = prob.allocate(n, rng=np.random.default_rng(0), dtype=dtype)
    with ShardedPlan(
        fwd, state, nranks=nranks, halo=1, config=config, use_workers=False
    ) as sp:
        assert sp.effective_nranks == nranks
        for _ in range(steps):
            sp.step(exchange=hist)
            _rotate_sharded(sp, chain)
        got = sp.gather(chain)
    for name in chain:
        assert got[name].dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got[name], ref[name])

    exchange, accumulate, compare = _adjoint_names(prob, rev)
    adj_ref = prob.allocate_state(n, seed=1, dtype=dtype)
    rplan = rev.plan(backend=backend)
    rplan.bind(adj_ref).run()
    rplan.close()

    astate = prob.allocate_state(n, seed=1, dtype=dtype)
    with ShardedPlan(
        rev, astate, nranks=nranks, halo=1, config=config, use_workers=False
    ) as ap:
        ap.step(exchange=exchange, accumulate=accumulate)
        agot = ap.gather(compare)
    for name in compare:
        np.testing.assert_array_equal(agot[name], adj_ref[name])


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.parametrize("nranks", [1, 2, 3, 7])
def test_forked_workers_bitwise(nranks):
    """The real multi-process path (forked workers running the bound
    plans over shared memory) preserves the forward bitwise contract."""
    prob = heat_problem(2)
    n = 24
    fwd, _ = _kernels(prob, n)
    ref = prob.allocate(n, rng=np.random.default_rng(2))
    plan = fwd.plan()
    bound = plan.bind(ref)
    for _ in range(4):
        bound.run()
        np.copyto(ref["u_1"], ref["u"])
    plan.close()

    state = prob.allocate(n, rng=np.random.default_rng(2))
    with ShardedPlan(fwd, state, nranks=nranks, halo=1) as sp:
        assert sp.multiprocess == (nranks > 1)
        for _ in range(4):
            sp.step(exchange=["u_1"])
            sp.copy("u_1", "u")
        got = sp.gather(["u", "u_1"])
    np.testing.assert_array_equal(got["u"], ref["u"])
    np.testing.assert_array_equal(got["u_1"], ref["u_1"])


def _my_segments():
    return set(glob.glob(f"/dev/shm/repro_shard_{os.getpid()}_*"))


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_caller_is_rank_zero_and_forks_one_worker_per_further_rank(nranks):
    """R ranks start exactly R-1 children: the caller is rank 0.  After
    close() none of them is alive and none of the plan's segments is
    left in /dev/shm."""
    prob = heat_problem(2)
    fwd, _ = _kernels(prob, 12)
    children, segments = set(multiprocessing.active_children()), _my_segments()
    sp = ShardedPlan(fwd, prob.allocate(12), nranks=nranks, halo=1)
    started = set(multiprocessing.active_children()) - children
    mine = _my_segments() - segments
    assert len(started) == nranks - 1
    assert started == set(sp._workers)
    assert len(mine) == nranks * len(sp._names)
    sp.step(exchange=["u_1"])
    sp.close()
    assert not (started & set(multiprocessing.active_children()))
    assert not (mine & _my_segments())


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.parametrize("nranks", [1, 2, 3, 7])
def test_rank_side_copy_and_fill_bitwise(nranks):
    """A seeded random sequence of copy, fill and step leaves every slab
    of a forked plan — halos included — bitwise equal to the in-process
    plan's, so each rank copying and filling its own slab is exact."""
    prob = heat_problem(2)
    fwd, _ = _kernels(prob, 24)
    names = sorted(prob.allocate(24))
    r = np.random.default_rng(10 + nranks)
    ops = []
    for _ in range(24):
        kind = r.choice(["step", "copy", "fill"])
        if kind == "copy":
            dst, src = r.choice(names, size=2, replace=False)
            ops.append(("copy", str(dst), str(src)))
        elif kind == "fill":
            ops.append(("fill", str(r.choice(names)), float(r.standard_normal())))
        else:
            ops.append(("step",))

    def drive(use_workers):
        state = prob.allocate(24, rng=np.random.default_rng(11))
        sp = ShardedPlan(
            fwd, state, nranks=nranks, halo=1, use_workers=use_workers
        )
        with sp:
            assert sp.multiprocess == (use_workers and nranks > 1)
            for op in ops:
                if op[0] == "step":
                    sp.step(exchange=["u_1"])
                else:
                    getattr(sp, op[0])(*op[1:])
            return [
                {name: arr.copy() for name, arr in slab.arrays.items()}
                for slab in sp.slabs
            ]

    forked, in_process = drive(True), drive(False)
    assert len(forked) == len(in_process) == nranks
    for got, want in zip(forked, in_process):
        for name in names:
            assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.skipif(not _FORK, reason="no fork start method")
def test_forked_workers_threaded_plans_bitwise(new_pool_threads):
    """Threaded per-shard plans create their worker pool on first run,
    inside the forked worker — never at bind time, before the fork,
    where the threads would not survive into the child.  Rank 0 runs
    in the caller, so its pool is the caller's, and close() joins it."""
    prob = heat_problem(2)
    n = 24
    fwd, _ = _kernels(prob, n)
    ref = prob.allocate(n, rng=np.random.default_rng(4))
    plan = fwd.plan()
    bound = plan.bind(ref)
    for _ in range(3):
        bound.run()
        np.copyto(ref["u_1"], ref["u"])
    plan.close()

    state = prob.allocate(n, rng=np.random.default_rng(4))
    with ShardedPlan(
        fwd, state, nranks=2, halo=1,
        config=ExecutionConfig(num_threads=2, min_block_iterations=1),
    ) as sp:
        assert sp.multiprocess
        for _ in range(3):
            sp.step(exchange=["u_1"])
            sp.copy("u_1", "u")
        got = sp.gather(["u"])
        assert new_pool_threads()
    assert not new_pool_threads()
    np.testing.assert_array_equal(got["u"], ref["u"])


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.skipif(not native_available(), reason="no C toolchain")
def test_forked_workers_native_backend_bitwise():
    """Native-backend bound plans survive the fork (the ctypes-loaded
    .so is inherited) and stay bitwise across shards."""
    prob = heat_problem(2)
    n = 20
    fwd, _ = _kernels(prob, n)
    ref = prob.allocate(n, rng=np.random.default_rng(3))
    plan = fwd.plan(backend="native")
    bound = plan.bind(ref)
    for _ in range(3):
        bound.run()
        np.copyto(ref["u_1"], ref["u"])
    plan.close()

    state = prob.allocate(n, rng=np.random.default_rng(3))
    with ShardedPlan(
        fwd, state, nranks=3, halo=1, config=ExecutionConfig(backend="native")
    ) as sp:
        assert sp.multiprocess
        for _ in range(3):
            sp.step(exchange=["u_1"])
            sp.copy("u_1", "u")
        got = sp.gather(["u"])
    np.testing.assert_array_equal(got["u"], ref["u"])


# libgomp is not fork-safe: once a process has entered one OpenMP region,
# a forked child deadlocks in its first.  The parent below enters one (a
# 2-thread native run), then shards the same kernel across forked ranks
# whose config — explicitly, or through REPRO_NATIVE_THREADS — asks for
# 2 OpenMP threads as well.  Run in its own process: the deadlock needs a
# parent that has used OpenMP, and a hang must not take pytest with it.
_OPENMP_THEN_FORK = """
import sys
import numpy as np
from repro.apps import heat_problem
from repro.runtime import ExecutionConfig, ShardedPlan, compile_nests

threads = int(sys.argv[1]) if sys.argv[1:] else None
prob = heat_problem(2)
fwd = compile_nests([prob.primal], prob.bindings(64), name="heat2d")
base = prob.allocate(64, rng=np.random.default_rng(1))
ref = {k: v.copy() for k, v in base.items()}
with fwd.plan(backend="native", native_threads=2) as plan:
    bound = plan.bind(ref)
    bound.run()
    if bound.native_threads != 2:
        raise SystemExit("SKIP: this toolchain has no OpenMP")
state = {k: v.copy() for k, v in base.items()}
config = ExecutionConfig(backend="native", native_threads=threads)
with ShardedPlan(fwd, state, nranks=2, halo=1, config=config) as sharded:
    assert sharded.multiprocess
    (verdict,) = sharded.decisions
    assert verdict.rung == "1 native thread" and "fork" in verdict.reason
    sharded.step(exchange=["u_1"])
    got = sharded.gather(["u"])
assert got["u"].tobytes() == ref["u"].tobytes(), "sharded != single shard"
print("BITWISE")
"""


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.skipif(not native_available(), reason="no C toolchain")
@pytest.mark.parametrize("pinned_by", ["config", "environment"])
def test_forked_ranks_survive_a_parent_openmp_region(pinned_by):
    argv = [sys.executable, "-c", _OPENMP_THEN_FORK]
    env = dict(os.environ)
    if pinned_by == "config":
        argv.append("2")
    else:
        env["REPRO_NATIVE_THREADS"] = "2"
    # Own session, so a hang's orphaned rank workers die with it.
    proc = subprocess.Popen(
        argv, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("forked shard workers hung after the parent ran OpenMP")
    if "SKIP" in err:
        pytest.skip(err.strip())
    assert proc.returncode == 0 and out.strip() == "BITWISE", err


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
def test_in_process_ranks_keep_the_requested_native_width():
    """The pin is for forked ranks only: in-process sharding runs in the
    caller's process and keeps its OpenMP width, with no verdict."""
    prob = heat_problem(2)
    fwd, _ = _kernels(prob, 20)
    with ShardedPlan(
        fwd, prob.allocate(20), nranks=2, halo=1, use_workers=False,
        config=ExecutionConfig(backend="native", native_threads=2),
    ) as sp:
        assert sp.decisions == []
        assert {
            plans["main"].plan.config.native_threads for plans in sp._bound
        } == {2}


def test_exchange_accumulate_transpose_identity():
    """<F x, y> == <x, F^T y> at the ShardedPlan layer: the forward
    exchange and the accumulate-back are adjoint linear maps on the
    concatenation of all slab storage."""
    prob = heat_problem(1)
    n = 14  # extent 15 over 4 ranks: slabs of 4,4,4,3 rows; halo 2 fits
    fwd, _ = _kernels(prob, n)

    def fresh(seed):
        sp = ShardedPlan(
            fwd, prob.allocate(n), nranks=4, halo=2, use_workers=False
        )
        r = np.random.default_rng(seed)
        for slab in sp.slabs:
            slab.arrays["u_1"][:] = r.standard_normal(
                slab.arrays["u_1"].shape
            )
        return sp

    def flat(sp):
        return np.concatenate([s.arrays["u_1"] for s in sp.slabs])

    with fresh(1) as xs, fresh(2) as ys:
        x0, y0 = flat(xs), flat(ys)
        xs.exchange(["u_1"])          # xs <- F x
        ys.accumulate_back(["u_1"])   # ys <- F^T y
        lhs = float(flat(xs) @ y0)
        rhs = float(x0 @ flat(ys))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- validation --------------------------------------------------------------


def test_shard_spec_validates_geometry():
    with pytest.raises(ValidationError):
        ShardSpec(rank=0, own_lo=5, own_hi=4, slab_lo=0, slab_extent=10)
    with pytest.raises(ValidationError):
        ShardSpec(rank=0, own_lo=2, own_hi=4, slab_lo=3, slab_extent=5)
    with pytest.raises(ValidationError):
        ShardSpec(rank=0, own_lo=2, own_hi=6, slab_lo=1, slab_extent=3)


def test_shard_bind_rejects_global_extent_arrays():
    """A shard-planned bind names the rank and the expected slab rows
    when handed arrays of the wrong axis-0 extent."""
    prob = heat_problem(1)
    n = 20
    fwd, _ = _kernels(prob, n)
    spec = ShardSpec(rank=1, own_lo=7, own_hi=13, slab_lo=6, slab_extent=9)
    plan = ExecutionPlan.build(fwd, ExecutionConfig(), shard=spec)
    with pytest.raises(ValidationError, match=r"rank 1.*slab"):
        plan.bind(prob.allocate(n))  # global extent 21, slab wants 9


def test_sharded_plan_halo_validation_names_rank():
    prob = heat_problem(1)
    n = 8  # extent 9 over 5 ranks: sizes 2,2,2,2,1 -> rank 4 owns 1 row
    fwd, _ = _kernels(prob, n)
    with pytest.raises(ValidationError, match=r"rank 4 of 5"):
        ShardedPlan(
            fwd, prob.allocate(n), nranks=5, halo=2, use_workers=False
        )


def test_sharded_plan_rank_clamp_warns_once_and_is_recorded():
    prob = heat_problem(1)
    n = 8  # extent 9
    fwd, _ = _kernels(prob, n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ShardedPlan(
            fwd, prob.allocate(n), nranks=20, halo=1, use_workers=False
        ) as sp:
            assert sp.nranks == 20
            assert sp.effective_nranks == 9
            assert len(sp.slabs) == 9
    clamp = [w for w in caught if "using 9 rank(s)" in str(w.message)]
    assert len(clamp) == 1


def test_sharded_plan_rejects_unknown_kernel_key_and_bad_shapes():
    prob = heat_problem(1)
    fwd, _ = _kernels(prob, 10)
    state = prob.allocate(10)
    with ShardedPlan(fwd, state, nranks=2, halo=1, use_workers=False) as sp:
        with pytest.raises(ValidationError, match="unknown kernel key"):
            sp.step("nope")
        # Refused before any rank runs it, so the plan stays usable.
        with pytest.raises(ValidationError, match="unknown sharded array"):
            sp.copy("u", "nope")
        with pytest.raises(ValidationError, match="unknown sharded array"):
            sp.fill("nope")
        sp.step()
    with pytest.raises(ValidationError, match="share one shape"):
        ShardedPlan(
            fwd, {"u": np.zeros(11), "u_1": np.zeros(12)},
            nranks=2, halo=1, use_workers=False,
        )
    with pytest.raises(ValidationError, match="not in the sharded"):
        ShardedPlan(
            fwd, {"u": np.zeros(11)}, nranks=2, halo=1, use_workers=False
        )


# -- failure modes -----------------------------------------------------------


def test_exchange_failure_degrades_bitwise_mid_run():
    """A halo-copy failure mid-run falls back to single-shard execution:
    one warning, permanent, and the remaining steps continue bitwise on
    the caller's arrays."""
    prob = heat_problem(2)
    n = 16
    fwd, _ = _kernels(prob, n)
    ref = prob.allocate(n, rng=np.random.default_rng(5))
    plan = fwd.plan()
    bound = plan.bind(ref)
    for _ in range(3):
        bound.run()
        np.copyto(ref["u_1"], ref["u"])
    plan.close()

    state = prob.allocate(n, rng=np.random.default_rng(5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # 3 ranks -> 2 exchange checks per step; skip=2 fires on the
        # first pair of the SECOND step, mid-run.
        with faults.inject("shard.exchange", skip=2) as inj:
            with ShardedPlan(
                fwd, state, nranks=3, halo=1, use_workers=False
            ) as sp:
                for _ in range(3):
                    sp.step(exchange=["u_1"])
                    sp.copy("u_1", "u")
                assert sp.degraded
                got = sp.gather(["u", "u_1"])
    assert inj.fired("shard.exchange") == 1
    degraded = [w for w in caught if "degraded" in str(w.message)]
    assert len(degraded) == 1
    np.testing.assert_array_equal(got["u"], ref["u"])
    # Degraded mode runs on the caller's global arrays directly.
    np.testing.assert_array_equal(state["u"], ref["u"])


@pytest.mark.skipif(not _FORK, reason="no fork start method")
def test_dead_worker_degrades_bitwise():
    """A worker found dead by the pre-dispatch heartbeat degrades to a
    single shard with the run still bitwise-identical."""
    prob = heat_problem(2)
    n = 16
    fwd, _ = _kernels(prob, n)
    ref = prob.allocate(n, rng=np.random.default_rng(6))
    plan = fwd.plan()
    bound = plan.bind(ref)
    for _ in range(2):
        bound.run()
        np.copyto(ref["u_1"], ref["u"])
    plan.close()

    state = prob.allocate(n, rng=np.random.default_rng(6))
    with ShardedPlan(fwd, state, nranks=3, halo=1) as sp:
        assert sp.multiprocess
        sp.step(exchange=["u_1"])
        sp.copy("u_1", "u")
        victim = sp._workers[1]
        victim.kill()
        victim.join()  # deterministic: the heartbeat must see it dead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp.step(exchange=["u_1"])
        sp.copy("u_1", "u")
        assert sp.degraded and not sp.multiprocess
        got = sp.gather(["u", "u_1"])
    degraded = [w for w in caught if "degraded" in str(w.message)]
    assert len(degraded) == 1
    np.testing.assert_array_equal(got["u"], ref["u"])


@pytest.mark.skipif(not _FORK, reason="no fork start method")
def test_dead_worker_found_by_copy_degrades_bitwise():
    """copy and fill are rank commands too: a worker found dead before
    one is sent degrades the plan there, bitwise, instead of failing."""
    prob = heat_problem(2)
    n = 16
    fwd, _ = _kernels(prob, n)
    ref = prob.allocate(n, rng=np.random.default_rng(6))
    with fwd.plan() as plan:
        bound = plan.bind(ref)
        for _ in range(2):
            bound.run()
            np.copyto(ref["u_1"], ref["u"])

    state = prob.allocate(n, rng=np.random.default_rng(6))
    with ShardedPlan(fwd, state, nranks=3, halo=1) as sp:
        sp.step(exchange=["u_1"])
        sp._workers[0].kill()
        sp._workers[0].join(timeout=10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp.copy("u_1", "u")
        assert sp.degraded and not sp.multiprocess
        sp.step(exchange=["u_1"])
        sp.copy("u_1", "u")
        got = sp.gather(["u", "u_1"])
    assert ["rank 1 is dead" in str(w.message) for w in caught] == [True]
    np.testing.assert_array_equal(got["u"], ref["u"])
    np.testing.assert_array_equal(got["u_1"], ref["u_1"])


@pytest.mark.skipif(not _FORK, reason="no fork start method")
def test_worker_failure_mid_step_raises_typed_shard_error():
    """A kernel failure inside a worker (after dispatch) cannot degrade
    — some ranks may have advanced — so it raises ShardError naming the
    rank.  The injector is armed before construction so the forked
    children inherit it."""
    prob = heat_problem(2)
    n = 12
    fwd, _ = _kernels(prob, n)
    state = prob.allocate(n, rng=np.random.default_rng(7))
    with faults.inject("bound.run"):
        with ShardedPlan(fwd, state, nranks=2, halo=1) as sp:
            assert sp.multiprocess
            with pytest.raises(ShardError) as excinfo:
                sp.step(exchange=["u_1"])
    assert excinfo.value.rank == 0
    assert "rank 0" in str(excinfo.value)


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_failed_step_reads_every_reply_and_refuses_further_work():
    """Every rank fails its first run (the forked workers inherit the
    armed injector).  The step reads all three replies before raising
    for the lowest failing rank, so no stale reply waits in a pipe; the
    plan is then failed, and every later command names the original
    failure instead of running on ranks that may have advanced."""
    prob = heat_problem(2)
    n = 12
    fwd, _ = _kernels(prob, n)
    state = prob.allocate(n, rng=np.random.default_rng(7))
    segments = _my_segments()
    with faults.inject("bound.run"):
        sp = ShardedPlan(fwd, state, nranks=3, halo=1)
        mine = _my_segments() - segments
        workers = list(sp._workers)
        for _ in range(2):
            with pytest.raises(ShardError) as excinfo:
                sp.step(exchange=["u_1"])
            assert excinfo.value.rank == 0
            assert "rank 0" in str(excinfo.value)
            assert not any(conn.poll() for conn in sp._conns)
        assert "earlier failure" in str(excinfo.value)
        for command in (
            lambda: sp.copy("u_1", "u"),
            lambda: sp.fill("u", 0.0),
            lambda: sp.exchange(["u_1"]),
            lambda: sp.accumulate_back(["u_1"]),
        ):
            with pytest.raises(ShardError, match="rank 0") as excinfo:
                command()
            assert excinfo.value.rank == 0
        sp.close()
    assert not any(proc.is_alive() for proc in workers)
    assert not (mine & _my_segments())


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.parametrize("ending", ["closed", "worker_killed", "exception"])
def test_no_shared_memory_segment_outlives_its_plan(ending):
    """However a multi-process plan ends — closed normally, closed after
    degrading on a dead worker, or abandoned by an exception inside the
    ``with`` block — its /dev/shm segments are unlinked."""
    def segments():
        return set(glob.glob("/dev/shm/repro_shard_*"))

    prob = heat_problem(2)
    fwd, _ = _kernels(prob, 16)
    state = prob.allocate(16, rng=np.random.default_rng(8))
    before = segments()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the degrade warning
        try:
            with ShardedPlan(fwd, state, nranks=3, halo=1) as sp:
                assert sp.multiprocess
                # Only this plan's segments: other processes' come and go.
                mine = segments() - before
                assert mine  # the check below is not vacuous
                sp.step(exchange=["u_1"])
                if ending == "worker_killed":
                    sp._workers[1].kill()
                    sp._workers[1].join()
                    sp.step(exchange=["u_1"])
                    assert sp.degraded
                elif ending == "exception":
                    raise RuntimeError("abandoned mid-run")
        except RuntimeError:
            assert ending == "exception"
    assert not (mine & segments())


# -- sharded checkpointed adjoints ------------------------------------------


def _check_sharded_checkpointed(problem, nranks, backend, use_workers):
    """One revolve schedule driven across shards == the unsharded
    CheckpointedAdjointPlan, bitwise, including constant-field
    gradients (wave2d's velocity model)."""
    prob = _PROBLEMS[problem]()
    n = 12
    steps, snaps = 7, 3
    shape = prob.array_shape(n)
    history = prob.history_fields()

    chk = prob.checkpointed_adjoint(n, steps=steps, snaps=snaps, backend=backend)
    fwd, rev = _kernels(prob, n)
    # The same deterministic constant fields apps.checkpointed_adjoint
    # allocates (seed 0, scaled like Problem.allocate).
    rng = np.random.default_rng(0)
    constants = {
        name: rng.standard_normal(shape) * 0.1
        for name in prob.constant_fields()
    }
    sharded = ShardedCheckpointedAdjoint(
        fwd, rev, shape,
        nranks=nranks, halo=1, steps=steps, snaps=snaps,
        output=prob.output_name, history=history, constants=constants,
        adjoint_map=prob.adjoint_name_map(),
        config=ExecutionConfig(backend=backend), use_workers=use_workers,
    )
    assert sharded._plan.multiprocess == use_workers
    r = np.random.default_rng(9)
    state0 = [r.standard_normal(shape) * 0.1 for _ in history]
    seed = r.standard_normal(shape) * 0.1

    ref_final = chk.run_forward([a.copy() for a in state0])
    got_final = sharded.run_forward([a.copy() for a in state0])
    for ref_arr, got_arr in zip(ref_final, got_final):
        np.testing.assert_array_equal(got_arr, ref_arr)

    ref_grad = chk.adjoint([a.copy() for a in state0], seed)
    got_grad = sharded.adjoint([a.copy() for a in state0], seed)
    assert sorted(got_grad) == sorted(ref_grad)
    for name in got_grad:
        np.testing.assert_array_equal(got_grad[name], ref_grad[name])

    assert sharded.evaluation_cost == chk.evaluation_cost
    sharded.close()
    chk.close()


@pytest.mark.parametrize("nranks", [2, 3])
@pytest.mark.parametrize("problem", ["heat2d", "wave2d"])
def test_sharded_checkpointed_adjoint_bitwise(problem, nranks):
    _check_sharded_checkpointed(problem, nranks, "python", use_workers=False)


@pytest.mark.skipif(not _FORK, reason="no fork start method")
@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("nranks", [2, 3])
@pytest.mark.parametrize("problem", ["heat2d", "wave2d"])
def test_sharded_checkpointed_adjoint_with_workers(problem, nranks, backend):
    """The sharded revolve sweep stays bitwise when ranks 1 .. R-1 run
    in forked workers and copy and fill their own slabs: every forward
    step fills a rotating buffer, and wave2d also carries the
    constant-field gradient."""
    _check_sharded_checkpointed(problem, nranks, backend, use_workers=True)
