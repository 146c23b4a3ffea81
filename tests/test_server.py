"""Tests for the kernel-as-a-service daemon and its client.

Every response must be bitwise identical to a fresh single-process
bound run of the same kernel on the same state — batched or not, over
shared memory or inline base64, and under chaos at the three server
fault points.  The batching assertions are plan-level: the server's
``last_batch`` evidence records how many members one
:class:`~repro.runtime.EnsemblePlan` run covered.
"""

import gc
import json
import os
import socket
import struct
import tempfile
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.runtime.server as server_module
from repro.errors import ServeError, ValidationError
from repro.frontend import parse_stencil
from repro.runtime import Bindings, compile_nests, faults
from repro.runtime.client import KernelClient
from repro.runtime.ensemble import EnsemblePlan
from repro.runtime.server import (
    KernelServer,
    MAX_FRAME_BYTES,
    MAX_LEASES,
    MAX_WARM,
    decode_array,
    encode_array,
    recv_frame,
    seeded_state,
    send_frame,
    state_shapes,
)

SMOOTH = (
    "stencil smooth {\n"
    "  iterate i = 1 .. n-2\n"
    "  u[i] += c*(v[i-1] - 2.0*v[i] + v[i+1])\n"
    "}\n"
)
SMOOTH_SIZES = {"n": 32}
SMOOTH_PARAMS = {"c": 0.25}

DECAY = (
    "stencil decay {\n"
    "  iterate i = 0 .. n-1\n"
    "  w[i] = a*r[i] + b*s[i]\n"
    "}\n"
)
DECAY_SIZES = {"n": 24}
DECAY_PARAMS = {"a": 0.5, "b": 0.125}


def make_state(spec, sizes, params, seed):
    nest = parse_stencil(spec)
    return seeded_state(nest, Bindings(sizes=sizes, params=params), seed=seed)


def reference(spec, sizes, params, state, steps=1):
    """Fresh single-process bound run — the bitwise oracle."""
    nest = parse_stencil(spec)
    kernel = compile_nests(
        [nest], Bindings(sizes=sizes, params=params), name=nest.name
    )
    arrays = {k: v.copy() for k, v in state.items()}
    bound = kernel.plan().bind(arrays)
    for _ in range(steps):
        bound.run()
    return arrays


def assert_bitwise(expected, got):
    assert sorted(expected) == sorted(got)
    for name in expected:
        a, b = expected[name], got[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), f"{name} diverged bitwise"


@pytest.fixture
def server_factory():
    """Yields a KernelServer factory; every server is closed on teardown."""
    servers = []
    dirs = []

    def make(**kwargs):
        tmp = tempfile.TemporaryDirectory()
        dirs.append(tmp)
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("batch_window_ms", 0.0)
        server = KernelServer(os.path.join(tmp.name, "serve.sock"), **kwargs)
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()
    for tmp in dirs:
        tmp.cleanup()


def test_ping_and_stats(server_factory):
    server = server_factory()
    with KernelClient(server.socket_path) as client:
        assert client.ping() is True
        stats = client.stats()
    assert stats["requests"] == 0
    assert stats["kernels"] == 0
    assert stats["workers"] == 2


def test_inline_run_bitwise_identical(server_factory):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=3)
    ref = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state, steps=4)
    with KernelClient(server.socket_path, shm_threshold=None) as client:
        result = client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
            state=state, steps=4,
        )
    assert result.batched is False and result.batch_size == 1
    assert result.steps == 4
    assert len(result.kernel_id) == 64  # content-addressed (sha256 hex)
    assert_bitwise(ref, result.state)
    # The caller's arrays were never written in place.
    assert_bitwise(make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, 3), state)


def test_shared_memory_run_bitwise_identical(server_factory):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=5)
    ref = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state, steps=2)
    # threshold 1 byte: every array ships through shared memory
    with KernelClient(server.socket_path, shm_threshold=1) as client:
        result = client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
            state=state, steps=2,
        )
    assert_bitwise(ref, result.state)
    assert_bitwise(make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, 5), state)


def test_shm_and_inline_paths_agree_bitwise(server_factory):
    server = server_factory()
    state = make_state(DECAY, DECAY_SIZES, DECAY_PARAMS, seed=11)
    kwargs = dict(sizes=DECAY_SIZES, params=DECAY_PARAMS, state=state, steps=3)
    with KernelClient(server.socket_path, shm_threshold=1) as shm_client:
        via_shm = shm_client.run(DECAY, **kwargs)
    with KernelClient(server.socket_path, shm_threshold=None) as inline:
        via_inline = inline.run(DECAY, **kwargs)
    assert_bitwise(via_shm.state, via_inline.state)


def test_compile_then_run_by_kernel_id(server_factory):
    server = server_factory()
    state = make_state(DECAY, DECAY_SIZES, DECAY_PARAMS, seed=2)
    ref = reference(DECAY, DECAY_SIZES, DECAY_PARAMS, state)
    with KernelClient(server.socket_path) as client:
        kid = client.compile(DECAY, sizes=DECAY_SIZES, params=DECAY_PARAMS)
        result = client.run(kernel_id=kid, state=state)
        assert result.kernel_id == kid
        assert_bitwise(ref, result.state)
        # Re-sending the same spec resolves to the same content address.
        again = client.run(
            DECAY, sizes=DECAY_SIZES, params=DECAY_PARAMS, state=state
        )
        assert again.kernel_id == kid
    assert server.stats()["kernels"] == 1


def test_concurrent_requests_coalesce_into_one_ensemble_run(server_factory):
    server = server_factory(workers=2, max_batch=4, batch_window_ms=250.0)
    seeds = [0, 1, 2, 3]
    states = {
        s: make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=s)
        for s in seeds
    }
    refs = {
        s: reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, states[s])
        for s in seeds
    }
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def worker(seed):
        try:
            with KernelClient(server.socket_path) as client:
                results[seed] = client.run(
                    SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
                    state=states[seed],
                )
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = server.stats()
    # Plan-level evidence: all four requests ran as ONE EnsemblePlan run.
    assert stats["batched_runs"] == 1
    assert stats["batched_requests"] == 4
    assert stats["single_runs"] == 0
    assert stats["last_batch"]["members"] == 4
    assert stats["last_batch"]["batched_statements"] >= 1
    for seed in seeds:
        assert results[seed].batched is True
        assert results[seed].batch_size == 4
        assert_bitwise(refs[seed], results[seed].state)


def test_batched_and_window_zero_responses_are_identical_bytes(server_factory):
    batching = server_factory(workers=2, max_batch=2, batch_window_ms=250.0)
    immediate = server_factory(workers=2, batch_window_ms=0.0)
    states = {
        s: make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=s)
        for s in (0, 1)
    }
    batched: dict[int, object] = {}

    def worker(seed):
        with KernelClient(batching.socket_path) as client:
            batched[seed] = client.run(
                SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
                state=states[seed],
            )

    threads = [threading.Thread(target=worker, args=(s,)) for s in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert batching.stats()["batched_runs"] == 1
    for seed in (0, 1):
        with KernelClient(immediate.socket_path) as client:
            single = client.run(
                SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
                state=states[seed],
            )
        assert single.batched is False
        assert batched[seed].batched is True
        assert_bitwise(single.state, batched[seed].state)


def test_sixteen_thread_hammer_every_response_bitwise(server_factory):
    server = server_factory(workers=4, max_batch=8, batch_window_ms=5.0)
    cases = []
    for t in range(16):
        if t % 2:
            cases.append((DECAY, DECAY_SIZES, DECAY_PARAMS, t, 1 + t % 3))
        else:
            cases.append((SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, t, 1 + t % 3))
    refs = []
    for spec, sizes, params, seed, steps in cases:
        state = make_state(spec, sizes, params, seed)
        refs.append(reference(spec, sizes, params, state, steps=steps))
    results: list = [None] * 16
    errors: list[BaseException] = []

    def worker(idx):
        spec, sizes, params, seed, steps = cases[idx]
        try:
            with KernelClient(server.socket_path, shm_threshold=64) as client:
                results[idx] = client.run(
                    spec, sizes=sizes, params=params,
                    state=make_state(spec, sizes, params, seed), steps=steps,
                )
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = server.stats()
    assert stats["ok"] == 16 and stats["errors"] == 0
    for idx in range(16):
        assert_bitwise(refs[idx], results[idx].state)


def test_malformed_spec_is_a_client_side_validation_error(server_factory):
    server = server_factory()
    with KernelClient(server.socket_path) as client:
        with pytest.raises(ValidationError):
            client.run(
                "stencil broken {\n  iterate i = 1 .. n-2\n  u[i] +=\n}\n",
                sizes={"n": 8}, state={"u": np.zeros(8)},
            )
        # The connection survives a rejected request.
        assert client.ping() is True
    assert server.stats()["errors"] == 1


def test_kernel_table_is_bounded_lru(server_factory):
    """Specs come from untrusted peers: distinct ones must not grow the
    table without bound.  An evicted id answers like an unknown one, and
    the client's recovery — send the spec again — serves it bitwise."""
    from repro.runtime.server import MAX_KERNELS

    server = server_factory()
    state = make_state(DECAY, DECAY_SIZES, DECAY_PARAMS, seed=4)

    def params(i):
        return {"a": 0.5 + i / 1024, "b": 0.125}

    with KernelClient(server.socket_path) as client:
        kids = [
            client.compile(DECAY, sizes=DECAY_SIZES, params=params(i))
            for i in range(MAX_KERNELS + 44)
        ]
        assert len(set(kids)) == len(kids)
        assert server.stats()["kernels"] == MAX_KERNELS == 256
        with pytest.raises(ValidationError, match="send the spec once first"):
            client.run(kernel_id=kids[0], state=state)
        # the most recent ids survived, and using one keeps it resident
        assert client.run(kernel_id=kids[44], state=state).kernel_id == kids[44]
        client.compile(DECAY, sizes=DECAY_SIZES, params=params(-1))
        assert client.run(kernel_id=kids[44], state=state).kernel_id == kids[44]
        with pytest.raises(ValidationError, match="send the spec once first"):
            client.run(kernel_id=kids[45], state=state)
        again = client.run(
            DECAY, sizes=DECAY_SIZES, params=params(0), state=state
        )
        assert again.kernel_id == kids[0]
        assert_bitwise(reference(DECAY, DECAY_SIZES, params(0), state), again.state)
    assert server.stats()["kernels"] == MAX_KERNELS


def test_server_does_not_import_the_cli():
    """The exit-code contract lives on the error classes, so the runtime
    layer sits below the CLI: serving never loads the argument parser."""
    import subprocess
    import sys

    code = (
        "import sys, repro.runtime.server, repro.runtime.client\n"
        "from repro.errors import ValidationError\n"
        "payload = repro.runtime.server._error_payload(ValidationError('x'))\n"
        "assert payload['exit_code'] == 3, payload\n"
        "assert 'repro.cli' not in sys.modules, 'runtime imports cli'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_unknown_kernel_id_rejected(server_factory):
    server = server_factory()
    with KernelClient(server.socket_path) as client:
        with pytest.raises(ValidationError, match="spec"):
            client.run(kernel_id="0" * 64, state={"u": np.zeros(8)})


def test_missing_and_wrong_state_rejected(server_factory):
    server = server_factory()
    with KernelClient(server.socket_path) as client:
        with pytest.raises(ValidationError, match="missing"):
            client.run(
                SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
                state={"u": np.zeros(32)},
            )
        with pytest.raises(ValidationError):
            client.run(
                SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
                state={"u": np.zeros(32), "v": np.zeros(2)},  # too small
            )
        with pytest.raises(ValidationError):
            client.run(
                SMOOTH, sizes=SMOOTH_SIZES,  # c unbound
                state=make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, 0),
            )


def test_garbage_frame_gets_typed_error_then_server_lives(server_factory):
    server = server_factory()
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(server.socket_path)
    try:
        body = b"this is not json"
        raw.sendall(struct.pack(">I", len(body)) + body)
        resp = recv_frame(raw)
        assert resp["status"] == "error"
        assert resp["error"] == "ServeError"
        assert resp["exit_code"] == 1
    finally:
        raw.close()
    with KernelClient(server.socket_path) as client:
        assert client.ping() is True


def test_oversized_frame_rejected(server_factory):
    server = server_factory()
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(server.socket_path)
    try:
        raw.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        resp = recv_frame(raw)
        assert resp["status"] == "error"
        assert "cap" in resp["message"]
    finally:
        raw.close()


def test_response_frames_are_deterministic_json(server_factory):
    """Same request twice -> byte-identical response frames (sorted keys)."""
    server = server_factory()
    state = make_state(DECAY, DECAY_SIZES, DECAY_PARAMS, seed=0)
    frames = []
    for _ in range(2):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(server.socket_path)
        try:
            enc = {
                name: {
                    "shape": list(arr.shape),
                    "dtype": arr.dtype.str,
                    "data": __import__("base64").b64encode(
                        np.ascontiguousarray(arr).tobytes()
                    ).decode("ascii"),
                }
                for name, arr in state.items()
            }
            msg = {
                "op": "run", "spec": DECAY, "sizes": DECAY_SIZES,
                "params": DECAY_PARAMS, "dtype": "f64", "steps": 1,
                "backend": "python", "state": enc,
            }
            body = json.dumps(msg, sort_keys=True).encode()
            raw.sendall(struct.pack(">I", len(body)) + body)
            header = raw.recv(4, socket.MSG_WAITALL)
            (length,) = struct.unpack(">I", header)
            frames.append(raw.recv(length, socket.MSG_WAITALL))
        finally:
            raw.close()
    assert frames[0] == frames[1]


def test_shutdown_op_stops_the_server(server_factory):
    server = server_factory()
    with KernelClient(server.socket_path) as client:
        client.shutdown()
    server.wait()  # returns promptly once the shutdown op landed
    assert not os.path.exists(server.socket_path) or True  # close() unlinks
    server.close()
    assert not os.path.exists(server.socket_path)


def test_state_shapes_and_seeded_state_cover_minimal_extents():
    nest = parse_stencil(SMOOTH)
    bindings = Bindings(sizes={"n": 8}, params=SMOOTH_PARAMS)
    shapes = state_shapes(nest, bindings)
    assert shapes == {"u": (7,), "v": (8,)}
    state = seeded_state(nest, bindings, seed=1)
    assert sorted(state) == ["u", "v"]
    assert state["u"].shape == (7,) and state["v"].shape == (8,)
    # Deterministic: same seed, same bytes.
    again = seeded_state(nest, bindings, seed=1)
    assert_bitwise(state, again)


# -- chaos at the three server fault points -----------------------------------


def test_fault_accept_drop_is_retried_bitwise(server_factory):
    server = server_factory(workers=1)
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=9)
    ref = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    with KernelClient(server.socket_path, shm_threshold=None, retries=1) as c:
        with faults.inject("server.accept") as inj:
            result = c.run(
                SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
            )
            assert inj.fired("server.accept") == 1
    assert server.stats()["accept_drops"] == 1
    assert_bitwise(ref, result.state)


def test_fault_batch_bind_falls_back_to_singles_bitwise(server_factory):
    server = server_factory(workers=2, max_batch=2, batch_window_ms=400.0)
    states = {
        s: make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=s)
        for s in (0, 1)
    }
    refs = {
        s: reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, states[s])
        for s in (0, 1)
    }
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def worker(seed):
        try:
            with KernelClient(server.socket_path) as client:
                results[seed] = client.run(
                    SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
                    state=states[seed],
                )
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    with faults.inject("server.batch.bind") as inj:
        threads = [threading.Thread(target=worker, args=(s,)) for s in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert inj.fired("server.batch.bind") == 1
    assert not errors
    assert server.stats()["batch_fallbacks"] == 1
    for seed in (0, 1):
        # The degraded path serves each batchmate its own single run.
        assert results[seed].batched is False
        assert_bitwise(refs[seed], results[seed].state)


def test_fault_shm_attach_is_typed_and_arrays_intact(server_factory):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=4)
    snap = {k: v.copy() for k, v in state.items()}
    ref = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    with KernelClient(server.socket_path, shm_threshold=1) as client:
        with faults.inject("server.shm.attach") as inj:
            with pytest.raises(ServeError):
                client.run(
                    SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
                    state=state,
                )
            assert inj.fired("server.shm.attach") == 1
        assert_bitwise(snap, state)
        # Same connection, next request: served normally.
        result = client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
        )
    assert_bitwise(ref, result.state)


# -- one request, one thread, one path ----------------------------------------


def serve_threads():
    return {
        t for t in threading.enumerate() if t.name.startswith("repro-serve-")
    }


def fire(server, states, spec=SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS):
    """One client thread per state, all in flight at once; returns
    ``{key: ServeResult | exception}`` once every reply is in."""
    out: dict = {}

    def worker(key):
        try:
            with KernelClient(server.socket_path) as client:
                out[key] = client.run(
                    spec, sizes=sizes, params=params, state=states[key]
                )
        except Exception as exc:  # asserted by the caller
            out[key] = exc

    threads = [threading.Thread(target=worker, args=(k,)) for k in states]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return out


def smooth_states(*seeds):
    return {
        s: make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=s)
        for s in seeds
    }


def test_a_started_server_owns_one_thread_plus_one_per_connection(
    server_factory,
):
    before = serve_threads()
    server = server_factory(batch_window_ms=2.0)
    with KernelClient(server.socket_path) as a, KernelClient(
        server.socket_path
    ) as b:
        assert a.ping() and b.ping()
        names = sorted(t.name for t in serve_threads() - before)
        assert names == [
            "repro-serve-accept", "repro-serve-conn", "repro-serve-conn",
        ]
    server.close()
    assert serve_threads() - before == set()


def test_requests_execute_on_their_connection_thread(
    server_factory, monkeypatch
):
    ran_on = []
    real_run = EnsemblePlan.run

    def spy(self):
        ran_on.append(threading.current_thread().name)
        real_run(self)

    monkeypatch.setattr(EnsemblePlan, "run", spy)
    states = smooth_states(0, 1)
    # window 0: every request leads a group of one
    immediate = server_factory(batch_window_ms=0.0)
    with KernelClient(immediate.socket_path) as client:
        client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=states[0]
        )
    assert ran_on == ["repro-serve-conn"]
    # a group of two: one run, on the leader's connection thread
    del ran_on[:]
    batching = server_factory(max_batch=2, batch_window_ms=30_000.0)
    results = fire(batching, states)
    assert [r.batch_size for r in results.values()] == [2, 2]
    assert ran_on == ["repro-serve-conn"]


def test_a_leader_that_dies_answers_itself_and_its_follower(
    server_factory, monkeypatch
):
    server = server_factory(
        max_batch=2, batch_window_ms=30_000.0, request_timeout=120.0
    )

    def boom(batch):
        raise RuntimeError("leader fell over")

    monkeypatch.setattr(server, "_run_group", boom)
    t0 = time.monotonic()
    results = fire(server, smooth_states(0, 1))
    assert time.monotonic() - t0 < 30.0  # not request_timeout
    assert sorted(results) == [0, 1]
    for reply in results.values():
        assert isinstance(reply, ServeError)
        assert "leader fell over" in str(reply)
    assert server.stats()["errors"] == 2
    # the group table and the execution slot were both given back
    monkeypatch.undo()
    states = smooth_states(2, 3)
    results = fire(server, states)
    for seed, state in states.items():
        assert results[seed].batch_size == 2
        assert_bitwise(
            reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state),
            results[seed].state,
        )


def test_close_flushes_an_open_window_and_leaves_nothing(server_factory):
    before = serve_threads()
    server = server_factory(max_batch=8, batch_window_ms=60_000.0)
    states = smooth_states(0, 1)
    refs = {
        s: reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, states[s])
        for s in states
    }
    results: dict = {}
    clients = threading.Thread(
        target=lambda: results.update(fire(server, states))
    )
    t0 = time.monotonic()
    clients.start()
    while time.monotonic() - t0 < 60.0:  # both requests sit in one open group
        if [len(b) for b in server._groups.values()] == [2]:
            break
        time.sleep(0.01)
    server.close()
    clients.join(timeout=60.0)
    assert not clients.is_alive()
    assert time.monotonic() - t0 < 60.0  # flushed, not waited out
    for seed in states:
        assert results[seed].batch_size == 2
        assert_bitwise(refs[seed], results[seed].state)
    assert serve_threads() - before == set()
    assert not server._conns and not server._groups
    assert not os.path.exists(server.socket_path)


def test_warm_table_is_bounded_by_a_constant(server_factory):
    """Any array shape covering the kernel is served, so the client picks
    the warm key: 300 lengths must not leave 300 warm bindings."""
    server = server_factory()
    nest = parse_stencil(DECAY)
    kernel = compile_nests(
        [nest], Bindings(sizes=DECAY_SIZES, params=DECAY_PARAMS), name=nest.name
    )
    rng = np.random.default_rng(7)
    with KernelClient(server.socket_path) as client:
        kid = client.compile(DECAY, sizes=DECAY_SIZES, params=DECAY_PARAMS)
        for extra in range(300):
            n = DECAY_SIZES["n"] + extra
            state = {name: rng.standard_normal(n) for name in "wrs"}
            want = {k: v.copy() for k, v in state.items()}
            kernel.plan().bind(want).run()
            assert_bitwise(want, client.run(kernel_id=kid, state=state).state)
    (served,) = server._kernels.values()
    assert len(served._warm) == MAX_WARM == 8
    assert server.stats()["single_runs"] == 300


def test_a_group_of_two_reuses_the_previous_groups_warm_binding(
    server_factory, monkeypatch
):
    binds = []
    real_init = EnsemblePlan.__init__

    def counting_init(self, plan, batched, **kwargs):
        binds.append(next(iter(batched.values())).shape[0])
        real_init(self, plan, batched, **kwargs)

    monkeypatch.setattr(EnsemblePlan, "__init__", counting_init)
    server = server_factory(max_batch=2, batch_window_ms=30_000.0)
    for round_ in range(10):
        states = smooth_states(2 * round_, 2 * round_ + 1)
        results = fire(server, states)
        for seed, state in states.items():
            assert results[seed].batch_size == 2
            assert_bitwise(
                reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state),
                results[seed].state,
            )
    assert binds == [2]  # bound once, for two members
    assert server.stats()["batched_runs"] == 10


def test_workers_bounds_the_groups_executing_at_once(
    server_factory, monkeypatch
):
    lock = threading.Lock()
    live = peak = 0
    real_run = EnsemblePlan.run

    def slow_run(self):
        nonlocal live, peak
        with lock:
            live += 1
            peak = max(peak, live)
        time.sleep(0.05)
        real_run(self)
        with lock:
            live -= 1

    monkeypatch.setattr(EnsemblePlan, "run", slow_run)
    server = server_factory(workers=1, batch_window_ms=0.0)
    jobs = {
        "smooth": (SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS),
        "decay": (DECAY, DECAY_SIZES, DECAY_PARAMS),
    }
    out: dict = {}

    def client(name):
        spec, sizes, params = jobs[name]
        state = make_state(spec, sizes, params, seed=1)
        with KernelClient(server.socket_path) as c:
            for _ in range(4):
                out[name] = c.run(spec, sizes=sizes, params=params, state=state)

    threads = [threading.Thread(target=client, args=(n,)) for n in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert sorted(out) == ["decay", "smooth"]
    assert server.stats()["single_runs"] == 8
    assert peak == 1  # two kernels, two warm bindings, one slot


def test_one_array_codec_types_its_error_for_each_side():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    back = decode_array(encode_array(arr), "u")
    assert back.dtype == arr.dtype and back.tobytes() == arr.tobytes()
    bad = dict(encode_array(arr), data="not base64!")
    with pytest.raises(ValidationError, match="undecodable"):
        decode_array(bad, "u")
    with pytest.raises(ServeError, match="undecodable"):
        decode_array(bad, "u", error=ServeError)


# -- leased shared memory -----------------------------------------------------

# The three kernels of the serve_bulk benchmark: arrays of n-2, n-1 and
# n elements, one page-rounded byte size.
BENCH_KERNELS = [
    (SMOOTH, {"c": 0.25}),
    ("stencil blend {\n  iterate i = 1 .. n-2\n"
     "  w[i] = a*r[i-1] + b*r[i+1]\n}\n", {"a": 0.5, "b": 0.125}),
    ("stencil drift {\n  iterate i = 2 .. n-3\n"
     "  u[i] += c*(v[i-2] - v[i+2])\n}\n", {"c": 0.0625}),
]


@pytest.fixture
def segment_calls(monkeypatch):
    """Every shared-memory create, attach and unlink in this process —
    client and server alike — as ``(kind, segment name)``."""
    calls = []
    real_init = shared_memory.SharedMemory.__init__
    real_unlink = shared_memory.SharedMemory.unlink

    def init(self, name=None, create=False, size=0, **kwargs):
        if not create:
            calls.append(("attach", name))
        real_init(self, name=name, create=create, size=size, **kwargs)
        if create:
            calls.append(("create", self.name))

    def unlink(self):
        calls.append(("unlink", self.name))
        real_unlink(self)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", init)
    monkeypatch.setattr(shared_memory.SharedMemory, "unlink", unlink)
    return calls


def kinds(calls, kind):
    return [name for k, name in calls if k == kind]


@pytest.fixture
def shapes_calls(monkeypatch):
    """How many times the server runs :func:`state_shapes`."""
    calls = []

    def counting(nest, bindings):
        calls.append(nest.name)
        return state_shapes(nest, bindings)

    monkeypatch.setattr(server_module, "state_shapes", counting)
    return calls


def mappings(names):
    """``{name: lines of /proc/self/maps mapping it}``."""
    with open("/proc/self/maps") as f:
        text = f.read()
    return {name: text.count(name) for name in names}


needs_proc_maps = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"),
    reason="counts mappings in /proc/self/maps (Linux only)",
)
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="looks for segments in /dev/shm (Linux only)",
)


def wait_for_no_connections(server):
    deadline = time.monotonic() + 10.0
    while server._conns and time.monotonic() < deadline:
        time.sleep(0.005)
    assert not server._conns


def test_steady_by_id_requests_reuse_two_leases(
    server_factory, segment_calls, shapes_calls
):
    server = server_factory()
    states = smooth_states(*range(20))
    del shapes_calls[:]  # seeded_state's own
    with KernelClient(server.socket_path, shm_threshold=1) as client:
        kid = client.compile(SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS)
        for state in states.values():
            result = client.run(kernel_id=kid, state=state)
            assert_bitwise(
                reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state),
                result.state,
            )
        # twenty requests: two segments created, two attached, none unlinked
        assert len(kinds(segment_calls, "create")) == 2
        assert kinds(segment_calls, "attach") == kinds(segment_calls, "create")
        assert kinds(segment_calls, "unlink") == []
    assert sorted(kinds(segment_calls, "unlink")) == sorted(
        kinds(segment_calls, "create")
    )
    assert shapes_calls == ["smooth"]


def test_bench_kernel_shapes_share_one_pair_of_segments(
    server_factory, segment_calls, shapes_calls
):
    server = server_factory()
    sizes = {"n": 4096}
    states = [
        [make_state(spec, sizes, params, seed) for spec, params in BENCH_KERNELS]
        for seed in range(3)
    ]
    del shapes_calls[:]  # seeded_state's own
    with KernelClient(server.socket_path, shm_threshold=1) as client:
        for round_ in states:
            for (spec, params), state in zip(BENCH_KERNELS, round_):
                assert_bitwise(
                    reference(spec, sizes, params, state),
                    client.run(spec, sizes=sizes, params=params, state=state).state,
                )
    assert len(kinds(segment_calls, "create")) == 2
    assert len(kinds(segment_calls, "attach")) == 2
    assert shapes_calls == ["smooth", "blend", "drift"]  # once per kernel


def test_a_failed_request_unlinks_its_leases_and_the_next_is_served(
    server_factory, segment_calls
):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=4)
    ref = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    with KernelClient(server.socket_path, shm_threshold=1) as client:
        with faults.inject("server.shm.attach") as inj:
            with pytest.raises(ServeError):
                client.run(
                    SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
                )
            assert inj.fired("server.shm.attach") == 1
        failed = kinds(segment_calls, "create")
        assert len(failed) == 2
        assert sorted(kinds(segment_calls, "unlink")) == sorted(failed)
        assert not client._leases
        # same connection, next request: fresh leases, served bitwise
        result = client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
        )
        assert_bitwise(ref, result.state)
        assert set(kinds(segment_calls, "create")[2:]).isdisjoint(failed)


@needs_proc_maps
def test_a_dropped_connection_detaches_the_servers_mappings(
    server_factory, segment_calls
):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=1)
    client = KernelClient(server.socket_path, shm_threshold=1)
    try:
        client.run(SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state)
        names = kinds(segment_calls, "create")
        # each segment is mapped twice: by the client and by the server
        assert mappings(names) == dict.fromkeys(names, 2)
        client._drop_connection()
        wait_for_no_connections(server)
        assert mappings(names) == dict.fromkeys(names, 1)  # the client's
    finally:
        client.close()
    assert mappings(names) == dict.fromkeys(names, 0)


@needs_proc_maps
def test_lease_tables_are_bounded_by_a_constant(server_factory, segment_calls):
    """The peer picks the segments: forty distinct ones on one connection
    must not leave forty mappings on either side."""
    server = server_factory()
    rng = np.random.default_rng(3)
    with KernelClient(server.socket_path, shm_threshold=1) as client:
        kid = client.compile(SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS)
        for pages in range(1, 21):  # a new byte size every request
            n = pages * 512
            state = {"u": rng.standard_normal(n - 1), "v": rng.standard_normal(n)}
            assert_bitwise(
                reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state),
                client.run(kernel_id=kid, state=state).state,
            )
        names = kinds(segment_calls, "create")
        assert len(names) == 40
        assert sum(map(len, client._leases.values())) == MAX_LEASES == 16
        assert sum(mappings(names).values()) <= 2 * MAX_LEASES


def test_a_segment_recreated_under_its_name_is_attached_again(
    server_factory, segment_calls
):
    server = server_factory()
    name = f"repro_lease_test_{os.getpid()}"
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(server.socket_path)

    def serve(seed):
        """One request, ``u`` in segment *name* and ``v`` inline."""
        state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=seed)
        want = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
        u = np.ndarray(state["u"].shape, dtype=state["u"].dtype, buffer=seg.buf)
        u[...] = state["u"]
        send_frame(raw, {
            "op": "run", "spec": SMOOTH, "sizes": SMOOTH_SIZES,
            "params": SMOOTH_PARAMS,
            "state": {
                "u": {"shape": list(u.shape), "dtype": u.dtype.str, "shm": name},
                "v": encode_array(state["v"]),
            },
        })
        resp = recv_frame(raw)
        assert resp["status"] == "ok", resp
        assert u.tobytes() == want["u"].tobytes()
        assert decode_array(resp["state"]["v"], "v").tobytes() == want["v"].tobytes()

    seg = shared_memory.SharedMemory(name=name, create=True, size=512)
    try:
        serve(0)
        serve(1)  # the same object: still attached
        seg.close()
        seg.unlink()
        seg = shared_memory.SharedMemory(name=name, create=True, size=512)
        serve(2)  # a new object under the old name: attached again
    finally:
        seg.close()
        seg.unlink()
        raw.close()
    assert kinds(segment_calls, "attach") == [name, name]


@needs_dev_shm
def test_closed_and_collected_clients_leave_no_segments(
    server_factory, segment_calls
):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=2)

    def live(names):
        return [n for n in names if os.path.exists(os.path.join("/dev/shm", n))]

    closed = KernelClient(server.socket_path, shm_threshold=1)
    closed.run(SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state)
    names = kinds(segment_calls, "create")
    assert live(names) == names  # a lease outlives its request...
    closed.close()
    assert live(names) == []  # ...and dies with its client
    collected = KernelClient(server.socket_path, shm_threshold=1)
    collected.run(SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state)
    names = kinds(segment_calls, "create")[2:]
    assert live(names) == names
    collected._drop_connection()  # leave only the leases to the collector
    del collected
    gc.collect()
    assert live(names) == []


@pytest.mark.parametrize(
    "name",
    ["../psm_x", "dir/psm_x", "", "p" * 201],
    ids=["dot-dot", "slash", "empty", "over-long"],
)
def test_bad_segment_names_never_reach_shared_memory(
    server_factory, segment_calls, name
):
    server = server_factory()
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(server.socket_path)
    try:
        send_frame(raw, {
            "op": "run", "spec": SMOOTH, "sizes": SMOOTH_SIZES,
            "params": SMOOTH_PARAMS,
            "state": {
                "u": {"shape": [31], "dtype": "<f8", "shm": name},
                "v": encode_array(np.zeros(32)),
            },
        })
        resp = recv_frame(raw)
    finally:
        raw.close()
    assert resp["status"] == "error"
    assert resp["error"] == "ValidationError", resp
    assert segment_calls == []


def test_close_returns_at_once_idle_or_with_an_idle_client(server_factory):
    before = serve_threads()
    idle = server_factory()
    t0 = time.monotonic()
    idle.close()
    assert time.monotonic() - t0 < 0.05
    busy = server_factory()
    with KernelClient(busy.socket_path) as client:
        assert client.ping()
        t0 = time.monotonic()
        busy.close()
        assert time.monotonic() - t0 < 0.05
    assert serve_threads() - before == set()
