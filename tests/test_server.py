"""Tests for the kernel-as-a-service daemon and its client.

Every response must be bitwise identical to a fresh single-process
bound run of the same kernel on the same state — batched or not, over
shared memory or as the frame's raw payload, and under chaos at the three server
fault points.  The batching assertions are plan-level: the server's
``last_batch`` evidence records how many members one
:class:`~repro.runtime.EnsemblePlan` run covered.
"""

import gc
import json
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.runtime.server as server_module
from repro.core.validate import SpecLimits
from repro.errors import ServeError, ValidationError
from repro.frontend import parse_stencil
from repro.runtime import Bindings, clear_kernel_cache, compile_nests, faults
from repro.runtime.client import KernelClient
from repro.runtime.ensemble import EnsemblePlan
from repro.runtime.server import (
    KernelServer,
    MAX_FRAME_BYTES,
    MAX_LEASES,
    MAX_WARM,
    decode_array,
    encode_array,
    inline_arrays,
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
    ready = threading.Barrier(len(seeds))

    def worker(seed):
        try:
            with KernelClient(server.socket_path) as client:
                client.ping()  # every connection is open before any sends
                ready.wait(timeout=60)
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
    ready = threading.Barrier(2)

    def worker(seed):
        with KernelClient(batching.socket_path) as client:
            client.ping()  # every connection is open before any sends
            ready.wait(timeout=60)
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
    """Same request twice -> byte-identical response frames (sorted keys,
    the same payload bytes)."""
    server = server_factory()
    state = make_state(DECAY, DECAY_SIZES, DECAY_PARAMS, seed=0)
    frames = []
    for _ in range(2):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(server.socket_path)
        try:
            send_frame(raw, {
                "op": "run", "spec": DECAY, "sizes": DECAY_SIZES,
                "params": DECAY_PARAMS, "dtype": "f64", "steps": 1,
                "backend": "python", "state": state,
            })
            header = raw.recv(4, socket.MSG_WAITALL)
            (length,) = struct.unpack(">I", header)
            body = raw.recv(length, socket.MSG_WAITALL)
            size = json.loads(body)["payload"]
            frames.append(body + raw.recv(size, socket.MSG_WAITALL))
        finally:
            raw.close()
    assert json.loads(frames[0][:length])["status"] == "ok"
    assert size == sum(a.nbytes for a in state.values())
    assert frames[0] == frames[1]


# -- the frame: a JSON header, then the inline arrays as raw bytes ------------


def raw_request(server, message: dict, payload: bytes = b"") -> socket.socket:
    """A raw connection that has sent *message* as JSON, then *payload*."""
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(30)
    raw.connect(server.socket_path)
    body = json.dumps(message).encode()
    raw.sendall(struct.pack(">I", len(body)) + body + payload)
    return raw


def smooth_run(**state) -> dict:
    return {
        "op": "run", "spec": SMOOTH, "sizes": SMOOTH_SIZES,
        "params": SMOOTH_PARAMS, "state": state,
    }


F64 = {"dtype": "<f8"}


@pytest.mark.parametrize("delta", [-8, 8], ids=["short", "long"])
def test_a_payload_that_does_not_match_its_entries_is_a_validation_error(
    server_factory, delta
):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=0)
    payload = state["u"].tobytes() + state["v"].tobytes()  # 248 + 256 bytes
    payload = payload[:delta] if delta < 0 else payload + bytes(delta)
    msg = smooth_run(u={"shape": [31], **F64}, v={"shape": [32], **F64})
    raw = raw_request(server, {**msg, "payload": len(payload)}, payload)
    try:
        resp = recv_frame(raw)
        assert resp["error"] == "ValidationError", resp
        assert "payload of 504 bytes" in resp["message"]
        # The whole frame was read: the connection is still in step.
        send_frame(raw, {"op": "ping"})
        assert recv_frame(raw)["status"] == "ok"
    finally:
        raw.close()


@pytest.mark.parametrize(
    "size", [-1, 1.5, "8", True, None, MAX_FRAME_BYTES],
    ids=["negative", "float", "string", "bool", "null", "over-cap"],
)
def test_a_bad_payload_size_is_a_framing_error_before_any_allocation(
    server_factory, size
):
    server = server_factory()
    raw = raw_request(server, {"op": "ping", "payload": size})
    try:
        resp = recv_frame(raw)
        assert resp["error"] == "ServeError", resp
        assert "payload" in resp["message"]
        assert raw.recv(1) == b""  # dropped, like a garbage frame
    finally:
        raw.close()
    # Nothing the size announces is ever allocated: the client side of
    # the same check reads it over a socket pair under tracemalloc.
    import tracemalloc

    left, right = socket.socketpair()
    try:
        body = json.dumps({"status": "ok", "payload": size}).encode()
        left.sendall(struct.pack(">I", len(body)) + body)
        tracemalloc.start()
        try:
            with pytest.raises(ServeError, match="payload"):
                recv_frame(right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        left.close()
        right.close()
    assert peak < 1 << 20


def test_a_connection_closed_mid_payload_is_a_serve_error(server_factory):
    server = server_factory()
    raw = raw_request(server, {"op": "ping", "payload": 64}, bytes(10))
    try:
        raw.shutdown(socket.SHUT_WR)
        resp = recv_frame(raw)
        assert resp["error"] == "ServeError", resp
        assert "mid-payload (10/64 bytes)" in resp["message"]
    finally:
        raw.close()
    left, right = socket.socketpair()
    try:
        body = json.dumps({"status": "ok", "payload": 64}).encode()
        left.sendall(struct.pack(">I", len(body)) + body + bytes(10))
        left.close()
        with pytest.raises(ServeError, match="mid-payload"):
            recv_frame(right)
    finally:
        right.close()


def test_a_base64_data_entry_names_the_payload_frame(server_factory):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=0)
    raw = raw_request(server, smooth_run(
        u=encode_array(state["u"]), v=encode_array(state["v"])
    ))
    try:
        resp = recv_frame(raw)
    finally:
        raw.close()
    assert resp["error"] == "ValidationError", resp
    assert "'data'" in resp["message"]
    assert "raw bytes in the frame's payload" in resp["message"]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_inline_round_trips_are_bitwise(server_factory, dtype):
    server = server_factory()
    nest = parse_stencil(SMOOTH)
    bindings = Bindings(
        sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
        dtype={"f32": np.float32, "f64": np.float64}[dtype],
    )
    state = seeded_state(nest, bindings, seed=4)
    kernel = compile_nests([nest], bindings, name=nest.name)
    want = {k: v.copy() for k, v in state.items()}
    bound = kernel.plan().bind(want)
    for _ in range(3):
        bound.run()
    with KernelClient(server.socket_path, shm_threshold=None) as client:
        got = client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, dtype=dtype,
            state=state, steps=3,
        ).state
    assert_bitwise(want, got)
    for arr in got.values():  # views into the reply's payload, not copies
        assert arr.flags.writeable and arr.flags.aligned
        assert isinstance(arr.base, bytearray)


def test_a_zero_length_array_travels_inline(server_factory):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=5)
    want = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    with KernelClient(server.socket_path, shm_threshold=None) as client:
        got = client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS,
            state={**state, "empty": np.zeros(0)},
        ).state
    assert got.pop("empty").shape == (0,)
    assert_bitwise(want, got)
    left, right = socket.socketpair()
    try:
        send_frame(left, {"state": {"a": np.zeros((0, 3), np.float32)}})
        frame = recv_frame(right)
    finally:
        left.close()
        right.close()
    assert frame["payload"] == 0 and frame.payload == bytearray()
    (empty,) = inline_arrays(frame["state"], frame.payload).values()
    assert empty.shape == (0, 3) and empty.dtype == np.float32


def test_frame_pads_each_array_to_eight_bytes():
    arrays = {"b": np.arange(3, dtype=np.float32), "a": np.arange(5, dtype=np.int8)}
    left, right = socket.socketpair()
    try:
        send_frame(left, {"state": arrays})
        frame = recv_frame(right)
    finally:
        left.close()
        right.close()
    assert frame["payload"] == len(frame.payload) == 8 + 16
    got = inline_arrays(frame["state"], frame.payload)
    assert_bitwise(arrays, got)
    assert frame.payload[5:8] == bytes(3)  # "a" padded, "b" at offset 8


def test_a_frame_of_more_arrays_than_one_gather_write_takes():
    arrays = {f"a{k:04d}": np.full(k % 3, k, np.float32) for k in range(1800)}
    left, right = socket.socketpair()
    try:
        send_frame(left, {"state": arrays})
        frame = recv_frame(right)
    finally:
        left.close()
        right.close()
    assert_bitwise(arrays, inline_arrays(frame["state"], frame.payload))


def test_one_request_mixes_a_shm_array_and_an_inline_one(
    server_factory, segment_calls
):
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=6)
    want = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    # u is 31 doubles (248 bytes), v 32 (256 bytes): only v reaches shm.
    with KernelClient(server.socket_path, shm_threshold=256) as client:
        got = client.run(
            SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
        ).state
        assert len(kinds(segment_calls, "create")) == 1
    assert_bitwise(want, got)


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
    ready = threading.Barrier(2)

    def worker(seed):
        try:
            with KernelClient(server.socket_path) as client:
                client.ping()  # every connection is open before any sends
                ready.wait(timeout=60)
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
    ``{key: ServeResult | exception}`` once every reply is in.  Every
    client connects and pings before any sends, so no request is from a
    connection the server has not yet accepted."""
    out: dict = {}
    ready = threading.Barrier(len(states))

    def worker(key):
        try:
            with KernelClient(server.socket_path) as client:
                client.ping()
                ready.wait(timeout=60)
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


def test_close_joins_a_connection_thread_still_cleaning_up(
    server_factory, monkeypatch
):
    """Regression: close() joined only the threads of still-open
    connections, so one whose client hung up first — gone from the
    table, its socket not yet closed — outlived it."""
    real_close = socket.socket.close

    def slow_close(sock):
        if threading.current_thread().name == "repro-serve-conn":
            time.sleep(0.5)
        real_close(sock)

    before = serve_threads()
    server = server_factory()
    monkeypatch.setattr(socket.socket, "close", slow_close)
    with KernelClient(server.socket_path) as client:
        assert client.ping()
    wait_for_no_connections(server)
    # Out of the table, still alive: the thread is in its slow close.
    assert sorted(t.name for t in serve_threads() - before) == [
        "repro-serve-accept", "repro-serve-conn",
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
    # An idle connection could still join, so only close() ends the wait.
    idle = KernelClient(server.socket_path)
    assert idle.ping()
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
    idle.close()


# -- a work-conserving window: no wait once no connection can join -----------


def smooth_run_of(client, state):
    return client.run(
        SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
    )


def test_a_lone_connection_does_not_wait_out_the_window(server_factory):
    server = server_factory(batch_window_ms=30_000.0)
    state = smooth_states(0)[0]
    ref = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    with KernelClient(server.socket_path) as client:
        t0 = time.monotonic()
        result = smooth_run_of(client, state)
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0  # nobody else could join: no wait at all
    assert result.batch_size == 1
    assert_bitwise(ref, result.state)


def test_two_parked_connections_form_one_group_at_once(server_factory):
    # max_batch 8: the group never fills, so only the new rule ends the wait
    server = server_factory(max_batch=8, batch_window_ms=30_000.0)
    immediate = server_factory(batch_window_ms=0.0)
    states = smooth_states(0, 1)
    with KernelClient(immediate.socket_path) as client:  # also compiles
        singles = {s: smooth_run_of(client, st) for s, st in states.items()}
    t0 = time.monotonic()
    results = fire(server, states)
    assert time.monotonic() - t0 < 1.0
    stats = server.stats()
    assert stats["batched_runs"] == 1 and stats["single_runs"] == 0
    for seed in states:
        assert results[seed].batched and results[seed].batch_size == 2
        assert not singles[seed].batched
        assert_bitwise(singles[seed].state, results[seed].state)


def test_an_idle_connection_keeps_the_window_an_upper_bound(server_factory):
    server = server_factory(max_batch=8, batch_window_ms=300.0)
    states = smooth_states(0, 1)
    with KernelClient(server.socket_path) as idle:
        assert idle.ping()  # open, between requests: it could still join
        t0 = time.monotonic()
        results = fire(server, states)
        elapsed = time.monotonic() - t0
    assert 0.25 <= elapsed < 30.0
    for seed, state in states.items():
        assert results[seed].batch_size == 2
        assert_bitwise(
            reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state),
            results[seed].state,
        )


def test_closing_an_idle_connection_flushes_a_waiting_leader(server_factory):
    server = server_factory(batch_window_ms=30_000.0)
    state = smooth_states(0)[0]
    ref = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    idle = KernelClient(server.socket_path)
    assert idle.ping()
    results: dict = {}
    sender = threading.Thread(target=lambda: results.update(fire(server, {0: state})))
    sender.start()
    deadline = time.monotonic() + 30.0
    while not server._groups and time.monotonic() < deadline:
        time.sleep(0.005)  # the leader is waiting on the idle connection
    assert [len(b) for b in server._groups.values()] == [1]
    t0 = time.monotonic()
    idle.close()
    sender.join(timeout=60.0)
    assert not sender.is_alive()
    assert time.monotonic() - t0 < 5.0  # flushed, not waited out
    assert results[0].batch_size == 1
    assert_bitwise(ref, results[0].state)


def test_the_parked_count_holds_under_many_closed_loop_clients(
    server_factory,
):
    """Eight closed-loop clients, more than the cores, on two kernels
    under a short switch interval.  A lost update to the parked count
    would leave a leader waiting out the 30 s window, or a count behind
    once every connection is gone."""
    server = server_factory(workers=2, max_batch=8, batch_window_ms=30_000.0)
    jobs = [
        (SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS),
        (DECAY, DECAY_SIZES, DECAY_PARAMS),
    ]
    cases = [
        (*jobs[c % 2], make_state(*jobs[c % 2], seed=c)) for c in range(8)
    ]
    refs = [reference(*case) for case in cases]
    failures: list = []

    def client(c):
        spec, sizes, params, state = cases[c]
        try:
            with KernelClient(server.socket_path) as conn:
                for _ in range(10):
                    got = conn.run(spec, sizes=sizes, params=params, state=state)
                    assert_bitwise(refs[c], got.state)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.monotonic()
        threads = [threading.Thread(target=client, args=(c,)) for c in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        elapsed = time.monotonic() - t0
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert elapsed < 20.0  # no leader waited out its window
    assert server.stats()["ok"] == 80
    wait_for_no_connections(server)
    assert server._parked == 0 and not server._groups


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
    client and server alike — as ``(kind, segment name)``.  The server
    attaches through its own tracker-free helper, not ``SharedMemory``."""
    calls = []
    real_init = shared_memory.SharedMemory.__init__
    real_unlink = shared_memory.SharedMemory.unlink
    real_map = server_module._map_segment

    def init(self, name=None, create=False, size=0, **kwargs):
        if not create:
            calls.append(("attach", name))
        real_init(self, name=name, create=create, size=size, **kwargs)
        if create:
            calls.append(("create", self.name))

    def unlink(self):
        calls.append(("unlink", self.name))
        real_unlink(self)

    def map_segment(name):
        calls.append(("attach", name))
        return real_map(name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", init)
    monkeypatch.setattr(shared_memory.SharedMemory, "unlink", unlink)
    monkeypatch.setattr(server_module, "_map_segment", map_segment)
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
                "v": state["v"],
            },
        })
        resp = recv_frame(raw)
        assert resp["status"] == "ok", resp
        assert u.tobytes() == want["u"].tobytes()
        v = inline_arrays(resp["state"], resp.payload)["v"]
        assert v.tobytes() == want["v"].tobytes()

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
                "v": np.zeros(32),
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


# -- one parse per spec -------------------------------------------------------


@pytest.fixture
def parse_calls(monkeypatch):
    """Every spec the server parses, in order — failed parses included."""
    calls = []
    real = server_module.parse_stencil

    def counting(spec, **kwargs):
        calls.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(server_module, "parse_stencil", counting)
    return calls


def test_twenty_by_spec_runs_parse_the_spec_once(server_factory, parse_calls):
    server = server_factory()
    with KernelClient(server.socket_path) as client:
        for state in smooth_states(*range(20)).values():
            result = client.run(
                SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
            )
            assert_bitwise(
                reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state),
                result.state,
            )
    assert parse_calls == [SMOOTH]


def test_one_parse_backs_every_binding_of_a_spec(server_factory, parse_calls):
    server = server_factory()
    cases = [
        ({"n": 24}, DECAY_PARAMS),
        ({"n": 40}, DECAY_PARAMS),
        ({"n": 24}, {"a": -1.5, "b": 0.25}),
    ]
    kids = []
    with KernelClient(server.socket_path) as client:
        for seed, (sizes, params) in enumerate(cases):
            state = make_state(DECAY, sizes, params, seed)
            result = client.run(DECAY, sizes=sizes, params=params, state=state)
            assert_bitwise(reference(DECAY, sizes, params, state), result.state)
            kids.append(result.kernel_id)
    assert len(set(kids)) == 3
    assert server.stats()["kernels"] == 3
    assert parse_calls == [DECAY]


def test_compile_then_by_spec_run_parse_once(server_factory, parse_calls):
    server = server_factory()
    state = make_state(DECAY, DECAY_SIZES, DECAY_PARAMS, seed=6)
    with KernelClient(server.socket_path) as client:
        kid = client.compile(DECAY, sizes=DECAY_SIZES, params=DECAY_PARAMS)
        result = client.run(
            DECAY, sizes=DECAY_SIZES, params=DECAY_PARAMS, state=state
        )
    assert result.kernel_id == kid
    assert_bitwise(reference(DECAY, DECAY_SIZES, DECAY_PARAMS, state), result.state)
    assert parse_calls == [DECAY]


def test_a_memo_hit_checks_names_without_walking_the_nest(
    server_factory, parse_calls, monkeypatch
):
    """The size and parameter names are kept with the memoised nest: a
    hit walks no SymPy expression, and unbound names are still the same
    typed errors."""
    from repro.core.loopnest import LoopNest

    server = server_factory()
    state = smooth_states(0)[0]
    with KernelClient(server.socket_path) as client:
        smooth_run_of(client, state)  # parses, memoises and compiles
        walks = []
        for method in ("size_symbols", "scalar_parameters"):
            real = getattr(LoopNest, method)
            monkeypatch.setattr(
                LoopNest, method,
                lambda self, _real=real: walks.append(1) or _real(self),
            )
        for _ in range(3):
            smooth_run_of(client, state)
        with pytest.raises(ValidationError, match=r"unbound size symbols: \['n'\]"):
            client.run(SMOOTH, sizes={}, params=SMOOTH_PARAMS, state=state)
        with pytest.raises(
            ValidationError, match=r"unbound scalar parameters: \['c'\]"
        ):
            client.run(SMOOTH, sizes=SMOOTH_SIZES, params={}, state=state)
    assert parse_calls == [SMOOTH]
    assert walks == []


def test_tightened_limits_parse_again_and_reject(server_factory, parse_calls):
    """``limits`` is public: a nest accepted under looser limits is never
    served once they are tightened, and trusting the peer is its own key."""
    server = server_factory()
    state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=7)
    want = reference(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, state)
    kwargs = dict(sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state)
    with KernelClient(server.socket_path) as client:
        client.run(SMOOTH, **kwargs)
        assert_bitwise(want, client.run(SMOOTH, **kwargs).state)  # a hit
        assert len(parse_calls) == 1
        loose = server.limits
        server.limits = SpecLimits(max_source_bytes=len(SMOOTH) - 1)
        for _ in range(2):
            with pytest.raises(ValidationError, match="the limit is"):
                client.run(SMOOTH, **kwargs)
        assert len(parse_calls) == 3  # judged on each request, never kept
        server.limits = None
        assert_bitwise(want, client.run(SMOOTH, **kwargs).state)
        assert len(parse_calls) == 4
        server.limits = loose
        assert_bitwise(want, client.run(SMOOTH, **kwargs).state)
    assert len(parse_calls) == 4  # the first nest is still memoised


@pytest.mark.parametrize(
    "bad",
    [
        "stencil broken {\n  iterate i = 1 .. n-2\n  u[i] +=\n}\n",
        "stencil s {\n  iterate i = 1 .. n-2\n  u[i] += v[i] \ud800\n}\n",
    ],
    ids=["truncated", "lone-surrogate"],
)
def test_a_malformed_spec_is_rejected_alike_and_never_kept(
    server_factory, parse_calls, bad
):
    server = server_factory()
    messages = []
    with KernelClient(server.socket_path) as client:
        for _ in range(2):
            with pytest.raises(ValidationError) as info:
                client.run(bad, sizes={"n": 8}, state={"u": np.zeros(8)})
            messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert parse_calls == [bad, bad]
    assert not server._nests


def test_the_parse_memo_is_bounded_by_max_kernels(server_factory, parse_calls):
    from repro.runtime.server import MAX_KERNELS

    server = server_factory()
    specs = [DECAY.replace("decay", f"decay{i}") for i in range(300)]
    with KernelClient(server.socket_path) as client:
        for spec in specs:
            client.compile(spec, sizes=DECAY_SIZES, params=DECAY_PARAMS)
        assert len(server._nests) == MAX_KERNELS == 256
        assert len(parse_calls) == 300
        client.compile(specs[-1], sizes=DECAY_SIZES, params=DECAY_PARAMS)
        assert len(parse_calls) == 300  # resident: a hit
        client.compile(specs[0], sizes=DECAY_SIZES, params=DECAY_PARAMS)
        assert parse_calls[-1] == specs[0]  # evicted: parsed again
        assert len(parse_calls) == 301
    assert len(server._nests) == MAX_KERNELS


def test_an_evicted_kernel_is_registered_again_from_the_memo(
    server_factory, parse_calls
):
    from repro.runtime.server import MAX_KERNELS

    server = server_factory()
    state = make_state(DECAY, DECAY_SIZES, DECAY_PARAMS, seed=8)

    def params(i):
        return {"a": 0.5 + i / 1024, "b": 0.125}

    with KernelClient(server.socket_path) as client:
        first = client.compile(DECAY, sizes=DECAY_SIZES, params=params(0))
        for i in range(1, MAX_KERNELS + 1):
            client.compile(DECAY, sizes=DECAY_SIZES, params=params(i))
        with pytest.raises(ValidationError, match="send the spec once first"):
            client.run(kernel_id=first, state=state)
        again = client.run(
            DECAY, sizes=DECAY_SIZES, params=params(0), state=state
        )
    assert again.kernel_id == first
    assert_bitwise(reference(DECAY, DECAY_SIZES, params(0), state), again.state)
    assert parse_calls == [DECAY]


def test_an_evicted_kernel_is_freed_without_the_cycle_collector(
    server_factory, monkeypatch
):
    """Eviction releases the served kernel's warm bindings and its
    compiled kernel's memos: once the kernel cache lets go too, reference
    counting alone frees all of it."""
    monkeypatch.setattr(server_module, "MAX_KERNELS", 1)
    server = server_factory()
    gc.collect()
    gc.disable()
    try:
        with KernelClient(server.socket_path) as client:
            state = make_state(SMOOTH, SMOOTH_SIZES, SMOOTH_PARAMS, seed=1)
            kid = client.run(
                SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS, state=state
            ).kernel_id
            served = server._kernels[kid]
            (warm,) = served._warm.values()
            refs = [
                weakref.ref(o)
                for o in (served, warm.ensemble, warm.ensemble.plan, served._kernel)
            ]
            del served, warm
            client.compile(DECAY, sizes=DECAY_SIZES, params=DECAY_PARAMS)
            assert kid not in server._kernels
        # Only the kernel cache still holds the compiled kernel.
        assert [r() is None for r in refs] == [True, True, True, False]
        clear_kernel_cache()
        assert refs[-1]() is None
    finally:
        gc.enable()


def test_close_empties_the_parse_memo(server_factory):
    server = server_factory()
    with KernelClient(server.socket_path) as client:
        client.compile(SMOOTH, sizes=SMOOTH_SIZES, params=SMOOTH_PARAMS)
        client.compile(DECAY, sizes=DECAY_SIZES, params=DECAY_PARAMS)
    assert len(server._nests) == 2
    server.close()
    assert not server._nests and not server._kernels


def test_eight_threads_on_three_specs_parse_each_at_most_once_a_thread(
    server_factory, parse_calls
):
    server = server_factory(workers=4, max_batch=8, batch_window_ms=1.0)
    sizes = {"n": 64}
    states, refs = {}, {}
    for t in range(8):
        for k, (spec, params) in enumerate(BENCH_KERNELS):
            states[t, k] = make_state(spec, sizes, params, seed=8 * k + t)
            refs[t, k] = reference(spec, sizes, params, states[t, k])
    errors: list[BaseException] = []

    def worker(t):
        try:
            with KernelClient(server.socket_path) as client:
                for i in range(50):
                    k = (t + i) % 3
                    spec, params = BENCH_KERNELS[k]
                    result = client.run(
                        spec, sizes=sizes, params=params, state=states[t, k]
                    )
                    assert_bitwise(refs[t, k], result.state)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave memo lookups and inserts
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert server.stats()["ok"] == 400
    assert sorted(set(parse_calls)) == sorted(spec for spec, _ in BENCH_KERNELS)
    assert len(parse_calls) <= 8 * 3


# -- a client's segments belong to the client ---------------------------------


def on_dev_shm(names):
    return [os.path.exists(os.path.join("/dev/shm", n)) for n in names]


@needs_dev_shm
def test_a_server_process_exiting_leaves_its_clients_leases(
    segment_calls, tmp_path
):
    """``SharedMemory(name=...)`` registers the segment with the attaching
    process's resource tracker, which unlinks it when that process
    exits; the server must map its clients' segments without that."""
    path = str(tmp_path / "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", path,
         "--batch-window-ms", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not os.path.exists(path):
            assert server.poll() is None, server.communicate()
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.05)
        sizes = {"n": 1 << 16}  # two arrays of 512 KiB
        state = make_state(SMOOTH, sizes, SMOOTH_PARAMS, seed=1)
        client = KernelClient(path, shm_threshold=1)
        try:
            result = client.run(
                SMOOTH, sizes=sizes, params=SMOOTH_PARAMS, state=state
            )
            assert_bitwise(
                reference(SMOOTH, sizes, SMOOTH_PARAMS, state), result.state
            )
            names = kinds(segment_calls, "create")
            assert len(names) == 2
            client.shutdown()
            # EOF on the server's stderr comes once every process holding
            # it has exited — a resource tracker of its own included.
            _, err = server.communicate(timeout=120)
            assert server.returncode == 0, err
            assert on_dev_shm(names) == [True, True]  # still leased
            assert "resource_tracker" not in err and "leaked" not in err, err
        finally:
            client.close()
        assert on_dev_shm(names) == [False, False]
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()


_SERVE_IN_ONE_PROCESS = """
import json, os, tempfile
from multiprocessing import resource_tracker

registered = []
real_register = resource_tracker.register

def register(name, rtype):
    registered.append(name.lstrip("/"))
    real_register(name, rtype)

resource_tracker.register = register

from repro.frontend import parse_stencil
from repro.runtime import Bindings, KernelClient, KernelServer, seeded_state

spec = "stencil s { iterate i = 1 .. n-2  u[i] += c*(v[i-1] - v[i+1]) }"
sizes, params = {"n": 4096}, {"c": 0.25}
state = seeded_state(parse_stencil(spec), Bindings(sizes=sizes, params=params))
path = os.path.join(tempfile.mkdtemp(), "serve.sock")
with KernelServer(path, workers=1, batch_window_ms=0.0):
    with KernelClient(path, shm_threshold=1) as client:
        for _ in range(3):
            client.run(spec, sizes=sizes, params=params, state=state)
print(json.dumps(registered))
"""


@needs_dev_shm
def test_one_process_serving_itself_registers_each_segment_once():
    """Server and client in one process (tests, benches) share one
    resource tracker: the client's registration is the only one, and
    its ``close()`` retires it without a warning at exit."""
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_IN_ONE_PROCESS],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    registered = json.loads(proc.stdout.splitlines()[-1])
    assert len(registered) == len(set(registered)) == 2, registered
    assert on_dev_shm(registered) == [False, False]
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
