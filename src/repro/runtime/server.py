"""Kernel-as-a-service: a compile-and-serve daemon with dynamic batching.

Every subsystem the "millions of users" north star needs exists in
isolation — the warm :class:`~repro.runtime.cache.KernelCache`, the
content-addressed native ``.so`` cache, member-axis
:class:`~repro.runtime.ensemble.EnsemblePlan` batching — but a fresh
process pays cold-start compilation and every request runs alone.
:class:`KernelServer` is the inference-server move: one long-lived
process owns the warm caches and accepts requests over a Unix-domain
socket, and concurrent requests for the *same kernel* coalesce into one
ensemble run over the member axis.

Protocol
--------

Length-prefixed JSON frames in both directions: a 4-byte big-endian
payload length followed by that many bytes of UTF-8 JSON (one object
per frame, at most ``MAX_FRAME_BYTES``).  Requests carry an ``op``:
``run``, ``compile``, ``ping``, ``stats`` or ``shutdown``.  A ``run``
request names its kernel either by inline ``spec`` source (parsed with
:func:`~repro.frontend.parser.parse_stencil` under
:class:`~repro.core.validate.SpecLimits` — this is an untrusted input
path) plus ``sizes``/``params``/``dtype``, or by the content-addressed
``kernel_id`` a previous response returned.  State arrays travel either
inline (base64 of the raw bytes, bitwise-exact) or zero-copy as named
``multiprocessing.shared_memory`` segments the server attaches and
writes results back into.  Segments are *leases*: the client reuses
them request after request, and the server keeps each attachment for
the life of the connection, so a steady request maps nothing.
``docs/serving.md`` specifies the frame and message formats in full.

Batching semantics
------------------

Requests are grouped by ``(kernel_id, backend, steps, state
signature)``, on the connection threads themselves: the first request
of a group is its *leader* — it holds the group open for
``batch_window_ms`` (cut short when a follower fills it to
``max_batch``), then runs it on its own thread — and every later one a
*follower* that appends itself and waits for the leader's result.
There is no queue, no dispatcher and no executor: a started server owns
the accept thread plus one thread per open connection, and at most
``workers`` groups execute at once.  A group of any size runs through
**one** warm :class:`EnsemblePlan` kept per ``(backend, state
signature, members)`` — persistent ``(members, *shape)`` arrays bound
once, request state copied in and out — bitwise identical to per-member
bound runs by construction; each kernel keeps at most ``MAX_WARM`` of
them, least recently used evicted first.  ``batch_window_ms=0`` is the
same path with a group of one and no wait.

Failure contract (PR 7): typed errors map onto the existing exit-code
scheme, a failed member never poisons its batchmates (a group of two or
more that fails to bind or run falls back to its members as groups of
one), a leader that dies answers its followers with a typed error, and
every response reports per-request status.  Fault points ``server.accept``,
``server.batch.bind`` and ``server.shm.attach`` make the contract
testable (see :mod:`repro.runtime.faults` and the chaos suite).

>>> import numpy as np, os, tempfile
>>> from repro.runtime.server import KernelServer
>>> from repro.runtime.client import KernelClient
>>> spec = '''
... stencil smooth {
...   iterate i = 1 .. n-2
...   u[i] += c*(v[i-1] - 2.0*v[i] + v[i+1])
... }
... '''
>>> path = os.path.join(tempfile.mkdtemp(), "serve.sock")
>>> server = KernelServer(path, workers=1, batch_window_ms=0.0)
>>> server.start()
>>> state = {"u": np.zeros(8), "v": np.ones(8)}
>>> with KernelClient(path) as client:
...     result = client.run(spec, sizes={"n": 8}, params={"c": 0.25},
...                         state=state)
>>> result.batch_size
1
>>> result.state["u"]    # second difference of a constant field: zero
array([0., 0., 0., 0., 0., 0., 0., 0.])
>>> state["u"]           # the client's arrays are never written in place
array([0., 0., 0., 0., 0., 0., 0., 0.])
>>> server.stats()["single_runs"]
1
>>> server.close()
"""

from __future__ import annotations

import base64
import json
import os
import re
import socket
import struct
import threading
import time
from collections import OrderedDict
from multiprocessing import shared_memory
from pathlib import Path
from typing import Mapping

import numpy as np
import sympy as sp

from ..core.validate import DEFAULT_SPEC_LIMITS, SpecLimits
from ..errors import ReproError, ServeError, ValidationError
from ..frontend.parser import parse_stencil
from . import faults
from .bindings import Bindings
from .cache import kernel_key
from .compiler import compile_nests
from .ensemble import EnsemblePlan

__all__ = [
    "KernelServer",
    "MAX_FRAME_BYTES",
    "MAX_LEASES",
    "MAX_WARM",
    "decode_array",
    "encode_array",
    "recv_frame",
    "send_frame",
    "seeded_state",
    "state_shapes",
]

#: Hard cap on one protocol frame; oversize frames are a typed error,
#: never an allocation the peer controls.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Most kernels (each with its compiled code and warm arrays) a server
#: keeps registered, least-recently-used evicted first — the
#: ``KernelCache`` default.  Specs arrive from untrusted peers, so the
#: table must not grow with the number of distinct ones ever seen; a
#: by-id request for an evicted kernel gets the "send the spec once
#: first" reply, which is already the client's recovery path.
MAX_KERNELS = 256

#: Most warm bindings (persistent arrays + the ensemble bound over them)
#: one served kernel keeps, least-recently-used evicted first.  The key
#: holds the *client's* array shapes — any shape covering the kernel is
#: served — so like ``MAX_KERNELS`` the table may not grow with what
#: peers send; an evicted shape rebinds on its next request.
MAX_WARM = 8

#: Most shared-memory segments one connection keeps leased: the
#: client's pool of free segments and the server's table of attachments
#: alike, least-recently-used dropped first.  The peer is untrusted, so
#: like ``MAX_WARM`` the table may not grow with what it sends; a
#: dropped lease is created or attached again on its next use.
MAX_LEASES = 16

#: Segment names a peer may send: what ``multiprocessing`` and the
#: sharded tier create, and never a path.
_SEGMENT_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,199}")

#: Where POSIX shared memory shows up as files (Linux): a segment's
#: identity is the inode of its entry there.
_SHM_DIR = "/dev/shm"

_HEADER = struct.Struct(">I")

_DTYPES = {"f64": np.float64, "f32": np.float32}


# -- framing ------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly *n* bytes; None on EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ServeError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one length-prefixed JSON frame; None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ServeError("connection closed between header and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ServeError("frame must decode to a JSON object")
    return message


def send_frame(sock: socket.socket, message: Mapping) -> None:
    """Serialise *message* and write it as one length-prefixed frame."""
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    sock.sendall(_HEADER.pack(len(body)) + body)


# -- array codec --------------------------------------------------------------


def encode_array(arr: np.ndarray) -> dict:
    """Inline wire form of *arr*: raw bytes, base64 — bitwise exact.

    >>> import numpy as np
    >>> meta = encode_array(np.array([1.5, -2.25]))
    >>> sorted(meta)
    ['data', 'dtype', 'shape']
    """
    arr = np.ascontiguousarray(arr)
    return {
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _array_meta(
    meta, name: str, error=ValidationError
) -> tuple[tuple[int, ...], np.dtype, int]:
    """Validate one wire array's shape/dtype metadata."""
    if not isinstance(meta, dict):
        raise error(f"state entry {name!r} must be an object")
    try:
        shape = tuple(int(s) for s in meta["shape"])
        dtype = np.dtype(str(meta["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise error(
            f"state entry {name!r} has invalid shape/dtype: {exc}"
        ) from exc
    if any(s < 0 for s in shape):
        raise error(f"state entry {name!r} has a negative extent")
    if dtype.kind not in "fiu":
        raise error(
            f"state entry {name!r} has unsupported dtype {dtype.str!r}"
        )
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if nbytes > MAX_FRAME_BYTES:
        raise error(f"state entry {name!r} is {nbytes} bytes, over the cap")
    return shape, dtype, nbytes


def decode_array(meta, name: str, error=ValidationError) -> np.ndarray:
    """Inverse of :func:`encode_array`: a fresh array from its wire form.

    Malformed input raises *error* — the server's requests are a
    :class:`ValidationError`, the client's responses a
    :class:`ServeError`.

    >>> import numpy as np
    >>> decode_array(encode_array(np.array([1.5, -2.25])), "u")
    array([ 1.5 , -2.25])
    """
    shape, dtype, nbytes = _array_meta(meta, name, error)
    try:
        raw = base64.b64decode(meta["data"], validate=True)
    except Exception as exc:
        raise error(
            f"state entry {name!r} carries undecodable data: {exc}"
        ) from exc
    if len(raw) != nbytes:
        raise error(
            f"state entry {name!r}: got {len(raw)} bytes, expected {nbytes}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# -- state-shape inference ----------------------------------------------------


def state_shapes(nest, bindings: Bindings) -> dict[str, tuple[int, ...]]:
    """Smallest array shapes covering every access of *nest*.

    Walks each array access under the concrete loop bounds of
    *bindings* and returns, per array, the per-axis extent reached by
    the most-shifted access — what a client must allocate to serve the
    kernel.  Raises :class:`ValidationError` when an access reaches a
    negative index or an index does not reduce to ``counter + const``.

    >>> from repro.frontend import parse_stencil
    >>> from repro.runtime import Bindings
    >>> nest = parse_stencil(
    ...     "stencil s { iterate i = 1 .. n-2  u[i] += v[i+1] }")
    >>> state_shapes(nest, Bindings(sizes={"n": 8}))
    {'u': (7,), 'v': (8,)}
    """
    concrete = {
        c: (bindings.int_bound(nest.bounds[c][0]),
            bindings.int_bound(nest.bounds[c][1]))
        for c in nest.counters
    }
    shapes: dict[str, list[int]] = {}

    def visit(acc) -> None:
        name = acc.func.__name__
        dims = shapes.setdefault(name, [0] * len(acc.args))
        if len(dims) != len(acc.args):
            raise ValidationError(
                f"array {name!r} is accessed with inconsistent rank"
            )
        for axis, arg in enumerate(acc.args):
            arg = sp.sympify(arg)
            used = [c for c in nest.counters if c in arg.free_symbols]
            if len(used) > 1:
                raise ValidationError(
                    f"access {acc} mixes loop counters in one subscript"
                )
            if used:
                off = bindings.substitute(arg - used[0])
                if not off.is_Integer:
                    raise ValidationError(
                        f"access {acc} is not counter + constant on axis {axis}"
                    )
                lo = concrete[used[0]][0] + int(off)
                hi = concrete[used[0]][1] + int(off)
            else:
                val = bindings.substitute(arg)
                if not val.is_Integer:
                    raise ValidationError(
                        f"access {acc} has a non-constant subscript"
                    )
                lo = hi = int(val)
            if lo < 0:
                raise ValidationError(
                    f"access {acc} reaches negative index {lo} on axis {axis}"
                )
            dims[axis] = max(dims[axis], hi + 1)

    for st in nest.statements:
        visit(st.lhs)
        for acc in st.read_accesses():
            visit(acc)
    return {name: tuple(dims) for name, dims in sorted(shapes.items())}


def seeded_state(nest, bindings: Bindings, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic random state covering *nest* (for CLI and benches)."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(bindings.dtype)
    return {
        name: rng.standard_normal(shape).astype(dtype)
        for name, shape in state_shapes(nest, bindings).items()
    }


def _state_signature(arrays: Mapping[str, np.ndarray]) -> tuple:
    return tuple(
        (name, arrays[name].shape, arrays[name].dtype.str)
        for name in sorted(arrays)
    )


# -- leased shared memory -----------------------------------------------------


def _segment_identity(name: str) -> tuple[int, int] | None:
    """``(device, inode)`` of the object *name* names now; ``None`` when
    that cannot be told (no such segment, or no ``/dev/shm``)."""
    try:
        st = os.stat(os.path.join(_SHM_DIR, name))
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _detach(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except BufferError:  # pragma: no cover - a view still alive
        pass


def _attach_segment(
    attached: OrderedDict, name: str, nbytes: int, held
) -> shared_memory.SharedMemory:
    """The connection's mapping of segment *name*, attached on first use.

    *attached* maps segment name -> ``(mapping, identity)``.  A mapping
    is reused only while *name* still names the object it maps and it
    holds *nbytes*; the identity is read *before* attaching, so a name
    re-created in between costs one more attach, never a stale mapping.
    At most ``MAX_LEASES`` are kept, least-recently-used dropped first,
    never one the current request *held* already.
    """
    if name in held:  # a second array of this request in the same segment
        return attached[name][0]
    ident = _segment_identity(name)
    kept = attached.pop(name, None)
    if kept is not None:
        seg, was = kept
        if ident is not None and ident == was and seg.size >= nbytes:
            attached[name] = kept
            return seg
        _detach(seg)
    faults.check("server.shm.attach")
    seg = shared_memory.SharedMemory(name=name)
    attached[name] = (seg, ident)
    spare = [n for n in attached if n not in held and n != name]
    for victim in spare[: max(0, len(attached) - MAX_LEASES)]:
        _detach(attached.pop(victim)[0])
    return seg


# -- served kernels -----------------------------------------------------------


class _Warm:
    """One warm binding: persistent ``(members, *shape)`` arrays and the
    :class:`EnsemblePlan` bound over them once."""

    __slots__ = ("lock", "ensemble", "slots")

    def __init__(self, plan, sig: tuple, members: int) -> None:
        self.lock = threading.Lock()
        self.ensemble = EnsemblePlan(
            plan,
            {
                name: np.zeros((members, *shape), dtype=dtype)
                for name, shape, dtype in sig
            },
        )
        # Member m's arrays, as views into the stacked ones.
        self.slots = [self.ensemble.member_arrays(m) for m in range(members)]

    def run(self, batch: list["_Pending"], steps: int) -> None:
        """Copy each request into its member slot, run, copy out.

        Request arrays are written only after the last step, so a
        failure mid-run leaves every batchmate's arrays untouched."""
        with self.lock:
            for slot, pending in zip(self.slots, batch):
                for name, arr in pending.arrays.items():
                    np.copyto(slot[name], arr)
            for _ in range(steps):
                self.ensemble.run()
            for slot, pending in zip(self.slots, batch):
                for name, arr in pending.arrays.items():
                    np.copyto(arr, slot[name])


class _ServedKernel:
    """A registered kernel: nest + bindings, compiled lazily, kept warm."""

    def __init__(self, kernel_id: str, nest, bindings: Bindings) -> None:
        self.kernel_id = kernel_id
        self.nest = nest
        self.bindings = bindings
        self.required = set(nest.written_arrays()) | set(nest.read_arrays())
        self._lock = threading.Lock()
        self._kernel = None
        self._shapes: dict[str, tuple[int, ...]] | None = None
        self._warm: OrderedDict[tuple, _Warm] = OrderedDict()

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """:func:`state_shapes` of the kernel, computed on first use.  A
        failure is not kept: a bad kernel fails every request alike."""
        if self._shapes is None:
            self._shapes = state_shapes(self.nest, self.bindings)
        return self._shapes

    def kernel(self):
        with self._lock:
            if self._kernel is None:
                self._kernel = compile_nests(
                    [self.nest], self.bindings,
                    name=self.nest.name or "served",
                )
            return self._kernel

    def warm(self, backend: str, sig: tuple, members: int) -> _Warm:
        """The warm binding for a group of *members* requests of one
        state signature; bound on first use, at most ``MAX_WARM`` kept."""
        key = (backend, sig, members)
        with self._lock:
            warm = self._warm.get(key)
            if warm is not None:
                self._warm.move_to_end(key)
                return warm
        plan = self.kernel().plan(backend=backend)  # may compile: outside our lock
        with self._lock:
            warm = self._warm.get(key)
            if warm is None:
                warm = self._warm[key] = _Warm(plan, sig, members)
                while len(self._warm) > MAX_WARM:
                    self._warm.popitem(last=False)
            return warm


class _Pending:
    """One decoded run request: the unit a group is made of."""

    __slots__ = (
        "served", "backend", "steps", "arrays", "shm",
        "sig", "event", "meta", "error",
    )

    def __init__(self, served: _ServedKernel, backend: str, steps: int):
        self.served = served
        self.backend = backend
        self.steps = steps
        self.arrays: dict[str, np.ndarray] = {}
        self.shm: dict[str, str] = {}  # array name -> its segment's name
        self.sig: tuple = ()
        self.event = threading.Event()
        self.meta: dict | None = None
        self.error: BaseException | None = None

    @property
    def group_key(self) -> tuple:
        return (self.served.kernel_id, self.backend, self.steps, self.sig)

    def release(self) -> None:
        """Drop the array views; the segments they map stay attached to
        the connection."""
        self.arrays.clear()


def _error_payload(exc: BaseException) -> dict:
    if not isinstance(exc, ReproError):
        exc = ServeError(f"{type(exc).__name__}: {exc}")
    return {
        "status": "error",
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": exc.exit_code,
    }


# -- the daemon ---------------------------------------------------------------


class KernelServer:
    """Compile-and-serve daemon over a Unix-domain socket.

    Parameters
    ----------
    socket_path:
        Filesystem path to listen on; created on :meth:`start`,
        unlinked on :meth:`close`.
    workers:
        Most request groups executing at once.
    max_batch:
        A group flushes as soon as it holds this many requests.
    batch_window_ms:
        How long the oldest request of a group may wait for batchmates
        before the group flushes; ``0`` disables coalescing.
    limits:
        :class:`SpecLimits` applied to every inbound spec (``None``
        trusts the peer — only for in-process tests).
    request_timeout:
        Seconds a request waits for the group it joined to be executed
        by its leader before answering with a typed timeout error.
    """

    def __init__(
        self,
        socket_path: str,
        *,
        workers: int = 2,
        max_batch: int = 8,
        batch_window_ms: float = 2.0,
        limits: SpecLimits | None = DEFAULT_SPEC_LIMITS,
        request_timeout: float = 300.0,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window_ms < 0:
            raise ValidationError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        self.socket_path = str(socket_path)
        self.workers = workers
        self.max_batch = max_batch
        self.batch_window = batch_window_ms / 1000.0
        self.limits = limits
        self.request_timeout = request_timeout
        self._lock = threading.Lock()
        self._kernels: OrderedDict[str, _ServedKernel] = OrderedDict()
        # Open groups by group key.  batch[0] is the leader, and its
        # event is the group's: set when the group fills or the server
        # closes, to cut the leader's window wait short.
        self._groups: dict[tuple, list[_Pending]] = {}
        self._slots = threading.BoundedSemaphore(workers)
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._running = False
        self._closed = False
        self._stop_event = threading.Event()
        self._counters = {
            "requests": 0,
            "ok": 0,
            "errors": 0,
            "batched_runs": 0,
            "batched_requests": 0,
            "single_runs": 0,
            "batch_fallbacks": 0,
            "accept_drops": 0,
            "max_batch_seen": 0,
        }
        self._last_batch: dict | None = None
        self._last_batch_fallback: str | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and launch the accept thread."""
        if self._listener is not None:
            raise ServeError("server already started")
        path = Path(self.socket_path)
        if path.exists():
            path.unlink()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(64)
        self._listener = listener
        self._running = True
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._acceptor.start()

    def wait(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`close`) arrives."""
        self._stop_event.wait()

    def _stop_accepting(self) -> None:
        self._running = False
        self._stop_event.set()
        if self._listener is not None:
            try:
                # Wakes the acceptor's blocking accept(); close() alone
                # does not.  Fails harmlessly once the listener is closed.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass

    def close(self) -> None:
        """Stop serving, answer what is in flight, join threads, drop
        the served kernels, unlink the socket.  Idempotent; waits at
        most 10 s for threads in all."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop_accepting()
        deadline = time.monotonic() + 10.0

        def join(thread: threading.Thread) -> None:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

        if self._acceptor is not None:
            join(self._acceptor)
        with self._lock:
            conns = dict(self._conns)
            for batch in self._groups.values():
                batch[0].event.set()  # flush open windows now
        for conn in conns:
            # Wake idle readers with EOF; the write side stays open so
            # a request in flight still gets its reply.
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in conns.values():
            join(thread)
        with self._lock:
            # Compiled code and warm arrays go now, not with the last
            # reference to a server that can never serve again.
            self._kernels.clear()
        try:
            Path(self.socket_path).unlink()
        except OSError:
            pass

    def __enter__(self) -> "KernelServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Service counters (the plan-level batching evidence)."""
        with self._lock:
            out = dict(self._counters)
            out["kernels"] = len(self._kernels)
            out["last_batch"] = (
                dict(self._last_batch) if self._last_batch else None
            )
            out["last_batch_fallback"] = self._last_batch_fallback
        out["workers"] = self.workers
        out["max_batch"] = self.max_batch
        out["batch_window_ms"] = self.batch_window * 1000.0
        return out

    # -- accept / connection handling ---------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # shut down by _stop_accepting
                break
            try:
                faults.check("server.accept")
            except Exception:
                # Degradation contract "fallback": drop only this
                # connection; the client reconnects and is served
                # bitwise-identically.
                with self._lock:
                    self._counters["accept_drops"] += 1
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                continue
            thread = threading.Thread(
                target=self._handle_conn,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._lock:
                self._conns[conn] = thread
            thread.start()

    def _handle_conn(self, conn: socket.socket) -> None:
        # This connection's segment attachments: name -> (mapping,
        # identity), kept from request to request until it closes.
        attached: OrderedDict = OrderedDict()
        try:
            while self._running:
                try:
                    msg = recv_frame(conn)
                except ServeError as exc:
                    # Framing violation: answer (best effort), then drop
                    # the connection — resync is impossible mid-stream.
                    try:
                        send_frame(conn, _error_payload(exc))
                    except OSError:
                        pass
                    break
                if msg is None:
                    break
                op = msg.get("op")
                try:
                    resp = self._handle_op(op, msg, attached)
                except Exception as exc:  # typed per-request status
                    resp = _error_payload(exc)
                send_frame(conn, resp)
                if op == "shutdown" and resp.get("status") == "ok":
                    break
        except OSError:
            pass
        finally:
            while attached:
                _detach(attached.popitem()[1][0])
            with self._lock:
                self._conns.pop(conn, None)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _handle_op(self, op, msg: dict, attached: OrderedDict) -> dict:
        if op == "ping":
            return {"status": "ok", "op": "ping"}
        if op == "stats":
            return {"status": "ok", "stats": self.stats()}
        if op == "compile":
            if not isinstance(msg.get("spec"), str):
                raise ValidationError("compile request needs a 'spec' string")
            served = self._resolve_kernel(msg)
            return {"status": "ok", "kernel_id": served.kernel_id}
        if op == "shutdown":
            self._stop_accepting()
            return {"status": "ok", "op": "shutdown"}
        if op == "run":
            return self._serve_run(msg, attached)
        raise ValidationError(f"unknown op {op!r}")

    # -- request decoding ----------------------------------------------------

    def _resolve_kernel(self, msg: dict) -> _ServedKernel:
        spec = msg.get("spec")
        if spec is not None:
            if not isinstance(spec, str):
                raise ValidationError("'spec' must be a string")
            sizes = _validated_mapping(msg.get("sizes"), "sizes", int)
            params = _validated_mapping(msg.get("params"), "params", float)
            dtype_tag = msg.get("dtype", "f64")
            if dtype_tag not in _DTYPES:
                raise ValidationError(
                    f"dtype must be one of {sorted(_DTYPES)}, got {dtype_tag!r}"
                )
            nest = parse_stencil(spec, limits=self.limits)
            missing = [
                s.name for s in nest.size_symbols() if s.name not in sizes
            ]
            if missing:
                raise ValidationError(f"unbound size symbols: {missing}")
            missing = [
                s.name for s in nest.scalar_parameters()
                if s.name not in params
            ]
            if missing:
                raise ValidationError(f"unbound scalar parameters: {missing}")
            bindings = Bindings(
                sizes=sizes, params=params, dtype=_DTYPES[dtype_tag]
            )
            name = nest.name or "served"
            kid = kernel_key([nest], bindings, name)
            with self._lock:
                served = self._kernels.get(kid)
                if served is None:
                    served = self._kernels[kid] = _ServedKernel(kid, nest, bindings)
                    while len(self._kernels) > MAX_KERNELS:
                        self._kernels.popitem(last=False)
                else:
                    self._kernels.move_to_end(kid)
            return served
        kid = msg.get("kernel_id")
        if not isinstance(kid, str):
            raise ValidationError("run request needs 'spec' or 'kernel_id'")
        with self._lock:
            served = self._kernels.get(kid)
            if served is not None:
                self._kernels.move_to_end(kid)
        if served is None:
            raise ValidationError(
                f"unknown kernel_id {kid[:16]!r}...; send the spec once first"
            )
        return served

    def _attach_state(
        self, state, pending: _Pending, attached: OrderedDict
    ) -> None:
        """Decode every inline array of *state* into *pending*, and map
        every shared-memory one through the connection's *attached*."""
        if not isinstance(state, dict) or not state:
            raise ValidationError(
                "run request needs a non-empty 'state' mapping"
            )
        for name in sorted(state):
            if not isinstance(name, str) or not name.isidentifier():
                raise ValidationError(f"bad array name {name!r}")
            meta = state[name]
            if not (isinstance(meta, dict) and "shm" in meta):
                pending.arrays[name] = decode_array(meta, name)
                continue
            shape, dtype, nbytes = _array_meta(meta, name)
            segment = meta["shm"]
            if not (
                isinstance(segment, str) and _SEGMENT_NAME.fullmatch(segment)
            ):
                raise ValidationError(
                    f"array {name!r} names a bad segment {segment!r:.64}"
                )
            try:
                seg = _attach_segment(
                    attached, segment, nbytes, set(pending.shm.values())
                )
            except Exception as exc:
                # Contract "typed-error": this request fails with one
                # ReproError; batchmates are untouched since attach
                # happens before grouping.
                raise ServeError(
                    f"cannot attach shared-memory segment "
                    f"{segment!r} for array {name!r}: {exc}"
                ) from exc
            if seg.size < nbytes:
                raise ServeError(
                    f"segment {segment!r} holds {seg.size} bytes,"
                    f" array {name!r} needs {nbytes}"
                )
            pending.arrays[name] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
            pending.shm[name] = segment

    def _decode_run(self, msg: dict, attached: OrderedDict) -> _Pending:
        steps = msg.get("steps", 1)
        if not isinstance(steps, int) or not 1 <= steps <= 1_000_000:
            raise ValidationError(
                f"steps must be an int in [1, 1000000], got {steps!r}"
            )
        backend = msg.get("backend", "python")
        if backend not in ("python", "native"):
            raise ValidationError(
                f"backend must be 'python' or 'native', got {backend!r}"
            )
        served = self._resolve_kernel(msg)
        pending = _Pending(served, backend, steps)
        try:
            self._attach_state(msg.get("state"), pending, attached)
            arrays = pending.arrays
            missing = sorted(served.required - set(arrays))
            if missing:
                raise ValidationError(
                    f"state is missing kernel arrays: {missing}"
                )
            shapes = served.shapes()
            want_dtype = np.dtype(served.bindings.dtype)
            for name, minimal in shapes.items():
                arr = arrays[name]
                if arr.ndim != len(minimal) or any(
                    have < need for have, need in zip(arr.shape, minimal)
                ):
                    raise ValidationError(
                        f"array {name!r} has shape {arr.shape}, kernel "
                        f"needs at least {minimal}"
                    )
                if arr.dtype != want_dtype:
                    raise ValidationError(
                        f"array {name!r} has dtype {arr.dtype.str}, kernel "
                        f"is bound for {want_dtype.str}"
                    )
            pending.sig = _state_signature(arrays)
        except BaseException:
            pending.release()
            raise
        return pending

    # -- run execution -------------------------------------------------------

    def _serve_run(self, msg: dict, attached: OrderedDict) -> dict:
        with self._lock:
            self._counters["requests"] += 1
        try:
            pending = self._decode_run(msg, attached)
        except Exception:
            with self._lock:
                self._counters["errors"] += 1
            raise
        try:
            self._execute(pending)
            resp = self._build_response(pending)
        finally:
            pending.release()
        with self._lock:
            key = "ok" if resp.get("status") == "ok" else "errors"
            self._counters[key] += 1
        return resp

    def _build_response(self, pending: _Pending) -> dict:
        if pending.error is not None:
            return _error_payload(pending.error)
        state_meta: dict[str, dict] = {}
        for name in sorted(pending.arrays):
            arr = pending.arrays[name]
            if name in pending.shm:
                # Zero-copy: the result was written into the segment in
                # place; echo the reference, not the bytes.
                state_meta[name] = {
                    "shape": list(arr.shape),
                    "dtype": arr.dtype.str,
                    "shm": pending.shm[name],
                }
            else:
                state_meta[name] = encode_array(arr)
        meta = pending.meta or {}
        return {
            "status": "ok",
            "kernel_id": pending.served.kernel_id,
            "steps": pending.steps,
            "batched": meta.get("batched", False),
            "batch_size": meta.get("batch_size", 1),
            "state": state_meta,
        }

    def _execute(self, pending: _Pending) -> None:
        """Lead *pending*'s group on this thread, or follow an open one.

        Returns with ``pending.meta`` or ``pending.error`` set.  The
        leader — the first request of its group key, and every request
        when coalescing is off — holds the group open for the batch
        window, then runs it here, on its connection's thread; a
        follower's only hand-off is the wait for that run.
        """
        key = pending.group_key
        with self._lock:
            batch = self._groups.get(key)
            leads = batch is None
            if leads:
                batch = [pending]
                coalesce = self._running and self.max_batch > 1
                window = self.batch_window if coalesce else 0.0
                if window:
                    self._groups[key] = batch
            else:
                batch.append(pending)
                if len(batch) >= self.max_batch:
                    del self._groups[key]
                    batch[0].event.set()  # full: the leader need not wait
        if not leads:
            if not pending.event.wait(self.request_timeout):
                pending.error = ServeError(
                    f"request timed out after {self.request_timeout}s"
                )
            return
        failure: BaseException | None = None
        try:
            if window:
                pending.event.wait(window)
                with self._lock:
                    if self._groups.get(key) is batch:
                        del self._groups[key]
            with self._slots:
                self._run_group(batch)
        except Exception as exc:
            failure = exc
        finally:
            # Whatever happened above, nobody waits out request_timeout
            # for a leader that is gone.
            for member in batch:
                if member.meta is None and member.error is None:
                    member.error = failure or ServeError(
                        "the request's group leader stopped before running it"
                    )
                member.event.set()

    def _run_group(self, batch: list[_Pending]) -> None:
        """Execute one flushed group, of any size, on its warm binding."""
        first, size = batch[0], len(batch)
        try:
            if size > 1:
                faults.check("server.batch.bind")
            warm = first.served.warm(first.backend, first.sig, size)
            warm.run(batch, first.steps)
        except Exception as exc:
            if size == 1:
                first.error = exc
                return
            # Contract "fallback": a group that cannot bind (or fails
            # mid-run — request arrays are written only at copy-out)
            # degrades to its members as groups of one.  A deterministic
            # per-request failure then surfaces on that request alone:
            # batchmates are never poisoned.
            with self._lock:
                self._counters["batch_fallbacks"] += 1
                self._last_batch_fallback = (
                    f"{type(exc).__name__}: {exc}"[:200]
                )
            for pending in batch:
                self._run_group([pending])
            return
        for pending in batch:
            pending.meta = {"batched": size > 1, "batch_size": size}
        with self._lock:
            if size == 1:
                self._counters["single_runs"] += 1
                return
            self._counters["batched_runs"] += 1
            self._counters["batched_requests"] += size
            self._counters["max_batch_seen"] = max(
                self._counters["max_batch_seen"], size
            )
            ensemble = warm.ensemble
            self._last_batch = {
                "members": ensemble.members,
                "kernel_id": first.served.kernel_id,
                "batched_statements": ensemble.batched_statement_count,
                "native_statements": ensemble.native_statement_count,
                "member_statements": ensemble.member_statement_count,
            }


def _validated_mapping(raw, label: str, cast) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValidationError(f"{label!r} must be an object")
    out = {}
    for key, value in raw.items():
        try:
            out[str(key)] = cast(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"{label}[{key!r}] is not a {cast.__name__}: {exc}"
            ) from exc
    return out
