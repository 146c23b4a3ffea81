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
length, that many bytes of UTF-8 JSON (one object), then the raw bytes
its ``"payload"`` announces — at most ``MAX_FRAME_BYTES`` in all.  A
request's ``op`` is ``run``, ``compile``, ``ping``, ``stats`` or
``shutdown``.  A ``run`` names its kernel by inline ``spec`` source plus
``sizes``/``params``/``dtype`` — parsed under
:class:`~repro.core.validate.SpecLimits`, as an untrusted input, once
per SHA-256 digest and limits (at most ``MAX_KERNELS`` kept) — or by
the ``kernel_id`` a previous response returned.  State arrays travel
inline, as views into the frame's payload sent back in one gather
write, or zero-copy as leased ``multiprocessing.shared_memory``
segments: the client reuses them, and the server keeps each mapping
for the connection's life without registering it with its resource
tracker (only the client unlinks).  ``docs/serving.md`` specifies the
frame and message formats in full.

Batching semantics
------------------

Requests are grouped by ``(kernel_id, backend, steps, state
signature)`` on the connection threads themselves.  A group's first
request, its *leader*, holds it open for at most ``batch_window_ms`` —
no longer once every other open connection is *parked* (leading,
following or running a group, so none is left to join) or the group
holds ``max_batch`` — then runs it on its own thread; every later
request is a *follower* that appends itself and waits for the result.
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
import hashlib
import json
import math
import mmap
import os
import re
import socket
import struct
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Mapping

import numpy as np
import sympy as sp

from ..core.loopnest import LoopNest
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
    "Frame",
    "decode_array",
    "encode_array",
    "inline_arrays",
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
#: first" reply, which is already the client's recovery path.  The same
#: cap bounds the memo of parsed specs; an evicted spec parses again.
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

#: Every inline array starts at a multiple of this many payload bytes.
_ALIGN = 8
_PADDING = bytes(_ALIGN)

#: Most buffers handed to one ``sendmsg`` call (Linux's ``IOV_MAX`` is
#: 1024); a longer gather write is split.
_IOV_MAX = 512


class Frame(dict):
    """One received message: its JSON object, plus :attr:`payload` —
    the raw bytes that followed it (empty when it announced none)."""

    __slots__ = ("payload",)


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


def _recv_payload(sock: socket.socket, size: int) -> bytearray:
    """Read a frame's *size* payload bytes into one buffer, in place."""
    payload = bytearray(size)
    view = memoryview(payload)
    got = 0
    while got < size:
        n = sock.recv_into(view[got:])
        if not n:
            raise ServeError(f"connection closed mid-payload ({got}/{size} bytes)")
        got += n
    return payload


def recv_frame(sock: socket.socket) -> Frame | None:
    """Read one frame; None on clean EOF.

    The JSON object's ``"payload"`` (an int, 0 when absent) announces
    how many raw bytes follow it; they are read with ``recv_into`` into
    one ``bytearray``, :attr:`Frame.payload`.  Every framing violation —
    a truncated frame, bad JSON, a payload size that is not an int in
    ``[0, MAX_FRAME_BYTES - JSON length]`` — is a :class:`ServeError`
    raised before any buffer of the announced size exists.
    """
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
    size = message.get("payload", 0)
    if type(size) is not int or not 0 <= size <= MAX_FRAME_BYTES - length:
        raise ServeError(
            f"frame payload {size!r:.32} must be an int in "
            f"[0, {MAX_FRAME_BYTES - length}] (the {MAX_FRAME_BYTES}-byte "
            f"cap less the JSON)"
        )
    frame = Frame(message)
    frame.payload = _recv_payload(sock, size)
    return frame


def _send_all(sock: socket.socket, buffers: list) -> None:
    """One gather write of *buffers*, looping on partial sends."""
    views = [memoryview(b) for b in buffers]
    i = 0
    while i < len(views):
        sent = sock.sendmsg(views[i : i + _IOV_MAX])
        while i < len(views) and sent >= views[i].nbytes:
            sent -= views[i].nbytes
            i += 1
        if sent:
            views[i] = views[i][sent:]


def send_frame(sock: socket.socket, message: Mapping) -> None:
    """Serialise *message* and write it as one frame.

    NumPy arrays among the values of ``message["state"]`` travel as raw
    bytes: each becomes an inline entry ``{"shape", "dtype"}``, their
    bytes follow the JSON in sorted-name order, each padded to a
    multiple of 8, and ``"payload"`` carries the padded total.  The
    arrays are written straight from their own buffers in one gather
    write — nothing joins them first.
    """
    buffers: list = []
    size = 0
    state = message.get("state")
    if isinstance(state, Mapping):
        entries = {}
        for name in sorted(state):
            value = state[name]
            if not isinstance(value, np.ndarray):
                entries[name] = value
                continue
            arr = np.ascontiguousarray(value)
            entries[name] = {"shape": list(arr.shape), "dtype": arr.dtype.str}
            pad = -arr.nbytes % _ALIGN
            if arr.nbytes:
                buffers.append(arr.reshape(-1).view(np.uint8))
            if pad:
                buffers.append(_PADDING[:pad])
            size += arr.nbytes + pad
        message = {**message, "state": entries, "payload": size}
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(body) + size > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {len(body) + size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    _send_all(sock, [_HEADER.pack(len(body)) + body, *buffers])


def inline_arrays(state, payload, error=ValidationError) -> dict[str, np.ndarray]:
    """The inline arrays of a received ``state`` mapping, as views into
    the frame's *payload* — the inverse of :func:`send_frame`.

    Entries carrying ``"shm"`` are skipped.  The others are laid out in
    sorted-name order, each at a multiple of 8 bytes, and their padded
    total must equal the payload's length exactly.  Malformed input
    raises *error* — the server's requests a :class:`ValidationError`,
    the client's responses a :class:`ServeError`.

    >>> import numpy as np
    >>> payload = bytearray(np.array([1.5, -2.25]).tobytes())
    >>> inline_arrays({"u": {"shape": [2], "dtype": "<f8"}}, payload)
    {'u': array([ 1.5 , -2.25])}
    """
    if not isinstance(state, dict):
        raise error("'state' must be an object")
    layout = []
    size = 0
    for name in sorted(state):
        meta = state[name]
        if isinstance(meta, dict) and "shm" in meta:
            continue
        if isinstance(meta, dict) and "data" in meta:
            raise error(
                f"state entry {name!r} carries base64 'data': inline arrays "
                f"travel as raw bytes in the frame's payload"
            )
        shape, dtype, nbytes = _array_meta(meta, name, error)
        layout.append((name, shape, dtype, size))
        size += nbytes + -nbytes % _ALIGN
    if size != len(payload):
        raise error(
            f"the inline state needs a frame payload of {size} bytes, "
            f"the frame carries {len(payload)}"
        )
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=payload, offset=offset)
        for name, shape, dtype, offset in layout
    }


# -- array codec --------------------------------------------------------------


def encode_array(arr: np.ndarray) -> dict:
    """Base64 form of *arr*: raw bytes, base64 — bitwise exact.  The
    wire no longer uses it (inline state travels in the frame's raw
    payload, see :func:`send_frame`); it stays for callers that want a
    JSON-only form.

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
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > MAX_FRAME_BYTES:
        raise error(f"state entry {name!r} is {nbytes} bytes, over the cap")
    return shape, dtype, nbytes


def decode_array(meta, name: str, error=ValidationError) -> np.ndarray:
    """Inverse of :func:`encode_array`: a fresh array from its base64 form.

    Malformed input raises *error* (a :class:`ValidationError` unless
    the caller names another).

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


def _map_segment(name: str) -> tuple[mmap.mmap, tuple[int, int]]:
    """Map segment *name*; returns the mapping and the identity of the
    object it maps, read from the same descriptor.

    ``SharedMemory(name=...)`` would register the segment with this
    process's resource tracker (before Python 3.13), which unlinks it
    when this process exits — while the client that owns it still
    leases it.  Opening the ``/dev/shm`` entry directly registers
    nothing, and the mapping holds no descriptor once made.
    """
    fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDWR)
    try:
        st = os.fstat(fd)
        return mmap.mmap(fd, st.st_size), (st.st_dev, st.st_ino)
    finally:
        os.close(fd)


def _detach(seg: mmap.mmap) -> None:
    try:
        seg.close()
    except BufferError:  # pragma: no cover - a view still alive
        pass


def _attach_segment(
    attached: OrderedDict, name: str, nbytes: int, held
) -> mmap.mmap:
    """The connection's mapping of segment *name*, attached on first use.

    *attached* maps segment name -> ``(mapping, identity)``.  A mapping
    is reused only while *name* still names the object it maps and it
    holds *nbytes*; a name re-created since costs one more attach, never
    a stale mapping.  At most ``MAX_LEASES`` are kept, least-recently-used
    dropped first, never one the current request *held* already.
    """
    if name in held:  # a second array of this request in the same segment
        return attached[name][0]
    kept = attached.pop(name, None)
    if kept is not None:
        seg, was = kept
        if _segment_identity(name) == was and len(seg) >= nbytes:
            attached[name] = kept
            return seg
        _detach(seg)
    faults.check("server.shm.attach")
    attached[name] = _map_segment(name)
    spare = [n for n in attached if n not in held and n != name]
    for victim in spare[: max(0, len(attached) - MAX_LEASES)]:
        _detach(attached.pop(victim)[0])
    return attached[name][0]


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

    def release(self) -> None:
        """Drop the warm bindings and the compiled kernel's memos: the
        server evicted this kernel or closed.  Takes no lock (the caller
        holds the server's, and a compile may hold ours); a request
        still running keeps what it holds."""
        self._warm = OrderedDict()
        if self._kernel is not None:
            self._kernel.release()

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
        Longest the oldest request of a group waits for batchmates; it
        stops waiting once every other connection is parked.  ``0``
        disables coalescing.
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
        for name, value, least in (
            ("workers", workers, 1),
            ("max_batch", max_batch, 1),
            ("batch_window_ms", batch_window_ms, 0),
        ):
            if value < least:
                raise ValidationError(f"{name} must be >= {least}, got {value}")
        self.socket_path = str(socket_path)
        self.workers = workers
        self.max_batch = max_batch
        self.batch_window = batch_window_ms / 1000.0
        self.limits = limits
        self.request_timeout = request_timeout
        self._lock = threading.Lock()
        self._kernels: OrderedDict[str, _ServedKernel] = OrderedDict()
        # Parsed specs by (sha256 of the spec, limits): see _parse.
        self._nests: OrderedDict[tuple, tuple] = OrderedDict()
        # Open groups by group key.  batch[0] is the leader, and its
        # event is the group's: set when the group fills, when no other
        # connection can join it or when the server closes, to cut the
        # leader's window wait short.
        self._groups: dict[tuple, list[_Pending]] = {}
        # Members of open or running groups: see _flush_windows.
        self._parked = 0
        self._slots = threading.BoundedSemaphore(workers)
        # Open connections, each removed by its thread as it ends; and
        # every connection thread started (the accept loop prunes the
        # finished ones), which close() joins: a thread that has left
        # _conns may still be cleaning up.
        self._conns: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
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
            conns = list(self._conns)
            threads = list(self._threads)
            self._flush_windows(force=True)
        for conn in conns:
            # Wake idle readers with EOF; the write side stays open so
            # a request in flight still gets its reply.
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in threads:
            join(thread)
        with self._lock:
            # Compiled code and warm arrays go now, not with the last
            # reference to a server that can never serve again.
            for served in self._kernels.values():
                served.release()
            self._kernels.clear()
            self._nests.clear()
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
            out["last_batch"] = self._last_batch and dict(self._last_batch)
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
                self._conns.add(conn)
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
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
                self._conns.discard(conn)
                self._flush_windows()
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _handle_op(self, op, msg: Frame, attached: OrderedDict) -> dict:
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

    def _parse(self, spec: str) -> tuple[LoopNest, list[str], list[str]]:
        """*spec* parsed under ``self.limits``, memoised with the names of
        its size symbols and scalar parameters.

        The key is the spec's SHA-256 digest, not its text (so the memo
        pins no peer-sized strings), and the limits in force: tightening
        them makes every spec parse — and be judged — again.  At most
        ``MAX_KERNELS`` are kept, least-recently-used evicted first;
        only successful parses, so a bad spec raises the same typed
        error on every request.  The parse runs outside the lock; of two
        concurrent misses that both parse, the first insert wins.
        """
        limits = self.limits
        # A JSON string may hold lone surrogates; hash them rather than
        # fail here, and let the parser reject them as it always has.
        key = (
            hashlib.sha256(spec.encode("utf-8", "surrogatepass")).digest(),
            limits,
        )
        with self._lock:
            entry = self._nests.get(key)
            if entry is not None:
                self._nests.move_to_end(key)
                return entry
        nest = parse_stencil(spec, limits=limits)
        entry = (nest, [s.name for s in nest.size_symbols()],
                 [s.name for s in nest.scalar_parameters()])
        with self._lock:
            entry = self._nests.setdefault(key, entry)
            while len(self._nests) > MAX_KERNELS:
                self._nests.popitem(last=False)
        return entry

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
            nest, size_names, param_names = self._parse(spec)
            for what, names, given in (
                ("size symbols", size_names, sizes),
                ("scalar parameters", param_names, params),
            ):
                missing = [name for name in names if name not in given]
                if missing:
                    raise ValidationError(f"unbound {what}: {missing}")
            bindings = Bindings(
                sizes=sizes, params=params, dtype=_DTYPES[dtype_tag]
            )
            kid = kernel_key([nest], bindings, nest.name or "served")
            with self._lock:
                served = self._kernels.get(kid)
                if served is None:
                    served = self._kernels[kid] = _ServedKernel(kid, nest, bindings)
                    while len(self._kernels) > MAX_KERNELS:
                        self._kernels.popitem(last=False)[1].release()
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
        self, msg: Frame, pending: _Pending, attached: OrderedDict
    ) -> None:
        """View every inline array of *msg*'s state in its payload, and
        map every shared-memory one through the connection's *attached*,
        into *pending*."""
        state = msg.get("state")
        if not isinstance(state, dict) or not state:
            raise ValidationError(
                "run request needs a non-empty 'state' mapping"
            )
        for name in state:
            if not name.isidentifier():
                raise ValidationError(f"bad array name {name!r}")
        pending.arrays.update(inline_arrays(state, msg.payload))
        for name in sorted(state):
            meta = state[name]
            if name in pending.arrays:
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
            if len(seg) < nbytes:
                raise ServeError(
                    f"segment {segment!r} holds {len(seg)} bytes,"
                    f" array {name!r} needs {nbytes}"
                )
            pending.arrays[name] = np.ndarray(shape, dtype=dtype, buffer=seg)
            pending.shm[name] = segment

    def _decode_run(self, msg: Frame, attached: OrderedDict) -> _Pending:
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
            self._attach_state(msg, pending, attached)
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

    def _serve_run(self, msg: Frame, attached: OrderedDict) -> dict:
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
        # Inline results were copied back into the request's own payload
        # views, and send_frame writes those buffers after the JSON;
        # shared-memory ones were written into their segments in place,
        # so the reply echoes the reference, not the bytes.
        state_meta = {
            name: {"shape": list(arr.shape), "dtype": arr.dtype.str,
                   "shm": pending.shm[name]} if name in pending.shm else arr
            for name, arr in pending.arrays.items()
        }
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
        when coalescing is off — holds the group open for at most the
        batch window, then runs it here, on its connection's thread; a
        follower's only hand-off is the wait for that run.  A group's
        members count as parked until its leader's run is over.
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
            if not leads or window:  # parked in an open group
                self._parked += 1
                self._flush_windows()
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
            if window:  # the group is closed: its size is final
                with self._lock:
                    self._parked -= len(batch)
            # Whatever happened above, nobody waits out request_timeout
            # for a leader that is gone.
            for member in batch:
                if member.meta is None and member.error is None:
                    member.error = failure or ServeError(
                        "the request's group leader stopped before running it"
                    )
                member.event.set()

    def _flush_windows(self, force: bool = False) -> None:
        """Under the lock: end every open group's window — on *force*, or
        once every open connection is parked, since none is left to join."""
        if force or self._parked >= len(self._conns):
            for batch in self._groups.values():
                batch[0].event.set()

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
