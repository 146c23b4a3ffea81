"""Client for the kernel-as-a-service daemon (:mod:`repro.runtime.server`).

A :class:`KernelClient` holds one persistent Unix-domain connection and
speaks the length-prefixed frame protocol: a JSON header, then raw
bytes.  State arrays at or above
``shm_threshold`` bytes travel through ``multiprocessing.shared_memory``
segments the client owns end to end: it *leases* them — creates one
per page-rounded byte size on first use, reuses it on every later
request that got an ``ok`` reply, and unlinks it on :meth:`close`, on a
failed request, or when the pool passes ``MAX_LEASES``; smaller
arrays travel inline as the frame's raw payload, bitwise-exact, through
the server's one frame codec: :func:`~repro.runtime.server.send_frame`
writes them from the caller's own buffers in one gather write, and the
result arrays are views into the one buffer
:func:`~repro.runtime.server.recv_frame` received the reply's payload
into (:func:`~repro.runtime.server.inline_arrays`).

Error responses are re-raised as the matching typed
:class:`~repro.errors.ReproError` subclass, so remote failures are
caught exactly like local ones; transport failures become
:class:`~repro.errors.ServeError`.  A connection dropped before any
response (e.g. the chaos suite firing ``server.accept``) is retried
transparently — but only for requests without shared-memory state,
whose re-run is trivially idempotent because the server only ever
mutated private copies.

>>> from repro.runtime.client import KernelClient
>>> KernelClient("/tmp/no-such.sock").ping()   # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
ServeError: ...
"""

from __future__ import annotations

import mmap
import socket
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

from .. import errors
from ..errors import ServeError, ValidationError
from .server import MAX_LEASES, Frame, inline_arrays, recv_frame, send_frame

__all__ = ["KernelClient", "ServeResult"]

#: Remote error-type names mapped back onto the local typed hierarchy:
#: every class ``repro.errors`` exports under its own name, plus the
#: front-end's ValidationError subclasses (defined beside the lexer,
#: parser and validator) under theirs.
_ERROR_TYPES = {name: getattr(errors, name) for name in errors.__all__}
_ERROR_TYPES.update(
    dict.fromkeys(
        ("ParseError", "LexError", "StencilRestrictionError"), ValidationError
    )
)


@dataclass(frozen=True)
class ServeResult:
    """One served run: fresh result arrays plus batching evidence."""

    state: dict[str, np.ndarray]
    kernel_id: str
    batched: bool
    batch_size: int
    steps: int


class KernelClient:
    """One connection to a :class:`~repro.runtime.server.KernelServer`.

    Parameters
    ----------
    socket_path:
        The daemon's Unix-domain socket.
    shm_threshold:
        Arrays of at least this many bytes ship via shared memory;
        ``None`` forces the inline path.
    timeout:
        Socket timeout per protocol exchange, seconds.
    retries:
        Reconnect attempts after a connection dropped before any
        response bytes (shared-memory requests are never retried).
    """

    def __init__(
        self,
        socket_path: str,
        *,
        shm_threshold: int | None = 1 << 15,
        timeout: float = 300.0,
        retries: int = 1,
    ) -> None:
        self.socket_path = str(socket_path)
        self.shm_threshold = shm_threshold
        self.timeout = timeout
        self.retries = max(0, retries)
        self._sock: socket.socket | None = None
        # Leased segments by byte size, least recently used first.
        self._leases: OrderedDict[int, list[shared_memory.SharedMemory]] = (
            OrderedDict()
        )
        # Safety net for a client that is never closed.
        self._finalizer = weakref.finalize(self, _release, self._leases)

    # -- connection management ----------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                sock.close()
                raise ServeError(
                    f"cannot reach kernel server at {self.socket_path}: {exc}"
                ) from exc
            self._sock = sock
        return self._sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def close(self) -> None:
        """Close the connection and unlink every leased segment."""
        self._drop_connection()
        _release(self._leases)

    def __enter__(self) -> "KernelClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- leased shared memory ------------------------------------------------

    def _lease(
        self, nbytes: int, taken: list[shared_memory.SharedMemory]
    ) -> shared_memory.SharedMemory:
        """A segment of at least *nbytes* that this request has not
        *taken* yet: a free lease of that page-rounded size, else a new
        one."""
        size = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        pool = self._leases.setdefault(size, [])
        self._leases.move_to_end(size)
        for seg in pool:
            if not any(seg is t for t in taken):
                return seg
        seg = shared_memory.SharedMemory(create=True, size=size)
        pool.append(seg)
        return seg

    def _settle(self, taken: list[shared_memory.SharedMemory], ok: bool) -> None:
        """End a request's hold on its leases: keep them after an ``ok``
        reply, unlink them after any other ending (a server that never
        answered may still write into them); then keep at most
        ``MAX_LEASES``, the most recently used sizes first."""
        kept, doomed, room = OrderedDict(), {}, MAX_LEASES
        for size in reversed(self._leases):
            for seg in self._leases[size]:
                keep = room > 0 and (ok or not any(seg is t for t in taken))
                (kept if keep else doomed).setdefault(size, []).append(seg)
                room -= keep
        self._leases.clear()
        self._leases.update(reversed(kept.items()))
        _release(doomed)

    def _request(self, message: Mapping, *, allow_retry: bool = True) -> Frame:
        attempts = (self.retries if allow_retry else 0) + 1
        last: BaseException | None = None
        for _ in range(attempts):
            try:
                sock = self._connect()
                send_frame(sock, message)
                resp = recv_frame(sock)
                if resp is None:
                    raise ServeError(
                        "server closed the connection before responding"
                    )
                return resp
            except (ServeError, OSError) as exc:
                last = exc
                self._drop_connection()
        raise ServeError(
            f"request to {self.socket_path} failed after "
            f"{attempts} attempt(s): {last}"
        ) from last

    @staticmethod
    def _raise_remote(resp: dict) -> None:
        exc_type = _ERROR_TYPES.get(resp.get("error", ""), ServeError)
        raise exc_type(resp.get("message", "server reported an error"))

    # -- protocol operations -------------------------------------------------

    def ping(self) -> bool:
        resp = self._request({"op": "ping"})
        if resp.get("status") != "ok":
            self._raise_remote(resp)
        return True

    def stats(self) -> dict:
        resp = self._request({"op": "stats"})
        if resp.get("status") != "ok":
            self._raise_remote(resp)
        return resp["stats"]

    def compile(
        self,
        spec: str,
        *,
        sizes: Mapping | None = None,
        params: Mapping | None = None,
        dtype: str = "f64",
    ) -> str:
        """Register *spec* server-side; returns its content-addressed id."""
        resp = self._request(
            {
                "op": "compile",
                "spec": spec,
                "sizes": _plain(sizes),
                "params": _plain(params),
                "dtype": dtype,
            }
        )
        if resp.get("status") != "ok":
            self._raise_remote(resp)
        return resp["kernel_id"]

    def shutdown(self) -> None:
        """Ask the daemon to stop accepting and wind down."""
        resp = self._request({"op": "shutdown"}, allow_retry=False)
        if resp.get("status") != "ok":
            self._raise_remote(resp)
        self._drop_connection()

    def run(
        self,
        spec: str | None = None,
        *,
        kernel_id: str | None = None,
        state: Mapping[str, np.ndarray],
        sizes: Mapping | None = None,
        params: Mapping | None = None,
        dtype: str = "f64",
        steps: int = 1,
        backend: str = "python",
    ) -> ServeResult:
        """Run one kernel application (``steps`` times) on *state*.

        The caller's arrays are never written; the result comes back as
        fresh arrays in :attr:`ServeResult.state`.
        """
        if spec is None and kernel_id is None:
            raise ValidationError("run() needs a spec or a kernel_id")
        taken: list[shared_memory.SharedMemory] = []
        ok = False
        try:
            # Arrays go to send_frame as they are: it writes them inline.
            enc_state: dict[str, dict | np.ndarray] = {}
            for name, arr in state.items():
                arr = np.ascontiguousarray(arr)
                if (
                    self.shm_threshold is not None
                    and 0 < self.shm_threshold <= arr.nbytes
                ):
                    seg = self._lease(arr.nbytes, taken)
                    taken.append(seg)
                    np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[
                        ...
                    ] = arr
                    enc_state[name] = {
                        "shape": list(arr.shape),
                        "dtype": arr.dtype.str,
                        "shm": seg.name,
                    }
                else:
                    enc_state[name] = arr
            message: dict = {
                "op": "run",
                "steps": steps,
                "backend": backend,
                "state": enc_state,
            }
            if spec is not None:
                message["spec"] = spec
                message["sizes"] = _plain(sizes)
                message["params"] = _plain(params)
                message["dtype"] = dtype
            else:
                message["kernel_id"] = kernel_id
            resp = self._request(message, allow_retry=not taken)
            ok = resp.get("status") == "ok"
            if not ok:
                self._raise_remote(resp)
            by_name = {seg.name: seg for seg in taken}
            # Inline results are views into the reply's payload buffer:
            # fresh, writable, and aligned.
            state_meta = resp.get("state", {})
            out = inline_arrays(state_meta, resp.payload, error=ServeError)
            for name, meta in state_meta.items():
                if name in out:
                    continue
                seg = by_name.get(meta["shm"])
                if seg is None:
                    raise ServeError(
                        f"response references unknown segment "
                        f"{meta['shm']!r}"
                    )
                out[name] = np.ndarray(
                    tuple(int(s) for s in meta["shape"]),
                    dtype=np.dtype(str(meta["dtype"])),
                    buffer=seg.buf,
                ).copy()
            return ServeResult(
                state=out,
                kernel_id=resp.get("kernel_id", ""),
                batched=bool(resp.get("batched", False)),
                batch_size=int(resp.get("batch_size", 1)),
                steps=steps,
            )
        finally:
            self._settle(taken, ok)


def _release(leases: dict) -> None:
    """Close and unlink every segment of *leases* (byte size -> list of
    segments), and empty it.

    Module-level (not a method) so the ``weakref.finalize`` safety net
    can call it without keeping the client alive; emptying the mapping
    makes a second call — finalizer after :meth:`KernelClient.close` — a
    no-op.
    """
    while leases:
        for seg in leases.popitem()[1]:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - a view still alive
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def _plain(mapping: Mapping | None) -> dict:
    return {str(k): v for k, v in (mapping or {}).items()}
