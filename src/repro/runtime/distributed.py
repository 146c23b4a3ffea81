"""Sharded distributed-memory execution with halo exchange.

The paper's related work covers AD of MPI-parallel programs (Hovland
[13]) and notes that stencil compilers "can parallelise in MPI or shared
memory" given the stencil structure.  :class:`ShardedPlan` is that
distributed-memory substrate, wired into the plan/bind runtime (no MPI
in this environment, so transport is shared-memory copies while the
communication pattern and data ownership stay exact).  The domain is
block-decomposed along the outermost axis; every rank owns an interior
slab plus a halo of the stencil radius.  Each rank's slab lives in a
``multiprocessing.shared_memory`` segment, and one
:class:`~repro.runtime.bound.BoundPlan` per shard (python or native
backend) is bound against the slab views.  The caller is rank 0: it
forks one worker process for each rank 1 .. R-1 (or runs every rank
itself with ``use_workers=False``).  Whole-slab work — a kernel run, a
buffer ``copy`` or ``fill`` — runs on the rank that owns the slab, the
caller doing rank 0's share while the workers do theirs; cross-rank work
— the forward ghost-cell exchange and the adjoint accumulate-back — runs
in the caller between steps, in fixed rank order.

The communication pattern:

* **forward**: ranks exchange interior boundary layers into neighbours'
  halos (the classic ghost-cell exchange), then run the kernel on their
  owned rows — bitwise equal to the global run;
* **adjoint**: ranks run the adjoint stencil kernels locally; adjoint
  contributions that land in a rank's *halo* belong to the neighbour's
  interior, so the reverse of the halo exchange is an *accumulate-back*
  (receive-and-add) — the standard adjoint-MPI transformation where a
  send becomes a receive-increment.  Pairs are visited left-to-right in
  fixed rank order, so the scatter-add merge is deterministic.

Because the gather-form adjoint (the paper's construction) writes each
index from one rank's iterations only, the sharded adjoint is **bitwise
identical** to the global adjoint for any rank count, which the tests
assert.

Failure behaviour (see :mod:`repro.runtime.faults`): the
``shard.exchange`` and ``shard.worker`` fault points both carry the
*fallback* contract — a failed halo copy or a worker found dead before
dispatch degrades the plan to single-shard execution on the caller's
global arrays, bitwise-identically, with one warning.  A rank that
fails *mid-command* (after dispatch, rank 0 in the caller included)
raises a typed :class:`~repro.errors.ShardError` instead, once every
rank has answered, because some ranks may already have advanced; the
plan then refuses further work.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import weakref
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Mapping, Sequence

import numpy as np

from ..errors import ShardError, ValidationError
from . import faults
from .compiler import CompiledKernel
from .decisions import Verdict, degraded, lowering_mode
from .plan import ExecutionConfig, ExecutionPlan, ShardSpec

__all__ = [
    "RankSlab",
    "ShardedPlan",
    "decompose",
]

# Prefix of every shared-memory segment a ShardedPlan creates; the CI
# shard job removes /dev/shm/repro_shard_* on failure.
_SEGMENT_PREFIX = "repro_shard_"


def decompose(extent: int, nranks: int) -> list[tuple[int, int]]:
    """Split ``range(extent)`` into near-equal contiguous ownership ranges."""
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    nranks = min(nranks, extent)
    base, rem = divmod(extent, nranks)
    out = []
    start = 0
    for r in range(nranks):
        size = base + (1 if r < rem else 0)
        out.append((start, start + size - 1))
        start += size
    return out


def _validate_halo(ranges: Sequence[tuple[int, int]], halo: int) -> None:
    """Reject halos wider than the smallest owned slab.

    A wider halo would make the exchange read a neighbour's *halo* rows
    as if they were interior — stale data silently exchanged as owned.
    """
    sizes = [hi - lo + 1 for lo, hi in ranges]
    smallest = min(sizes)
    if halo > smallest:
        rank = sizes.index(smallest)
        raise ValidationError(
            f"halo {halo} exceeds the smallest owned slab ({smallest} "
            f"row(s) on rank {rank} of {len(ranges)}): the exchange "
            f"would read past that rank's owned rows; use fewer ranks "
            f"or a narrower halo"
        )


@dataclass
class RankSlab:
    """One rank's storage: owned global rows plus halo layers."""

    rank: int
    own_lo: int  # global first owned row (axis 0)
    own_hi: int  # global last owned row (inclusive)
    halo: int
    slab_lo: int  # global index of local row 0 (halo clamped at edges)
    arrays: dict[str, np.ndarray]

    def local_index(self, global_index: int) -> int:
        return global_index - self.slab_lo


def _exchange_pairs(
    slabs: Sequence[RankSlab],
    names: Sequence[str],
    halo: int,
    check: bool = False,
) -> None:
    """Ghost-cell exchange between neighbouring slabs, both directions."""
    h = halo
    if h == 0:
        return
    for left, right in zip(slabs, slabs[1:]):
        if check:
            faults.check("shard.exchange")
        for name in names:
            la, ra = left.arrays[name], right.arrays[name]
            l_own_hi = left.own_hi - left.slab_lo
            r_own_lo = right.own_lo - right.slab_lo
            # left's top halo <- right's first owned rows
            la[l_own_hi + 1 : l_own_hi + 1 + h] = ra[r_own_lo : r_own_lo + h]
            # right's bottom halo <- left's last owned rows
            ra[r_own_lo - h : r_own_lo] = la[l_own_hi + 1 - h : l_own_hi + 1]


def _accumulate_pairs(
    slabs: Sequence[RankSlab], names: Sequence[str], halo: int
) -> None:
    """Adjoint of the exchange: add halo contributions to the owner.

    Pairs are visited left-to-right and, within a pair, left-halo before
    right-halo — a fixed merge order, so the scatter-add is
    deterministic.  An all-zero halo block is skipped rather than added:
    ``x += 0.0`` flips ``-0.0`` to ``+0.0``, which would break the
    bitwise contract for contributions that never happened.
    """
    h = halo
    if h == 0:
        return
    for left, right in zip(slabs, slabs[1:]):
        for name in names:
            la, ra = left.arrays[name], right.arrays[name]
            l_own_hi = left.own_hi - left.slab_lo
            r_own_lo = right.own_lo - right.slab_lo
            # left's top halo rows belong to right's interior.
            block = la[l_own_hi + 1 : l_own_hi + 1 + h]
            if block.any():
                ra[r_own_lo : r_own_lo + h] += block
            la[l_own_hi + 1 : l_own_hi + 1 + h] = 0.0
            # right's bottom halo rows belong to left's interior.
            block = ra[r_own_lo - h : r_own_lo]
            if block.any():
                la[l_own_hi + 1 - h : l_own_hi + 1] += block
            ra[r_own_lo - h : r_own_lo] = 0.0


# -- sharded plan/bind execution -----------------------------------------------


def _rank_command(plans, arrays, msg: tuple) -> None:
    """Perform one rank command on one rank's bound plans and slab arrays.

    ``("run", key)`` runs the bound plan of kernel *key*;
    ``("copy", dst, src)`` and ``("fill", name, value)`` act on the
    rank's whole slab, halos included.  The worker loop and the caller's
    own ranks both go through here, so a command means the same on every
    rank.
    """
    op = msg[0]
    if op == "run":
        plans[msg[1]].run()
    elif op == "copy":
        np.copyto(arrays[msg[1]], arrays[msg[2]])
    else:  # "fill"
        arrays[msg[1]].fill(msg[2])


def _worker_main(conn, plans, arrays) -> None:
    """Command loop of one forked shard worker process.

    *plans* maps kernel key -> the rank's :class:`BoundPlan`, and
    *arrays* maps name -> the rank's slab; both were built (pre-fork)
    on views into the rank's shared-memory segments, so writes are
    visible to the caller and siblings.  Every command but ``exit`` is
    answered with one reply.
    """
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "exit":
                return
            try:
                _rank_command(plans, arrays, msg)
            except Exception as exc:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("done",))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        return


def _release(workers: list, conns: list, segments: list) -> None:
    """Stop worker processes and unlink shared-memory segments.

    Module-level (not a method) so a ``weakref.finalize`` safety net can
    call it without keeping the plan alive.  Mutates the lists in place
    so a second call — finalizer after an explicit ``close()`` — is a
    no-op.
    """
    for conn in conns:
        try:
            conn.send(("exit",))
        except Exception:
            pass
    for proc in workers:
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=5)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    workers.clear()
    conns.clear()
    for shm in segments:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass
        try:
            shm.close()
        except BufferError:
            # A numpy view into the segment is still alive (e.g. the
            # caller holds a slab reference); the mapping is released
            # when the view dies or the process exits — the name is
            # already unlinked either way.
            pass
    segments.clear()


class ShardedPlan:
    """Block-decomposed multi-process execution of bound plans.

    The axis-0 extent of *arrays* is decomposed into ``nranks``
    near-equal contiguous slabs (plus ``halo`` ghost rows); every slab
    lives in a ``multiprocessing.shared_memory`` segment, and one
    :class:`~repro.runtime.bound.BoundPlan` per (rank, kernel key) is
    bound against views into it — planned with a
    :class:`~repro.runtime.plan.ShardSpec`, so each rank executes only
    its owned rows, in local slab coordinates.  The caller is rank 0 and
    forks one worker process per further rank; :meth:`step`,
    :meth:`copy` and :meth:`fill` send the command to the workers, do
    rank 0's share in the caller, then read every worker's reply.  Halo
    exchange and adjoint accumulate-back cross ranks, so the caller
    performs them between steps, in fixed rank order.

    *kernels* is a single :class:`CompiledKernel` (key ``"main"``) or a
    mapping of keys to kernels; *aliases* optionally maps, per key, a
    kernel-side array name to the physical buffer name it should bind
    (how the checkpointing layer points rotation parities at rotating
    physical buffers).

    The contract: results and gradients are **bitwise identical** to a
    single-shard :class:`BoundPlan` run for any rank count.  On a halo
    copy failure (``shard.exchange``) or a worker found dead before
    dispatch (``shard.worker``), the plan degrades — permanently, with
    one warning — to single-shard execution on the caller's global
    arrays, preserving that contract.  A rank failing mid-command raises
    :class:`~repro.errors.ShardError` naming the lowest failing rank,
    after every rank has answered; the plan then refuses further work
    until :meth:`close`.
    """

    def __init__(
        self,
        kernels: CompiledKernel | Mapping[object, CompiledKernel],
        arrays: Mapping[str, np.ndarray],
        *,
        nranks: int,
        halo: int,
        config: ExecutionConfig | None = None,
        aliases: Mapping[object, Mapping[str, str]] | None = None,
        use_workers: bool = True,
    ):
        if isinstance(kernels, CompiledKernel):
            kernels = {"main": kernels}
        if not kernels:
            raise ValidationError("ShardedPlan needs at least one kernel")
        if not arrays:
            raise ValidationError("ShardedPlan needs at least one array")
        if halo < 0:
            raise ValidationError("halo must be >= 0")
        self._kernels = dict(kernels)
        self.config = config if config is not None else ExecutionConfig()
        self._aliases = {
            key: dict((aliases or {}).get(key, ())) for key in self._kernels
        }
        shapes = {a.shape for a in arrays.values()}
        if len(shapes) != 1:
            raise ValidationError(
                "all sharded arrays must share one shape; got "
                f"{sorted(shapes)}"
            )
        for key, kernel in self._kernels.items():
            amap = self._aliases[key]
            missing = {
                amap.get(n, n) for n in kernel.array_names
            } - set(arrays)
            if missing:
                raise ValidationError(
                    f"kernel {key!r} needs arrays {sorted(missing)} that "
                    f"are not in the sharded namespace"
                )
        self.extent = next(iter(shapes))[0]
        ranges = decompose(self.extent, nranks)
        self.nranks = nranks
        self.effective_nranks = len(ranges)
        # Degradation verdicts of this plan, each warned once per plan
        # (the once-set is the plan's, not the process's, so nothing
        # leaks or collides across plans).
        self.decisions: list[Verdict] = []
        self._warned: set[str] = set()
        if self.effective_nranks < nranks:
            self._degraded_to(
                f"{self.effective_nranks} rank(s)",
                f"requested {nranks} ranks but the axis-0 extent is "
                f"{self.extent}; using {self.effective_nranks} rank(s)",
            )
        _validate_halo(ranges, halo)
        self.halo = halo
        # Ranks are the parallelism — and libgomp is not fork-safe: once
        # the parent has entered one OpenMP region, a forked worker
        # deadlocks in its first.
        # native_threads is the native backend's only thread knob
        # (num_threads > 1 is refused there), so it is the one pinned —
        # explicitly, so it beats REPRO_NATIVE_THREADS — for every rank
        # plan, rank 0's in the caller included.  In-process ranks, a
        # single rank (which forks nothing) and the single-shard
        # continuation keep the caller's width.
        forks = (
            use_workers
            and self.effective_nranks > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )
        self._rank_config = self.config
        if (
            forks
            and self.config.backend == "native"
            and lowering_mode(self.config).threads > 1
        ):
            self._rank_config = replace(self.config, native_threads=1)
            self.decisions.append(
                Verdict(
                    "rank plans", "1 native thread",
                    "the caller and its forked shard workers own the "
                    "parallelism (an OpenMP region in a forked child "
                    "deadlocks once the parent has run one)",
                )
            )
        self._globals = dict(arrays)
        self._names = list(arrays)
        self._degraded = False
        self._failed: ShardError | None = None
        self._single: dict[object, object] = {}
        self._segments: list[shared_memory.SharedMemory] = []
        self._workers: list[multiprocessing.process.BaseProcess] = []
        self._conns: list = []
        self.slabs: list[RankSlab] = []
        try:
            self._build_slabs(ranges)
            self._bound = [self._bind_rank(slab) for slab in self.slabs]
            if forks:
                self._start_workers()
        except BaseException:
            _release(self._workers, self._conns, self._segments)
            raise
        self._finalizer = weakref.finalize(
            self, _release, self._workers, self._conns, self._segments
        )

    # -- construction ------------------------------------------------------

    def _build_slabs(self, ranges: Sequence[tuple[int, int]]) -> None:
        tag = f"{os.getpid()}_{secrets.token_hex(4)}"
        for r, (lo, hi) in enumerate(ranges):
            slab_lo = max(0, lo - self.halo)
            slab_hi = min(self.extent - 1, hi + self.halo)
            local: dict[str, np.ndarray] = {}
            for name, arr in self._globals.items():
                src = np.ascontiguousarray(arr[slab_lo : slab_hi + 1])
                shm = shared_memory.SharedMemory(
                    name=f"{_SEGMENT_PREFIX}{tag}_{len(self._segments)}",
                    create=True,
                    size=max(1, src.nbytes),
                )
                self._segments.append(shm)
                view = np.ndarray(src.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = src
                local[name] = view
            self.slabs.append(
                RankSlab(
                    rank=r, own_lo=lo, own_hi=hi, halo=self.halo,
                    slab_lo=slab_lo, arrays=local,
                )
            )

    def _bind_rank(self, slab: RankSlab) -> dict:
        spec = ShardSpec(
            rank=slab.rank,
            own_lo=slab.own_lo,
            own_hi=slab.own_hi,
            slab_lo=slab.slab_lo,
            slab_extent=next(iter(slab.arrays.values())).shape[0],
        )
        per_key = {}
        for key, kernel in self._kernels.items():
            plan = ExecutionPlan.build(kernel, self._rank_config, shard=spec)
            amap = self._aliases[key]
            local = {
                name: slab.arrays[amap.get(name, name)]
                for name in kernel.array_names
            }
            per_key[key] = plan.bind(local)
        return per_key

    def _start_workers(self) -> None:
        """Fork one worker for each rank 1 .. R-1; rank 0 is the caller."""
        ctx = multiprocessing.get_context("fork")
        for plans, slab in zip(self._bound[1:], self.slabs[1:]):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, plans, slab.arrays),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append(proc)
            self._conns.append(parent_conn)

    # -- queries -----------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the plan fell back to single-shard execution."""
        return self._degraded

    @property
    def multiprocess(self) -> bool:
        """Whether ranks 1 .. R-1 run in forked worker processes.

        The caller is always rank 0, so a plan with one rank forks
        nothing and is not multi-process.
        """
        return bool(self._workers)

    # -- stepping ----------------------------------------------------------

    def step(
        self,
        key: object = "main",
        exchange: Sequence[str] = (),
        accumulate: Sequence[str] = (),
    ) -> None:
        """Run kernel *key* once on every shard.

        *exchange* names arrays whose halos are refreshed from the
        neighbours' owned rows before the run (forward ghost-cell
        exchange); *accumulate* names arrays whose halo contributions
        are added back to the owning neighbour after the run (adjoint
        accumulate-back), in fixed rank order.  Accumulate-target halos
        are zeroed *before* the run so only contributions this step
        produced travel back.
        """
        if key not in self._kernels:
            raise ValidationError(
                f"unknown kernel key {key!r}; have {sorted(map(repr, self._kernels))}"
            )
        self._refuse_if_failed()
        if self._degraded:
            self._single[key].run()
            return
        try:
            _exchange_pairs(self.slabs, exchange, self.halo, check=True)
            self._zero_halos(accumulate)
            self._heartbeat()
        except OSError as exc:
            self._degrade(str(exc))
            self._single[key].run()
            return
        self._dispatch(("run", key), repr(key))
        _accumulate_pairs(self.slabs, accumulate, self.halo)

    def _heartbeat(self) -> None:
        """Probe worker liveness for every rank, before any dispatch.

        Runs *before* the first ``send`` so a dead worker is discovered
        while no rank has advanced — the state every rank holds is still
        the consistent pre-step state the degradation path gathers.
        """
        for _ in range(self.effective_nranks):
            faults.check("shard.worker")
        self._check_workers()

    def _check_workers(self) -> None:
        for rank, proc in enumerate(self._workers, start=self._first_worker):
            if not proc.is_alive():
                raise OSError(f"shard worker for rank {rank} is dead")

    def _sharded(self) -> bool:
        """Whether a slab command runs on the ranks (else on one shard).

        A worker found dead here, before any rank has the command,
        degrades the plan just as the step heartbeat does.
        """
        if self._degraded:
            return False
        try:
            self._check_workers()
        except OSError as exc:
            self._degrade(str(exc))
            return False
        return True

    @property
    def _first_worker(self) -> int:
        """The rank of the first worker: ranks below it run in the caller."""
        return len(self._bound) - len(self._conns)

    def _dispatch(self, msg: tuple, what: str) -> None:
        """Run one rank command on every rank, then read every reply.

        The command goes down every worker pipe first; the caller then
        performs its own ranks' share, and only then reads each worker's
        reply — all of them, even after a failure, so no stale reply is
        left in a pipe for a later command to read.  Any failure marks
        the plan failed and raises :class:`ShardError` for the lowest
        failing rank.
        """
        failures: list[tuple[int, str, BaseException | None]] = []
        sent = []
        for rank, conn in enumerate(self._conns, start=self._first_worker):
            try:
                conn.send(msg)
            except OSError as exc:
                failures.append(
                    (rank, f"shard worker for rank {rank} vanished before "
                     f"running {what}: {exc!r}", exc)
                )
            else:
                sent.append((rank, conn))
        for rank in range(self._first_worker):
            try:
                _rank_command(self._bound[rank], self.slabs[rank].arrays, msg)
            except BaseException as exc:
                failures.append(
                    (rank, f"shard rank {rank} failed in the caller running "
                     f"{what}: {type(exc).__name__}: {exc}", exc)
                )
                break  # the plan is failed; later caller ranks need not run
        for rank, conn in sent:
            try:
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                failures.append(
                    (rank, f"shard worker for rank {rank} vanished mid-step "
                     f"running {what}: {exc!r}", exc)
                )
                continue
            if reply[0] != "done":
                failures.append(
                    (rank, f"shard worker for rank {rank} failed running "
                     f"{what}: {reply[1]}", None)
                )
        if not failures:
            return
        rank, message, cause = min(failures, key=lambda f: f[0])
        self._failed = ShardError(message, rank=rank)
        if cause is not None and not isinstance(cause, Exception):
            raise cause  # KeyboardInterrupt and friends keep their type
        raise self._failed from cause

    def _refuse_if_failed(self) -> None:
        if self._failed is not None:
            raise ShardError(
                f"sharded plan refuses further work after an earlier "
                f"failure: {self._failed}",
                rank=self._failed.rank,
            ) from self._failed

    def _zero_halos(self, names: Sequence[str]) -> None:
        h = self.halo
        if h == 0 or not names:
            return
        for slab in self.slabs:
            lo = slab.own_lo - slab.slab_lo
            hi = slab.own_hi - slab.slab_lo
            for name in names:
                arr = slab.arrays[name]
                if lo > 0:
                    arr[:lo] = 0.0
                arr[hi + 1 :] = 0.0

    # -- halo communication (test/tooling surface) -------------------------

    def exchange(self, names: Sequence[str]) -> None:
        """Forward ghost-cell exchange for *names* (no-op when degraded)."""
        self._refuse_if_failed()
        if not self._degraded:
            _exchange_pairs(self.slabs, names, self.halo)

    def accumulate_back(self, names: Sequence[str]) -> None:
        """Adjoint accumulate-back for *names* (no-op when degraded)."""
        self._refuse_if_failed()
        if not self._degraded:
            _accumulate_pairs(self.slabs, names, self.halo)

    # -- data movement -----------------------------------------------------

    def gather(self, names: Sequence[str] | None = None) -> dict[str, np.ndarray]:
        """Owned rows of each rank assembled into fresh global arrays."""
        names = self._names if names is None else list(names)
        out = {}
        for name in names:
            if self._degraded:
                out[name] = self._globals[name].copy()
            else:
                dst = np.empty_like(self._globals[name])
                self._collect(name, dst)
                out[name] = dst
        return out

    def gather_into(self, name: str, dst: np.ndarray) -> None:
        """Assemble owned rows of *name* into the preallocated *dst*."""
        if self._degraded:
            np.copyto(dst, self._globals[name])
        else:
            self._collect(name, dst)

    def _collect(self, name: str, dst: np.ndarray) -> None:
        for slab in self.slabs:
            lo, hi = slab.own_lo, slab.own_hi
            a = lo - slab.slab_lo
            dst[lo : hi + 1] = slab.arrays[name][a : a + hi - lo + 1]

    def load(self, name: str, values: np.ndarray) -> None:
        """Scatter a global array into every rank's slab (halos included)."""
        if self._degraded:
            np.copyto(self._globals[name], values)
            return
        for slab in self.slabs:
            arr = slab.arrays[name]
            arr[...] = values[slab.slab_lo : slab.slab_lo + arr.shape[0]]

    def fill(self, name: str, value: float = 0.0) -> None:
        """Fill an array with a constant on every rank (halos included).

        Each rank fills its own slab, the caller doing rank 0's.
        """
        self._refuse_if_failed()
        self._check_names(name)
        if self._sharded():
            self._dispatch(("fill", name, value), f"fill {name}")
        else:
            self._globals[name].fill(value)

    def copy(self, dst: str, src: str) -> None:
        """Copy array *src* into *dst* on every rank (halos included).

        Each rank copies its own slab, the caller doing rank 0's.
        """
        self._refuse_if_failed()
        self._check_names(dst, src)
        if self._sharded():
            self._dispatch(("copy", dst, src), f"copy {dst} <- {src}")
        else:
            np.copyto(self._globals[dst], self._globals[src])

    def _check_names(self, *names: str) -> None:
        """Reject unknown names here, before any rank is sent a command."""
        unknown = [name for name in names if name not in self._globals]
        if unknown:
            raise ValidationError(
                f"unknown sharded array(s) {unknown}; have {self._names}"
            )

    # -- degradation and shutdown ------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Fall back to single-shard execution on the global arrays.

        Every rank still holds its consistent pre-step state (the
        heartbeat runs before any dispatch), so gathering owned rows and
        re-binding unsharded plans continues the run bitwise-identically.
        """
        self._degraded_to(
            "single shard",
            f"sharded execution degraded to a single shard: {reason}; "
            f"owned rows were gathered and the run continues "
            f"bitwise-identically on one shard",
        )
        for name in self._names:
            self._collect(name, self._globals[name])
        for key, kernel in self._kernels.items():
            plan = ExecutionPlan.build(kernel, self.config)
            amap = self._aliases[key]
            local = {
                name: self._globals[amap.get(name, name)]
                for name in kernel.array_names
            }
            self._single[key] = plan.bind(local)
        self._degraded = True
        self._drop_ranks()

    def _degraded_to(self, rung: str, reason: str) -> None:
        self.decisions.append(
            degraded("sharding", rung, reason, key=rung, seen=self._warned)
        )

    def close(self) -> None:
        """Stop workers and release shared-memory segments (idempotent).

        Also closes the plans this object built, so worker pools the
        caller's own ranks started do not outlive it.
        """
        for bound in self._single.values():
            bound.plan.close()
        self._single = {}
        self._drop_ranks()

    def _drop_ranks(self) -> None:
        for plans in self._bound:
            for bound in plans.values():
                bound.plan.close()
        self._bound = []
        self.slabs = []
        _release(self._workers, self._conns, self._segments)

    def __enter__(self) -> "ShardedPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
