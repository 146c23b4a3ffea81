"""Scheduling: static box splitting and the runtime's one worker pool.

Two schedulers live here, one per parallelism axis of the runtime:

* :func:`split_box` mirrors OpenMP's static schedule — a region's
  axis 0 is divided into near-equal contiguous chunks, one per thread,
  when :func:`~repro.core.fusion.parallel_safe_group` admits the
  region.  The chunks partition the box, so for gather kernels
  (distinct write indices per iteration) chunk execution is race-free —
  the property that makes the PerforAD adjoint parallelisable "in the
  same way as the primal".
* :class:`WorkerPool` runs those chunks — and ensemble member chunks
  and checkpointed-ensemble members — on persistent threads, as
  :class:`Batch` es with one join contract: in-flight tasks drain,
  queued tasks of the failed batch are cancelled, and the first
  failure surfaces typed.  This is the only place the runtime decides
  who owns worker threads, when a batch is joined, and what a failing
  task does to its siblings and its caller.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable

from ..errors import ReproError, SchedulerError
from . import faults

__all__ = [
    "split_box",
    "Batch",
    "WorkerPool",
]

Box = tuple[tuple[int, int], ...]


class Batch:
    """Tasks submitted to a :class:`WorkerPool` and joined together.

    Join state — pending count, first failure, cancelled count — lives
    here, not on the pool, so any number of callers may have batches in
    flight on one pool at once.  As a context manager, leaving the block
    joins the batch, and an exception raised *inside* the block counts
    as the batch's failure, so whatever propagates does so only once
    the workers are quiescent.
    """

    __slots__ = ("_pool", "_pending", "_failure", "cancelled")

    def __init__(self, pool: "WorkerPool") -> None:
        self._pool = pool
        self._pending = 0
        self._failure: BaseException | None = None
        self.cancelled = 0

    def submit(self, tasks: Iterable[Callable[[], None]]) -> None:
        """Queue *tasks*; a batch that already failed cancels them unrun."""
        tasks = list(tasks)
        pool = self._pool
        with pool._lock:
            if pool._closed:
                raise RuntimeError("worker pool is closed")
            if self._failure is not None:
                self.cancelled += len(tasks)
                return
            pool._queue.extend((self, task) for task in tasks)
            self._pending += len(tasks)
            pool._work.notify(len(tasks))

    def _fail(self, exc: BaseException) -> None:
        """Record the first failure and cancel this batch's queued tasks
        (whose results :meth:`join`'s caller would discard anyway).
        Caller holds the pool lock."""
        if self._failure is not None:
            return
        self._failure = exc
        queue = self._pool._queue
        kept = [entry for entry in queue if entry[0] is not self]
        dropped = len(queue) - len(kept)
        if dropped:
            queue.clear()
            queue.extend(kept)
            self.cancelled += dropped
            self._pending -= dropped

    def join(self) -> None:
        """Wait for every submitted task; re-raise the first failure.

        Tasks already *running* when a sibling fails complete (they
        cannot be interrupted mid-flight); tasks of this batch still
        queued at that moment were dropped unrun and counted in
        :attr:`cancelled`.  A failure that is not already a typed
        :class:`~repro.errors.ReproError` is wrapped in
        :class:`~repro.errors.SchedulerError` (itself a
        ``RuntimeError``); typed errors — a member's
        :class:`~repro.errors.NumericalDivergenceError`, say — and
        ``BaseException``s like ``KeyboardInterrupt`` pass unchanged.
        """
        pool = self._pool
        with pool._lock:
            while self._pending:
                pool._idle.wait()
            failure, self._failure = self._failure, None
        if failure is None:
            return
        if isinstance(failure, ReproError) or not isinstance(failure, Exception):
            raise failure
        raise SchedulerError(
            f"task failed ({self.cancelled} queued task(s) cancelled): "
            f"{failure}"
        ) from failure

    def __enter__(self) -> "Batch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            with self._pool._lock:
                self._fail(exc)
        self.join()


class WorkerPool:
    """Persistent worker threads: the runtime's one thread pool.

    Threaded bound plans, ensemble member chunks and the
    members of a checkpointed ensemble all run here, as per-call
    :class:`Batch` es — :meth:`batch` to submit region by region and
    join at barriers, :meth:`run` for submit-all-then-join.  Tasks are
    argument-less callables taken first-in first-out from one shared
    deque, so a worker whose task runs long strands nothing behind it.
    The workers are created once and reused: a steady-state caller
    (one batch per timestep) pays no thread creation per step.  An
    :class:`~repro.runtime.plan.ExecutionPlan` owns its pools.

    Example — four tasks over two workers:

    >>> from repro.runtime.scheduler import WorkerPool
    >>> hits = []
    >>> with WorkerPool(2) as pool:
    ...     pool.run([lambda i=i: hits.append(i) for i in range(4)])
    >>> sorted(hits)
    [0, 1, 2, 3]
    """

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._queue: deque = deque()  # (batch, task), first in first out
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # queue non-empty / closed
        self._idle = threading.Condition(self._lock)  # some batch drained
        self._closed = False
        self.last_cancelled = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-pool-{w}", daemon=True
            )
            for w in range(num_workers)
        ]
        for t in self._threads:
            t.start()

    def _worker_loop(self) -> None:
        queue = self._queue
        while True:
            with self._lock:
                while not queue:
                    if self._closed:
                        return
                    self._work.wait()
                batch, task = queue.popleft()
            failure = None
            try:
                faults.check("scheduler.task")
                task()
            except BaseException as exc:  # noqa: BLE001 - re-raised by join()
                failure = exc
            with self._lock:
                if failure is not None:
                    batch._fail(failure)
                batch._pending -= 1
                if not batch._pending:
                    self._idle.notify_all()
            # An idle worker must not pin the last task (and, through
            # it, the bound arrays and the owning plan) until the next
            # one arrives.
            del batch, task, failure

    def batch(self) -> Batch:
        """A new empty :class:`Batch` on this pool."""
        return Batch(self)

    def run(self, tasks: Iterable[Callable[[], None]]) -> None:
        """Execute *tasks* as one batch: submit all, then :meth:`Batch.join`.

        :attr:`last_cancelled` afterwards holds how many queued tasks
        the batch abandoned after its first failure (0 on a clean run).
        """
        batch = Batch(self)
        batch.submit(tasks)
        try:
            batch.join()
        finally:
            self.last_cancelled = batch.cancelled

    def close(self) -> None:
        """Shut the workers down once the queue is empty (idempotent)."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
        for t in self._threads:
            if t is not threading.current_thread():
                t.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def split_box(bounds: Box, nblocks: int, axis: int = 0) -> list[Box]:
    """Partition an inclusive box into up to *nblocks* disjoint sub-boxes.

    The split is along *axis*.  Returns fewer blocks when the axis
    extent is smaller than ``nblocks``.  Empty input boxes yield an
    empty list.
    """
    if any(lo > hi for lo, hi in bounds):
        return []
    if nblocks <= 1:
        return [tuple(bounds)]
    lo, hi = bounds[axis]
    extent = hi - lo + 1
    nblocks = min(nblocks, extent)
    base, rem = divmod(extent, nblocks)
    out: list[Box] = []
    start = lo
    for b in range(nblocks):
        size = base + (1 if b < rem else 0)
        stop = start + size - 1
        block = tuple(
            (start, stop) if d == axis else bd for d, bd in enumerate(bounds)
        )
        out.append(block)
        start = stop + 1
    return out
