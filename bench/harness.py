"""Shared machinery of the benchmark: spans, timed loops, checks, records.

Nothing here knows a workload; :mod:`workloads` builds on it and
:mod:`run` only reads the records it produces.
"""

from __future__ import annotations

import glob
import itertools
import json
import statistics
import threading
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NBLOCKS = 24  # blocks a timed loop's seconds are cut into
REFERENCE_SPEED_S = 1.5e-3  # defines "reference speed": Reference's loop takes this long


def load_spec() -> dict:
    """``BENCHMARK.json`` — the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- spans --------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "t0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.id, self.parent, self.name, self.t0, t1, threading.get_ident())
        )


class Tracer:
    """In-memory span recorder around calls into the layers' public functions.

    A span is ``(id, parent id, name, start, end, thread)``; the operation
    a span belongs to is its root ancestor's id, resolved at export.
    Per-thread parent stacks keep the two ``serve_small`` client threads
    from adopting each other's spans.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.spans if s[2] == name]

    def self_times_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the part child spans cover."""
        child_total: dict[int, float] = {}
        for _id, parent, _name, t0, t1, _tid in self.spans:
            child_total[parent] = child_total.get(parent, 0.0) + (t1 - t0)
        out: dict[str, float] = {}
        for sid, _parent, name, t0, t1, _tid in self.spans:
            own = (t1 - t0) - child_total.get(sid, 0.0)
            out[name] = out.get(name, 0.0) + own * 1e3
        return out

    def write_chrome_trace(self, path: Path) -> None:
        parents = {s[0]: s[1] for s in self.spans}

        def root(sid: int) -> int:
            while parents.get(sid, 0):
                sid = parents[sid]
            return sid

        origin = min((s[3] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (t0 - origin) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "op": root(sid)},
            }
            for sid, parent, name, t0, t1, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class NullTracer:
    """Tracing off: ``span`` hands back one shared do-nothing context."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


# -- statistics ---------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(p * len(sorted_values)))]


def closed_loop(op, seconds: float, inner: int = 1, min_ops: int = 3, span=None):
    """Call *op* back to back for *seconds*; returns the latencies.

    One sample is the mean of *inner* consecutive calls (for operations
    too short to time singly).  With *span* (a zero-argument factory of
    context managers) every call runs inside a fresh span.
    """
    samples = []
    clock = time.perf_counter
    deadline = clock() + seconds
    t0 = clock()
    while t0 < deadline or len(samples) < min_ops:
        if span is None:
            for _ in range(inner):
                op()
        else:
            for _ in range(inner):
                with span():
                    op()
        t1 = clock()
        samples.append((t1 - t0) / inner)
        t0 = t1
    return samples


def calibrate_inner(op, target_s: float = 10e-3) -> int:
    """Calls per sample so one sample lasts about *target_s* (a sample per
    call of a microsecond operation would cost more memory than the program)."""
    clock = time.perf_counter
    t0 = clock()
    op()
    once = clock() - t0
    if once < target_s / 10:  # short: a first call is mostly cache misses
        t0 = clock()
        for _ in range(100):
            op()
        once = (clock() - t0) / 100
    return max(1, min(100_000, int(target_s / max(once, 1e-7))))


class Reference:
    """The machine's momentary speed, from a fixed loop of small NumPy adds.

    The shared 2-core VM this was written on runs up to twice slower for
    seconds to minutes at a time (a neighbour on the host; CPU time rises
    with wall time, steal stays 0, both cores alike), longer than a run
    can be made.  Identical runs of one workload then spread 12-39 %
    (interquartile distance / median) however the samples inside a run
    are summarised, which no bound the benchmark may set can hold.
    Timing this loop before and after every block and dividing the
    block's time by the loop's brings every workload to 10-13 %: the
    compute-bound ones, the ``cc``-bound cold build, the served requests,
    the sharded step and, on a bad day, the memory-bound 268 MB sweep
    (``README.md`` has both spreads per workload; on a quiet day that
    sweep is steadier undivided, 5 % against 9 %).  The repository's own
    gates (``benchmarks/bench_serve.py``, ``bench_shard.py``) are
    machine-corrected for the same reason.

    ``factor()`` is the loop's time over ``REFERENCE_SPEED_S``, so a
    reported time is the time the operation would take on a machine that
    runs this loop in exactly that long: a definition of the unit, not a
    property of any machine.  The wall-clock medians and the factor
    travel beside it in every record's notes and are printed with it.
    The loop touches only NumPy, never this repository's code, so a
    change to the repository moves the reported time exactly as it moves
    the wall-clock one.
    """

    def __init__(self) -> None:
        import numpy as np  # kept out of run.py's start-up

        self._add = np.add
        self._a = np.ones(4096)
        self._b = np.ones(4096)

    def factor(self) -> float:
        add, a, b = self._add, self._a, self._b
        t0 = time.perf_counter()
        for _ in range(1000):
            add(a, b, out=a)
        return (time.perf_counter() - t0) / REFERENCE_SPEED_S


def timed_blocks(run_block, seconds: float, reference: Reference, min_blocks: int = 3) -> dict:
    """Latency and throughput of a timed loop, at reference speed.

    ``run_block(budget_s)`` runs operations for about *budget_s* and
    returns ``(latencies, operations)``.  Blocks run until *seconds* are
    up (at least *min_blocks*), the reference loop timed between them; a
    block's latency is its median sample divided by the mean of the two
    factors around it, its rate the operations over its wall time times
    that factor.  The loop reports the median over blocks of each.
    """
    clock = time.perf_counter
    latencies, rates, factors, raw, raw_rates, pooled = [], [], [], [], [], []
    operations = 0
    deadline = clock() + seconds
    before = reference.factor()
    while len(latencies) < min_blocks or clock() < deadline:
        t0 = clock()
        samples, ops = run_block(seconds / NBLOCKS)
        wall = clock() - t0
        after = reference.factor()
        factor = (before + after) / 2
        before = after
        block = statistics.median(samples)
        raw.append(block)
        latencies.append(block / factor)
        raw_rates.append(ops / wall)
        rates.append(ops / wall * factor)
        factors.append(factor)
        pooled.extend(samples)
        operations += ops
    pooled.sort()
    # Highest percentile with at least ten samples beyond it.
    tail = 1.0 - 10.0 / len(pooled) if len(pooled) > 20 else 0.5
    return {
        "latency_s": statistics.median(latencies),
        "ops_per_s": statistics.median(rates),
        "raw_latency_s": statistics.median(raw),
        "raw_ops_per_s": statistics.median(raw_rates),
        "machine_factor": statistics.median(factors),
        "block_factors": factors,
        "tail_p": tail,
        "raw_tail_s": percentile(pooled, tail),
        "raw_p90_s": percentile(pooled, 0.90),
        "raw_p99_s": percentile(pooled, 0.99),
        "samples": len(pooled),
        "blocks": len(latencies),
        "ops": operations,
    }


def median_time(fn, reps: int) -> float:
    """Median seconds of *reps* calls of *fn*."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def alloc_bytes_per_step(op, steps: int = 100) -> float:
    """Net traced allocation per call of *op* (the bound contract says 0)."""
    op()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for _ in range(steps):
        op()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return (after - before) / steps


def bitwise_equal(a, b) -> bool:
    """Same shape, dtype and bits (NaN payloads and signed zeros included)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    bits = f"u{a.dtype.itemsize}"
    return bool((a.view(bits) == b.view(bits)).all())


# -- the run context ----------------------------------------------------------


class Run:
    """What a workload fills in: metrics, the attempted/failed tally, notes."""

    def __init__(self, name, seed, seconds, trace, toy, workdir) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.toy = toy
        self.workdir = Path(workdir)
        self.tracer = Tracer() if trace else NullTracer()
        self.reference = Reference()
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mismatches = 0
        self.cache_tally = {"hits": 0, "misses": 0}  # kernel cache, whole run
        self.notes: dict = {}

    def span(self, name: str):
        return self.tracer.span(name)

    def scaled(self, amount):
        """A repetition count or loop budget, a tenth of it at toy size."""
        if not self.toy:
            return amount
        return max(1, amount // 10) if isinstance(amount, int) else amount / 10

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = {"value": float(value), "samples": int(samples)}

    def ops(self, count: int) -> None:
        """Tally *count* measured operations that completed."""
        self.attempted += count

    def check(self, ok: bool, what: str) -> bool:
        """Tally one checked outcome; a False one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 16:
                self.failures.append(what)
        return ok

    def same(self, got, want, what: str) -> bool:
        """Bitwise comparison of two ``{name: array}`` results."""
        ok = all(bitwise_equal(got[k], want[k]) for k in want)
        if not ok:
            self.mismatches += 1
        return self.check(ok, f"bitwise mismatch: {what}")

    def timed(self, stats: dict) -> None:
        """The two end-to-end timing metrics, from :func:`timed_blocks`."""
        self.put("op_latency_ms", stats["latency_s"] * 1e3, stats["samples"])
        self.put("ops_per_s", stats["ops_per_s"], stats["blocks"])
        self.notes["op"] = {
            k: v for k, v in stats.items() if k not in ("latency_s", "ops_per_s", "block_factors")
        }


# -- leak scans ---------------------------------------------------------------


def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro_shard_*") + glob.glob("/dev/shm/psm_*"))


def socket_files(workdir: Path) -> list[str]:
    return [str(p) for p in Path(workdir).rglob("*") if p.is_socket()]
