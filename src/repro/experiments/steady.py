"""Shared measurement helpers for the CLI's tier reports.

``repro sweep`` and ``repro adjoint`` print timings beside their bitwise
verdicts; the warm-up, best-of timing loop, ``tracemalloc`` allocation
accounting and bitwise comparison they share live here.  These numbers
are a report for the user, not a gate: cross-commit timing comparison is
``bench/run.py --compare`` only.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Mapping, Sequence

import numpy as np

__all__ = ["bitwise_equal", "measure_ensemble"]

_WARMUP_CALLS = 3
_TIMING_ROUNDS = 3
_ALLOC_CALLS = 5


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two arrays hold identical bits.

    Stricter than ``np.array_equal``: NaNs with equal payloads compare
    equal (they are the same bits) and ``-0.0`` differs from ``+0.0``.
    """
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _best_of(fn, reps: int, rounds: int = _TIMING_ROUNDS) -> float:
    """Best per-call seconds over *rounds* loops of *reps* calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / reps


def measure_ensemble(
    plan,
    member_base: Sequence[Mapping[str, np.ndarray]],
    reps: int,
    workers: int = 1,
):
    """Ensemble-vs-loop steady-state measurement of one plan.

    *member_base* holds each member's pristine working set.  The
    baseline is the naive per-member loop of single-scenario
    :class:`~repro.runtime.bound.BoundPlan` runs; against it runs one
    :class:`~repro.runtime.ensemble.EnsemblePlan` over the stacked
    members.  Returns ``(record, ensemble)``: a JSON-ready record —
    per-member-timestep timings, throughput speedup, bitwise verdict,
    statement-shape counters — plus the live ensemble, whose batched
    state is left exactly one kernel application past the base values
    (callers extract per-member results from it).
    """
    from repro.runtime.ensemble import EnsemblePlan, stack_arrays

    members = len(member_base)
    loop_arrays = [
        {name: arr.copy() for name, arr in mem.items()} for mem in member_base
    ]
    loop_bounds = [plan.bind(arrays) for arrays in loop_arrays]
    batched = stack_arrays(member_base)  # stacks copies
    ensemble = EnsemblePlan(plan, batched, workers=workers)

    def run_loop() -> None:
        for bound in loop_bounds:
            bound.run()

    for _ in range(_WARMUP_CALLS):  # sizes replay buffers, warms caches
        run_loop()
        ensemble.run()

    t_loop = _best_of(run_loop, reps)
    t_ensemble = _best_of(ensemble.run, reps)

    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    for _ in range(_ALLOC_CALLS):
        ensemble.run()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Bitwise check on fresh values: every ensemble member equals its
    # looped single-scenario run.
    for m, mem in enumerate(member_base):
        for name, arr in mem.items():
            loop_arrays[m][name][...] = arr
            batched[name][m][...] = arr
    run_loop()
    ensemble.run()
    bitwise = all(
        bitwise_equal(loop_arrays[m][name], batched[name][m])
        for m in range(members)
        for name in member_base[m]
    )

    record = {
        "members": members,
        "workers": workers,
        "chunks": ensemble.chunk_count,
        "loop_us_per_member_step": round(t_loop / members * 1e6, 3),
        "ensemble_us_per_member_step": round(t_ensemble / members * 1e6, 3),
        "speedup": round(t_loop / t_ensemble, 3),
        "steady_alloc_calls": _ALLOC_CALLS,
        "steady_net_alloc_bytes": current - before,
        "steady_peak_alloc_bytes": peak - before,
        "bitwise_identical": bitwise,
        "batched_statements": ensemble.batched_statement_count,
        "native_statements": ensemble.native_statement_count,
        "member_statements": ensemble.member_statement_count,
        "fused_groups": getattr(ensemble, "fused_group_count", 0),
        "fused_statements": getattr(ensemble, "fused_statement_count", 0),
    }
    return record, ensemble
