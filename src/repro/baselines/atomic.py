"""Atomic-update scatter execution: the paper's "Atomics" baseline.

The conventional adjoint scatters ``+=`` updates into overlapping
locations, so a parallel version must make every update atomic.  The paper
shows this is catastrophic: the wave-equation adjoint takes 91 s with one
thread (vs 5.43 s without atomics) and *slows down further* with every
added thread (Section 5.1).

The honest NumPy analogue of an atomic scatter-add is ``np.add.at``: an
unbuffered, element-by-element indexed accumulation that bypasses the
vectorised fast path exactly as an ``omp atomic`` bypasses plain stores.
:class:`AtomicScatterKernel` executes a compiled scatter kernel that way,
giving a *measured* baseline whose slowdown factor plays the role of the
paper's atomic overhead; the machine model (:mod:`repro.machine`)
extrapolates the thread-contention behaviour to the paper's hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..runtime.compiler import (
    CompiledKernel,
    CompiledStatement,
    KernelError,
    _statement_args,
)

__all__ = ["AtomicScatterKernel"]


@dataclass
class AtomicScatterKernel:
    """Executes every scattered update with ``np.add.at`` (atomic analogue)."""

    kernel: CompiledKernel

    def __post_init__(self) -> None:
        for region in self.kernel.regions:
            for st in region.statements:
                if st.op != "+=":
                    raise KernelError(
                        "atomic scatter execution only supports '+=' updates"
                    )

    def __call__(self, arrays: Mapping[str, np.ndarray]) -> None:
        for region in self.kernel.regions:
            for st, eff in zip(region.statements, region.statement_boxes()):
                if eff is None:
                    continue
                values = st.eval_fn(
                    *_statement_args(st, arrays, eff, region.dtype)
                )
                full_shape = tuple(hi - lo + 1 for lo, hi in eff)
                values = np.broadcast_to(np.asarray(values), full_shape)
                indices = _scatter_indices(st, eff)
                np.add.at(arrays[st.target.name], indices, values)


def _scatter_indices(
    st: CompiledStatement, bounds: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, ...]:
    """Open-grid index arrays addressing the scattered target locations."""
    idx = []
    for slot, (axis, off) in enumerate(st.target.slots):
        lo, hi = bounds[axis]
        vec = np.arange(lo + off, hi + 1 + off)
        shape = [1] * st.dim
        shape[axis] = -1
        idx.append(vec.reshape(shape))
    return tuple(idx)
