"""Regeneration of every figure in the paper's evaluation (Figures 8–15).

Each ``figNN_*`` function rebuilds the corresponding figure's data series
from this reproduction's own artefacts: the loop nests produced by the
transformation are characterised (:mod:`repro.machine.descriptor`) and
pushed through the calibrated machine model at the paper's problem sizes
and thread counts.  The paper's published values are recorded alongside in
:data:`PAPER` for the EXPERIMENTS.md comparison.

Series naming follows the figure legends:

* ``Primal``   — the primal stencil loop;
* ``Adjoint``  — conventional (Tapenade-style) adjoint, serial;
* ``Atomics``  — conventional adjoint, OpenMP-parallel with atomics;
* ``PerforAD`` — the adjoint stencil loops of this paper;
* ``Ideal``    — linear speedup reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..apps import burgers_problem, wave_problem
from ..baselines.scatter import tapenade_style_adjoint
from ..baselines.stack import nonlinear_intermediates
from ..core.transform import adjoint_loops
from ..machine import BROADWELL, KNL, KernelDescriptor, MachineModel
from ..machine.descriptor import analyze_nests, analyze_scatter

__all__ = [
    "FigureSeries",
    "RuntimeBars",
    "wave_descriptors",
    "burgers_descriptors",
    "fig08_wave_broadwell",
    "fig09_burgers_broadwell",
    "fig10_wave_runtimes_broadwell",
    "fig11_burgers_runtimes_broadwell",
    "fig12_wave_knl",
    "fig13_burgers_knl",
    "fig14_wave_runtimes_knl",
    "fig15_burgers_runtimes_knl",
    "PAPER",
]

# Paper problem sizes: one time step on a 1000^3 grid / 10^9 cells.
WAVE_N = 1000
BURGERS_N = 10**9

# Thread axes as plotted in the figures.
BROADWELL_THREADS = (1, 2, 4, 6, 8, 12)
KNL_THREADS_WAVE = (1, 2, 4, 8, 16, 32, 64)
KNL_THREADS_BURGERS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class FigureSeries:
    """A speedup figure: thread counts and one speedup series per legend."""

    figure: str
    title: str
    threads: tuple[int, ...]
    series: dict[str, tuple[float, ...]]

    def rows(self) -> list[tuple]:
        out = []
        for idx, p in enumerate(self.threads):
            out.append((p,) + tuple(self.series[k][idx] for k in self.series))
        return out

    def header(self) -> tuple[str, ...]:
        return ("threads",) + tuple(self.series)


@dataclass(frozen=True)
class RuntimeBars:
    """A runtime-bar figure: label -> (model seconds, paper seconds)."""

    figure: str
    title: str
    bars: dict[str, tuple[float, float]]


@dataclass(frozen=True)
class _Descriptors:
    primal: KernelDescriptor
    perforad: KernelDescriptor
    scatter: KernelDescriptor
    stack: KernelDescriptor


def wave_descriptors(n: int = WAVE_N) -> _Descriptors:
    """Kernel descriptors for the 3-D wave test case at grid size *n*."""
    prob = wave_problem(3, active_c=False)
    sizes = {"n": n}
    primal = analyze_nests([prob.primal], sizes, cse=True)
    adj = analyze_nests(adjoint_loops(prob.primal, prob.adjoint_map), sizes)
    scat_nest = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    scat = analyze_scatter(scat_nest, sizes)
    return _Descriptors(primal=primal, perforad=adj, scatter=scat,
                        stack=scat.with_stack(0))


def burgers_descriptors(n: int = BURGERS_N) -> _Descriptors:
    """Kernel descriptors for the 1-D Burgers test case at *n* cells."""
    prob = burgers_problem(1)
    sizes = {"n": n}
    primal = analyze_nests([prob.primal], sizes, cse=True)
    adj = analyze_nests(adjoint_loops(prob.primal, prob.adjoint_map), sizes)
    scat_nest = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    scat = analyze_scatter(scat_nest, sizes)
    stack = scat.with_stack(len(nonlinear_intermediates(prob.primal)))
    return _Descriptors(primal=primal, perforad=adj, scatter=scat, stack=stack)


def _speedup_figure(
    figure: str,
    title: str,
    machine: MachineModel,
    desc: _Descriptors,
    threads: Sequence[int],
) -> FigureSeries:
    series: dict[str, tuple[float, ...]] = {}
    series["Primal"] = tuple(
        s for _, s in machine.speedup_curve(desc.primal, threads, "gather")
    )
    # "Adjoint": Tapenade output is serial -> speedup stays at 1.
    t_serial = machine.time(desc.scatter, 1, "serial")
    series["Adjoint"] = tuple(t_serial / t_serial for _ in threads)
    # "Atomics": speedup relative to the *serial conventional adjoint*,
    # as plotted in the paper (values below 1 mean slower than serial).
    series["Atomics"] = tuple(
        t_serial / machine.time(desc.scatter, p, "atomic") for p in threads
    )
    series["PerforAD"] = tuple(
        s for _, s in machine.speedup_curve(desc.perforad, threads, "gather")
    )
    series["Ideal"] = tuple(float(p) for p in threads)
    return FigureSeries(figure=figure, title=title, threads=tuple(threads), series=series)


def fig08_wave_broadwell() -> FigureSeries:
    """Figure 8: wave-equation speedups on Broadwell (up to 12 threads)."""
    return _speedup_figure(
        "fig08", "Scalability of the Wave Equation on Broadwell",
        BROADWELL, wave_descriptors(), BROADWELL_THREADS,
    )


def fig09_burgers_broadwell() -> FigureSeries:
    """Figure 9: Burgers-equation speedups on Broadwell."""
    return _speedup_figure(
        "fig09", "Scalability of the Burgers Equation on Broadwell",
        BROADWELL, burgers_descriptors(), BROADWELL_THREADS,
    )


def fig12_wave_knl() -> FigureSeries:
    """Figure 12: wave-equation speedups on KNL (up to 64 threads)."""
    return _speedup_figure(
        "fig12", "Scalability of the Wave Equation on KNL",
        KNL, wave_descriptors(), KNL_THREADS_WAVE,
    )


def fig13_burgers_knl() -> FigureSeries:
    """Figure 13: Burgers-equation speedups on KNL (up to 256 threads)."""
    return _speedup_figure(
        "fig13", "Scalability of the Burgers Equation on KNL",
        KNL, burgers_descriptors(), KNL_THREADS_BURGERS,
    )


def _runtime_bars(
    figure: str,
    title: str,
    machine: MachineModel,
    desc: _Descriptors,
    paper_bars: Mapping[str, float],
    conventional_serial_mode: str = "serial",
) -> RuntimeBars:
    model = {
        "Primal Serial": machine.time(desc.primal, 1, "gather"),
        "PerforAD Serial": machine.time(desc.perforad, 1, "gather"),
        "Adjoint Serial": machine.time(
            desc.stack if conventional_serial_mode == "stack" else desc.scatter,
            1,
            conventional_serial_mode,
        ),
        "Primal Parallel": machine.best_time(desc.primal, "gather")[1],
        "PerforAD Parallel": machine.best_time(desc.perforad, "gather")[1],
    }
    return RuntimeBars(
        figure=figure,
        title=title,
        bars={k: (model[k], paper_bars[k]) for k in model},
    )


def fig10_wave_runtimes_broadwell() -> RuntimeBars:
    """Figure 10: wave-equation absolute runtimes on Broadwell."""
    return _runtime_bars(
        "fig10", "Runtimes of the Wave Equation on Broadwell",
        BROADWELL, wave_descriptors(), PAPER["fig10"],
    )


def fig11_burgers_runtimes_broadwell() -> RuntimeBars:
    """Figure 11: Burgers-equation absolute runtimes on Broadwell."""
    return _runtime_bars(
        "fig11", "Runtimes of the Burgers Equation on Broadwell",
        BROADWELL, burgers_descriptors(), PAPER["fig11"],
    )


def fig14_wave_runtimes_knl() -> RuntimeBars:
    """Figure 14: wave-equation absolute runtimes on KNL."""
    return _runtime_bars(
        "fig14", "Runtimes of the Wave Equation on KNL",
        KNL, wave_descriptors(), PAPER["fig14"],
    )


def fig15_burgers_runtimes_knl() -> RuntimeBars:
    """Figure 15: Burgers runtimes on KNL (stack-based conventional serial).

    On KNL the paper used the original Tapenade output, which precomputes
    the min/max switches on a value stack — hence ``Adjoint Serial`` uses
    the stack execution mode here (Section 5.2).
    """
    return _runtime_bars(
        "fig15", "Runtimes of the Burgers Equation on KNL",
        KNL, burgers_descriptors(), PAPER["fig15"],
        conventional_serial_mode="stack",
    )


#: Published values read off the paper's figures and text.
PAPER: dict[str, dict[str, float]] = {
    "fig10": {
        "Primal Serial": 4.14,
        "PerforAD Serial": 8.52,
        "Adjoint Serial": 5.43,
        "Primal Parallel": 0.90,
        "PerforAD Parallel": 1.61,
    },
    "fig11": {
        "Primal Serial": 2.13,
        "PerforAD Serial": 15.73,
        "Adjoint Serial": 8.76,
        "Primal Parallel": 0.56,
        "PerforAD Parallel": 1.54,
    },
    "fig14": {
        "Primal Serial": 12.82,
        "PerforAD Serial": 41.27,
        "Adjoint Serial": 25.45,
        "Primal Parallel": 0.84,
        "PerforAD Parallel": 1.29,
    },
    "fig15": {
        "Primal Serial": 25.02,
        "PerforAD Serial": 51.85,
        "Adjoint Serial": 95.74,
        "Primal Parallel": 0.50,
        "PerforAD Parallel": 0.76,
    },
    # Section 5.1 text: atomics at one thread, wave equation, Broadwell.
    "atomics_1t_wave_broadwell": {"Atomics 1 thread": 91.0},
    # Headline factors quoted in the abstract/sections.
    "factors": {
        "wave_broadwell_best_vs_conventional": 3.4,
        "wave_knl_best_vs_conventional": 19.0,
        "burgers_knl_best_vs_conventional": 125.0,
        "burgers_broadwell_best_vs_conventional": 5.7,
    },
}
