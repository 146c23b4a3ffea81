"""Per-figure experiment regeneration (Figures 8-15) and reporting."""

from .figures import (
    PAPER,
    FigureSeries,
    RuntimeBars,
    burgers_descriptors,
    fig08_wave_broadwell,
    fig09_burgers_broadwell,
    fig10_wave_runtimes_broadwell,
    fig11_burgers_runtimes_broadwell,
    fig12_wave_knl,
    fig13_burgers_knl,
    fig14_wave_runtimes_knl,
    fig15_burgers_runtimes_knl,
    wave_descriptors,
)
from .report import (
    render_all,
    render_bars,
    render_factors,
    render_figure,
    render_speedup,
)

__all__ = [
    "PAPER",
    "FigureSeries",
    "RuntimeBars",
    "burgers_descriptors",
    "fig08_wave_broadwell",
    "fig09_burgers_broadwell",
    "fig10_wave_runtimes_broadwell",
    "fig11_burgers_runtimes_broadwell",
    "fig12_wave_knl",
    "fig13_burgers_knl",
    "fig14_wave_runtimes_knl",
    "fig15_burgers_runtimes_knl",
    "render_all",
    "render_bars",
    "render_factors",
    "render_figure",
    "render_speedup",
    "wave_descriptors",
]
