"""Render the figure regenerations as text tables / Markdown.

``render_all()`` produces the complete paper-vs-model comparison that
EXPERIMENTS.md records; the per-figure benchmark files print the same
tables so a benchmark run shows each figure's data next to its timing.
"""

from __future__ import annotations

import io

from . import figures as F

__all__ = [
    "render_speedup", "render_bars", "render_factors", "render_figure",
    "render_all",
]


def render_speedup(fig: F.FigureSeries) -> str:
    out = io.StringIO()
    out.write(f"{fig.figure}: {fig.title} (model)\n")
    hdr = fig.header()
    out.write("  " + "".join(f"{h:>10s}" for h in hdr) + "\n")
    for row in fig.rows():
        cells = [f"{row[0]:>10d}"] + [f"{v:>10.2f}" for v in row[1:]]
        out.write("  " + "".join(cells) + "\n")
    return out.getvalue()


def render_bars(fig: F.RuntimeBars) -> str:
    out = io.StringIO()
    out.write(f"{fig.figure}: {fig.title}\n")
    out.write(f"  {'variant':>20s}{'model (s)':>12s}{'paper (s)':>12s}{'ratio':>8s}\n")
    for label, (model, paper) in fig.bars.items():
        out.write(
            f"  {label:>20s}{model:>12.2f}{paper:>12.2f}{model / paper:>8.2f}\n"
        )
    return out.getvalue()


def render_factors() -> str:
    """Headline speed-up factors of PerforAD over the conventional adjoint."""
    wave = F.wave_descriptors()
    burg = F.burgers_descriptors()
    rows = []

    bdw_wave = F.BROADWELL.time(wave.scatter, 1, "serial") / F.BROADWELL.best_time(
        wave.perforad, "gather"
    )[1]
    rows.append(("wave, Broadwell, best PerforAD vs conventional", bdw_wave, 3.4))
    knl_wave = F.KNL.time(wave.scatter, 1, "serial") / F.KNL.best_time(
        wave.perforad, "gather"
    )[1]
    rows.append(("wave, KNL, best PerforAD vs conventional", knl_wave, 19.0))
    bdw_burg = F.BROADWELL.time(burg.scatter, 1, "serial") / F.BROADWELL.best_time(
        burg.perforad, "gather"
    )[1]
    rows.append(("Burgers, Broadwell, best PerforAD vs conventional", bdw_burg, 5.7))
    knl_burg = F.KNL.time(burg.stack, 1, "stack") / F.KNL.best_time(
        burg.perforad, "gather"
    )[1]
    rows.append(("Burgers, KNL, best PerforAD vs conventional (stack)", knl_burg, 125.0))

    out = io.StringIO()
    out.write("Headline factors (PerforAD best parallel vs conventional adjoint)\n")
    out.write(f"  {'case':>52s}{'model':>9s}{'paper':>9s}\n")
    for label, model, paper in rows:
        out.write(f"  {label:>52s}{model:>9.1f}{paper:>9.1f}\n")
    return out.getvalue()


_FIGURES = {
    "fig08": (F.fig08_wave_broadwell, render_speedup),
    "fig09": (F.fig09_burgers_broadwell, render_speedup),
    "fig10": (F.fig10_wave_runtimes_broadwell, render_bars),
    "fig11": (F.fig11_burgers_runtimes_broadwell, render_bars),
    "fig12": (F.fig12_wave_knl, render_speedup),
    "fig13": (F.fig13_burgers_knl, render_speedup),
    "fig14": (F.fig14_wave_runtimes_knl, render_bars),
    "fig15": (F.fig15_burgers_runtimes_knl, render_bars),
}


def render_figure(name: str) -> str:
    """One figure's table by its paper number, ``"fig08"`` .. ``"fig15"``."""
    build, render = _FIGURES[name]
    return render(build())


def render_all() -> str:
    return "\n".join([*map(render_figure, _FIGURES), render_factors()])
