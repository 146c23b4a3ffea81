"""Machine model and descriptor tests, including calibration against the
paper's published runtimes (Figures 10/11/14/15, Section 5.1)."""

import pytest

from repro.apps import burgers_problem, wave_problem
from repro.baselines.scatter import tapenade_style_adjoint
from repro.baselines.stack import nonlinear_intermediates
from repro.core import adjoint_loops
from repro.experiments import PAPER, burgers_descriptors, wave_descriptors
from repro.machine import BROADWELL, KNL, analyze_nests, analyze_scatter


# -- descriptors ---------------------------------------------------------------


def test_wave_primal_descriptor():
    prob = wave_problem(3, active_c=False)
    d = analyze_nests([prob.primal], {"n": 100})
    assert d.points == 98**3
    assert d.bytes_per_point == 8 * (3 + 2)  # reads u_1,u_2,c; rmw u
    assert not d.has_heaviside and not d.has_minmax
    assert not d.multi_statement


def test_burgers_descriptor_flags():
    prob = burgers_problem(1)
    d = analyze_nests([prob.primal], {"n": 100})
    assert d.has_minmax and not d.has_heaviside
    adj = analyze_nests(adjoint_loops(prob.primal, prob.adjoint_map), {"n": 100})
    assert adj.has_heaviside


def test_adjoint_descriptor_multi_statement():
    prob = wave_problem(3, active_c=False)
    adj = analyze_nests(adjoint_loops(prob.primal, prob.adjoint_map), {"n": 50})
    assert adj.multi_statement and not adj.optimized
    assert adj.n_parallel_loops == 53


def test_scatter_descriptor_counts_updates():
    prob = wave_problem(3, active_c=False)
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    d = analyze_scatter(scat, {"n": 50})
    assert d.scatter_updates_per_point == 8.0


def test_cse_reduces_flops():
    prob = wave_problem(3, active_c=False)
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    raw = analyze_nests([scat], {"n": 50}, cse=False)
    opt = analyze_nests([scat], {"n": 50}, cse=True)
    assert opt.flops_per_point < raw.flops_per_point


def test_with_stack_traffic():
    prob = burgers_problem(1)
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    d = analyze_scatter(scat, {"n": 100}).with_stack(
        len(nonlinear_intermediates(prob.primal))
    )
    assert d.stack_bytes_per_point == 32.0


def test_empty_nests_raise():
    prob = wave_problem(1)
    with pytest.raises(ValueError):
        analyze_nests([prob.primal], {"n": 2})  # interior [1, 0]: empty


# -- model structure -------------------------------------------------------------


def test_effective_units_saturate():
    assert KNL.effective_units(64) == 64
    assert KNL.effective_units(256) == 64 + 0.2 * 192
    assert BROADWELL.effective_units(12) == 12


def test_gather_time_decreases_then_saturates():
    d = wave_descriptors().primal
    t = [BROADWELL.time(d, p, "gather") for p in (1, 2, 4, 8, 12)]
    # Allow the microsecond-scale fork/join term after bandwidth saturation.
    assert all(t[k + 1] <= t[k] + 1e-3 for k in range(len(t) - 1))


def test_atomic_time_increases_with_threads():
    """Section 5.1: atomics slow down with every added thread."""
    d = wave_descriptors().scatter
    t = [BROADWELL.time(d, p, "atomic") for p in (1, 2, 4, 8, 12)]
    assert all(t[k + 1] > t[k] for k in range(len(t) - 1))


def test_serial_mode_ignores_threads():
    d = wave_descriptors().scatter
    assert BROADWELL.time(d, 12, "serial") == BROADWELL.time(d, 1, "serial")


def test_stack_mode_adds_cost():
    d = burgers_descriptors().stack
    assert KNL.time(d, 1, "stack") > KNL.time(d, 1, "serial")


def test_invalid_mode_and_threads():
    d = wave_descriptors().primal
    with pytest.raises(ValueError):
        BROADWELL.time(d, 1, "warp")
    with pytest.raises(ValueError):
        BROADWELL.time(d, 0, "gather")


def test_knl_wave_primal_plateaus_at_16():
    """Section 5.2: the wave primal scales to ~16 threads, then plateaus."""
    d = wave_descriptors().primal
    s = dict(KNL.speedup_curve(d, [16, 32, 64]))
    assert s[16] > 15
    assert s[64] < 17


def test_knl_wave_adjoint_scales_past_primal():
    """PerforAD's adjoint keeps scaling to 32 threads (more flops/byte)."""
    d = wave_descriptors()
    s_adj = dict(KNL.speedup_curve(d.perforad, [16, 32]))
    s_pri = dict(KNL.speedup_curve(d.primal, [16, 32]))
    assert s_adj[32] > 30
    assert s_adj[32] > s_pri[32]


def test_crossover_at_two_threads():
    """Figures 8/9: PerforAD beats the conventional serial adjoint from
    2 threads on, despite being slower in serial."""
    for desc in (wave_descriptors(), burgers_descriptors()):
        serial_conventional = BROADWELL.time(desc.scatter, 1, "serial")
        assert BROADWELL.time(desc.perforad, 1, "gather") > serial_conventional * 0.9
        assert BROADWELL.time(desc.perforad, 2, "gather") < serial_conventional


# -- calibration against the paper's published values ---------------------------


@pytest.mark.parametrize(
    "label,series,mode,machine,paper_key",
    [
        ("wave", "primal", "gather", BROADWELL, "fig10"),
        ("wave", "perforad", "gather", BROADWELL, "fig10"),
        ("burgers", "primal", "gather", BROADWELL, "fig11"),
        ("burgers", "perforad", "gather", BROADWELL, "fig11"),
        ("wave", "primal", "gather", KNL, "fig14"),
        ("wave", "perforad", "gather", KNL, "fig14"),
        ("burgers", "primal", "gather", KNL, "fig15"),
        ("burgers", "perforad", "gather", KNL, "fig15"),
    ],
)
def test_serial_calibration_within_tolerance(label, series, mode, machine, paper_key):
    desc = wave_descriptors() if label == "wave" else burgers_descriptors()
    d = getattr(desc, series)
    key = "Primal Serial" if series == "primal" else "PerforAD Serial"
    predicted = machine.time(d, 1, mode)
    paper = PAPER[paper_key][key]
    assert 0.55 < predicted / paper < 1.5, (predicted, paper)


def test_atomics_91s_reproduced():
    d = wave_descriptors().scatter
    t = BROADWELL.time(d, 1, "atomic")
    assert 0.8 < t / 91.0 < 1.2


def test_best_parallel_within_tolerance():
    for desc, machine, key in [
        (wave_descriptors(), BROADWELL, "fig10"),
        (burgers_descriptors(), BROADWELL, "fig11"),
        (wave_descriptors(), KNL, "fig14"),
        (burgers_descriptors(), KNL, "fig15"),
    ]:
        paper = PAPER[key]["PerforAD Parallel"]
        _, t = machine.best_time(
            desc.perforad, "gather",
            thread_counts=range(1, machine.max_threads + 1),
        )
        assert 0.55 < t / paper < 1.5


def test_headline_factor_ordering():
    """The paper's headline factors (3.4x, 5.7x, 19x, 125x) keep their
    ordering and rough magnitude in the model."""
    wave = wave_descriptors()
    burg = burgers_descriptors()
    f_bdw_wave = BROADWELL.time(wave.scatter, 1, "serial") / BROADWELL.best_time(
        wave.perforad, "gather")[1]
    f_bdw_burg = BROADWELL.time(burg.scatter, 1, "serial") / BROADWELL.best_time(
        burg.perforad, "gather")[1]
    f_knl_wave = KNL.time(wave.scatter, 1, "serial") / KNL.best_time(
        wave.perforad, "gather")[1]
    f_knl_burg = KNL.time(burg.stack, 1, "stack") / KNL.best_time(
        burg.perforad, "gather")[1]
    assert f_bdw_wave < f_bdw_burg < f_knl_wave < f_knl_burg
    assert f_knl_burg > 100
    assert f_knl_wave > 15
    assert 2 < f_bdw_wave < 8


def test_gpu_preset_extension_predictions():
    """The V100 extension preset: PerforAD adjoint stays within ~2x of the
    primal and atomics remain catastrophic — the paper's expectation for
    GPUs stated in the conclusion."""
    from repro.machine import V100

    d = wave_descriptors()
    t_primal = V100.best_time(d.primal, "gather")[1]
    t_adjoint = V100.best_time(d.perforad, "gather")[1]
    t_atomic = V100.best_time(d.scatter, "atomic")[1]
    assert t_adjoint < 3.0 * t_primal
    assert t_atomic > 10.0 * t_adjoint
