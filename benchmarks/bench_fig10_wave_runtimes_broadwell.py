"""Experiment fig10: wave-equation absolute runtimes on Broadwell
(Figure 10: 4.14 / 8.52 / 5.43 / 0.90 / 1.61 seconds).

Measured part: the three serial adjoint disciplines at laptop scale
(primal, PerforAD gather, conventional scatter).  Table: the five model
bars at 1000^3 vs the paper's values, all required to agree within 45%.
Shape assertions: PerforAD is slower than the conventional adjoint in
*serial* (the paper's 64% overhead) but wins with threads (3.4x at best).
"""

from repro.experiments import fig10_wave_runtimes_broadwell, render_bars


def test_fig10_wave_runtime_bars(benchmark, capsys, wave_case):
    def serial_suite():
        wave_case.primal_kernel(wave_case.arrays())
        wave_case.gather_kernel(wave_case.arrays())
        wave_case.scatter_kernel(wave_case.arrays())

    benchmark.pedantic(serial_suite, rounds=3, iterations=1)
    fig = fig10_wave_runtimes_broadwell()
    with capsys.disabled():
        print()
        print(render_bars(fig))

    for label, (model, paper) in fig.bars.items():
        assert 0.55 < model / paper < 1.45, (label, model, paper)
        benchmark.extra_info[label] = round(model, 2)

    # Section 5.1's serial-overhead claim: PerforAD serial is slower than
    # the conventional adjoint serial (paper: 8.52 s vs 5.43 s, +57%).
    assert fig.bars["PerforAD Serial"][0] > fig.bars["Adjoint Serial"][0]
    # ... but the best parallel PerforAD beats the conventional adjoint
    # by a factor ~3.4 (the paper's headline for this case).
    factor = fig.bars["Adjoint Serial"][0] / fig.bars["PerforAD Parallel"][0]
    assert 2.5 < factor < 8.0
    benchmark.extra_info["speedup_vs_conventional"] = round(factor, 1)
