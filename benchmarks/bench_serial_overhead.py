"""Experiment serial51: measured serial comparison of the three adjoint
execution disciplines (Section 5.1's serial observations, at laptop scale).

Real NumPy timings on this machine: the PerforAD gather adjoint, the
conventional scatter adjoint executed as slice updates, and the scatter
adjoint executed with ``np.add.at`` (the atomic-update analogue).  The
measured ``add.at`` slowdown factor is the laptop-scale counterpart of the
paper's 91 s-vs-5.43 s atomics penalty; the slice-scatter vs gather gap is
small in serial, exactly as in the paper (5.43 s vs 8.52 s — same order).
"""

import time



def _best_of(fn, arrays_factory, reps=5):
    best = float("inf")
    for _ in range(reps):
        arrays = arrays_factory()
        t0 = time.perf_counter()
        fn(arrays)
        best = min(best, time.perf_counter() - t0)
    return best


def test_serial_overhead_wave(benchmark, capsys, wave_case):
    benchmark.pedantic(
        wave_case.gather_kernel, args=(wave_case.arrays(),), rounds=3, iterations=1
    )
    t_primal = _best_of(wave_case.primal_kernel, wave_case.arrays)
    t_gather = _best_of(wave_case.gather_kernel, wave_case.arrays)
    t_scatter = _best_of(wave_case.scatter_kernel, wave_case.arrays)
    t_atomic = _best_of(wave_case.atomic_kernel, wave_case.arrays, reps=2)
    with capsys.disabled():
        print(f"\nwave3d n={wave_case.n}, measured serial (best):")
        print(f"  primal           {t_primal * 1e3:9.2f} ms")
        print(f"  PerforAD gather  {t_gather * 1e3:9.2f} ms "
              f"({t_gather / t_primal:.2f}x primal)")
        print(f"  scatter slices   {t_scatter * 1e3:9.2f} ms")
        print(f"  add.at atomics   {t_atomic * 1e3:9.2f} ms "
              f"({t_atomic / t_scatter:.1f}x scatter)")
    # The atomic-analogue execution is dramatically slower, as on hardware.
    assert t_atomic > 2.0 * t_scatter
    benchmark.extra_info["atomic_vs_scatter"] = round(t_atomic / t_scatter, 1)


def test_serial_overhead_burgers(benchmark, capsys, burgers_case):
    benchmark.pedantic(
        burgers_case.gather_kernel,
        args=(burgers_case.arrays(),),
        rounds=3,
        iterations=1,
    )
    t_primal = _best_of(burgers_case.primal_kernel, burgers_case.arrays)
    t_gather = _best_of(burgers_case.gather_kernel, burgers_case.arrays)
    t_scatter = _best_of(burgers_case.scatter_kernel, burgers_case.arrays)
    t_atomic = _best_of(burgers_case.atomic_kernel, burgers_case.arrays, reps=2)
    with capsys.disabled():
        print(f"\nburgers1d n={burgers_case.n}, measured serial (best):")
        print(f"  primal           {t_primal * 1e3:9.2f} ms")
        print(f"  PerforAD gather  {t_gather * 1e3:9.2f} ms "
              f"({t_gather / t_primal:.2f}x primal)")
        print(f"  scatter slices   {t_scatter * 1e3:9.2f} ms")
        print(f"  add.at atomics   {t_atomic * 1e3:9.2f} ms "
              f"({t_atomic / t_scatter:.1f}x scatter)")
    # Adjoint costs more than the primal (it does strictly more work).
    assert t_gather > t_primal
    assert t_atomic > t_scatter
    benchmark.extra_info["adjoint_vs_primal"] = round(t_gather / t_primal, 2)
