"""Extension benchmarks: the paper's future-work directions, measured.

* **GPU target** (Section 6: "We plan to test our method also on GPU
  systems") — the V100 extension preset's predictions: the PerforAD
  adjoint keeps the primal's scalability profile on a GPU while the
  atomic scatter collapses under massive thread-count contention.
* **Checkpointed time stepping** — revolve-checkpointed adjoint sweeps,
  the composition with surrounding-program reversal.
"""

import numpy as np

from repro.core import adjoint_loops
from repro.driver import AdjointTimeStepper, make_stencil_steps, optimal_cost
from repro.experiments import wave_descriptors
from repro.machine import V100
from repro.runtime import compile_nests


def test_gpu_extension_predictions(benchmark, capsys):
    desc = wave_descriptors()

    def predict():
        return {
            "primal_best": V100.best_time(desc.primal, "gather"),
            "perforad_best": V100.best_time(desc.perforad, "gather"),
            "atomic_best": V100.best_time(desc.scatter, "atomic"),
        }

    out = benchmark(predict)
    with capsys.disabled():
        print("\nGPU extension (V100 preset, wave 1000^3, model):")
        for key, (threads, t) in out.items():
            print(f"  {key:14s} {t:8.3f} s  (best at {threads} units)")
    # The adjoint stencil keeps the primal's profile on the GPU...
    ratio = out["perforad_best"][1] / out["primal_best"][1]
    assert ratio < 3.0
    # ... while atomics collapse by more than an order of magnitude.
    assert out["atomic_best"][1] > 10 * out["perforad_best"][1]
    benchmark.extra_info["adjoint_vs_primal"] = round(ratio, 2)


def test_checkpointed_sweep(benchmark, capsys, burgers_case):
    prob = burgers_case.problem
    n = 50_000
    bindings = prob.bindings(n)
    shape = prob.array_shape(n)
    fwd = compile_nests([prob.primal], bindings)
    adj = compile_nests(adjoint_loops(prob.primal, prob.adjoint_map), bindings)
    forward_step, reverse_step = make_stencil_steps(
        fwd.plan().run, adj.plan().run, shape
    )
    stepper = AdjointTimeStepper(forward_step, reverse_step)
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(shape) * 0.1
    seed = {"u": rng.standard_normal(shape)}
    steps, snaps = 24, 4

    ref = stepper.run_store_all({"u": u0}, steps, seed)
    lam = benchmark.pedantic(
        lambda: stepper.run_checkpointed({"u": u0}, steps, seed, snaps),
        rounds=3, iterations=1,
    )
    np.testing.assert_array_equal(ref["u"], lam["u"])
    with capsys.disabled():
        cost = optimal_cost(steps, snaps)
        print(f"\nrevolve: {steps} steps with {snaps} snapshots -> "
              f"{cost} step evaluations (store-all: {2 * steps - 1}), "
              f"memory {snaps}/{steps} states")
    benchmark.extra_info["evaluations"] = optimal_cost(steps, snaps)
