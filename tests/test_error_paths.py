"""Error-path coverage: binding, ensemble stacking/binding and CLI validation.

The happy paths of :func:`~repro.runtime.ensemble.stack_arrays`,
:class:`~repro.runtime.ensemble.EnsemblePlan` and the CLI are covered by
their own suites; this module pins down the *rejection* behaviour —
malformed ensembles must fail loudly at construction (a silently
promoted dtype or ragged stack would break the bitwise contract
downstream), degenerate worker/chunk configurations must still be
bitwise correct, and ``repro adjoint`` must reject nonsensical
arguments with a diagnostic exit code instead of a traceback.
"""

import numpy as np
import pytest

from repro.apps import heat_problem
from repro.cli import main
from repro.core import adjoint_loops
from repro.runtime import KernelError, compile_nests, stack_arrays
from repro.runtime.ensemble import EnsemblePlan


def _kernel(n=10):
    prob = heat_problem(1)
    return (
        prob,
        compile_nests(
            adjoint_loops(prob.primal, prob.adjoint_map), prob.bindings(n)
        ),
        n,
    )


# -- the front door: bind / run / kernel() ---------------------------------------


@pytest.mark.parametrize("backend", ["python", "native"])
def test_missing_or_non_array_entries_are_one_typed_error(backend):
    """Every tier names the arrays a binding lacks; the single-scenario
    front door used to raise a bare KeyError('u_b') (AttributeError for a
    list) from inside view construction."""
    prob, kernel, n = _kernel()
    assert kernel.array_names == {"u_b", "u_1_b"}
    arrays = prob.allocate_state(n, seed=0)
    del arrays["u_b"]
    arrays["u_1_b"] = arrays["u_1_b"].tolist()
    plan = kernel.plan(backend=backend)
    for entry in (plan.bind, plan.run, kernel):
        with pytest.raises(KernelError, match=r"needs arrays \['u_1_b', 'u_b'\]"):
            entry(arrays)


def test_cli_reports_a_kernel_error_without_a_traceback(monkeypatch, capsys):
    from repro.apps.base import StencilProblem

    real = StencilProblem.allocate_state

    def without_seed(self, *args, **kwargs):
        arrays = real(self, *args, **kwargs)
        del arrays["u_b"]
        return arrays

    monkeypatch.setattr(StencilProblem, "allocate_state", without_seed)
    assert main(["fuse", "--problem", "heat1d"]) == 1
    assert "error: kernel 'heat1d_b' needs arrays ['u_b']" in capsys.readouterr().err


# -- stack_arrays ---------------------------------------------------------------


def test_stack_arrays_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        stack_arrays([])


def test_stack_arrays_rejects_mismatched_names():
    with pytest.raises(ValueError, match="member 1 holds arrays"):
        stack_arrays([{"u": np.zeros(3)}, {"v": np.zeros(3)}])


def test_stack_arrays_rejects_mixed_dtypes():
    """np.stack would silently promote f32 -> f64; the stacker must not."""
    members = [
        {"u": np.zeros(3, dtype=np.float64)},
        {"u": np.zeros(3, dtype=np.float32)},
    ]
    with pytest.raises(ValueError, match="float32.*member 0 has.*float64"):
        stack_arrays(members)


def test_stack_arrays_rejects_mixed_shapes():
    members = [{"u": np.zeros((3, 3))}, {"u": np.zeros((3, 4))}]
    with pytest.raises(ValueError, match=r"\(3, 4\).*member 0 has"):
        stack_arrays(members)


# -- EnsemblePlan construction ----------------------------------------------------


def test_ensemble_rejects_missing_kernel_arrays():
    prob, kernel, n = _kernel()
    batched = stack_arrays([prob.allocate_state(n, seed=0)])
    del batched["u_b"]
    with pytest.raises(KernelError, match=r"missing kernel arrays \['u_b'\]"):
        EnsemblePlan(kernel.plan(), batched)


def test_ensemble_rejects_mismatched_member_extents():
    prob, kernel, n = _kernel()
    batched = stack_arrays([prob.allocate_state(n, seed=m) for m in range(3)])
    batched["u_b"] = batched["u_b"][:2]
    with pytest.raises(KernelError, match="one leading member axis"):
        EnsemblePlan(kernel.plan(), batched)


def test_ensemble_rejects_bad_workers():
    prob, kernel, n = _kernel()
    batched = stack_arrays([prob.allocate_state(n, seed=0)])
    with pytest.raises(ValueError, match="workers"):
        EnsemblePlan(kernel.plan(), batched, workers=0)


def test_ensemble_member_arrays_bounds_checked():
    prob, kernel, n = _kernel()
    ens = EnsemblePlan(
        kernel.plan(), stack_arrays([prob.allocate_state(n, seed=0)])
    )
    with pytest.raises(IndexError):
        ens.member_arrays(1)
    with pytest.raises(IndexError):
        ens.member_arrays(-1)


# -- degenerate worker/chunk configurations stay bitwise correct -------------------


def _run_config(prob, kernel, n, members=2, workers=1):
    states = [prob.allocate_state(n, seed=m) for m in range(members)]
    batched = stack_arrays(states)
    with EnsemblePlan(kernel.plan(), batched, workers=workers) as ens:
        for _ in range(3):
            ens.run()
    return batched


@pytest.mark.parametrize("kwargs", [
    dict(workers=8),             # more workers than members
    dict(members=1, workers=2),  # single chunk under threads
    dict(workers=99),            # more chunks wanted than members: clamped
    dict(workers=2),
])
def test_degenerate_configs_match_reference(kwargs):
    prob, kernel, n = _kernel()
    ref = _run_config(prob, kernel, n, members=kwargs.get("members", 2))
    out = _run_config(prob, kernel, n, **kwargs)
    for name in ref:
        assert ref[name].tobytes() == out[name].tobytes(), (name, kwargs)


def test_chunk_count_clamped_to_members():
    prob, kernel, n = _kernel()
    batched = stack_arrays([prob.allocate_state(n, seed=m) for m in range(2)])
    assert EnsemblePlan(kernel.plan(), batched, workers=99).chunk_count == 2
    assert EnsemblePlan(kernel.plan(), batched, workers=1).chunk_count == 1


# -- `repro adjoint` CLI argument validation ---------------------------------------


@pytest.mark.parametrize("argv,message", [
    (["adjoint", "--steps", "0"], "at least one time step"),
    (["adjoint", "--steps", "-3"], "at least one time step"),
    (["adjoint", "--snaps", "0"], "at least one snapshot slot"),
    (["adjoint", "--members", "0"], "at least one member"),
])
def test_adjoint_cli_rejects_bad_counts(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_adjoint_cli_rejects_unknown_problem_and_workers():
    with pytest.raises(SystemExit):
        main(["adjoint", "--problem", "navier3d"])
    with pytest.raises(SystemExit):
        main(["adjoint", "--workers", "0"])
