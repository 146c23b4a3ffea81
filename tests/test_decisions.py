"""One ladder, one verdict: the bind-time decisions every tier shares.

``BoundPlan`` and ``EnsemblePlan`` lower through the same
:class:`~repro.runtime.decisions.Ladder`; these tests pin that there is
one — the two binders record the same verdicts for the same statements
— and that ``explain()`` names the one cause that turned a rung off,
not a list of candidates.  (The array gate's reasons are covered in
``test_native_backend.py``, the watchdog and config-honouring
regressions in ``test_ensemble.py``.)  The sweep rung above the ladder —
a checkpointed sweep as one native program — is refused here, reason by
reason; that it is bitwise when granted is ``test_checkpoint_plan.py``'s.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import adjoint_loops
from repro.errors import NativeBuildError
from repro.runtime import compile_nests, faults, native_available, stack_arrays
from repro.runtime import decisions as decisions_mod
from repro.runtime import native as native_mod

PROBLEMS = {
    "heat2d": (lambda: heat_problem(2), 12),
    "wave2d": (lambda: wave_problem(2), 10),
    "burgers1d": (lambda: burgers_problem(1), 24),
}
BACKENDS = ["python"] + (["native"] if native_available() else [])


def _kernel(name, **kwargs):
    factory, n = PROBLEMS[name]
    prob = factory()
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    return prob, n, compile_nests(nests, prob.bindings(n), name="ladder", **kwargs)


@pytest.mark.parametrize("check", ["none", "nan"])
@pytest.mark.parametrize("fusion", ["auto", "off"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_bound_and_ensemble_record_the_same_rungs(name, backend, fusion, check):
    """A one-member ensemble decides exactly what a bound plan decides.

    The single exception is the ensemble's own last rung: a statement
    that reaches the python rung and evaluates elementwise (every
    statement of these apps) binds batch-shifted instead.
    """
    ensemble_rung = {"python": "batched"}
    prob, n, kernel = _kernel(name)
    plan = kernel.plan(backend=backend, fusion=fusion, check=check)
    state = prob.allocate_state(n, seed=0)
    bound = plan.bind(state)
    with plan.ensemble(stack_arrays([state])) as ensemble:
        assert ensemble.mode == bound.mode
        assert ensemble.decisions[0] == bound.decisions[0]  # the library rung
        assert [(d.subject, d.rung, d.reason) for d in ensemble.decisions[1:]] == [
            (d.subject, ensemble_rung.get(d.rung, d.rung), d.reason)
            for d in bound.decisions[1:]
        ]
        assert ensemble.statement_count == bound.statement_count
        assert ensemble.sweep_count == bound.sweep_count


EXPLAIN_CASES = {
    "python-backend": (dict(), "python backend"),
    "fusion-off": (dict(backend="native", fusion="off"), "fusion='off'"),
    "watchdog": (
        dict(backend="native", check="nan"),
        "check='nan' needs per-statement granularity",
    ),
    "no-toolchain": (
        dict(backend="native"),
        "backend='native' requested but no C compiler was found (checked "
        "REPRO_CC, cc, gcc, clang); falling back to the python backend — "
        "results are identical, only slower",
    ),
}


@pytest.mark.parametrize("case", sorted(EXPLAIN_CASES))
def test_explain_names_the_cause(case, monkeypatch, tmp_path):
    config, cause = EXPLAIN_CASES[case]
    if case == "no-toolchain":
        monkeypatch.setenv("REPRO_CC", str(tmp_path / "nonexistent"))
        monkeypatch.setattr(native_mod, "_toolchain_memo", {})
        monkeypatch.setattr(decisions_mod, "_warned", set())
    elif config.get("backend") == "native" and not native_available():
        pytest.skip("no C toolchain on this machine")
    prob, n, kernel = _kernel("heat2d", cache=False)
    plan = kernel.plan(**config)
    try:
        if case == "no-toolchain":
            with pytest.warns(RuntimeWarning, match="no C compiler was found"):
                bound = plan.bind(prob.allocate_state(n, seed=0))
        else:
            bound = plan.bind(prob.allocate_state(n, seed=0))
        # The one cause, verbatim — not a list of candidates.
        assert f"  fuse: off — {cause}" in bound.explain()
        assert bound.fused_group_count == 0
    finally:
        plan.close()


# -- the sweep rung --------------------------------------------------------------

needs_cc = pytest.mark.skipif(not native_available(), reason="no C toolchain")

SWEEP_REFUSALS = {
    "python-backend": ("heat2d", np.float64, dict(), "python backend"),
    "python-statement": (
        "burgers1d", np.float32, dict(backend="native"),
        "statement burgers1d_b_rem1[0] 'u_1_b': python — Heaviside promotes "
        "float32 statements to float64",
    ),
    "watchdog": (
        "heat2d", np.float64, dict(backend="native", check="nan"),
        "check='nan' scans after every statement of every run",
    ),
    "transactional": (
        "heat2d", np.float64, dict(backend="native", transactional=True),
        "transactional=True backs up written arrays per run",
    ),
}


def _checkpointed(name, dtype, config, steps=5, snaps=2):
    factory, n = PROBLEMS[name]
    prob = factory()
    bindings = prob.bindings(n, dtype=dtype)
    fwd = compile_nests([prob.primal], bindings, name=prob.name)
    rev = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), bindings, name=f"{prob.name}_b"
    )
    plan = fwd.plan(**config).checkpointed_adjoint(
        rev.plan(**config), prob.array_shape(n), steps=steps, snaps=snaps,
        history=prob.history_fields(), dtype=dtype,
    )
    rng = np.random.default_rng(5)
    state0 = [
        (rng.standard_normal(prob.array_shape(n)) * 0.1).astype(dtype)
        for _ in prob.history_fields()
    ]
    return plan, state0, rng.standard_normal(prob.array_shape(n)).astype(dtype)


@pytest.mark.parametrize("case", sorted(SWEEP_REFUSALS))
def test_sweep_refusals_keep_the_per_action_rung(case):
    """Every refusal of the program rung carries its one reason, is not
    a degradation (no warning), and changes no bit."""
    name, dtype, config, reason = SWEEP_REFUSALS[case]
    if config.get("backend") == "native" and not native_available():
        pytest.skip("no C toolchain on this machine")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan, state0, seed = _checkpointed(name, dtype, config)
    with plan:
        assert (plan.sweep.rung, plan.sweep.reason) == ("per-action", reason)
        assert plan.decisions[0] is plan.sweep
        assert plan.explain()[0] == f"sweep: per-action — {reason}"
        assert decisions_mod.program_gate((*plan._fwd, *plan._rev)) == reason
        assert not plan._programs
        ref = {k: v.copy() for k, v in plan.run_store_all(state0, seed).items()}
        out = plan.adjoint(state0, seed)
        assert all(out[k].tobytes() == ref[k].tobytes() for k in ref)


@needs_cc
def test_an_active_injector_selects_the_per_action_rung(monkeypatch):
    """Decided per call: with any injector active a granted program is
    bypassed — the fault points stay on the executed path — and the
    results do not move."""
    plan, state0, seed = _checkpointed("heat2d", np.float64, dict(backend="native"))
    with plan:
        (program,), _ = plan._programs["adjoint"]
        assert plan.sweep == decisions_mod.Verdict(
            "sweep", "program", None, program.distinct, len(program)
        )
        runs = []
        monkeypatch.setattr(program, "run", lambda: runs.append(1))
        with faults.inject("checkpoint.snapshot", times=0) as inj:
            armed = {k: v.copy() for k, v in plan.adjoint(state0, seed).items()}
            assert inj.hits("checkpoint.snapshot") > 0
            assert inj.hits("bound.run") > 0
        assert not runs
        monkeypatch.undo()
        idle = plan.adjoint(state0, seed)
        assert all(armed[k].tobytes() == idle[k].tobytes() for k in idle)


@needs_cc
def test_memory_statements_refuse_what_memcpy_cannot_stand_in_for():
    """``repro_copy``/``repro_zero`` gate their operands when they are
    recorded: contiguity, ownership, byte count, dtype, overlap."""
    _prob, _n, kernel = _kernel("heat2d")
    lib = native_mod.library_for_kernel(kernel)
    a, b = np.zeros((4, 6)), np.ones((4, 6))
    foreign = np.zeros((4, 6))
    program = native_mod.NativeProgram(lib, frozenset({id(a), id(b)}))

    for dst, src, reason in [
        (a[:, ::2], None, "not C-contiguous"),
        (a, np.asfortranarray(b), "not C-contiguous"),
        (foreign, None, "not plan-owned"),
        (a, foreign, "not plan-owned"),
        (a[:2], b, "copy of 192 bytes of float64 into 96 bytes of float64"),
        (a, b.view(np.int64), "copy of 192 bytes of int64 into 192 bytes of float64"),
        (a[1:3], a[2:4], "shares memory with its source"),
    ]:
        assert reason in decisions_mod.memory_gate(dst, src, program._owned)
        with pytest.raises(NativeBuildError, match=reason):
            program.zero(dst) if src is None else program.copy(dst, src)
    frozen = np.zeros(3)
    frozen.flags.writeable = False
    assert decisions_mod.memory_gate(frozen, None, {id(frozen)}) == (
        "memory target is read-only"
    )
    with pytest.raises(NativeBuildError, match="not a native runnable"):
        program.call(object())
    assert len(program) == 0  # a refusal records nothing

    # What passes runs as the NumPy statements it replaces.
    program.copy(a[1:3], b[0:2])
    program.zero(b[3:])
    program.copy(a[1:3], b[0:2])
    assert (len(program), program.distinct) == (3, 2)
    program.seal().run()
    assert a[1:3].tolist() == [[1.0] * 6] * 2 and not a[0].any() and not a[3].any()
    assert not b[3].any() and b[:3].all()
