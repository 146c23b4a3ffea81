"""One ladder, one verdict: the bind-time decisions every tier shares.

``BoundPlan`` and ``EnsemblePlan`` lower through the same
:class:`~repro.runtime.decisions.Ladder`; these tests pin that there is
one — the two binders record the same verdicts for the same statements
— and that ``explain()`` names the one cause that turned a rung off,
not a list of candidates.  (The array gate's reasons are covered in
``test_native_backend.py``, the watchdog and config-honouring
regressions in ``test_ensemble.py``.)
"""

from __future__ import annotations

import pytest

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import adjoint_loops
from repro.runtime import compile_nests, native_available, stack_arrays
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
    "tiled": (
        dict(backend="native", tile_shape=(4, 4)),
        "tile_shape set: fused nests bake geometry",
    ),
    "threaded": (
        dict(backend="native", num_threads=2, min_block_iterations=1),
        "num_threads > 1: fused nests bake geometry, not per-task boxes",
    ),
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
