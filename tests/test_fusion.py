"""The dependence-aware fusion pass: legality, grouping, and exactness.

Three layers under test.  The pure analysis (``repro.core.fusion``)
decides from ``(axis, offset)`` footprints which contiguous statement
runs may share a loop nest — flow/anti/output dependences over the full
lexicographic order, slot-axis-map compatibility, the group-size cap.
The runtime integration (``BoundPlan``/``EnsemblePlan`` with
``fusion="auto"``) must substitute fused groups only on the native
path, fall back group-by-group, and stay *bitwise*
identical to the per-statement reference path it replaces.  And the
hardened build cache underneath (satellite of the same PR) must survive
corrupt content-keyed entries and never expose half-written objects to
``*.so`` scans.
"""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from repro.apps import anisotropic_problem, burgers_problem, heat_problem
from repro.core import adjoint_loops, make_loop_nest
from repro.core.fusion import (
    MAX_GROUP_STATEMENTS,
    FusionEntry,
    FusionGroup,
    describe_groups,
    fusable_pair,
    plan_groups,
)
from repro.runtime import (
    Bindings,
    ExecutionConfig,
    compile_nests,
    native_available,
)
from repro.runtime import decisions as decisions_mod
from repro.runtime import native as native_mod

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine"
)


# -- analysis: pair legality --------------------------------------------------


class _Acc:
    def __init__(self, name, slots):
        self.name, self.slots = name, slots


class _St:
    def __init__(self, target, reads, op="="):
        self.target, self.reads, self.op = target, reads, op


def _entry(st, dim=1, box=((1, 8),), dtype="float64", blocker=None):
    return FusionEntry(st, box, dim, dtype, blocker)


def _pair(writer_off, reader_off, dim=1):
    """producer writes u at writer_off; consumer reads u at reader_off."""
    a = _St(_Acc("u", ((0, writer_off),)), (_Acc("v", ((0, 0),)),))
    b = _St(_Acc("w", ((0, 0),)), (_Acc("u", ((0, reader_off),)),))
    return _entry(a, dim), _entry(b, dim)


def test_flow_dependence_behind_is_fusable():
    a, b = _pair(0, -1)  # consumer reads a point already written
    assert fusable_pair(a, b) is None


def test_flow_dependence_same_point_is_fusable():
    a, b = _pair(0, 0)
    assert fusable_pair(a, b) is None


def test_flow_dependence_ahead_rejects():
    a, b = _pair(0, +1)  # consumer would read a not-yet-written point
    why = fusable_pair(a, b)
    assert why is not None and "flow dependence on 'u'" in why


def test_anti_dependence_rejects():
    # a reads u[i+1]; b overwrites u[i] — in the fused nest b clobbers
    # u at point p before a (at point p+1) has read it.
    a = _St(_Acc("w", ((0, 0),)), (_Acc("u", ((0, -1),)),))
    b = _St(_Acc("u", ((0, 0),)), (_Acc("v", ((0, 0),)),))
    why = fusable_pair(_entry(a), _entry(b))
    assert why is not None and "anti dependence on 'u'" in why


def test_anti_dependence_ahead_is_fusable():
    # a reads u[i+1]; b writes u[i]: every read happens one point before
    # the overwrite reaches it.
    a = _St(_Acc("w", ((0, 0),)), (_Acc("u", ((0, 1),)),))
    b = _St(_Acc("u", ((0, 0),)), (_Acc("v", ((0, 0),)),))
    assert fusable_pair(_entry(a), _entry(b)) is None


def test_output_dependence_rejects_backward_write():
    a = _St(_Acc("u", ((0, 0),)), (_Acc("v", ((0, 0),)),))
    b = _St(_Acc("u", ((0, 1),)), (_Acc("v", ((0, 0),)),))
    why = fusable_pair(_entry(a), _entry(b))
    assert why is not None and "output dependence on 'u'" in why


def test_augmented_target_counts_as_read():
    # b accumulates into u at offset 0 while a writes u at offset -1:
    # the += read of u[i] races a's write of u[i-1] (distance +1).
    a = _St(_Acc("u", ((0, -1),)), (_Acc("v", ((0, 0),)),))
    b = _St(_Acc("u", ((0, -1),)), (_Acc("v", ((0, 1),)),), op="+=")
    assert fusable_pair(_entry(a), _entry(b)) is None
    c = _St(_Acc("u", ((0, 0),)), (_Acc("v", ((0, 1),)),), op="+=")
    why = fusable_pair(_entry(a), _entry(c))
    assert why is not None and "dependence on 'u'" in why


def test_transposed_access_is_unanalyzable():
    # writer addresses u via (axis0, axis1); reader via (axis1, axis0).
    a = _St(_Acc("u", ((0, 0), (1, 0))), (_Acc("v", ((0, 0), (1, 0))),))
    b = _St(
        _Acc("w", ((0, 0), (1, 0))), (_Acc("u", ((1, 0), (0, 0))),)
    )
    why = fusable_pair(
        _entry(a, dim=2, box=((1, 8), (1, 8))),
        _entry(b, dim=2, box=((1, 8), (1, 8))),
    )
    assert why is not None and "slot-axis maps" in why


def test_dtype_mismatch_rejects():
    a, b = _pair(0, -1)
    b32 = FusionEntry(b.stmt, b.box, b.dim, "float32")
    why = fusable_pair(a, b32)
    assert why is not None and "incompatible" in why


def test_lex_order_outer_axis_dominates():
    # 2D: consumer reads one row up (axis0 -1), one column ahead
    # (axis1 +1).  Lexicographically behind: fusable.
    a = _St(_Acc("u", ((0, 0), (1, 0))), (_Acc("v", ((0, 0), (1, 0))),))
    b = _St(
        _Acc("w", ((0, 0), (1, 0))), (_Acc("u", ((0, -1), (1, 1))),)
    )
    box = ((1, 8), (1, 8))
    assert fusable_pair(_entry(a, 2, box), _entry(b, 2, box)) is None


# -- analysis: grouping -------------------------------------------------------


def test_plan_groups_blocked_entries_are_singletons():
    a, b = _pair(0, -1)
    blocked = FusionEntry(b.stmt, b.box, b.dim, b.dtype, "no native lowering")
    groups = plan_groups([a, blocked, b])
    assert [len(g.entries) for g in groups] == [1, 1, 1]
    assert groups[1].reason == "no native lowering"


def test_plan_groups_candidate_checked_against_every_member():
    # a and b fuse; c is fine against b but conflicts with a — the
    # pairwise-with-all rule must cut before c.
    a = _St(_Acc("u", ((0, 0),)), (_Acc("v", ((0, 0),)),))
    b = _St(_Acc("w", ((0, 0),)), (_Acc("q", ((0, 0),)),))
    c = _St(_Acc("r", ((0, 0),)), (_Acc("u", ((0, 1),)),))
    groups = plan_groups([_entry(a), _entry(b), _entry(c)])
    assert [len(g.entries) for g in groups] == [2, 1]
    assert "flow dependence on 'u'" in groups[1].reason


def test_plan_groups_size_cap():
    sts = [
        _St(_Acc("u", ((0, 0),)), (_Acc("v", ((0, 0),)),), op="+=")
        for _ in range(MAX_GROUP_STATEMENTS + 3)
    ]
    groups = plan_groups([_entry(s) for s in sts])
    assert [len(g.entries) for g in groups] == [MAX_GROUP_STATEMENTS, 3]
    assert "cap" in groups[1].reason


def test_describe_groups_lines():
    a, b = _pair(0, -1)
    blocked = FusionEntry(a.stmt, a.box, a.dim, a.dtype, "gated: sin")
    lines = describe_groups(plan_groups([a, b, blocked]))
    assert lines[0].startswith("group 0: FUSED 2 statements")
    assert "statements 0-1" in lines[0]
    assert "gated: sin" in lines[1]


def test_fusion_group_fused_property():
    a, b = _pair(0, -1)
    assert FusionGroup((a, b)).fused
    assert not FusionGroup((a,)).fused


# -- runtime integration ------------------------------------------------------


def _adjoint_case(prob, n, dtype=np.float64, seed=0):
    nests = list(adjoint_loops(prob.primal, prob.adjoint_map))
    kernel = compile_nests(nests, prob.bindings(n, dtype=dtype), cache=False)
    rng = np.random.default_rng(seed)
    base = prob.allocate(n, rng=rng, dtype=dtype)
    base.update(prob.allocate_adjoints(n, rng=rng, dtype=dtype))
    return kernel, base


def _run_bound(kernel, base, runs=3, **plan_kwargs):
    arrays = {k: v.copy() for k, v in base.items()}
    plan = kernel.plan(backend="native", **plan_kwargs)
    try:
        bound = plan.bind(arrays)
        for _ in range(runs):
            bound.run()
        return arrays, bound
    finally:
        plan.close()


@needs_cc
def test_heat2d_fuses_to_one_sweep_bitwise(rng):
    kernel, base = _adjoint_case(heat_problem(2), 24)
    fused, fbound = _run_bound(kernel, base, fusion="auto")
    ref, rbound = _run_bound(kernel, base, fusion="off")
    assert fbound.sweep_count == 1
    assert fbound.fused_group_count == 1
    assert fbound.fused_statement_count == fbound.statement_count == 17
    assert rbound.fused_group_count == 0
    assert rbound.sweep_count == rbound.statement_count
    for name in base:
        assert ref[name].tobytes() == fused[name].tobytes(), name


@needs_cc
def test_fusion_off_by_config_validation():
    with pytest.raises(ValueError, match="fusion"):
        ExecutionConfig(fusion="maybe")
    assert ExecutionConfig(fusion="off").fusion == "off"


@needs_cc
def test_ineligible_statements_fall_back_groupwise(rng):
    """burgers2d f32: Heaviside statements are f32-ineligible, so the
    stream splits around them — fused groups for the eligible runs,
    per-statement execution elsewhere, results exact."""
    kernel, base = _adjoint_case(burgers_problem(2), 16, dtype=np.float32)
    fused, fbound = _run_bound(kernel, base, fusion="auto")
    ref, _ = _run_bound(kernel, base, fusion="off")
    assert 0 < fbound.fused_group_count
    assert fbound.fused_statement_count < fbound.statement_count
    assert fbound.statement_count > fbound.sweep_count > 1
    for name in base:
        assert ref[name].tobytes() == fused[name].tobytes(), name


@needs_cc
def test_group_cap_splits_anisotropic(rng):
    """anisotropic(active_k) has 34 adjoint statements — above the
    group cap — and must split rather than emit a degenerate nest."""
    kernel, base = _adjoint_case(anisotropic_problem(active_k=True), 14)
    fused, fbound = _run_bound(kernel, base, fusion="auto")
    ref, _ = _run_bound(kernel, base, fusion="off")
    assert fbound.statement_count > MAX_GROUP_STATEMENTS
    assert fbound.fused_group_count == 2
    assert fbound.sweep_count == 2
    for name in base:
        assert ref[name].tobytes() == fused[name].tobytes(), name


@needs_cc
def test_value_forwarding_chain_bitwise(rng):
    """A same-point produce->consume chain (the scalarization case):
    v = f(u); w = g(v) at identical offsets must forward through the
    register and still match the two-sweep reference bitwise."""
    i = sp.Symbol("i", integer=True)
    nsym = sp.Symbol("n", integer=True)
    u, v, w = sp.Function("u"), sp.Function("v"), sp.Function("w")
    nests = [
        make_loop_nest(
            lhs=v(i), rhs=0.5 * u(i) ** 2 + 0.25 * u(i - 1),
            counters=[i], bounds={i: [1, nsym - 2]}, name="produce",
        ),
        make_loop_nest(
            lhs=w(i), rhs=sp.Max(v(i), 0.125 * u(i)) + v(i - 1),
            counters=[i], bounds={i: [1, nsym - 2]}, name="consume",
        ),
    ]
    kernel = compile_nests([nests[0], nests[1]], Bindings(sizes={nsym: 64}), cache=False)
    arrays = {
        "u": np.random.default_rng(9).standard_normal(65),
        "v": np.zeros(65),
        "w": np.zeros(65),
    }
    fused, fbound = _run_bound(kernel, arrays, fusion="auto")
    assert fbound.fused_group_count == 1 and fbound.sweep_count == 1
    ref, _ = _run_bound(kernel, arrays, fusion="off")
    for name in arrays:
        assert ref[name].tobytes() == fused[name].tobytes(), name


@needs_cc
def test_fusion_explain_reports_groups(rng):
    kernel, base = _adjoint_case(heat_problem(2), 18)
    plan = kernel.plan(backend="native", fusion="auto")
    try:
        bound = plan.bind({k: v.copy() for k, v in base.items()})
        lines = bound.explain()
        assert any("FUSED 17 statements" in line for line in lines)
        assert lines[-1].startswith("sweeps per timestep: 1")
    finally:
        plan.close()
    off = kernel.plan(backend="native", fusion="off")
    try:
        lines = off.bind({k: v.copy() for k, v in base.items()}).explain()
        assert "  fuse: off — fusion='off'" in lines
    finally:
        off.close()


@needs_cc
def test_ensemble_fusion_bitwise(rng):
    from repro.runtime.ensemble import EnsemblePlan, stack_arrays

    prob = heat_problem(2)
    kernel, base = _adjoint_case(prob, 16)
    members = [
        prob.allocate_state(16, seed=m) for m in range(3)
    ]

    def run(fusion):
        plan = kernel.plan(backend="native", fusion=fusion)
        batched = stack_arrays(members)
        ens = EnsemblePlan(plan, batched)
        for _ in range(3):
            ens.run()
        plan.close()
        return batched, ens

    fused_arrays, fens = run("auto")
    ref_arrays, rens = run("off")
    assert fens.fused_group_count == 3  # one group per member
    assert rens.fused_group_count == 0
    for name in fused_arrays:
        assert ref_arrays[name].tobytes() == fused_arrays[name].tobytes()


# -- build-cache hardening ----------------------------------------------------


@needs_cc
def test_corrupt_cache_entry_self_heals(monkeypatch, tmp_path):
    """Garbage at the content-keyed .so path must not wedge the backend:
    the loader deletes the corrupt entry and rebuilds once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cc = native_mod.native_toolchain()
    source = "double repro_heal_probe(double x) { return x * 2.0; }\n"
    key = native_mod._build_key(source, cc)
    so_path = native_mod.native_cache_dir() / f"{key}.so"
    so_path.parent.mkdir(parents=True, exist_ok=True)
    so_path.write_bytes(b"this is not an ELF object")
    cdll, path = native_mod._build_and_load(source, cc)
    assert path == so_path
    assert so_path.read_bytes()[:4] != b"this"  # rebuilt in place
    fn = cdll.repro_heal_probe
    import ctypes

    fn.restype = ctypes.c_double
    fn.argtypes = (ctypes.c_double,)
    assert fn(ctypes.c_double(21.0)) == 42.0


@needs_cc
def test_host_targeted_objects_are_keyed_by_the_host_isa(monkeypatch, tmp_path):
    """``-march=native`` spells the same on every machine: two hosts
    sharing a cache directory must not share the objects built with it
    (the narrower one would dlopen code it cannot run).  The
    per-statement library takes no host flag, so its key stays put."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cc = native_mod.native_toolchain()
    if not native_mod._host_cflags(cc):
        pytest.skip("this compiler rejects -march=native")
    prob = heat_problem(2)
    nests = adjoint_loops(prob.primal, prob.adjoint_map)

    def objects_built_on(host):
        monkeypatch.setattr(native_mod, "_host_isa", lambda: host)
        before = set(native_mod.native_cache_dir().glob("*.so"))
        kernel = compile_nests(nests, prob.bindings(12), cache=False)
        plan = kernel.plan(backend="native", fusion="auto")
        try:
            bound = plan.bind(prob.allocate_state(12, seed=0))
            assert bound.fused_group_count >= 1
        finally:
            plan.close()
        return {
            p.name for p in set(native_mod.native_cache_dir().glob("*.so")) - before
        }

    narrow = objects_built_on("sse2 avx2")
    wide = objects_built_on("sse2 avx2 avx512f")
    # first host: the statement library and the fused nests; second
    # host: its own fused nests only, the library was a cache hit
    assert wide and len(narrow) == len(wide) + 1
    assert not narrow & wide
    source = "int repro_key_probe(void) { return 0; }\n"
    host_flags = native_mod._CFLAGS + (native_mod._HOST_FLAG,)
    monkeypatch.setattr(native_mod, "_host_isa", lambda: "sse2 avx2")
    baseline = native_mod._build_key(source, cc)
    targeted = native_mod._build_key(source, cc, host_flags)
    monkeypatch.setattr(native_mod, "_host_isa", lambda: "sse2 avx2 avx512f")
    assert native_mod._build_key(source, cc) == baseline
    assert native_mod._build_key(source, cc, host_flags) != targeted
    # a host that cannot be identified gets no host-targeted code at all
    monkeypatch.setattr(native_mod, "_host_isa", lambda: "")
    monkeypatch.setattr(native_mod, "_host_flags_memo", {})
    assert native_mod._host_cflags(cc) == ()


@needs_cc
def test_build_leaves_no_partial_objects(monkeypatch, tmp_path):
    """In-flight compiles carry a .so.tmp suffix, so a concurrent cache
    scan matching *.so can only ever see complete objects; the finished
    files are world-readable (mkstemp's 0600 would break shared caches)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cc = native_mod.native_toolchain()
    real_run = native_mod.subprocess.run

    seen: list[list[str]] = []

    def checking_run(cmd, **kwargs):
        if isinstance(cmd, list) and "-shared" in cmd:
            out = cmd[cmd.index("-o") + 1]
            assert out.endswith(".so.tmp"), out
            seen.append(cmd)
            assert not list(native_mod.native_cache_dir().glob("*.so"))
        return real_run(cmd, **kwargs)

    monkeypatch.setattr(native_mod.subprocess, "run", checking_run)
    source = "double repro_tmp_probe(double x) { return x + 1.0; }\n"
    so_path = native_mod._build_shared_object(source, cc)
    assert seen and so_path.exists() and so_path.suffix == ".so"
    mode = so_path.stat().st_mode & 0o777
    assert mode & 0o044 == 0o044, oct(mode)
    c_mode = so_path.with_suffix(".c").stat().st_mode & 0o777
    assert c_mode & 0o044 == 0o044, oct(c_mode)


@needs_cc
def test_fused_build_failure_falls_back_per_statement(rng, monkeypatch):
    """If the fused compile itself dies, the group binds statement-wise
    and stays exact — fusion is an optimisation, never a requirement."""
    kernel, base = _adjoint_case(heat_problem(2), 16)
    ref, _ = _run_bound(kernel, base, fusion="off")

    def broken(*args, **kwargs):
        raise native_mod.NativeBuildError("injected fused-build failure")

    monkeypatch.setattr(native_mod, "generate_fused_source", broken)
    monkeypatch.setattr(decisions_mod, "_warned", set())
    with pytest.warns(RuntimeWarning, match="fused"):
        fused, fbound = _run_bound(kernel, base, fusion="auto")
    assert fbound.fused_group_count == 0
    assert fbound.native_statement_count == fbound.statement_count
    for name in base:
        assert ref[name].tobytes() == fused[name].tobytes(), name
