"""Tests for the conventional-AD baselines (scatter, atomics, C output)."""

import json
import re
import subprocess
import sys

import numpy as np
import sympy as sp
import pytest

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.baselines import (
    AtomicScatterKernel,
    cse_statements,
    print_function_c_atomic,
    tapenade_style_adjoint,
)
from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import Bindings, compile_nests, native_toolchain
from repro.runtime.compiler import KernelError
from repro.runtime.native import _omp_cflags


def test_scatter_adjoint_structure():
    prob = wave_problem(3, active_c=False)
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    # One scattered update per active input access: 7 (u_1 star) + 1 (u_2).
    assert len(scat.statements) == 8
    assert scat.bounds == prob.primal.bounds
    assert all(st.op == "+=" for st in scat.statements)


def test_scatter_equals_gather(any_problem, rng):
    prob, N = any_problem
    gather = adjoint_loops(prob.primal, prob.adjoint_map)
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    b = prob.bindings(N)
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    a1 = {k: v.copy() for k, v in base.items()}
    a2 = {k: v.copy() for k, v in base.items()}
    compile_nests(gather, b)(a1)
    compile_nests([scat], b)(a2)
    name_map = prob.adjoint_name_map()
    for prim in prob.active_input_names():
        np.testing.assert_allclose(
            a1[name_map[prim]], a2[name_map[prim]], rtol=1e-12, atol=1e-13
        )


def test_atomic_kernel_equals_scatter(rng):
    prob = heat_problem(2)
    N = 14
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    kernel = compile_nests([scat], prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    a1 = {k: v.copy() for k, v in base.items()}
    a2 = {k: v.copy() for k, v in base.items()}
    kernel(a1)
    AtomicScatterKernel(kernel)(a2)
    np.testing.assert_allclose(a1["u_1_b"], a2["u_1_b"], rtol=1e-12, atol=1e-13)


def test_atomic_kernel_rejects_assignment():
    prob = heat_problem(1)
    kernel = compile_nests([prob.primal], prob.bindings(10))
    # primal uses '+='; force an '=' to check rejection
    from repro.core import LoopNest, Statement
    import sympy as sp

    i = sp.Symbol("i", integer=True)
    n = sp.Symbol("n", integer=True)
    u, r = sp.Function("u"), sp.Function("r")
    nest = LoopNest(
        statements=(Statement(lhs=r(i), rhs=u(i), op="="),),
        counters=(i,),
        bounds={i: (1, n - 1)},
    )
    k2 = compile_nests([nest], Bindings(sizes={n: 10}))
    with pytest.raises(KernelError):
        AtomicScatterKernel(k2)


def test_cse_reduces_ops():
    """Tapenade's tempb factoring: CSE reduces the scatter op count."""
    prob = wave_problem(3, active_c=False)
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    before, after = cse_statements(scat)
    assert after < before


def test_atomic_c_output_matches_figure5_style():
    prob = wave_problem(3, active_c=False)
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    code = print_function_c_atomic("wave3d_b_atomic", scat)
    assert "#pragma omp parallel for private(i,j,k)" in code
    assert code.count("#pragma omp atomic") == 8
    # Tapenade iterates backwards.
    assert "for (i = n - 2; i >= 1; --i)" in code
    assert "u_1_b[i - 1][j][k] +=" in code


def test_atomic_kernel_on_burgers(rng):
    prob = burgers_problem(1)
    N = 30
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    kernel = compile_nests([scat], prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    a1 = {k: v.copy() for k, v in base.items()}
    a2 = {k: v.copy() for k, v in base.items()}
    kernel(a1)
    AtomicScatterKernel(kernel)(a2)
    np.testing.assert_allclose(a1["u_1_b"], a2["u_1_b"], rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_atomic_kernel_bitwise_with_counter_values(dtype):
    """A loop counter used as a value enters in the kernel dtype, so the
    atomic kernel stays bitwise equal to the serial scatter kernel in
    float32 too (an int64 counter used to promote it to float64)."""
    i, n = sp.Symbol("i", integer=True), sp.Symbol("n", integer=True)
    u, r, u_b, r_b = (sp.Function(name) for name in ("u", "r", "u_b", "r_b"))
    primal = make_loop_nest(
        lhs=r(i),
        rhs=0.1 * i * (u(i - 1) - 2 * u(i) + u(i + 1)),
        counters=[i],
        bounds={i: [1, n - 2]},
        op="+=",
    )
    scat = tapenade_style_adjoint(primal, {u: u_b, r: r_b})
    kernel = compile_nests(
        [scat], Bindings(sizes={n: 40}, dtype=dtype), cache=False
    )
    rng = np.random.default_rng(0)
    base = {
        name: rng.standard_normal(40).astype(dtype)
        for name in kernel.array_names
    }
    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)
    atomic = {k: v.copy() for k, v in base.items()}
    AtomicScatterKernel(kernel)(atomic)
    for name in base:
        assert atomic[name].dtype == dtype
        assert serial[name].tobytes() == atomic[name].tobytes(), name


# Runs one printed atomic adjoint in a child process: a miscompiled loop
# writing out of bounds must fail the test, not corrupt the test runner.
_RUN_ATOMIC_C = """
import ctypes, json, sys
import numpy as np
so, data, out, spec, pad = sys.argv[1:6]
arrays = dict(np.load(data))
args = []
for kind, name, value in json.loads(spec):
    if kind == "array":
        arr = arrays[name]
        args.append(ctypes.c_void_p(arr.ctypes.data + int(pad) * arr.itemsize))
    elif kind == "double":
        args.append(ctypes.c_double(value))
    else:
        args.append(ctypes.c_int(value))
getattr(ctypes.CDLL(so), "adjoint_atomic")(*args)
np.savez(out, **arrays)
"""


@pytest.mark.parametrize(
    "factory", [heat_problem, burgers_problem], ids=["heat1d", "burgers1d"]
)
def test_atomic_c_output_compiles_and_runs(factory, tmp_path):
    """The printed Figure 5 atomics adjoint, compiled with the probed
    toolchain and OpenMP flags, computes the serial scatter adjoint."""
    cc = native_toolchain()
    if cc is None:
        pytest.skip("no C toolchain (REPRO_CC, cc, gcc or clang) found")
    prob = factory(1)
    n, pad, guard = 40, 4, 7.0
    scat = tapenade_style_adjoint(prob.primal, prob.adjoint_map)
    code = print_function_c_atomic("adjoint_atomic", scat)
    src, so = tmp_path / "atomic.c", tmp_path / "atomic.so"
    src.write_text("#include <math.h>\n" + code)
    flags = ["-O2", "-fPIC", "-shared", *(_omp_cflags(cc) or ())]
    subprocess.run(
        [cc, *flags, str(src), "-o", str(so), "-lm"],
        check=True, capture_output=True,
    )

    bindings = prob.bindings(n)
    kernel = compile_nests([scat], bindings, cache=False)
    rng = np.random.default_rng(3)
    base = prob.allocate(n, rng=rng)
    base.update(prob.allocate_adjoints(n, rng=rng))
    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)

    values = {str(k): v for k, v in {**bindings.sizes, **bindings.params}.items()}
    signature = re.match(r"void adjoint_atomic\((.*)\) \{", code).group(1)
    spec = []
    for param in signature.split(", "):
        ctype, name = param.rsplit(" ", 1)
        if name.startswith("*"):
            spec.append(("array", name.lstrip("*"), None))
        else:
            spec.append((ctype, name, values[name]))
    padded = {
        name: np.concatenate([np.full(pad, guard), arr, np.full(pad, guard)])
        for name, arr in base.items()
    }
    np.savez(tmp_path / "in.npz", **padded)
    child = subprocess.run(
        [sys.executable, "-c", _RUN_ATOMIC_C, str(so), str(tmp_path / "in.npz"),
         str(tmp_path / "out.npz"), json.dumps(spec), str(pad)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    got = dict(np.load(tmp_path / "out.npz"))
    for name, arr in got.items():
        assert (arr[:pad] == guard).all() and (arr[-pad:] == guard).all(), name
        np.testing.assert_allclose(
            arr[pad:-pad], serial[name], rtol=1e-12, atol=1e-13, err_msg=name
        )
