"""The generated C under AddressSanitizer and UndefinedBehaviorSanitizer.

A child process builds every native object through a ``REPRO_CC``
wrapper that adds ``-fsanitize=address,undefined
-fno-sanitize-recover=all``, into a private ``REPRO_CACHE_DIR`` — the
compiler id the cache keys on is the first line of ``--version``, which
the wrapper shares with the plain compiler, so a shared cache would hand
back unsanitised objects — and runs with ``LD_PRELOAD`` of the two
sanitiser runtimes (the interpreter itself is not instrumented).  Any
out-of-bounds access or undefined behaviour in a generated nest aborts
the child with a report.  Covered: the heat2d primal and adjoint and
burgers1d's, on plain plans (literal nests and per-statement entries)
and on in-process ``ShardedPlan`` slabs at 2 and 3 ranks, whose edge
slabs are clamped at the domain boundary.  A mutation check shows the
harness is live: an object reading one element past a NumPy buffer is
reported.  Everything skips with a reason when the sanitisers cannot
be set up on this machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime import native_toolchain

SRC = Path(__file__).resolve().parents[1] / "src"

# Sums a[0..last] of a 4096-element buffer: last = 4095 is in bounds,
# 4096 is one element past the end.
_PAST_END = """
import ctypes, sys
import numpy as np
from repro.runtime import native

source = (
    "double repro_sum_to(const double *a, long last) {\\n"
    "  double s = 0.0;\\n"
    "  for (long i = 0; i <= last; ++i) s += a[i];\\n"
    "  return s;\\n"
    "}\\n"
)
lib, _ = native._build_and_load(source, native.native_toolchain())
fn = lib.repro_sum_to
fn.restype, fn.argtypes = ctypes.c_double, (ctypes.c_void_p, ctypes.c_long)
a = np.ones(4096)
print("SUM", fn(a.ctypes.data, int(sys.argv[1])))
"""

_KERNELS = """
import numpy as np
from repro.apps import burgers_problem, heat_problem
from repro.core import adjoint_loops
from repro.runtime import ExecutionConfig, ShardedPlan, compile_nests

NATIVE = ExecutionConfig(backend="native")
n, runs = 13, 0


def same(got, want, names, what):
    for name in names:
        assert got[name].tobytes() == want[name].tobytes(), (what, name)


for prob in (heat_problem(2), burgers_problem(1)):
    bindings = prob.bindings(n)
    nests = {
        "primal": [prob.primal],
        "adjoint": list(adjoint_loops(prob.primal, prob.adjoint_map)),
    }
    for what, kernel_nests in nests.items():
        kernel = compile_nests(kernel_nests, bindings, name=f"{prob.name}_{what}")
        stmts = [st for region in kernel.regions for st in region.statements]
        targets = sorted({st.target.name for st in stmts})
        reads = sorted({acc.name for st in stmts for acc in st.reads})
        seed = prob.output_name + "_b"
        accumulate = [t for t in targets if t != seed] if what == "adjoint" else []
        base = prob.allocate_state(n, seed=2)
        want = {k: v.copy() for k, v in base.items()}
        with kernel.plan() as plan:
            plan.bind(want).run()
        for fusion in ("auto", "off"):
            got = {k: v.copy() for k, v in base.items()}
            with kernel.plan(backend="native", fusion=fusion) as plan:
                bound = plan.bind(got)
                assert bound.native_statement_count > 0, (what, fusion)
                bound.run()
            same(got, want, targets, f"{kernel.name} fusion={fusion}")
            runs += 1
        for nranks in (2, 3):
            got = {k: v.copy() for k, v in base.items()}
            with ShardedPlan(
                kernel, got, nranks=nranks, halo=1, config=NATIVE,
                use_workers=False,
            ) as sp:
                assert sp.effective_nranks == nranks and not sp.degraded
                sp.step(exchange=reads, accumulate=accumulate)
                same(sp.gather(targets), want, targets, f"{kernel.name} x{nranks}")
            runs += 1
print("CLEAN", runs)
"""


@pytest.fixture(scope="module")
def sanitised(tmp_path_factory):
    """``run(script, *argv)`` in a child whose native builds and loads
    are sanitised, and its private cache directory; skips when the
    compiler, the runtimes or a probe run are missing."""
    cc = native_toolchain()
    if cc is None:
        pytest.skip("no C toolchain on this machine")
    libs = []
    for name in ("libasan.so", "libubsan.so"):
        try:
            path = subprocess.run(
                [cc, f"-print-file-name={name}"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            pytest.skip(f"{cc} cannot locate {name}: {exc}")
        if not (os.path.isabs(path) and os.path.exists(path)):
            pytest.skip(f"{cc} has no {name}")
        libs.append(path)
    root = tmp_path_factory.mktemp("sanitised")
    wrapper = root / "cc"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'exec "{cc}" -fsanitize=address,undefined -fno-sanitize-recover=all '
        '-fno-omit-frame-pointer "$@"\n'
    )
    wrapper.chmod(0o755)
    cache = root / "cache"
    env = {
        **os.environ,
        "REPRO_CC": str(wrapper),
        "REPRO_CACHE_DIR": str(cache),
        "LD_PRELOAD": " ".join(libs),
        "ASAN_OPTIONS": "detect_leaks=0",
        "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    env.pop("REPRO_NATIVE_THREADS", None)

    def run(script: str, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, timeout=600,
        )

    probe = run(_PAST_END, "4095")
    if probe.returncode != 0 or "SUM 4096.0" not in probe.stdout:
        pytest.skip(f"sanitised probe did not run: {probe.stderr.strip()[-400:]}")
    return run, cache


def test_reading_one_element_past_a_buffer_is_reported(sanitised):
    run, _cache = sanitised
    proc = run(_PAST_END, "4096")
    assert proc.returncode != 0 and "SUM" not in proc.stdout
    assert "heap-buffer-overflow" in proc.stderr, proc.stderr[-2000:]


def test_generated_nests_run_clean_on_plans_and_shard_slabs(sanitised):
    run, cache = sanitised
    proc = run(_KERNELS)
    assert proc.returncode == 0 and "CLEAN 16" in proc.stdout, proc.stderr[-4000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-4000:]
    objects = list((cache / "native").glob("*.so"))
    assert objects and all(b"__asan" in p.read_bytes() for p in objects)
