"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``
    Generate primal or adjoint code for a built-in problem or a stencil
    described in the textual front-end language, in any back-end.
``verify``
    Run the Section 3.6 verification (gather vs scatter vs atomics vs
    interpreter) plus dot-product and finite-difference checks.
``figures``
    Regenerate the paper's performance figures (Figures 8–15).
``loop-counts``
    Print the Section 3.3.4 loop-nest counts for the built-in problems.
``fuse``
    Show the dependence-aware fusion plan (``docs/fusion.md``) for a
    problem's adjoint: which statement chains merge into single native
    loop nests, why the others stay separate, and the resulting memory
    sweeps per timestep.  ``--explain`` prints the per-group detail.
``sweep``
    Run a batched ensemble (many scenarios — distinct initial
    conditions, optional parameter grids — through one kernel; see
    ``docs/ensembles.md``), measure its steady-state throughput against
    the naive per-member loop of bound plans, extract per-member
    gradients, and write ``BENCH_ensemble.json``.  Exits non-zero when
    any member diverges bitwise from its single-scenario run.
``adjoint``
    Run a revolve-checkpointed adjoint time loop (memory O(snaps)
    instead of O(steps); see ``docs/checkpointing.md``) against its
    store-all reference, verify bitwise identity, the snapshot-memory
    ratio and the recompute count, and write ``BENCH_checkpoint.json``.
``serve``
    Run the kernel-as-a-service daemon (``docs/serving.md``): a
    persistent process listening on a Unix-domain socket that parses
    stencil specs once, keeps bound plans warm, and coalesces
    concurrent same-kernel requests into single batched ensemble runs.
``request``
    Send one run request to a ``serve`` daemon: parse a stencil file,
    allocate a seeded state, execute it remotely and print the result
    norms plus the batching evidence from the response.
``shard``
    Run a problem block-decomposed across shard worker processes
    (``docs/sharding.md``) at one or more rank counts, hard-assert that
    forward state and adjoint gradients are bitwise identical to the
    single-shard run, report per-timestep times and write
    ``BENCH_shard.json``.

Timings these commands print are a report, not a gate: the one place two
commits' timings are compared is ``bench/run.py --compare`` (README,
"Performance gate").
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .apps import burgers_problem, conv_problem, heat_problem, wave_problem
from .codegen import (
    print_function_c,
    print_function_cuda,
    print_function_fortran,
    print_function_python,
)
from .core import adjoint_loops
from .errors import (
    NativeBuildError,
    NumericalDivergenceError,
    ReproError,
    ValidationError,
)

__all__ = ["main", "build_parser", "exit_code_for"]

# Exit-code contract (documented in docs/reliability.md): scripts
# driving the CLI can distinguish *what* failed without parsing stderr.
# 0 success, 1 any other failure, 2 usage (argparse's own convention,
# kept), then one code per typed failure family.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BUILD = 4
EXIT_DIVERGENCE = 5


def exit_code_for(exc: ReproError) -> int:
    """Map a typed runtime error onto the CLI exit-code contract.

    Order matters: :class:`NativeBuildError` is a ``KernelError`` and
    :class:`NumericalDivergenceError` a ``ReproError``, so the most
    specific families are tested first.

    >>> from repro.errors import (NativeBuildError,
    ...     NumericalDivergenceError, ValidationError, KernelError)
    >>> exit_code_for(ValidationError("bad spec"))
    3
    >>> exit_code_for(NativeBuildError("cc failed"))
    4
    >>> exit_code_for(NumericalDivergenceError("nan"))
    5
    >>> exit_code_for(KernelError("other"))
    1
    """
    if isinstance(exc, NativeBuildError):
        return EXIT_BUILD
    if isinstance(exc, NumericalDivergenceError):
        return EXIT_DIVERGENCE
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    return EXIT_ERROR

_PROBLEMS = {
    "wave1d": lambda: wave_problem(1),
    "wave2d": lambda: wave_problem(2),
    "wave3d": lambda: wave_problem(3),
    "burgers1d": lambda: burgers_problem(1),
    "burgers2d": lambda: burgers_problem(2),
    "heat1d": lambda: heat_problem(1),
    "heat2d": lambda: heat_problem(2),
    "heat3d": lambda: heat_problem(3),
    "conv3x3": lambda: conv_problem(3),
    "conv5x5": lambda: conv_problem(5),
}

_BACKENDS = {
    "c": print_function_c,
    "fortran": print_function_fortran,
    "python": print_function_python,
    "cuda": print_function_cuda,
}

_DEFAULT_N = {
    "wave3d": 12, "wave2d": 18, "wave1d": 40,
    "burgers1d": 48, "burgers2d": 16,
    "heat1d": 40, "heat2d": 18, "heat3d": 10,
    "conv3x3": 18, "conv5x5": 20,
}


def _thread_count(value: str) -> int:
    try:
        threads = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid thread count {value!r}")
    if threads < 1:
        raise argparse.ArgumentTypeError("thread count must be >= 1")
    return threads


def _tile_shape(value: str) -> tuple[int, ...]:
    try:
        tile = tuple(int(t) for t in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid tile shape {value!r}; expected comma-separated ints"
        )
    if not tile or any(t < 1 for t in tile):
        raise argparse.ArgumentTypeError("tile extents must be >= 1")
    return tile


def _param_values(value: str) -> tuple[str, tuple[float, ...]]:
    name, sep, rest = value.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"invalid parameter spec {value!r}; expected NAME=V1[,V2,...]"
        )
    try:
        values = tuple(float(v) for v in rest.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid parameter values in {value!r}; expected floats"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"no values in parameter spec {value!r}")
    return name, values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adjoint stencil loops (Hückelheim et al., ICPP 2019) "
        "— generation, verification and experiment regeneration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate primal/adjoint code")
    gen.set_defaults(func=_cmd_generate)
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", choices=sorted(_PROBLEMS), help="built-in problem")
    src.add_argument("--file", help="stencil source file (front-end language)")
    gen.add_argument("--backend", choices=sorted(_BACKENDS), default="c")
    gen.add_argument(
        "--kind", choices=["primal", "adjoint", "both"], default="both"
    )
    gen.add_argument(
        "--strategy", choices=["disjoint", "guarded", "padded"], default="disjoint"
    )
    gen.add_argument("--no-merge", action="store_true",
                     help="do not merge same-target statements (Figure 5 style)")
    gen.add_argument("--output", help="write to file instead of stdout")

    ver = sub.add_parser("verify", help="run the Section 3.6 verification")
    ver.set_defaults(func=_cmd_verify)
    ver.add_argument("--problem", choices=sorted(_PROBLEMS), default=None)
    ver.add_argument(
        "--chaos", action="store_true",
        help="run the chaos suite instead: fire every registered fault "
        "point (repro.runtime.faults) and assert the graceful-"
        "degradation contract — bitwise-identical fallback or one typed "
        "ReproError with user arrays intact (see docs/reliability.md)",
    )
    ver.add_argument("--n", type=int, default=None, help="grid size")
    ver.add_argument(
        "--strategy", choices=["disjoint", "guarded"], default="disjoint"
    )
    ver.add_argument(
        "--threads", type=_thread_count, default=1,
        help="also verify the planned thread-parallel execution at this "
        "thread count (must match the serial adjoint bitwise)",
    )
    ver.add_argument(
        "--tile", type=_tile_shape, default=None, metavar="T0,T1,...",
        help="also verify planned tiled execution with this tile shape",
    )
    ver.add_argument(
        "--backend", choices=["python", "native"], default="python",
        help="execution backend for the planned-vs-serial check "
        "(native must reproduce the serial python adjoint bitwise)",
    )

    fig = sub.add_parser("figures", help="regenerate Figures 8-15")
    fig.set_defaults(func=_cmd_figures)
    fig.add_argument(
        "--figure",
        choices=["fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
                 "fig14", "fig15", "all"],
        default="all",
    )

    sub.add_parser(
        "loop-counts", help="Section 3.3.4 loop-nest counts"
    ).set_defaults(func=_cmd_loop_counts)

    fus = sub.add_parser(
        "fuse",
        help="show the dependence-aware fusion plan for a problem's adjoint",
    )
    fus.set_defaults(func=_cmd_fuse)
    fus.add_argument("--problem", choices=sorted(_PROBLEMS), default="heat2d")
    fus.add_argument("--n", type=int, default=None, help="grid size")
    fus.add_argument(
        "--dtype", choices=["f64", "f32"], default="f64",
        help="kernel dtype (default: f64); eligibility is dtype-dependent",
    )
    fus.add_argument(
        "--fusion", choices=["auto", "off"], default="auto",
        help="fusion mode to plan with (default: auto)",
    )
    fus.add_argument(
        "--explain", action="store_true",
        help="print per-group detail: members, written arrays, and the "
        "dependence or eligibility reason each group boundary exists",
    )

    swp = sub.add_parser(
        "sweep",
        help="batched ensemble run / parameter sweep "
        "(writes BENCH_ensemble.json)",
    )
    swp.set_defaults(func=_cmd_sweep)
    swp.add_argument("--problem", choices=sorted(_PROBLEMS), default="heat2d")
    swp.add_argument("--n", type=int, default=None, help="grid size")
    swp.add_argument(
        "--members", type=int, default=64,
        help="ensemble size (default: 64); member m gets the seed-m "
        "initial state and the m-th point of the parameter grid, "
        "round-robin",
    )
    swp.add_argument(
        "--param", type=_param_values, action="append", default=[],
        metavar="NAME=V1[,V2,...]",
        help="sweep a kernel parameter over these values (repeatable; "
        "multiple --param options form a cartesian grid; each distinct "
        "point compiles one kernel via the content-addressed cache)",
    )
    swp.add_argument(
        "--workers", type=_thread_count, default=1,
        help="ensemble worker threads (member chunks on the plan's "
        "worker pool; default: 1 = one fully fused chunk)",
    )
    swp.add_argument(
        "--backend", choices=["python", "native"], default="python",
        help="member execution backend (native chains whole "
        "member-timesteps into single C calls)",
    )
    swp.add_argument(
        "--dtype", choices=["f64", "f32"], default="f64",
        help="kernel dtype (default: f64)",
    )
    swp.add_argument(
        "--reps", type=int, default=60,
        help="timing repetitions per round (default: 60)",
    )
    swp.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions (CI smoke)",
    )
    swp.add_argument(
        "--output", default="BENCH_ensemble.json",
        help="where to write the JSON record (default: ./BENCH_ensemble.json)",
    )

    adj = sub.add_parser(
        "adjoint",
        help="revolve-checkpointed adjoint time loop "
        "(writes BENCH_checkpoint.json)",
    )
    adj.set_defaults(func=_cmd_adjoint)
    adj.add_argument("--problem", choices=sorted(_PROBLEMS), default="burgers1d")
    adj.add_argument("--n", type=int, default=None, help="grid size")
    adj.add_argument(
        "--steps", type=int, default=24,
        help="time steps to reverse (default: 24)",
    )
    adj.add_argument(
        "--snaps", type=int, default=4,
        help="resident snapshot slots (default: 4); memory is O(snaps) "
        "instead of the store-all sweep's O(steps)",
    )
    adj.add_argument(
        "--members", type=int, default=1,
        help="ensemble members; > 1 runs one revolve schedule across a "
        "leading member axis (default: 1)",
    )
    adj.add_argument(
        "--workers", type=_thread_count, default=1,
        help="ensemble worker threads (only with --members > 1)",
    )
    adj.add_argument(
        "--backend", choices=["python", "native"], default="python",
        help="bound-execution backend for both the forward and reverse "
        "plans",
    )
    adj.add_argument(
        "--dtype", choices=["f64", "f32"], default="f64",
        help="state dtype (default: f64)",
    )
    adj.add_argument(
        "--reps", type=int, default=5,
        help="timing repetitions per sweep variant (default: 5)",
    )
    adj.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions (CI smoke)",
    )
    adj.add_argument(
        "--output", default="BENCH_checkpoint.json",
        help="where to write the JSON record (default: ./BENCH_checkpoint.json)",
    )

    srv = sub.add_parser(
        "serve",
        help="run the compile-and-serve daemon (see docs/serving.md)",
    )
    srv.set_defaults(func=_cmd_serve)
    srv.add_argument(
        "--socket", required=True, metavar="PATH",
        help="Unix-domain socket path to listen on (created fresh; "
        "removed again on shutdown)",
    )
    srv.add_argument(
        "--workers", type=_thread_count, default=2,
        help="executor threads running batched/single kernel dispatches "
        "(default: 2)",
    )
    srv.add_argument(
        "--max-batch", type=_thread_count, default=8,
        help="most same-kernel requests coalesced into one batched "
        "ensemble run (default: 8; 1 disables batching)",
    )
    srv.add_argument(
        "--batch-window-ms", type=float, default=2.0,
        help="how long the first request of a batch waits for company "
        "before dispatch (default: 2.0; <= 0 dispatches immediately)",
    )

    req = sub.add_parser(
        "request",
        help="send one run request to a serve daemon and print the result",
    )
    req.set_defaults(func=_cmd_request)
    req.add_argument(
        "--socket", required=True, metavar="PATH",
        help="the daemon's Unix-domain socket",
    )
    req.add_argument(
        "--file", required=True,
        help="stencil source file (front-end language) to run remotely",
    )
    req.add_argument(
        "--size", action="append", default=[], metavar="NAME=INT",
        help="bind a size symbol (repeatable)",
    )
    req.add_argument(
        "--param", action="append", default=[], metavar="NAME=FLOAT",
        help="bind a scalar parameter (repeatable)",
    )
    req.add_argument("--steps", type=int, default=1,
                     help="kernel applications per request (default: 1)")
    req.add_argument("--seed", type=int, default=0,
                     help="seed for the generated initial state (default: 0)")
    req.add_argument(
        "--dtype", choices=["f64", "f32"], default="f64",
        help="state dtype (default: f64)",
    )
    req.add_argument(
        "--backend", choices=["python", "native"], default="python",
        help="server-side execution backend (default: python)",
    )

    shd = sub.add_parser(
        "shard",
        help="sharded multi-process execution: bitwise contract + "
        "per-step timings (writes BENCH_shard.json)",
    )
    shd.set_defaults(func=_cmd_shard)
    shd.add_argument("--problem", choices=sorted(_PROBLEMS), default="heat2d")
    shd.add_argument(
        "--ranks", action="append", type=int, default=None, metavar="N",
        help="shard count to test (repeatable; default: 1 2 4)",
    )
    shd.add_argument("--n", type=int, default=None, help="grid size")
    shd.add_argument(
        "--steps", type=int, default=None,
        help="timesteps per measured run (default: 8 with --quick, 16 "
        "otherwise)",
    )
    shd.add_argument(
        "--backend", choices=["python", "native"], default="python",
        help="bound-execution backend on every shard (default: python)",
    )
    shd.add_argument(
        "--dtype", choices=["f64", "f32"], default="f64",
        help="state dtype (default: f64)",
    )
    shd.add_argument(
        "--reps", type=int, default=5,
        help="timing repetitions, best-of (default: 5; per-step worker "
        "dispatch is scheduling-noisy, so --quick keeps best-of "
        "sampling)",
    )
    shd.add_argument(
        "--quick", action="store_true",
        help="small grid, fewer steps and repetitions (CI smoke)",
    )
    shd.add_argument(
        "--output", default="BENCH_shard.json",
        help="where to write the JSON record (default: ./BENCH_shard.json)",
    )
    return parser


def _cmd_generate(args) -> int:
    if args.problem:
        prob = _PROBLEMS[args.problem]()
        nest = prob.primal
        adjoint_map = prob.adjoint_map
        name = prob.name
    else:
        from .frontend import parse_stencil
        from .core.symbols import make_adjoint_function

        try:
            with open(args.file) as fh:
                nest = parse_stencil(fh.read())
        except OSError as exc:
            print(f"cannot read spec file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        name = nest.name or "stencil"
        funcs = {}
        import sympy as sp

        for arr in nest.written_arrays() + nest.read_arrays():
            funcs[arr] = sp.Function(arr)
        adjoint_map = {
            funcs[a]: make_adjoint_function(funcs[a])
            for a in nest.written_arrays() + nest.read_arrays()
        }
    backend = _BACKENDS[args.backend]
    chunks = []
    if args.kind in ("primal", "both"):
        chunks.append(backend(name, [nest]))
    if args.kind in ("adjoint", "both"):
        nests = adjoint_loops(
            nest, adjoint_map, strategy=args.strategy, merge=not args.no_merge
        )
        chunks.append(backend(f"{name}_b", nests))
    code = "\n".join(chunks)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(code)
    else:
        sys.stdout.write(code)
    return 0


def _plan_vs_serial_diff(
    prob, n: int, strategy: str, threads: int, tile, backend: str = "python"
) -> float:
    """Max |planned - serial| over active adjoints for one plan config."""
    import numpy as np

    from .core import adjoint_loops
    from .runtime import ExecutionConfig, ExecutionPlan, compile_nests

    bindings = prob.bindings(n)
    nests = adjoint_loops(prob.primal, prob.adjoint_map, strategy=strategy)
    kernel = compile_nests(nests, bindings, name="gather")
    rng = np.random.default_rng(0)
    base = prob.allocate(n, rng=rng)
    base.update(prob.allocate_adjoints(n, rng=rng))
    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)
    planned = {k: v.copy() for k, v in base.items()}
    # A private (non-memoised) plan: closing its pool afterwards cannot
    # affect other holders of the kernel's shared plans.
    config = ExecutionConfig(
        num_threads=threads, tile_shape=tile, min_block_iterations=1,
        backend=backend,
    )
    with ExecutionPlan.build(kernel, config) as plan:
        # Bind explicitly: the bound path is the steady-state path and
        # the only one the native backend accelerates.
        plan.bind(planned).run()
    name_map = prob.adjoint_name_map()
    return max(
        float(np.max(np.abs(serial[name_map[a]] - planned[name_map[a]])))
        for a in prob.active_input_names()
    )


def _cmd_chaos() -> int:
    from .runtime import faults
    from .verify.chaos import run_chaos

    results = run_chaos()
    print(f"chaos suite: {len(results)} registered fault point(s)")
    for res in results:
        verdict = "PASS" if res.ok else "FAIL"
        print(f"  {verdict} {res.point:20s} [{res.contract:11s}] {res.detail}")
    covered = sum(res.ok for res in results)
    total = len(faults.registered_fault_points())
    ok = covered == total
    print(
        "  VERDICT: "
        + (
            f"graceful-degradation contract holds at all {total} points"
            if ok
            else f"CONTRACT VIOLATED ({total - covered} of {total} points)"
        )
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from .verify import compare_adjoints, dot_product_test, finite_difference_test

    if args.chaos:
        return _cmd_chaos()
    if args.problem is None:
        print("verify needs --problem (or --chaos)", file=sys.stderr)
        return EXIT_USAGE
    prob = _PROBLEMS[args.problem]()
    n = args.n or _DEFAULT_N[args.problem]
    cmp_ = compare_adjoints(prob, n=n, strategy=args.strategy)
    dp = dot_product_test(prob, n=n, strategy=args.strategy)
    fd = finite_difference_test(prob, n=n, strategy=args.strategy)
    print(f"problem {prob.name}, n={n}, strategy={args.strategy}")
    print(f"  gather vs scatter      : {cmp_.gather_vs_scatter:.3e}")
    print(f"  gather vs atomics      : {cmp_.gather_vs_atomic:.3e}")
    print(f"  gather vs interpreter  : {cmp_.gather_vs_interpreter:.3e}")
    print(f"  dot-product rel. error : {dp.rel_error:.3e}")
    print(f"  finite-diff rel. error : {fd.rel_error:.3e}")
    ok = cmp_.passed() and dp.passed and fd.passed(5e-5)
    if args.threads > 1 or args.tile or args.backend != "python":
        tile = args.tile
        diff = _plan_vs_serial_diff(
            prob, n, args.strategy, args.threads, tile, backend=args.backend
        )
        desc = f"{args.threads} thread(s)" + (f", tile {tile}" if tile else "")
        if args.backend != "python":
            desc += f", backend {args.backend}"
        print(f"  plan [{desc}] vs serial: {diff:.3e}")
        ok = ok and diff == 0.0
    print("  VERDICT: " + ("all adjoints agree" if ok else "MISMATCH"))
    return 0 if ok else 1


def _cmd_figures(args) -> int:
    from . import experiments as E

    if args.figure == "all":
        print(E.render_all())
        return 0
    table = {
        "fig08": (E.fig08_wave_broadwell, E.render_speedup),
        "fig09": (E.fig09_burgers_broadwell, E.render_speedup),
        "fig10": (E.fig10_wave_runtimes_broadwell, E.render_bars),
        "fig11": (E.fig11_burgers_runtimes_broadwell, E.render_bars),
        "fig12": (E.fig12_wave_knl, E.render_speedup),
        "fig13": (E.fig13_burgers_knl, E.render_speedup),
        "fig14": (E.fig14_wave_runtimes_knl, E.render_bars),
        "fig15": (E.fig15_burgers_runtimes_knl, E.render_bars),
    }
    build, render = table[args.figure]
    print(render(build()))
    return 0


def _cmd_fuse(args) -> int:
    """Print the fusion plan the native backend would use for a problem."""
    import numpy as np

    from .core import adjoint_loops
    from .runtime import compile_nests

    prob = _PROBLEMS[args.problem]()
    n = args.n or _DEFAULT_N[args.problem]
    dtype = np.float64 if args.dtype == "f64" else np.float32
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(n, dtype=dtype), name="fuse")
    rng = np.random.default_rng(0)
    arrays = prob.allocate(n, rng=rng, dtype=dtype)
    arrays.update(prob.allocate_adjoints(n, rng=rng, dtype=dtype))
    plan = kernel.plan(backend="native", fusion=args.fusion)
    try:
        bound = plan.bind(arrays)
        print(
            f"problem {prob.name}, n={n}, dtype={args.dtype}, "
            f"fusion={args.fusion}"
        )
        if args.explain:
            for line in bound.explain():
                print(f"  {line}")
        else:
            print(
                f"  {bound.statement_count} statements -> "
                f"{bound.sweep_count} memory sweeps per timestep "
                f"({bound.fused_group_count} fused groups covering "
                f"{bound.fused_statement_count} statements; "
                f"use --explain for the per-group reasons)"
            )
    finally:
        plan.close()
    return 0


def _cmd_sweep(args) -> int:
    """Batched ensemble run: parameter grid, throughput, gradients, JSON."""
    import itertools
    import json
    import time

    import numpy as np

    from .core import adjoint_loops
    from .experiments.steady import measure_ensemble
    from .runtime import compile_nests

    prob = _PROBLEMS[args.problem]()
    n = args.n or _DEFAULT_N[args.problem]
    members = args.members
    if members < 1:
        print("sweep needs at least one member", file=sys.stderr)
        return EXIT_USAGE
    reps = max(1, args.reps // 4) if args.quick else args.reps
    dtype = np.float64 if args.dtype == "f64" else np.float32

    # Cartesian parameter grid; member m takes grid point m % len(grid).
    grid_names = [name for name, _ in args.param]
    unknown = sorted(set(grid_names) - set(prob.param_defaults))
    if unknown:
        print(
            f"unknown parameter(s) {unknown} for {prob.name}; "
            f"available: {sorted(prob.param_defaults)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    combos = [
        dict(zip(grid_names, values))
        for values in itertools.product(*(vals for _, vals in args.param))
    ] or [{}]
    groups: dict[int, list[int]] = {}
    for m in range(members):
        groups.setdefault(m % len(combos), []).append(m)

    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    name_map = prob.adjoint_name_map()
    grad_names = [name_map[a] for a in prob.active_input_names()]
    member_records: list[dict] = [None] * members  # type: ignore[list-item]
    group_records = []
    total_loop_us = total_ensemble_us = 0.0
    bitwise = True
    for ci, member_ids in sorted(groups.items()):
        params = combos[ci]
        kernel = compile_nests(
            nests, prob.bindings(n, dtype=dtype, **params), name="sweep"
        )
        plan = kernel.plan(backend=args.backend)
        states = [
            prob.allocate_state(n, seed=m, dtype=dtype) for m in member_ids
        ]
        record, ensemble = measure_ensemble(
            plan, states, reps, workers=args.workers
        )
        with ensemble:
            for local, m in enumerate(member_ids):
                views = ensemble.member_arrays(local)
                member_records[m] = {
                    "member": m,
                    "params": params,
                    "gradients": {
                        name: round(float(np.linalg.norm(views[name])), 12)
                        for name in grad_names
                    },
                }
        group_records.append({"params": params, "members": member_ids, **record})
        total_loop_us += record["loop_us_per_member_step"] * len(member_ids)
        total_ensemble_us += record["ensemble_us_per_member_step"] * len(member_ids)
        bitwise = bitwise and record["bitwise_identical"]
        plan.close()

    speedup = total_loop_us / total_ensemble_us if total_ensemble_us else 0.0
    record = {
        "benchmark": "ensemble_sweep",
        "problem": prob.name,
        "n": n,
        "members": members,
        "reps": reps,
        "backend": args.backend,
        "workers": args.workers,
        "dtype": args.dtype,
        "param_grid": {name: list(vals) for name, vals in args.param},
        "loop_us_per_member_step": round(total_loop_us / members, 3),
        "ensemble_us_per_member_step": round(total_ensemble_us / members, 3),
        "speedup": round(speedup, 3),
        "bitwise_identical": bitwise,
        "unix_time": round(time.time(), 1),
        "groups": group_records,
        "member_results": member_records,
    }
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {args.output} ({prob.name} n={n}, {members} members, "
        f"{len(combos)} grid point(s), backend={args.backend}, "
        f"workers={args.workers})"
    )
    print(
        f"  per-member loop  {record['loop_us_per_member_step']:8.1f} us/member-step\n"
        f"  batched ensemble {record['ensemble_us_per_member_step']:8.1f} us/member-step\n"
        f"  throughput       {record['speedup']:8.2f}x  "
        f"bitwise={'ok' if bitwise else 'MISMATCH'}"
    )
    ok = bitwise
    return 0 if ok else 1


def _cmd_adjoint(args) -> int:
    """Checkpointed adjoint time loop: verify, measure, JSON."""
    import json
    import time

    import numpy as np

    from .experiments.steady import _best_of, bitwise_equal

    if args.steps < 1:
        print("adjoint needs at least one time step", file=sys.stderr)
        return EXIT_USAGE
    if args.snaps < 1:
        print("adjoint needs at least one snapshot slot", file=sys.stderr)
        return EXIT_USAGE
    if args.members < 1:
        print("adjoint needs at least one member", file=sys.stderr)
        return EXIT_USAGE
    prob = _PROBLEMS[args.problem]()
    n = args.n or _DEFAULT_N[args.problem]
    steps, snaps = args.steps, args.snaps
    reps = max(1, min(args.reps, 2)) if args.quick else args.reps
    dtype = np.float64 if args.dtype == "f64" else np.float32
    members = None if args.members == 1 else args.members

    plan = prob.checkpointed_adjoint(
        n, steps=steps, snaps=snaps, dtype=dtype, backend=args.backend,
        members=members, workers=args.workers,
    )
    shape = prob.array_shape(n)
    name_map = prob.adjoint_name_map()

    def member_case(m: int):
        rng = np.random.default_rng(m)
        state = [
            (rng.standard_normal(shape) * 0.1).astype(dtype)
            for _ in plan.history
        ]
        seed = prob.allocate_adjoints(
            n, rng=np.random.default_rng(1000 + m), dtype=dtype
        )[name_map[prob.output_name]]
        return state, seed

    if members is None:
        state0, seed = member_case(0)
    else:
        cases = [member_case(m) for m in range(args.members)]
        state0 = [
            np.stack([case[0][k] for case in cases])
            for k in range(len(plan.history))
        ]
        seed = np.stack([case[1] for case in cases])

    with plan:
        ref = {
            k: v.copy() for k, v in plan.run_store_all(state0, seed).items()
        }
        out = plan.adjoint(state0, seed)
        bitwise = all(bitwise_equal(ref[k], out[k]) for k in ref)
        forward_steps = plan.forward_steps
        t_store = _best_of(lambda: plan.run_store_all(state0, seed), reps)
        t_chk = _best_of(lambda: plan.adjoint(state0, seed), reps)

    predicted = plan.evaluation_cost - steps
    memory_ratio = plan.snapshot_bytes / plan.store_all_bytes
    record = {
        "benchmark": "checkpointed_adjoint",
        "problem": prob.name,
        "n": n,
        "steps": steps,
        "snaps": snaps,
        "members": args.members,
        "workers": args.workers,
        "backend": args.backend,
        "dtype": args.dtype,
        "reps": reps,
        "store_all_us_per_sweep": round(t_store * 1e6, 3),
        "checkpointed_us_per_sweep": round(t_chk * 1e6, 3),
        "overhead": round(t_chk / t_store, 3) if t_store else 0.0,
        "snapshot_bytes": plan.snapshot_bytes,
        "store_all_state_bytes": plan.store_all_bytes,
        "memory_ratio": round(memory_ratio, 6),
        "forward_steps_per_sweep": forward_steps,
        "predicted_forward_steps": predicted,
        "optimal_evaluations": plan.evaluation_cost,
        "recompute_factor": round(forward_steps / steps, 3),
        "bitwise_identical": bitwise,
        "unix_time": round(time.time(), 1),
    }
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {args.output} ({prob.name} n={n}, steps={steps}, "
        f"snaps={snaps}, members={args.members}, backend={args.backend})"
    )
    print(
        f"  store-all    {record['store_all_us_per_sweep']:10.1f} us/sweep  "
        f"memory {record['store_all_state_bytes']} B\n"
        f"  checkpointed {record['checkpointed_us_per_sweep']:10.1f} us/sweep  "
        f"memory {record['snapshot_bytes']} B "
        f"({memory_ratio:.3f}x, bound {snaps}/{steps})\n"
        f"  recompute    {forward_steps} forward steps "
        f"(revolve optimum {predicted}, {record['recompute_factor']:.2f}x)  "
        f"bitwise={'ok' if bitwise else 'MISMATCH'}"
    )
    ok = bitwise
    if forward_steps != predicted:
        print(
            f"  FAIL: {forward_steps} forward steps, revolve optimum is "
            f"{predicted}"
        )
        ok = False
    if memory_ratio > snaps / steps + 1e-9:
        print(
            f"  FAIL: snapshot memory ratio {memory_ratio:.6f} exceeds "
            f"snaps/steps = {snaps / steps:.6f}"
        )
        ok = False
    return 0 if ok else 1


def _pairs(items, label: str, cast):
    """Parse repeated NAME=VALUE options into a dict (ValidationError on junk)."""
    out = {}
    for item in items:
        name, sep, rest = item.partition("=")
        if not sep or not name:
            raise ValidationError(
                f"invalid {label} {item!r}; expected NAME=VALUE"
            )
        try:
            out[name] = cast(rest)
        except ValueError:
            raise ValidationError(
                f"invalid {label} value in {item!r}"
            ) from None
    return out


def _cmd_serve(args) -> int:
    """Run the kernel daemon until interrupted or remotely shut down."""
    from .runtime import KernelServer

    server = KernelServer(
        args.socket,
        workers=args.workers,
        max_batch=args.max_batch,
        batch_window_ms=args.batch_window_ms,
    )
    server.start()
    print(
        f"kernel server listening on {args.socket} "
        f"(workers={args.workers}, max_batch={args.max_batch}, "
        f"batch_window={args.batch_window_ms}ms); Ctrl-C or a shutdown "
        f"request stops it"
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        server.close()
    stats = server.stats()
    print(
        f"served {stats['requests']} request(s): {stats['ok']} ok, "
        f"{stats['errors']} error(s), {stats['batched_runs']} batched "
        f"run(s) covering {stats['batched_requests']} request(s), "
        f"{stats['single_runs']} single run(s)"
    )
    return 0


def _cmd_request(args) -> int:
    """One remote run: parse locally, seed a state, print the evidence."""
    import numpy as np

    from .frontend import parse_stencil
    from .runtime import Bindings, KernelClient, seeded_state

    if args.steps < 1:
        print("request needs at least one step", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.file) as fh:
            spec = fh.read()
    except OSError as exc:
        print(f"cannot read spec file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sizes = _pairs(args.size, "size", int)
    params = _pairs(args.param, "parameter", float)
    nest = parse_stencil(spec)
    dtype = np.float64 if args.dtype == "f64" else np.float32
    bindings = Bindings(sizes=sizes, params=params, dtype=dtype)
    state = seeded_state(nest, bindings, seed=args.seed)
    with KernelClient(args.socket) as client:
        result = client.run(
            spec,
            state=state,
            sizes=sizes,
            params=params,
            dtype=args.dtype,
            steps=args.steps,
            backend=args.backend,
        )
    print(
        f"kernel {result.kernel_id[:12]} steps={result.steps} "
        f"batched={'yes' if result.batched else 'no'} "
        f"batch_size={result.batch_size}"
    )
    for name in sorted(result.state):
        arr = result.state[name]
        print(
            f"  {name:8s} shape={tuple(arr.shape)} "
            f"norm={float(np.linalg.norm(arr)):.12g}"
        )
    return 0


def _stencil_radius(*kernels) -> int:
    """Widest axis-0 access offset across the kernels' statements — the
    halo width a sharded run of them needs."""
    radius = 0
    for kernel in kernels:
        for region in kernel.regions:
            for st in region.statements:
                for acc in (st.target, *st.reads):
                    for axis, off in acc.slots:
                        if axis == 0:
                            radius = max(radius, abs(off))
    return radius


def _cmd_shard(args) -> int:
    import json
    import os
    import time

    import numpy as np

    from .core import adjoint_loops
    from .runtime import ExecutionConfig, ShardedPlan, compile_nests

    prob = _PROBLEMS[args.problem]()
    dtype = np.float64 if args.dtype == "f64" else np.float32
    if args.n is not None:
        n = args.n
    elif prob.dim >= 3:
        n = 10 if args.quick else 16
    else:
        n = 96 if args.quick else 160
    steps = args.steps if args.steps is not None else (8 if args.quick else 16)
    reps = args.reps
    ranks_list = args.ranks or [1, 2, 4]

    bindings = prob.bindings(n, dtype=dtype)
    fwd = compile_nests([prob.primal], bindings, name=prob.name)
    rev = compile_nests(
        adjoint_loops(prob.primal, prob.adjoint_map), bindings,
        name=prob.name + "_b",
    )
    halo = _stencil_radius(fwd, rev)
    config = ExecutionConfig(backend=args.backend)

    # The timestep rotation: newest history level <- output, older
    # levels shift down.  Problems without history (the convolutions)
    # just apply the kernel repeatedly.
    hist = list(prob.history_fields())
    chain = [prob.output_name, *hist]

    def rotate_np(state):
        for i in range(len(chain) - 1, 0, -1):
            np.copyto(state[chain[i]], state[chain[i - 1]])

    def rotate_sharded(plan):
        for i in range(len(chain) - 1, 0, -1):
            plan.copy(chain[i], chain[i - 1])

    # What the adjoint step exchanges and accumulates, derived from the
    # compiled reverse kernel: reads get fresh halos, written adjoints
    # (all targets except the seed) fold halo contributions back.
    seed_name = prob.output_name + "_b"
    rev_targets = sorted(
        {st.target.name for rg in rev.regions for st in rg.statements}
    )
    rev_reads = sorted(
        {acc.name for rg in rev.regions for st in rg.statements
         for acc in st.reads}
    )
    accumulate = [t for t in rev_targets if t != seed_name]

    # Single-shard references: the bitwise oracle and the per-step time
    # the sharded runs are reported beside.
    ref = prob.allocate(n, rng=np.random.default_rng(11), dtype=dtype)
    fwd_plan = fwd.plan(backend=args.backend)
    bound = fwd_plan.bind(ref)
    for _ in range(steps):
        bound.run()
        rotate_np(ref)
    ref_after = {name: ref[name].copy() for name in chain}
    single_times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(steps):
            bound.run()
            rotate_np(ref)
        single_times.append((time.perf_counter() - t0) / steps * 1e6)
    single_us = min(single_times)
    fwd_plan.close()

    adj_ref = prob.allocate_state(n, seed=12, dtype=dtype)
    rev_plan = rev.plan(backend=args.backend)
    rev_plan.bind(adj_ref).run()
    rev_plan.close()

    print(
        f"shard: {prob.name} n={n} steps={steps} backend={args.backend} "
        f"dtype={args.dtype}"
    )
    cases = {}
    all_ok = True
    for nranks in ranks_list:
        state = prob.allocate(n, rng=np.random.default_rng(11), dtype=dtype)
        with ShardedPlan(
            fwd, state, nranks=nranks, halo=halo, config=config
        ) as plan:
            for _ in range(steps):
                plan.step(exchange=hist)
                rotate_sharded(plan)
            got = plan.gather(chain)
            fwd_ok = all(
                np.array_equal(got[name], ref_after[name]) for name in chain
            )
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                for _ in range(steps):
                    plan.step(exchange=hist)
                    rotate_sharded(plan)
                times.append((time.perf_counter() - t0) / steps * 1e6)
            sharded_us = min(times)
            effective = plan.effective_nranks
            multiprocess = plan.multiprocess

        astate = prob.allocate_state(n, seed=12, dtype=dtype)
        with ShardedPlan(
            rev, astate, nranks=nranks, halo=halo, config=config
        ) as aplan:
            aplan.step(exchange=rev_reads, accumulate=accumulate)
            agot = aplan.gather(rev_targets)
        adj_ok = all(
            np.array_equal(agot[name], adj_ref[name]) for name in rev_targets
        )

        print(
            f"  ranks={nranks}  "
            f"forward bitwise {'OK' if fwd_ok else 'MISMATCH'}  "
            f"adjoint bitwise {'OK' if adj_ok else 'MISMATCH'}  "
            f"{sharded_us / 1000:.2f} ms/step"
        )
        cases[f"ranks{nranks}"] = {
            "ranks": nranks,
            "effective_nranks": effective,
            "multiprocess": multiprocess,
            "sharded_us_per_step": sharded_us,
            "forward_bitwise": fwd_ok,
            "adjoint_bitwise": adj_ok,
        }
        all_ok = all_ok and fwd_ok and adj_ok

    record = {
        "benchmark": "sharded_plan",
        "problem": prob.name,
        "n": n,
        "steps": steps,
        "backend": args.backend,
        "dtype": args.dtype,
        "reps": reps,
        "halo": halo,
        "cpu_count": os.cpu_count(),
        "single_us_per_step": single_us,
        "unix_time": round(time.time(), 1),
        "cases": cases,
    }
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output} (backend={args.backend})")
    if all_ok:
        print("VERDICT: sharded == single-shard, bitwise, at every rank count")
    else:
        print("VERDICT: bitwise contract VIOLATED")
    return 0 if all_ok else 1


def _cmd_loop_counts(args) -> int:
    print(f"{'problem':12s}{'adjoint loop nests':>20s}")
    for name, factory in sorted(_PROBLEMS.items()):
        prob = factory()
        count = len(adjoint_loops(prob.primal, prob.adjoint_map))
        print(f"{name:12s}{count:>20d}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
