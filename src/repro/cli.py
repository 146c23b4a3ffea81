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
    ``docs/ensembles.md``), extract per-member gradients and write them
    to ``BENCH_ensemble.json``.  Exits non-zero when any member diverges
    bitwise from its single-scenario run.
``adjoint``
    Run a revolve-checkpointed adjoint time loop (memory O(snaps)
    instead of O(steps); see ``docs/checkpointing.md``) against its
    store-all reference and verify bitwise identity, the snapshot-memory
    ratio and the recompute count.
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
    (``docs/sharding.md``) at one or more rank counts and hard-assert
    that forward state and adjoint gradients are bitwise identical to
    the single-shard run.

No command times anything: ``bench/run.py`` is the one stopwatch, and
``bench/run.py --compare`` the one place two commits' timings are
compared (README, "Performance gate").
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from .apps import burgers_problem, conv_problem, heat_problem, wave_problem
from .core import adjoint_loops
from .errors import (
    NativeBuildError,
    NumericalDivergenceError,
    ReproError,
    ValidationError,
)
from .perforad import _BACKENDS
from .runtime.server import _DTYPES

__all__ = ["main", "build_parser", "exit_code_for"]

# Exit-code contract (documented in docs/reliability.md): scripts
# driving the CLI can distinguish *what* failed without parsing stderr.
# 0 success, 1 any other failure, 2 usage (argparse's own convention,
# kept), then one code per typed failure family — each the
# ``exit_code`` of the error class it describes.
EXIT_ERROR = ReproError.exit_code
EXIT_USAGE = 2
EXIT_VALIDATION = ValidationError.exit_code
EXIT_BUILD = NativeBuildError.exit_code
EXIT_DIVERGENCE = NumericalDivergenceError.exit_code


def exit_code_for(exc: ReproError) -> int:
    """Map a typed runtime error onto the CLI exit-code contract.

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
    return exc.exit_code


# name -> (problem factory, default grid size)
_PROBLEMS = {
    "wave1d": (lambda: wave_problem(1), 40),
    "wave2d": (lambda: wave_problem(2), 18),
    "wave3d": (lambda: wave_problem(3), 12),
    "burgers1d": (lambda: burgers_problem(1), 48),
    "burgers2d": (lambda: burgers_problem(2), 16),
    "heat1d": (lambda: heat_problem(1), 40),
    "heat2d": (lambda: heat_problem(2), 18),
    "heat3d": (lambda: heat_problem(3), 10),
    "conv3x3": (lambda: conv_problem(3), 18),
    "conv5x5": (lambda: conv_problem(5), 20),
}


def _case(args):
    """``(problem, grid size, dtype)`` selected by a sub-command's
    ``--problem``, ``--n`` and (where it has one) ``--dtype``."""
    factory, default_n = _PROBLEMS[args.problem]
    return factory(), args.n or default_n, _DTYPES[getattr(args, "dtype", "f64")]


def _adjoint_kernel(prob, n: int, dtype=np.float64, strategy="disjoint", params=None):
    """The problem's compiled gather-form adjoint at grid size *n*."""
    from .runtime import compile_nests

    nests = adjoint_loops(prob.primal, prob.adjoint_map, strategy=strategy)
    bindings = prob.bindings(n, dtype=dtype, **(params or {}))
    return compile_nests(nests, bindings, name=prob.name + "_b")


def _add_case_options(parser, problem: str, backend: str | None = None) -> None:
    """The options :func:`_case` reads, defaulting to *problem*, plus
    ``--backend`` where the command executes (*backend* is its help)."""
    parser.add_argument("--problem", choices=sorted(_PROBLEMS), default=problem)
    parser.add_argument(
        "--n", type=int, default=None,
        help="grid size (default: a small per-problem size)",
    )
    parser.add_argument(
        "--dtype", choices=sorted(_DTYPES), default="f64",
        help="kernel and state dtype (default: f64)",
    )
    if backend:
        parser.add_argument(
            "--backend", choices=["python", "native"], default="python",
            help=backend,
        )


def _thread_count(value: str) -> int:
    try:
        threads = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid thread count {value!r}")
    if threads < 1:
        raise argparse.ArgumentTypeError("thread count must be >= 1")
    return threads


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
        "thread count (must match the serial adjoint bitwise): the "
        "worker pool on the python backend, OpenMP native_threads on "
        "the native one",
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
    _add_case_options(fus, "heat2d")  # eligibility is dtype-dependent
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
        help="batched ensemble run / parameter sweep: per-member "
        "gradients, bitwise vs the member loop (writes "
        "BENCH_ensemble.json)",
    )
    swp.set_defaults(func=_cmd_sweep)
    _add_case_options(
        swp, "heat2d",
        backend="member execution backend (native chains whole "
        "member-timesteps into single C calls)",
    )
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
        "--output", default="BENCH_ensemble.json",
        help="where to write the JSON record (default: ./BENCH_ensemble.json)",
    )

    adj = sub.add_parser(
        "adjoint",
        help="revolve-checkpointed adjoint time loop: bitwise vs "
        "store-all, recompute count, snapshot memory",
    )
    adj.set_defaults(func=_cmd_adjoint)
    _add_case_options(
        adj, "burgers1d",
        backend="bound-execution backend for both the forward and reverse "
        "plans",
    )
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
        help="most request groups (batched or single) executing at once "
        "(default: 2)",
    )
    srv.add_argument(
        "--max-batch", type=_thread_count, default=8,
        help="most same-kernel requests coalesced into one batched "
        "ensemble run (default: 8; 1 disables batching)",
    )
    srv.add_argument(
        "--batch-window-ms", type=float, default=2.0,
        help="longest the first request of a batch waits for company, "
        "and no wait once every other connection is parked "
        "(default: 2.0; 0 dispatches immediately)",
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
        "--dtype", choices=sorted(_DTYPES), default="f64",
        help="state dtype (default: f64)",
    )
    req.add_argument(
        "--backend", choices=["python", "native"], default="python",
        help="server-side execution backend (default: python)",
    )

    shd = sub.add_parser(
        "shard",
        help="sharded multi-process execution: forward and adjoint "
        "bitwise vs the single shard (n=96, or 10 in 3-D, unless --n)",
    )
    shd.set_defaults(func=_cmd_shard)
    _add_case_options(
        shd, "heat2d",
        backend="bound-execution backend on every shard (default: python)",
    )
    shd.add_argument(
        "--ranks", action="append", type=int, default=None, metavar="N",
        help="shard count to test (repeatable; default: 1 2 4)",
    )
    shd.add_argument(
        "--steps", type=int, default=8,
        help="forward timesteps per rank count (default: 8)",
    )
    return parser


def _cmd_generate(args) -> int:
    if args.problem:
        prob = _PROBLEMS[args.problem][0]()
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
        import sympy as sp

        funcs = map(sp.Function, nest.written_arrays() + nest.read_arrays())
        adjoint_map = {f: make_adjoint_function(f) for f in funcs}
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
    prob, kernel, n: int, threads: int, backend: str = "python"
) -> float:
    """Max |planned - serial| over active adjoints of one adjoint *kernel*
    of *prob* for one plan config."""
    from .runtime import ExecutionConfig, ExecutionPlan

    base = prob.allocate_state(n, seed=0)
    serial = {k: v.copy() for k, v in base.items()}
    kernel(serial)
    planned = {k: v.copy() for k, v in base.items()}
    # A private (non-memoised) plan: closing its pool afterwards cannot
    # affect other holders of the kernel's shared plans.
    # One thread knob per backend: OpenMP on native (1 leaves
    # REPRO_NATIVE_THREADS in charge), the worker pool on python.
    if backend == "native":
        knob = {"native_threads": threads if threads > 1 else None}
    else:
        knob = {"num_threads": threads}
    config = ExecutionConfig(min_block_iterations=1, backend=backend, **knob)
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
    prob, n, _ = _case(args)
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
    if args.threads > 1 or args.backend != "python":
        from .baselines import tapenade_style_adjoint
        from .runtime import compile_nests

        desc = f"{args.threads} thread(s)"
        if args.backend != "python":
            desc += f", backend {args.backend}"
        # The conventional scatter adjoint too: its regions must run
        # unsplit wherever a split would race, so it is bitwise as well.
        scatter = compile_nests(
            [tapenade_style_adjoint(prob.primal, prob.adjoint_map)],
            prob.bindings(n),
            name=prob.name + "_scatter",
        )
        for label, kernel in (
            ("plan", _adjoint_kernel(prob, n, strategy=args.strategy)),
            ("scatter plan", scatter),
        ):
            diff = _plan_vs_serial_diff(
                prob, kernel, n, args.threads, backend=args.backend
            )
            print(f"  {label} [{desc}] vs serial: {diff:.3e}")
            ok = ok and diff == 0.0
    print("  VERDICT: " + ("all adjoints agree" if ok else "MISMATCH"))
    return 0 if ok else 1


def _cmd_figures(args) -> int:
    from .experiments import render_all, render_figure

    print(render_all() if args.figure == "all" else render_figure(args.figure))
    return 0


def _cmd_fuse(args) -> int:
    """Print the fusion plan the native backend would use for a problem."""
    prob, n, dtype = _case(args)
    kernel = _adjoint_kernel(prob, n, dtype)
    with kernel.plan(backend="native", fusion=args.fusion) as plan:
        bound = plan.bind(prob.allocate_state(n, seed=0, dtype=dtype))
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
    return 0


def _cmd_sweep(args) -> int:
    """Batched ensemble run: parameter grid, bitwise check, gradients, JSON."""
    import itertools
    import json

    from .runtime import stack_arrays
    from .verify import bitwise_equal

    prob, n, dtype = _case(args)
    members = args.members
    if members < 1:
        print("sweep needs at least one member", file=sys.stderr)
        return EXIT_USAGE

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

    name_map = prob.adjoint_name_map()
    grad_names = [name_map[a] for a in prob.active_input_names()]
    member_records: list[dict] = [None] * members  # type: ignore[list-item]
    group_records = []
    for ci, params in enumerate(combos[:members]):
        member_ids = list(range(ci, members, len(combos)))
        kernel = _adjoint_kernel(prob, n, dtype, params=params)
        states = [
            prob.allocate_state(n, seed=m, dtype=dtype) for m in member_ids
        ]
        # The contract: one ensemble run over the stacked members (copies)
        # leaves each member where its own single-scenario bound run
        # leaves that member's state, bit for bit.
        with kernel.plan(backend=args.backend) as plan, plan.ensemble(
            stack_arrays(states), workers=args.workers
        ) as ensemble:
            ensemble.run()
            identical = True
            for local, (m, state) in enumerate(zip(member_ids, states)):
                plan.bind(state).run()
                views = ensemble.member_arrays(local)
                identical = identical and all(
                    bitwise_equal(state[name], views[name]) for name in state
                )
                member_records[m] = {
                    "member": m,
                    "params": params,
                    "gradients": {
                        name: round(float(np.linalg.norm(views[name])), 12)
                        for name in grad_names
                    },
                }
            group_records.append({
                "params": params,
                "members": member_ids,
                "chunks": ensemble.chunk_count,
                "bitwise_identical": identical,
                "batched_statements": ensemble.batched_statement_count,
                "native_statements": ensemble.native_statement_count,
                "member_statements": ensemble.member_statement_count,
                "fused_groups": ensemble.fused_group_count,
                "fused_statements": ensemble.fused_statement_count,
            })

    bitwise = all(group["bitwise_identical"] for group in group_records)
    record = {
        "benchmark": "ensemble_sweep",
        "problem": prob.name,
        "n": n,
        "members": members,
        "backend": args.backend,
        "workers": args.workers,
        "dtype": args.dtype,
        "param_grid": {name: list(vals) for name, vals in args.param},
        "bitwise_identical": bitwise,
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
        "  ensemble vs per-member loop: "
        f"bitwise={'ok' if bitwise else 'MISMATCH'}"
    )
    return 0 if bitwise else 1


def _cmd_adjoint(args) -> int:
    """Checkpointed adjoint time loop, verified against store-all."""
    from .runtime import stack_arrays
    from .verify import bitwise_equal

    for value, what in (
        (args.steps, "time step"), (args.snaps, "snapshot slot"),
        (args.members, "member"),
    ):
        if value < 1:
            print(f"adjoint needs at least one {what}", file=sys.stderr)
            return EXIT_USAGE
    prob, n, dtype = _case(args)
    steps, snaps = args.steps, args.snaps
    members = None if args.members == 1 else args.members

    plan = prob.checkpointed_adjoint(
        n, steps=steps, snaps=snaps, dtype=dtype, backend=args.backend,
        members=members, workers=args.workers,
    )
    # Member m starts from the seed-m scenario: its history fields are
    # the initial state, its output adjoint the seed.
    cases = [prob.allocate_state(n, seed=m, dtype=dtype) for m in range(args.members)]
    arrays = cases[0] if members is None else stack_arrays(cases)
    state0 = [arrays[name] for name in plan.history]
    seed = arrays[prob.adjoint_name_map()[prob.output_name]]

    with plan:
        ref = {
            k: v.copy() for k, v in plan.run_store_all(state0, seed).items()
        }
        out = plan.adjoint(state0, seed)
        bitwise = all(bitwise_equal(ref[k], out[k]) for k in ref)
        forward_steps = plan.forward_steps

    predicted = plan.evaluation_cost - steps
    memory_ratio = plan.snapshot_bytes / plan.store_all_bytes
    print(
        f"adjoint: {prob.name} n={n}, steps={steps}, snaps={snaps}, "
        f"members={args.members}, backend={args.backend}"
    )
    print(
        f"  store-all    memory {plan.store_all_bytes} B\n"
        f"  checkpointed memory {plan.snapshot_bytes} B "
        f"({memory_ratio:.3f}x, bound {snaps}/{steps})\n"
        f"  recompute    {forward_steps} forward steps "
        f"(revolve optimum {predicted}, {forward_steps / steps:.2f}x)  "
        f"bitwise={'ok' if bitwise else 'MISMATCH'}\n"
        f"  {plan.explain()[0]}"
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
    bindings = Bindings(sizes=sizes, params=params, dtype=_DTYPES[args.dtype])
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


def _cmd_shard(args) -> int:
    """Sharded forward and adjoint runs, bitwise against the single shard."""
    from .runtime import ExecutionConfig, ShardedPlan, compile_nests
    from .verify import bitwise_equal

    prob, n, dtype = _case(args)
    if args.n is None:
        # Enough rows that four ranks own real slabs, few enough that the
        # check takes seconds.
        n = 10 if prob.dim >= 3 else 96
    fwd = compile_nests(
        [prob.primal], prob.bindings(n, dtype=dtype), name=prob.name
    )
    rev = _adjoint_kernel(prob, n, dtype)
    config = ExecutionConfig(backend=args.backend)

    # The timestep rotation: newest history level <- output, older
    # levels shift down.  Problems without history (the convolutions)
    # just apply the kernel repeatedly.
    hist = list(prob.history_fields())
    chain = [prob.output_name, *hist]
    rotation = [(chain[i], chain[i - 1]) for i in range(len(chain) - 1, 0, -1)]

    # The adjoint step refreshes the halos of what the reverse kernel
    # reads (primal inputs and the seed) and folds the halo
    # contributions of what it writes (the input adjoints) back.
    name_map = prob.adjoint_name_map()
    adj_exchange = [*prob.input_names(), name_map[prob.output_name]]
    grads = [name_map[a] for a in prob.active_input_names()]

    # Single-shard references: the bitwise oracle.
    ref = prob.allocate(n, rng=np.random.default_rng(11), dtype=dtype)
    with fwd.plan(backend=args.backend) as fwd_plan:
        bound = fwd_plan.bind(ref)
        for _ in range(args.steps):
            bound.run()
            for dst, src in rotation:
                np.copyto(ref[dst], ref[src])
    adj_ref = prob.allocate_state(n, seed=12, dtype=dtype)
    with rev.plan(backend=args.backend) as rev_plan:
        rev_plan.bind(adj_ref).run()

    print(
        f"shard: {prob.name} n={n} steps={args.steps} backend={args.backend} "
        f"dtype={args.dtype}"
    )
    all_ok = True
    for nranks in args.ranks or [1, 2, 4]:
        state = prob.allocate(n, rng=np.random.default_rng(11), dtype=dtype)
        with ShardedPlan(
            fwd, state, nranks=nranks, halo=prob.halo, config=config
        ) as plan:
            for _ in range(args.steps):
                plan.step(exchange=hist)
                for dst, src in rotation:
                    plan.copy(dst, src)
            got = plan.gather(chain)
        fwd_ok = all(bitwise_equal(got[name], ref[name]) for name in chain)

        astate = prob.allocate_state(n, seed=12, dtype=dtype)
        with ShardedPlan(
            rev, astate, nranks=nranks, halo=prob.halo, config=config
        ) as aplan:
            aplan.step(exchange=adj_exchange, accumulate=grads)
            agot = aplan.gather(grads)
        adj_ok = all(bitwise_equal(agot[name], adj_ref[name]) for name in grads)

        print(
            f"  ranks={nranks}  "
            f"forward bitwise {'OK' if fwd_ok else 'MISMATCH'}  "
            f"adjoint bitwise {'OK' if adj_ok else 'MISMATCH'}"
        )
        all_ok = all_ok and fwd_ok and adj_ok

    if all_ok:
        print("VERDICT: sharded == single-shard, bitwise, at every rank count")
    else:
        print("VERDICT: bitwise contract VIOLATED")
    return 0 if all_ok else 1


def _cmd_loop_counts(args) -> int:
    print(f"{'problem':12s}{'adjoint loop nests':>20s}")
    for name, (factory, _n) in sorted(_PROBLEMS.items()):
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
