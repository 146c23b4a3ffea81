"""The execution lattice: every tier, config and kernel against one oracle.

The repository's bitwise claim is that every way of executing a kernel —
a bound plan, a batched ensemble, a revolve-checkpointed sweep, a
sharded plan, a served request — reproduces the pointwise interpreter
(:func:`~repro.runtime.interpret_nests`) bit for bit.  This module
states that claim once, as a table of axes:

* **kernel** — the fourteen application kernels (primal plus gather
  adjoint), four conventional scatter adjoints, and fifty seeded random
  fuzz kernels, each on arrays no larger than its accesses reach;
* **config** — the :class:`~repro.runtime.ExecutionConfig` fields;
* **tier** — each tier declares the config axes it takes and its own;
  a kernel a tier cannot express (a sweep without a state model, a
  spec the server cannot parse) is not a node.

A *node* is one tier, one kernel and one value per axis the tier takes.
Its legality is whatever the runtime's own gates decide as the node is
built — ``ExecutionConfig`` validation, ``EnsemblePlan``'s transactional
refusal, ``ExecutionPlan.build``'s sharding refusals, ``program_gate``
— never a rule restated here, and every node ends in one of two states:
it **runs** and equals the interpreter bitwise, or it is **refused**
with the error or :class:`~repro.runtime.decisions.Verdict` its gate
records.  Ensemble and checkpointed bindings also record the verdicts a
bound plan of the same config records (one ``Ladder``).

By default a seeded all-pairs generator picks the nodes: it starts from
the nodes the replaced per-tier matrices' ids name (:data:`REPLACED`;
those ids stay in their modules and run those nodes) and adds rows until
every pair of axis values of a tier appears in some node.
``-m lattice_full`` runs the full product instead, one item per tier and
kernel.  A failing fuzz node prints its kernel shrunk to a minimal
reproducer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import os
import random
import tempfile
import threading
import traceback
import typing
import zlib

import numpy as np
import pytest
import sympy as sp
from sympy.core.function import AppliedUndef

from repro.apps import (
    advection_problem,
    anisotropic_problem,
    burgers_problem,
    conv_problem,
    heat_problem,
    wave_problem,
)
from repro.baselines.scatter import tapenade_style_adjoint
from repro.core import adjoint_loops
from repro.core.accesses import extract_access
from repro.core.loopnest import LoopNest, Statement
from repro.core.validate import StencilRestrictionError, validate_loop_nest
from repro.driver.revolve import optimal_cost
from repro.errors import KernelError, ValidationError
from repro.frontend.parser import parse_stencil
from repro.frontend.printer import to_source
from repro.runtime import (
    Bindings,
    EnsemblePlan,
    ExecutionConfig,
    ExecutionPlan,
    KernelClient,
    KernelServer,
    ShardedCheckpointedAdjoint,
    ShardedPlan,
    compile_nests,
    faults,
    interpret_nests,
    stack_arrays,
)
from repro.runtime import decisions, distributed
from repro.runtime.server import state_shapes

STEPS = 2  # applications per plain node: the first run, then a replay
SERVED_STEPS = 1  # a served kernel is one request per nest and step
SWEEP_STEPS = 5  # time steps of a checkpointed node
SIZES = {1: 16, 2: 10, 3: 6}  # grid size n per dimension
SEEDS = 3  # distinct ensemble member states: member m holds seed m % SEEDS

# -- kernels ---------------------------------------------------------------------


class Sweep(typing.NamedTuple):
    """The state model of a time-stepping kernel: one forward step
    writes *output* from the *history* fields (newest first) and the
    *constants*; *reverse* is its adjoint."""

    output: str
    history: tuple
    constants: tuple
    adjoint_map: dict
    forward: tuple
    reverse: tuple


_COMPILED: dict = {}


@dataclasses.dataclass(frozen=True, eq=False)
class Kernel:
    """One kernel of the lattice: the nests of one step, the state they
    run on, and (for the time-stepping tiers) the state model.

    After each step the ``rotation`` copies run in order (the time
    levels shift), so halo exchange and buffer rotation carry data
    between steps on every tier alike.
    """

    label: str
    nests: tuple
    n: int
    dtypes: tuple
    rotation: tuple
    sizes: dict
    params: dict
    make_state: object = dataclasses.field(repr=False)
    model: Sweep | None = None

    def bindings(self, dtype):
        return Bindings(sizes=self.sizes, params=self.params, dtype=dtype)

    def compiled(self, dtype, nests=None):
        nests = tuple(nests or self.nests)
        key = (self, np.dtype(dtype), tuple(map(id, nests)))
        if key not in _COMPILED:
            _COMPILED[key] = compile_nests(list(nests), self.bindings(dtype))
        return _COMPILED[key]

    def state(self, dtype, seed):
        return self.make_state(np.dtype(dtype), seed)

    def rotate(self, arrays):
        for dst, src in self.rotation:
            np.copyto(arrays[dst], arrays[src])

    @functools.cached_property
    def specs(self) -> tuple:
        """Each nest printed as a served spec, or () when one does not
        survive print -> parse (the kernel is not servable)."""
        try:
            specs = tuple(map(to_source, self.nests))
            for spec in specs:
                parse_stencil(spec)
        except Exception:
            return ()
        return specs

    @functools.cached_property
    def halo(self) -> int:
        """The widest axis-0 offset of any access: the ghost rows a
        shard needs."""
        reverse = self.model.reverse if self.model else ()
        return max(
            [1]
            + [
                abs(pat.offsets[pat.counters.index(nest.counters[0])])
                for nest in (*self.nests, *reverse)
                for st in nest.statements
                for acc in (st.lhs, *st.rhs.atoms(AppliedUndef))
                for pat in [extract_access(acc, nest.counters)]
                if nest.counters[0] in pat.counters
            ]
        )


def _tight(nests, bindings) -> tuple:
    """The smallest shape covering every access of *nests*
    (``state_shapes``): no padding past the last element a stencil
    reads, so a copy or a sweep that drops it shows."""
    shapes = [s for nest in nests for s in state_shapes(nest, bindings).values()]
    return tuple(max(axis) for axis in zip(*shapes))


def _app(label, factory, scatter=False):
    prob = factory()
    n = SIZES[prob.dim]
    adjoint = (
        (tapenade_style_adjoint(prob.primal, prob.adjoint_map),)
        if scatter
        else tuple(adjoint_loops(prob.primal, prob.adjoint_map))
    )
    chain = [prob.output_name, *prob.history_fields()]
    bindings = prob.bindings(n)

    box = tuple(map(slice, _tight((prob.primal, *adjoint), bindings)))

    def make_state(dtype, seed):
        rng = np.random.default_rng(seed)
        state = prob.allocate(n, rng=rng, dtype=dtype)
        state.update(prob.allocate_adjoints(n, rng=rng, dtype=dtype))
        return {name: arr[box].copy() for name, arr in state.items()}

    history = prob.history_fields()
    return Kernel(
        label=f"scatter_{label}" if scatter else label,
        nests=adjoint if scatter else (prob.primal, *adjoint),
        n=n,
        dtypes=("f64", "f32"),
        rotation=()
        if scatter
        else tuple((chain[i], chain[i - 1]) for i in range(len(chain) - 1, 0, -1)),
        sizes=dict(bindings.sizes),
        params=dict(bindings.params),
        make_state=make_state,
        model=Sweep(
            prob.output_name, history, prob.constant_fields(),
            prob.adjoint_name_map(), (prob.primal,), adjoint,
        ) if history else None,
    )


# The fuzz kernels: structurally random stencil nests (coefficients,
# shifts, guards, dimensionality, nonlinear terms, bare counters, mixed
# ``=``/``+=`` chains, a random dtype), one per seed.
FUZZ_SEEDS = 50
FUZZ_N = 9
_n = sp.Symbol("n", integer=True)
_counters = sp.symbols("i j", integer=True)


def _random_nest(rng: np.random.Generator) -> tuple[LoopNest, str]:
    dim = int(rng.integers(1, 3))
    counters = _counters[:dim]
    dtype = "f64" if rng.random() < 0.5 else "f32"
    inputs = ["u", "v"][: int(rng.integers(1, 3))]
    funcs = {name: sp.Function(name) for name in inputs}

    def access():
        name = inputs[int(rng.integers(len(inputs)))]
        offs = rng.integers(-1, 2, size=dim)
        return funcs[name](*[c + int(o) for c, o in zip(counters, offs)])

    def term():
        expr = sp.Float(round(float(rng.standard_normal()), 6)) * access()
        r = rng.random()
        if r < 0.12:
            expr = expr * access()  # nonlinear product
        elif r < 0.20:
            expr = expr * counters[int(rng.integers(dim))]  # bare counter
        elif r < 0.28:
            expr = sp.Max(expr, sp.Float(0.0))
        elif r < 0.34:
            expr = expr * access() ** 2
        elif r < 0.40:
            expr = sp.sin(expr)
        return expr

    def guard():
        if rng.random() >= 0.35:
            return None
        c = counters[int(rng.integers(dim))]
        return [sp.Gt(c, 2), sp.Ge(c, 3), sp.Lt(c, _n - 3), sp.Ge(_n - 4, c)][
            int(rng.integers(4))
        ]

    def statement(target, op):
        rhs = sp.Add(*[term() for _ in range(int(rng.integers(1, 4)))])
        return Statement(
            lhs=sp.Function(target)(*counters), rhs=rhs, op=op, guard=guard()
        )

    statements = [statement("r", "=" if rng.random() < 0.5 else "+=")]
    extra = rng.random()
    if extra < 0.25:
        statements.append(statement("r", "+="))  # same-target chain
    elif extra < 0.5:
        statements.append(statement("w", "=" if rng.random() < 0.5 else "+="))
    nest = LoopNest(
        statements=tuple(statements),
        counters=counters,
        bounds={c: (1, _n - 2) for c in counters},
        name="fuzz",
    )
    validate_loop_nest(nest)
    return nest, dtype


def _fuzz(label, nest, dtype):
    names = sorted({*nest.read_arrays(), *nest.written_arrays()})
    amap = {sp.Function(a): sp.Function(f"{a}_b") for a in names}
    constants = tuple(a for a in nest.read_arrays() if a != "u")
    adjoint = tuple(adjoint_loops(nest, amap))
    shape = _tight((nest, *adjoint), Bindings(sizes={_n: FUZZ_N}))

    # crc32, not hash(): a failing kernel must reproduce with the same
    # data under any PYTHONHASHSEED.
    crc = zlib.crc32(str(nest).encode())

    def make_state(dtype, seed):
        rng = np.random.default_rng(crc + seed)
        return {
            name: (rng.standard_normal(shape) * 0.5).astype(dtype)
            for name in names
        }

    return Kernel(
        label=label,
        nests=(nest,),
        n=FUZZ_N,
        dtypes=(dtype,),
        rotation=(("u", "r"),) if "u" in names else (),
        sizes={_n: FUZZ_N},
        params={},
        make_state=make_state,
        model=Sweep(
            "r", ("u",), constants, {a: f"{a}_b" for a in names},
            (nest,), adjoint,
        ) if "u" in names and nest.written_arrays() == ["r"] else None,
    )


# The fourteen application kernels of the suite's ``any_problem``.
APPS = {
    **{f"wave{d}d": functools.partial(wave_problem, d) for d in (1, 2, 3)},
    **{f"burgers{d}d": functools.partial(burgers_problem, d) for d in (1, 2)},
    **{f"heat{d}d": functools.partial(heat_problem, d) for d in (1, 2, 3)},
    **{f"conv{w}x{w}": functools.partial(conv_problem, w) for w in (3, 5)},
    **{f"advection{d}": functools.partial(advection_problem, d) for d in (1, 2)},
    "anisotropic": anisotropic_problem,
    "anisotropic_k": functools.partial(anisotropic_problem, active_k=True),
}
SCATTER = ("heat1d", "heat2d", "wave2d", "wave3d")
KERNELS = (
    *APPS,
    *(f"scatter_{label}" for label in SCATTER),
    *(f"fuzz{seed:02d}" for seed in range(FUZZ_SEEDS)),
)


@functools.cache
def kernel(label: str) -> Kernel:
    if label.startswith("fuzz"):
        seed = int(label[4:])
        return _fuzz(label, *_random_nest(np.random.default_rng(0xF022 + seed)))
    if label.startswith("scatter_"):
        label = label[len("scatter_"):]
        return _app(label, APPS[label], scatter=True)
    return _app(label, APPS[label])


# -- the oracle ------------------------------------------------------------------

_ORACLES: dict = {}


def _frozen(arrays):
    out = {}
    for name, arr in arrays.items():
        out[name] = arr.copy()
        out[name].flags.writeable = False
    return out


def oracle(k: Kernel, dtype, seed: int, steps: int = STEPS):
    """The interpreter's state after *steps* steps (each rotated)."""
    key = (k, dtype, seed, steps)
    if key not in _ORACLES:
        arrays = k.state(dtype, seed)
        for _ in range(steps):
            interpret_nests(k.nests, arrays, k.bindings(dtype))
            k.rotate(arrays)
        _ORACLES[key] = _frozen(arrays)
    return _ORACLES[key]


def sweep_inputs(k: Kernel, dtype, seed: int):
    """``(state0, seed array, constants)`` of a checkpointed sweep."""
    output, history, constants = k.model[:3]
    state = k.state(dtype, seed)
    rng = np.random.default_rng(100 + seed)
    shape = state[output].shape
    return (
        [state[h] for h in history],
        rng.standard_normal(shape).astype(dtype),
        {c: state[c] for c in constants},
    )


def sweep_oracle(k: Kernel, dtype, seed: int):
    """Store-all adjoint sweep and final forward state, by interpreter."""
    key = (k, dtype, seed, "sweep")
    if key in _ORACLES:
        return _ORACLES[key]
    output, history, constants, amap, forward, reverse = k.model
    bindings = k.bindings(dtype)
    state0, seed_arr, consts = sweep_inputs(k, dtype, seed)
    h = len(history)
    zeros = functools.partial(np.zeros, seed_arr.shape, dtype=dtype)
    states = [tuple(a.copy() for a in state0)]
    for _ in range(SWEEP_STEPS):
        arrays = {output: zeros(), **consts}
        arrays.update({history[i]: states[-1][i] for i in range(h)})
        interpret_nests(forward, arrays, bindings)
        states.append((arrays[output], *states[-1][: h - 1]))
    lam = [seed_arr.copy()] + [zeros() for _ in range(h - 1)]
    const_adj = {amap[c]: zeros() for c in constants if c in amap}
    for t in reversed(range(SWEEP_STEPS)):
        arrays = {
            amap[output]: lam[0].copy(),
            **{history[i]: states[t][i] for i in range(h)},
            **{
                amap[history[i]]: lam[i + 1].copy() if i + 1 < h else zeros()
                for i in range(h)
            },
            **consts,
            **const_adj,
        }
        interpret_nests(reverse, arrays, bindings)
        lam = [arrays[amap[history[i]]] for i in range(h)]
    grads = {amap[history[i]]: lam[i] for i in range(h)}
    grads.update(const_adj)
    _ORACLES[key] = (_frozen(grads), [a.copy() for a in states[-1]])
    return _ORACLES[key]


def assert_bitwise(got, want, label):
    for name in want:
        assert np.asarray(got[name]).tobytes() == want[name].tobytes(), (
            f"{label}: {name!r} differs from the interpreter"
        )


# -- the table of axes -----------------------------------------------------------

CONFIG_AXES = {
    "dtype": ("f64", "f32"),
    "backend": ("python", "native"),
    "fusion": ("auto", "off"),
    "check": ("none", "nan"),
    "transactional": (False, True),
    "num_threads": (1, 2, 3, 4, 7),
    "native_threads": (None, 1, 2, 4),
}
ALL_CONFIG = tuple(CONFIG_AXES)
DTYPES = {"f64": np.float64, "f32": np.float32}


@dataclasses.dataclass(frozen=True, eq=False)
class Tier:
    name: str
    config: tuple  # the config axes the tier takes
    axes: dict  # the tier's own axes
    accepts: object  # Kernel -> bool: whether the tier can express it


TIERS = {
    tier.name: tier
    for tier in (
        Tier("bound", ALL_CONFIG, {}, lambda k: True),
        # Eleven members over two workers split into eight uneven chunks.
        Tier(
            "ensemble", ALL_CONFIG,
            {"members": (1, 4, 5, 7, 11, 17), "workers": (1, 2, 3)},
            lambda k: True,
        ),
        Tier(
            "checkpointed", ALL_CONFIG,
            {
                "snaps": (1, 2, 3, 7), "members": (None, 3), "workers": (1, 2),
                "rung": ("program", "per-action"),
            },
            lambda k: k.model is not None,
        ),
        Tier(
            "sharded", ALL_CONFIG,
            {"ranks": (1, 2, 3, 7), "forked": (False, True), "mode": ("plain", "checkpointed")},
            lambda k: True,
        ),
        Tier(
            "served", ("dtype", "backend"),
            {"window": (0, "batched"), "transport": ("shm", "inline")},
            lambda k: bool(k.specs),
        ),
    )
}

_TOKENS = {
    "fusion": {"auto": "fused", "off": "unfused"},
    "check": {"none": "nocheck", "nan": "nan"},
    "transactional": {False: "notx", True: "tx"},
    "num_threads": "t{}",
    "native_threads": "nt{}",
    "members": "m{}",
    "workers": "w{}",
    "snaps": "s{}",
    "rung": {"program": "program", "per-action": "peraction"},
    "ranks": "r{}",
    "forked": {False: "inproc", True: "forked"},
    "mode": {"plain": "plain", "checkpointed": "ckpt"},
    "window": {0: "window0", "batched": "batched"},
}


@dataclasses.dataclass(frozen=True)
class Node:
    tier: str
    kernel: str
    values: tuple  # ((axis, value), ...) in the tier's axis order

    def __getitem__(self, axis):
        # None for an axis the tier does not take (a sharded sweep is
        # never batched).
        return dict(self.values).get(axis)

    @property
    def id(self) -> str:
        parts = [self.tier, self.kernel]
        for axis, value in self.values:
            token = _TOKENS.get(axis, "{}")
            parts.append(
                token[value] if isinstance(token, dict)
                else token.format("env" if value is None else value)
            )
        return "-".join(parts)


def node(tier: str, kernel_label: str, **values) -> Node:
    """A node with every axis the tier takes; an unnamed axis takes its
    first value (the kernel's first dtype)."""
    t = TIERS[tier]
    axes = _axes(t)
    values.setdefault("dtype", kernel(kernel_label).dtypes[0])
    unknown = {a for a, v in values.items() if v not in axes.get(a, ())}
    assert not unknown, f"tier {tier} takes no value {sorted(unknown)}"
    return _as_node(t, {**{a: c[0] for a, c in axes.items()}, "kernel": kernel_label, **values})


def _feasible(t: Tier, assignment: dict) -> bool:
    """Static expressibility: the kernel's dtypes, the tier's kernels and
    the sharded sweep's state model.  Runtime gates are not consulted."""
    label = assignment.get("kernel")
    if label is None:
        return True
    k = kernel(label)
    if "dtype" in assignment and assignment["dtype"] not in k.dtypes:
        return False
    return assignment.get("mode") != "checkpointed" or k.model is not None


@functools.cache
def _admitted_config(config: tuple) -> bool:
    try:
        ExecutionConfig(**dict(config))
    except ValueError:
        return False
    return True


def _admitted(row: dict) -> bool:
    """Whether ``ExecutionConfig`` accepts the row's config values so far.
    The generator asks the gate itself, to prefer rows it admits; a pair
    that only a refused row can hold still gets its (refused) node."""
    return _admitted_config(tuple((a, row[a]) for a in ALL_CONFIG[1:] if a in row))


@functools.cache
def _axes(t: Tier) -> dict:
    return {
        "kernel": tuple(label for label in KERNELS if t.accepts(kernel(label))),
        **{a: CONFIG_AXES[a] for a in t.config},
        **t.axes,
    }


def _as_node(t: Tier, row: dict) -> Node:
    return Node(t.name, row["kernel"], tuple((a, row[a]) for a in _axes(t) if a != "kernel"))


def all_pairs(t: Tier, pinned=(), seed: int = 0) -> list[Node]:
    """Seeded greedy all-pairs cover of tier *t*'s axes: the *pinned*
    nodes, then rows until every feasible pair of axis values appears
    in at least one node."""
    axes = _axes(t)
    names = list(axes)

    def pairs(row):
        return {((a, row[a]), (b, row[b])) for a, b in itertools.combinations(names, 2)}

    order = [
        ((a, va), (b, vb))
        for a, b in itertools.combinations(names, 2)
        for va in axes[a]
        for vb in axes[b]
        if _feasible(t, {a: va, b: vb})
    ]
    rows = [{"kernel": n.kernel, **dict(n.values)} for n in pinned]
    uncovered = set(order).difference(*map(pairs, rows))
    rng = random.Random(seed)
    for first in order:
        if first not in uncovered:
            continue
        row = dict(first)
        rest = [name for name in names if name not in row]
        rng.shuffle(rest)
        for name in rest:
            best, score = None, None
            for value in rng.sample(axes[name], len(axes[name])):
                if not _feasible(t, {**row, name: value}):
                    continue
                gain = sum(
                    (((other, row[other]), (name, value)) if names.index(other) < names.index(name)
                     else ((name, value), (other, row[other]))) in uncovered
                    for other in row
                )
                candidate = (_admitted({**row, name: value}), gain)
                if score is None or candidate > score:
                    best, score = value, candidate
            row[name] = best
        uncovered -= pairs(row)
        rows.append(row)
    return [_as_node(t, row) for row in rows]


def full_product(t: Tier, label: str):
    """Every node of tier *t* on kernel *label*, lazily."""
    axes = {**_axes(t), "kernel": (label,)}
    for values in itertools.product(*axes.values()):
        row = dict(zip(axes, values))
        if _feasible(t, row):
            yield _as_node(t, row)


# -- building and running a node -------------------------------------------------

# The gates whose refusals make a node "refused": the runtime function
# whose own frame raises, its name, and the error type it raises there.
GATES = {
    ExecutionConfig.__post_init__.__code__: ("ExecutionConfig", ValueError),
    EnsemblePlan.__init__.__code__: ("EnsemblePlan", KernelError),
    ExecutionPlan.build.__func__.__code__: ("ExecutionPlan.build", ValidationError),
    distributed._validate_halo.__code__: ("ShardedPlan", ValidationError),
}


@dataclasses.dataclass(frozen=True)
class Refused:
    gate: str
    reason: object  # the error text, or the Verdict


class _Refusal(Exception):
    def __init__(self, refused: Refused):
        super().__init__(refused)
        self.refused = refused


def _gated(build):
    """Run *build*; an error raised by a gate's own frame becomes the
    node's refusal, anything else propagates as a failure."""
    try:
        return build()
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        gate, error = GATES.get(tb.tb_frame.f_code, (None, ()))
        if not isinstance(exc, error):
            raise
        raise _Refusal(Refused(gate, f"{type(exc).__name__}: {exc}")) from exc


def _config(n: Node) -> dict:
    values = dict(n.values)
    cfg = {a: values[a] for a in ALL_CONFIG if a in values and a != "dtype"}
    return {**cfg, "min_block_iterations": 1}


def _plan(compiled, n: Node):
    return _gated(lambda: compiled.plan(**_config(n)))


def _parity(binding, plan, arrays):
    """*binding* (an ensemble or checkpointed binding of *plan*) records
    the verdicts a bound plan of the same config records on one
    member's *arrays*: the same mode, library rung and per-statement
    verdicts, an elementwise python statement batch-shifted."""
    bound = plan.bind({k: v.copy() for k, v in arrays.items()})
    assert binding.mode == bound.mode
    assert binding.decisions[0] == bound.decisions[0]  # the library rung
    if getattr(binding, "members", 1) == 1:
        assert binding.statement_count == bound.statement_count
        assert binding.sweep_count == bound.sweep_count

    def verdicts(b, batched):
        return list(dict.fromkeys(
            (d.subject, batched.get(d.rung, d.rung), d.geometry, d.reason)
            for d in b.decisions[1:]
        ))

    got = verdicts(binding, {})
    want = verdicts(bound, {"python": "batched"})
    plain = verdicts(bound, {})
    assert len(got) == len(want)
    for g, w, p in zip(got, want, plain):
        assert g in (w, p), (g, p)


def _run_bound(n, k, dtype):
    plan = _plan(k.compiled(dtype), n)
    arrays = k.state(dtype, 0)
    with plan:
        bound = plan.bind(arrays)
        for _ in range(STEPS):
            bound.run()
            k.rotate(arrays)
    assert_bitwise(arrays, oracle(k, dtype, 0), n.id)


def _run_ensemble(n, k, dtype):
    plan = _plan(k.compiled(dtype), n)
    states = [k.state(dtype, m % SEEDS) for m in range(n["members"])]
    batched = stack_arrays(states)
    with plan, _gated(lambda: plan.ensemble(batched, workers=n["workers"])) as ens:
        _parity(ens, plan, states[0])
        for _ in range(STEPS):
            ens.run()
            k.rotate(batched)
        for m in range(n["members"]):
            assert_bitwise(
                ens.member_arrays(m), oracle(k, dtype, m % SEEDS), f"{n.id} member {m}"
            )


def _sweep_args(n, k, dtype):
    constants = k.model.constants
    members = n["members"]
    cases = [sweep_inputs(k, dtype, m) for m in range(members or 1)]
    if members is None:
        state0, seed, consts = cases[0]
    else:
        state0 = [np.stack(fields) for fields in zip(*(c[0] for c in cases))]
        seed = np.stack([c[1] for c in cases])
        consts = {c: np.stack([case[2][c] for case in cases]) for c in constants}
    return cases, state0, seed, consts


def _assert_sweep(n, k, dtype, cases, grads, final):
    for m in range(len(cases)):
        want_grads, want_final = sweep_oracle(k, dtype, m)
        pick = (lambda a: a) if n["members"] is None else (lambda a: a[m])
        assert_bitwise({g: pick(grads[g]) for g in want_grads}, want_grads, f"{n.id} member {m}")
        for got, want in zip(final, want_final):
            assert pick(got).tobytes() == want.tobytes(), f"{n.id}: forward state"


def _run_checkpointed(n, k, dtype):
    output, history, constants, amap, forward, reverse = k.model
    fwd_plan = _plan(k.compiled(dtype, forward), n)
    rev_plan = _plan(k.compiled(dtype, reverse), n)
    cases, state0, seed, consts = _sweep_args(n, k, dtype)
    shape = seed.shape[1:] if n["members"] else seed.shape
    chk = _gated(lambda: fwd_plan.checkpointed_adjoint(
        rev_plan, shape, steps=SWEEP_STEPS, snaps=n["snaps"], output=output,
        history=history, constants=consts, adjoint_map=amap,
        dtype=np.dtype(dtype), members=n["members"], workers=n["workers"],
    ))
    with chk:
        member = (lambda a: a) if n["members"] is None else (lambda a: a[0])
        _parity(chk._fwd[0], fwd_plan, {
            output: np.zeros_like(member(seed)),
            **{h: member(a) for h, a in zip(history, state0)},
            **{c: member(a) for c, a in consts.items()},
        })
        if n["rung"] == "program" and chk.sweep.rung != "program":
            assert chk.sweep == decisions.Verdict(
                "sweep", "per-action",
                decisions.program_gate((*chk._fwd, *chk._rev)),
            )
            raise _Refusal(Refused("program_gate", chk.sweep))
        assert n["rung"] == "per-action" or chk.explain()[0].startswith("sweep: program (")
        forced = faults.inject("bound.run", times=0) if n["rung"] == "per-action" else None
        with forced or contextlib.nullcontext():
            grads = {g: a.copy() for g, a in chk.adjoint(state0, seed).items()}
            final = chk.run_forward(state0)
    _assert_sweep(n, k, dtype, cases, grads, final)


def _rank_args(n, dtype):
    config = _gated(lambda: ExecutionConfig(**_config(n)))
    return dict(nranks=n["ranks"], config=config, use_workers=n["forked"])


def _run_sharded(n, k, dtype):
    kwargs = _rank_args(n, dtype)
    if n["mode"] == "checkpointed":
        output, history, constants, amap, forward, reverse = k.model
        fwd, rev = k.compiled(dtype, forward), k.compiled(dtype, reverse)
        cases, state0, seed, consts = _sweep_args(n, k, dtype)
        sharded = _gated(lambda: ShardedCheckpointedAdjoint(
            fwd, rev, seed.shape, halo=k.halo, steps=SWEEP_STEPS, snaps=2,
            output=output, history=history, constants=consts,
            adjoint_map=amap, dtype=dtype, **kwargs,
        ))
        try:
            assert sharded.evaluation_cost == optimal_cost(SWEEP_STEPS, 2)
            final = sharded.run_forward([a.copy() for a in state0])
            grads = sharded.adjoint([a.copy() for a in state0], seed)
        finally:
            sharded.close()
        _assert_sweep(n, k, dtype, cases, grads, final)
        return
    state = k.state(dtype, 0)
    reads = sorted({a for nest in k.nests for a in nest.read_arrays()})
    written = sorted({a for nest in k.nests for a in nest.written_arrays()})
    with _gated(lambda: ShardedPlan(k.compiled(dtype), state, halo=k.halo, **kwargs)) as sp_:
        # Fewer ranks only when the axis-0 extent has fewer rows.
        assert sp_.effective_nranks == min(n["ranks"], sp_.extent)
        for _ in range(STEPS):
            sp_.step(exchange=reads, accumulate=written)
            for dst, src in k.rotation:
                sp_.copy(dst, src)
        got = sp_.gather()
    assert_bitwise(got, oracle(k, dtype, 0), n.id)


def _serve(client, k, n, dtype, state):
    tag = "f64" if dtype == np.float64 else "f32"
    sizes = {str(s): v for s, v in k.sizes.items()}
    params = {str(s): v for s, v in k.params.items()}
    batched = 0
    for _ in range(SERVED_STEPS):
        for nest, spec in zip(k.nests, k.specs):
            names = {*nest.read_arrays(), *nest.written_arrays()}
            result = client.run(
                spec, state={a: state[a] for a in names},
                sizes=sizes, params=params, dtype=tag, backend=n["backend"],
            )
            batched += result.batched
            state.update(result.state)
        k.rotate(state)
    return batched


def _run_served(n, k, dtype):
    members = 1 if n["window"] == 0 else 2
    threshold = 1 if n["transport"] == "shm" else None
    with tempfile.TemporaryDirectory() as tmp:
        server = KernelServer(
            os.path.join(tmp, "lattice.sock"), workers=2, max_batch=members,
            batch_window_ms=0.0 if members == 1 else 10_000.0,
        )
        server.start()
        try:
            states = [k.state(dtype, m) for m in range(members)]
            out: dict = {}
            ready = threading.Barrier(members)

            def client(m):
                try:
                    with KernelClient(server.socket_path, shm_threshold=threshold) as c:
                        c.ping()
                        ready.wait(timeout=60)
                        out[m] = _serve(c, k, n, dtype, states[m])
                except Exception as exc:
                    out[m] = exc

            threads = [threading.Thread(target=client, args=(m,)) for m in range(members)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            server.close()
    for m in range(members):
        if isinstance(out.get(m), Exception):
            raise out[m]
        assert_bitwise(states[m], oracle(k, dtype, m, SERVED_STEPS), f"{n.id} member {m}")
    if members > 1:
        assert sum(out.values()) > 0, f"{n.id}: no request was batched"


_RUNNERS = {
    "bound": _run_bound,
    "ensemble": _run_ensemble,
    "checkpointed": _run_checkpointed,
    "sharded": _run_sharded,
    "served": _run_served,
}


def _execute(n: Node, k: Kernel):
    """Run node *n* on kernel *k*: None when bitwise, a :class:`Refused`
    when a gate refused it; a failure raises."""
    dtype = np.dtype(DTYPES[dict(n.values).get("dtype", k.dtypes[0])])
    try:
        _RUNNERS[n.tier](n, k, dtype)
    except _Refusal as refusal:
        return refusal.refused
    return None


# -- shrinking a failing fuzz kernel ---------------------------------------------


def _variants(nest: LoopNest):
    """Strictly smaller candidate nests, most aggressive first."""
    stmts = nest.statements
    rebuilt = functools.partial(LoopNest, counters=nest.counters, bounds=nest.bounds, name=nest.name)
    if len(stmts) > 1:
        for drop in range(len(stmts)):
            yield rebuilt(tuple(s for i, s in enumerate(stmts) if i != drop))
    for si, st in enumerate(stmts):
        if st.guard is not None:
            yield rebuilt(tuple(st.with_guard(None) if i == si else s for i, s in enumerate(stmts)))
        if isinstance(st.rhs, sp.Add) and len(st.rhs.args) > 1:
            for drop in range(len(st.rhs.args)):
                rhs = sp.Add(*[a for i, a in enumerate(st.rhs.args) if i != drop])
                new = Statement(lhs=st.lhs, rhs=rhs, op=st.op, guard=st.guard)
                yield rebuilt(tuple(new if i == si else s for i, s in enumerate(stmts)))


def _fails(n: Node, k: Kernel) -> bool:
    try:
        _execute(n, k)
    except Exception:
        return True
    return False


def shrink(n: Node) -> LoopNest:
    """Greedily minimise a failing fuzz kernel while node *n* still fails."""
    k = kernel(n.kernel)
    nest = k.nests[0]
    for _ in range(64):  # bounded: each accepted step strictly shrinks
        for candidate in _variants(nest):
            try:
                validate_loop_nest(candidate)
                smaller = _fuzz(k.label, candidate, k.dtypes[0])
            except StencilRestrictionError:
                continue
            if _fails(n, smaller):
                nest = candidate
                break
        else:
            break
    return nest


def check(n: Node) -> Refused | None:
    """Assert node *n*: bitwise against the interpreter, or refused by a
    gate.  A failing fuzz node reports its shrunk kernel."""
    try:
        return _execute(n, kernel(n.kernel))
    except Exception:
        if not n.kernel.startswith("fuzz"):
            raise
        minimal = shrink(n)
        pytest.fail(f"{traceback.format_exc()}\nminimal failing kernel:\n{minimal}")


# A node that several replaced ids name runs once.
_checked = functools.cache(check)


def runs(*nodes: Node) -> None:
    """Assert that each node runs bitwise against the interpreter: a
    gate refusing it fails."""
    for n in nodes:
        refused = _checked(n)
        assert refused is None, f"{n.id}: refused by {refused.gate}: {refused.reason}"


# -- the replaced matrices -------------------------------------------------------
#
# The per-tier matrices this table replaced, by test name: each of their
# ids and the node(s) that now cover it.  The ids stay in their modules
# (``replaced(name)``) as the one name of those nodes, and the default
# run starts from them.

_DT = ("f64", "f32")
_BACKENDS = ("python", "native")
_THREADS = {"serial": 1, "threads1": 1, "threads2": 2, "threads4": 4}
_BATCH = {"single": (None, 1), "m3w1": (3, 1), "m3w2": (3, 2)}
_NATIVE_APPS = {"anisotropic-activek": "anisotropic_k", **{a: a for a in (
    "heat1d", "heat3d", "wave1d", "wave2d", "burgers1d", "burgers2d",
    "anisotropic", "advection1", "advection2",
)}}
_NT_APPS = ("anisotropic", "burgers1d", "heat2d", "wave2d")
_B, _E, _C, _S = (functools.partial(node, t) for t in ("bound", "ensemble", "checkpointed", "sharded"))

REPLACED = {
    "test_bound_bitwise_identical_to_seed_serial": {
        f"{a}-{tag}-{d}": (_B(a, dtype=d, num_threads=_THREADS[tag]),)
        for a in APPS for tag in ("serial", "threads4") for d in _DT
    },
    "test_bound_scatter_matches_unbound": {
        str(t): (_B("scatter_wave2d", num_threads=t),) for t in (1, 4)
    },
    "test_plan_matches_interpreter_bitwise": {
        f"{a}-{tag}": (_B(a, num_threads=t),) for a in APPS for tag, t in _THREADS.items()
    },
    "test_plan_bitwise_identical_to_serial_kernel": {
        f"{a}-{tag}": (_B(a, num_threads=t),)
        for a in APPS for tag, t in _THREADS.items() if tag != "serial"
    },
    "test_gather_identical_across_thread_counts": {
        f"{a}-{t}": (_B(a, num_threads=t),) for a in APPS for t in (1, 2, 3, 7)
    },
    "test_tapenade_adjoint_threaded_bitwise": {
        f"{a}-{t}": (_B(f"scatter_{a}", num_threads=t),) for a in SCATTER for t in (2, 3, 4)
    },
    "test_heat2d_forward_and_adjoint_bitwise": {
        d: (_B("heat2d", dtype=d, backend="native"),) for d in _DT
    },
    "test_adjoint_apps_bitwise": {
        f"{i}-{f}": (_B(a, backend="native", fusion=f),)
        for i, a in _NATIVE_APPS.items() for f in ("auto", "off")
    },
    "test_scatter_kernel_bitwise": {
        str(t): (_B("scatter_heat2d", backend="native", native_threads=t),) for t in (1, 2)
    },
    "test_bound_bitwise_across_thread_counts": {
        f"{a}-{d}": tuple(_B(a, dtype=d, backend="native", fusion="off", native_threads=t)
                          for t in (2, 4))
        for a in _NT_APPS for d in _DT
    },
    "test_fused_bitwise_across_thread_counts": {
        a: tuple(_B(a, backend="native", native_threads=t) for t in (2, 4)) for a in _NT_APPS
    },
    "test_ensemble_bitwise_across_thread_counts": {
        a: tuple(_E(a, backend="native", native_threads=t, members=4) for t in (1, 2))
        for a in _NT_APPS
    },
    "test_checkpointed_adjoint_bitwise": {
        str(t): (_C("heat1d", backend="native", native_threads=t, snaps=2),) for t in (1, 2, 4)
    },
    "test_batched_equals_looped": {
        f"{a}-{d}-{b}": (_E(a, dtype=d, backend=b, members=5),)
        for a in ("burgers1d", "heat2d", "wave2d") for d in _DT for b in _BACKENDS
    },
    "test_batched_equals_looped_threaded_plans": {
        b: (_E("heat2d", backend=b, members=4,
               **{"native_threads" if b == "native" else "num_threads": 2}),)
        for b in _BACKENDS
    },
    "test_worker_and_chunk_count_never_change_results": {
        f"{w}-{m}": (_E("wave2d", workers=w, members=m or 7),)
        for w, m in ((1, None), (2, None), (3, 5), (2, 4), (2, 11), (3, 17))
    },
    "test_bound_and_ensemble_record_the_same_rungs": {
        f"{a}-{b}-{f}-{c}": (_E(a, backend=b, fusion=f, check=c, members=1),)
        for a in ("burgers1d", "heat2d", "wave2d") for b in _BACKENDS
        for f in ("auto", "off") for c in ("none", "nan")
    },
    "test_checkpointed_bitwise_identical_to_store_all": {
        f"{a}-{d}-{b}": (_C(a, dtype=d, backend=b, snaps=3, rung="per-action"),)
        for a in ("burgers1d", "heat1d", "heat2d", "wave1d", "wave2d") for d in _DT
        for b in _BACKENDS
    },
    "test_program_sweep_bitwise_identical_to_every_oracle": {
        f"{a}-{d}-{s}-{tag}": (_C(a, dtype=d, backend="native", snaps=s, rung="program",
                                  members=_BATCH[tag][0], workers=_BATCH[tag][1]),)
        for a in ("heat1d", "heat2d", "wave2d") for d in _DT for s in (1, 3, 7) for tag in _BATCH
    },
    "test_forward_and_adjoint_bitwise": {
        f"{r}-{a}-{d}-{b}": (_S(a, dtype=d, backend=b, ranks=r),)
        for r in (1, 2, 3, 7) for a in ("burgers1d", "heat2d", "wave2d") for d in _DT
        for b in _BACKENDS
    },
    "test_forked_workers_bitwise": {
        str(r): (_S("heat2d", ranks=r, forked=True),) for r in (1, 2, 3, 7)
    },
    "test_sharded_checkpointed_adjoint_bitwise": {
        f"{a}-{r}": (_S(a, ranks=r, mode="checkpointed"),) for a in ("heat2d", "wave2d") for r in (2, 3)
    },
    "test_sharded_checkpointed_adjoint_with_workers": {
        f"{a}-{r}-{b}": (_S(a, backend=b, ranks=r, forked=True, mode="checkpointed"),)
        for a in ("heat2d", "wave2d") for r in (2, 3) for b in _BACKENDS
    },
    # Each fuzz kernel along the replaced fuzz test's paths: the python
    # plan, the native plan per statement and fused, and an ensemble.
    "test_random_kernel_paths_agree_bitwise": {
        str(seed): (
            _B(f"fuzz{seed:02d}"),
            *(_B(f"fuzz{seed:02d}", backend="native", fusion=f) for f in ("off", "auto")),
            _E(f"fuzz{seed:02d}", members=4),
        )
        for seed in range(FUZZ_SEEDS)
    },
}
NAMED = frozenset(n for cases in REPLACED.values() for ns in cases.values() for n in ns)


def replaced(name: str):
    """The replaced matrix *name* as a test: each of its ids asserts that
    the node(s) covering it run bitwise."""

    def test(nodes):
        runs(*nodes)

    test.__name__ = test.__qualname__ = name
    return pytest.mark.parametrize(
        "nodes", [pytest.param(ns, id=case) for case, ns in REPLACED[name].items()]
    )(test)


# -- the lattice -----------------------------------------------------------------


@functools.cache
def default_nodes() -> tuple[Node, ...]:
    """The default run: an all-pairs cover of each tier that starts from
    the nodes the replaced ids name."""
    return tuple(
        n for t in TIERS.values()
        for n in all_pairs(t, sorted((p for p in NAMED if p.tier == t.name), key=lambda p: p.id))
    )


@pytest.mark.parametrize(
    "lattice_node", [pytest.param(n, id=n.id) for n in default_nodes() if n not in NAMED]
)
def test_node(lattice_node):
    """Every node runs bitwise against the interpreter or is refused by
    the runtime gate that recorded it (the nodes a replaced id names run
    under that id)."""
    check(lattice_node)


@pytest.mark.lattice_full
@pytest.mark.parametrize(
    "tier, label",
    [pytest.param(t, k, id=f"{t}-{k}") for t, tier in TIERS.items() for k in _axes(tier)["kernel"]],
)
def test_full_product(tier, label):
    """Every node of *tier* on kernel *label*: the full product of the
    tier's other axes (``-m lattice_full``; one item per kernel, so
    collection stays small)."""
    failed = []
    for n in full_product(TIERS[tier], label):
        try:
            check(n)
        except (Exception, pytest.fail.Exception) as exc:
            failed.append(f"{n.id}: {type(exc).__name__}: {exc}")
    assert not failed, f"{len(failed)} node(s) failed:\n" + "\n".join(failed[:10])


def test_default_run_covers_every_pair_and_reaches_every_tier():
    nodes = default_nodes()
    assert len(set(nodes)) == len(nodes) and NAMED <= set(nodes)
    served = [n for n in nodes if n.tier == "served"]
    assert any(n["backend"] == "native" for n in served)
    for tier in ("sharded", "served"):
        assert any(n.kernel.startswith("fuzz") for n in nodes if n.tier == tier)
    for t in TIERS.values():
        rows = [dict([("kernel", n.kernel), *n.values]) for n in nodes if n.tier == t.name]
        axes = _axes(t)
        for a, b in itertools.combinations(axes, 2):
            seen = {(row[a], row[b]) for row in rows}
            for va in axes[a]:
                for vb in axes[b]:
                    if _feasible(t, {a: va, b: vb}):
                        assert (va, vb) in seen, (t.name, a, va, b, vb)


ADJOINT_KERNELS = (*APPS, *(f"scatter_{label}" for label in SCATTER))


@pytest.mark.parametrize("label", ADJOINT_KERNELS)
def test_adjoint_identities(label):
    """Each adjoint kernel, once: the dot-product identity
    <J v, w> = <v, J^T w> to round-off, and central finite differences."""
    base_label = label[len("scatter_"):] if label.startswith("scatter_") else label
    prob = APPS[base_label]()
    k = kernel(label)
    adjoint = k.nests if label.startswith("scatter_") else k.nests[1:]
    n = k.n
    bindings = prob.bindings(n)
    rng = np.random.default_rng(5)
    base = prob.allocate(n, rng=rng)
    shape = prob.array_shape(n)
    out, amap = prob.output_name, prob.adjoint_name_map()
    active = prob.active_input_names()
    v = {a: rng.standard_normal(shape) for a in active}
    w = rng.standard_normal(shape)

    tangent = {p: sp.Function(p.__name__ + "_d") for p in prob.adjoint_map}
    arrays = dict(base)
    for p, t in tangent.items():
        arrays[t.__name__] = v.get(p.__name__, np.zeros(shape))
    compile_nests([prob.primal.tangent(tangent)], bindings)(arrays)
    jv = arrays[out + "_d"]

    arrays = {a: x.copy() for a, x in base.items()}
    arrays.update(prob.allocate_adjoints(n, seed=w))
    compile_nests(list(adjoint), bindings)(arrays)
    vjtw = sum(float(np.vdot(v[a], arrays[amap[a]])) for a in active)
    lhs = float(np.vdot(jv, w))
    assert abs(lhs - vjtw) <= 1e-12 * max(abs(lhs), abs(vjtw), 1e-300)

    primal = compile_nests([prob.primal], bindings)
    h = 1e-6

    def J(sign):
        x = {a: y.copy() for a, y in base.items()}
        for a in active:
            x[a] += sign * h * v[a]
        x[out][...] = 0.0
        primal(x)
        return float(np.vdot(w, x[out]))

    fd = (J(1.0) - J(-1.0)) / (2 * h)
    assert abs(fd - vjtw) <= 5e-5 * max(abs(fd), abs(vjtw), 1e-300)
