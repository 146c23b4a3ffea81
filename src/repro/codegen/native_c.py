"""Native-backend C lowering: compiled statements -> bitwise-exact C.

The other back-ends in this package print *symbolic* loop nests for a
human (or an external compiler) to take away.  This module instead
lowers the runtime's *compiled* statements — concrete per-statement
iteration boxes, guard-intersected by the execution plan, with the
placeholder-substituted RHS the NumPy path evaluates — into a C
translation unit that the native execution backend
(:mod:`repro.runtime.native`) JIT-builds with ``cc`` and calls through
``ctypes``.

Bitwise identity with the NumPy path is the design constraint, not an
aspiration: the generated C must produce, element for element, the very
bits the ``lambdify``-generated NumPy code produces.  That rules out
naive translation and dictates every printing rule here:

* Only constructs whose NumPy evaluation is reproducible by scalar
  IEEE-754 C code are lowered (:func:`native_eligibility`).  ``x**2``
  is ``x*x`` in NumPy's pow loop and in C; ``x**3`` is *neither*
  ``x*x*x`` nor libm ``pow`` bitwise, so it stays on the Python path.
* Rationals are printed as the correctly-rounded double the generated
  Python computes at run time (``(1/3)`` -> ``0.3333333333333333``),
  never as a C division ``x/3`` of a different shape.
* ``Max``/``Min`` replicate ``np.maximum``/``np.minimum`` exactly,
  including NaN propagation and the tie-breaking to the *second*
  operand that decides the sign of zero results.
* For ``float32`` kernels every constant is cast to ``real`` before
  use, matching NumPy's weak-scalar promotion (the whole C expression
  must evaluate in ``float``, not be promoted to ``double``).
* The build layer compiles with ``-ffp-contract=off`` so the compiler
  cannot fuse multiply-adds the NumPy path performs as two roundings.

Every C loop nest is printed by one function, :func:`emit_nest`, with
one calling convention::

    void <name>(char **ptrs, const int64_t *geom);

``ptrs`` holds one data pointer per distinct array (:func:`operand_ranks`
order).  A nest bound to concrete arrays bakes its strides and bounds
as literals (:func:`generate_fused_source`) — all of them for a fused
group, all but the axis-0 bounds (``geom[0..1]``) for one statement;
a kernel's per-statement library reads them from ``geom`` — the
inclusive per-axis bounds, then each array's element strides — so one
build serves every binding (:func:`generate_native_source`).  The kernel-independent
runners live in a translation unit of their own
(:func:`generate_runtime_source`): two whole-buffer memory statements
with the same signature (``repro_copy``: ``memcpy(ptrs[0], ptrs[1],
geom[0])``, ``repro_zero``: ``memset(ptrs[0], 0, geom[0])``) and the
program runner, which walks an ``int32`` index array over a table of
distinct calls — how a chain of native statements runs as one FFI
crossing per timestep, and a whole revolve sweep (kernel steps,
snapshots, restores, adjoint shifts) as one per sweep
(:class:`repro.runtime.native.NativeProgram`).
"""

from __future__ import annotations

from typing import Sequence

import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from ..core.fusion import FusionEntry, parallel_safe_group
from .base import CodegenError, Emitter
from .c import CPrinter

# The printer class lambdify uses; consulted for its Float literal text
# so native constants match the generated Python's parsed values bit for
# bit (see NativeCPrinter._print_Float).
_LAMBDIFY_PRINTER = NumPyPrinter()

__all__ = [
    "NativeCPrinter",
    "native_eligibility",
    "nest_threaded",
    "operand_ranks",
    "emit_nest",
    "generate_native_source",
    "native_unit",
    "generate_runtime_source",
    "generate_fused_source",
    "PROGRAM_RUNNER_NAME",
    "COPY_FN_NAME",
    "ZERO_FN_NAME",
    "FUSED_FN_NAME",
    "NATIVE_ABI_VERSION",
]

# Bumped whenever the generated code's ABI or semantics change; folded
# into the shared-object disk-cache key by the runtime build layer.
NATIVE_ABI_VERSION = 4

PROGRAM_RUNNER_NAME = "repro_run_program"
COPY_FN_NAME = "repro_copy"
ZERO_FN_NAME = "repro_zero"

FUSED_FN_NAME = "repro_fused"

_REAL_OF_DTYPE = {"float64": "double", "float32": "float"}

# Pow exponents with a known bitwise-exact C form (see module docstring;
# each is empirically verified against NumPy in tests/test_native_backend.py).
_POW_SQUARE = sp.Integer(2)
_POW_RECIP = sp.Integer(-1)
_POW_SQRT = sp.Rational(1, 2)
_POW_RSQRT = sp.Rational(-1, 2)
_ALLOWED_POW_EXPONENTS = (_POW_SQUARE, _POW_RECIP, _POW_SQRT, _POW_RSQRT)


class NativeCPrinter(CPrinter):
    """C printer mirroring the lambdify/NumPy evaluation bit for bit.

    ``symbol_map`` resolves the two symbol kinds a compiled RHS contains:
    ``__accN`` placeholders map to indexed array-access strings and bare
    loop counters map to ``((real)iD)`` casts of the loop variables.
    Anything outside :func:`native_eligibility`'s whitelist raises
    :class:`~repro.codegen.base.CodegenError` — the runtime never prints
    an ineligible statement, so a raise here marks a gating bug.
    """

    def __init__(self, symbol_map: dict[sp.Symbol, str], real: str = "double"):
        super().__init__()
        self._symbol_map = symbol_map
        self._real = real

    # -- leaves -----------------------------------------------------------

    def _print_Symbol(self, expr: sp.Symbol) -> str:
        mapped = self._symbol_map.get(expr)
        if mapped is None:
            raise CodegenError(f"unmapped symbol {expr} in native lowering")
        return mapped

    def _const(self, value: float) -> str:
        # repr() round-trips the double exactly; the cast keeps float32
        # expressions in float32 throughout (NumPy's weak-scalar rule).
        return f"(({self._real}){value!r})"

    def _print_Float(self, expr: sp.Float) -> str:
        # The value the NumPy path computes with is NOT the symbolic
        # Float: lambdify prints floats at 15 significant digits and the
        # generated code re-parses that decimal (0.19999999999999996
        # round-trips through "0.2" to 0.2).  Reproduce exactly that
        # print-and-reparse, then emit the resulting double verbatim.
        return self._const(float(_LAMBDIFY_PRINTER.doprint(expr)))

    def _print_Rational(self, expr: sp.Rational) -> str:
        # The generated Python evaluates `p/q` at run time: one correctly
        # rounded division of exact integers.  Bake in that very double.
        return self._const(expr.p / expr.q)

    def _print_Integer(self, expr: sp.Integer) -> str:
        # Integers are exact in both paths; plain literals keep the C
        # readable.  They participate in real arithmetic by promotion,
        # which is value-exact for the int64-range magnitudes ruled
        # eligible.
        return str(int(expr))

    def _print_NumberSymbol(self, expr) -> str:
        return self._const(float(expr))

    _print_Exp1 = _print_NumberSymbol
    _print_Pi = _print_NumberSymbol

    # -- operators --------------------------------------------------------

    def _print_Pow(self, expr: sp.Pow) -> str:
        base = self._print(expr.base)
        exp = expr.exp
        if exp == _POW_SQUARE:
            # np.power's pow loop special-cases exponent 2 as x*x.
            return f"({base}*{base})"
        if exp == _POW_RECIP:
            # np.power(x, -1) is 1/x; sympy's Mul printer routes plain
            # divisions elsewhere, so this only fires for bare x**-1.
            return f"((({self._real})1.0)/{base})"
        if exp == _POW_SQRT:
            return f"{self._sqrt_fn()}({base})"
        if exp == _POW_RSQRT:
            return f"((({self._real})1.0)/{self._sqrt_fn()}({base}))"
        raise CodegenError(
            f"pow exponent {exp} has no bitwise-exact native lowering"
        )

    def _sqrt_fn(self) -> str:
        # sqrtf for float32: double sqrt + truncation would double-round.
        return "sqrt" if self._real == "double" else "sqrtf"

    def _print_Max(self, expr: sp.Max) -> str:
        return self._fold_minmax(expr.args, ">")

    def _print_Min(self, expr: sp.Min) -> str:
        return self._fold_minmax(expr.args, "<")

    def _fold_minmax(self, args: Sequence[sp.Expr], cmp: str) -> str:
        # lambdify prints Max(a, b, c) as reduce(np.maximum, [a, b, c]):
        # a left fold of the binary ufunc.  np.maximum is
        # (a > b || isnan(a)) ? a : b — strict comparison, ties take the
        # *second* operand (so maximum(0.0, -0.0) is -0.0), NaNs
        # propagate with their payload.  np.minimum mirrors with '<'.
        acc = self._print(args[0])
        for arg in args[1:]:
            b = self._print(arg)
            acc = f"((({acc} {cmp} {b}) || ({acc} != {acc})) ? {acc} : {b})"
        return acc

    def _print_Heaviside(self, expr: sp.Heaviside) -> str:
        # Matches the runtime's NumPy fallback np.where(x >= 0, 1.0, 0.0)
        # (paper semantics H(0) = 1); the optional second sympy argument
        # is ignored by both paths.
        arg = self._print(expr.args[0])
        one, zero = self._const(1.0), self._const(0.0)
        return f"(({arg} >= (({self._real})0.0)) ? {one} : {zero})"


# -- eligibility ---------------------------------------------------------------


def _expr_eligible(expr: sp.Expr, dtype_name: str) -> str | None:
    """None when *expr* lowers bitwise-exactly, else a human reason."""
    for node in sp.preorder_traversal(expr):
        if isinstance(node, (sp.Add, sp.Mul, sp.Symbol)):
            continue
        if isinstance(node, sp.Integer):
            # Bare C literals must stay exactly representable through
            # the promotion to real (and must compile at all).
            if abs(int(node)) > 2**53:
                return f"integer constant {node} exceeds exact double range"
            continue
        if isinstance(node, (sp.Rational, sp.Float, sp.NumberSymbol)):
            continue
        if isinstance(node, sp.Pow):
            if node.exp not in _ALLOWED_POW_EXPONENTS:
                return f"pow exponent {node.exp} not bitwise-reproducible"
            continue
        if isinstance(node, (sp.Max, sp.Min)):
            # The ternary lowering prints each folded operand three
            # times, so the emitted text grows ~3^(k-1): keep the
            # binary form (all the upwinding stencils) and leave wider
            # folds to the Python path.
            if len(node.args) != 2:
                return f"{type(node).__name__} with {len(node.args)} args"
            continue
        if isinstance(node, sp.Heaviside):
            if dtype_name != "float64":
                # The NumPy fallback np.where(x >= 0, 1.0, 0.0) yields a
                # float64 array even for float32 operands, so the rest of
                # the statement silently computes in double — semantics a
                # pure-float32 C loop cannot reproduce.
                return "Heaviside promotes float32 statements to float64"
            continue
        return f"{type(node).__name__} has no bitwise-exact native lowering"
    return None


def native_eligibility(stmt, dim: int, dtype) -> str | None:
    """Why *stmt* cannot run natively, or None when it can.

    *stmt* is a :class:`~repro.runtime.compiler.CompiledStatement`
    (duck-typed to keep this module import-light).  The checks encode
    exactly the NumPy-semantics guarantees of the generated C:

    * the target must cover every frame axis once — reduced (``sum``)
      and broadcast-select targets use NumPy pairwise/broadcast
      semantics a sequential C loop does not reproduce;
    * reads may not use one frame axis in two slots (NumPy builds an
      outer-product view there, not a diagonal);
    * reads of the *target array itself* must use the target's exact
      slots, otherwise the fused C loop would observe freshly written
      elements the NumPy gather/assign never sees;
    * the RHS expression must pass the bitwise whitelist;
    * the kernel dtype must be float64 or float32, and the frame must
      have an axis to loop over.
    """
    dtype_name = getattr(dtype, "__name__", None) or str(dtype)
    if dtype_name not in _REAL_OF_DTYPE:
        return f"dtype {dtype_name} unsupported by the native backend"
    if dim < 1:
        return "zero-dimensional statement has no loop to print"
    target_axes = [axis for axis, _ in stmt.target.slots]
    if sorted(target_axes) != list(range(dim)):
        return "target does not cover each frame axis exactly once"
    for acc in stmt.reads:
        axes = [axis for axis, _ in acc.slots]
        if len(set(axes)) != len(axes):
            return f"read {acc.name} repeats a frame axis (outer-product view)"
        if acc.name == stmt.target.name and acc.slots != stmt.target.slots:
            return f"read of target array {acc.name} at shifted offsets"
    if stmt.op not in ("=", "+="):
        return f"unsupported statement op {stmt.op!r}"
    if stmt.rhs_expr is None:
        return "statement carries no symbolic RHS"
    return _expr_eligible(stmt.rhs_expr, dtype_name)


# -- the loop-nest printer -----------------------------------------------------


def _omp_for(nthreads: int) -> str:
    """The pragma placed on a partitionable outermost loop.

    ``schedule(static)`` assigns contiguous iteration blocks; the exact
    split does not affect results (each element's arithmetic is a fixed
    scalar sequence computed by exactly one thread), it only keeps the
    memory traffic streaming.  The thread count is baked so the build
    cache key captures the threading mode through the source text.
    """
    return f"#pragma omp parallel for schedule(static) num_threads({nthreads})"


def _open_loop(em: Emitter, var: str, lo, hi, pragma: str | None = None) -> None:
    """Open an inclusive ``for`` over *var* — every loop header printed
    here, nests and the program runner alike, comes from this line."""
    if pragma is not None:
        em.line(pragma)
    em.line(f"for (int64_t {var} = {lo}; {var} <= {hi}; ++{var}) {{")
    em.push()


def _close(em: Emitter, count: int = 1) -> None:
    for _ in range(count):
        em.pop()
        em.line("}")


def operand_ranks(stmts) -> dict[str, int]:
    """The distinct arrays of *stmts* in pointer order — each statement's
    target, then its reads — mapped to their rank (strides per array)."""
    ranks: dict[str, int] = {}
    for st in stmts:
        for acc in (st.target, *st.reads):
            ranks.setdefault(acc.name, len(acc.slots))
    return ranks


def nest_threaded(entries: Sequence, nthreads: int) -> bool:
    """Whether *entries*' nest partitions axis 0 across OpenMP threads.

    True when ``nthreads > 1``, the nest has a loop, the partition rule
    a python region's tasks also follow admits the group
    (:func:`~repro.core.fusion.parallel_safe_group`: blocks of axis 0
    write disjoint elements and no dependence crosses an outer row), and
    — for two or more statements — ``dim >= 2``: a 1-D fused nest
    interleaves along its only axis, so partitioning it would hand one
    statement's producer row to another thread.  Every statement that
    reaches here passed :func:`native_eligibility`, whose target and
    self-read conditions imply the rule's per-statement ones.  A
    refused nest stays serial: still bitwise identical, just not
    thread-partitioned.
    """
    dim = entries[0].dim
    return (
        nthreads > 1
        and dim >= 1
        and (len(entries) == 1 or dim >= 2)
        and parallel_safe_group(entries) is None
    )


def _index(slots, strides) -> str:
    """C index expression for an access: sum of (counter+offset)*stride."""
    terms = []
    for (axis, off), stride in zip(slots, strides):
        pos = f"i{axis}" if off == 0 else f"(i{axis} + ({off}))"
        terms.append(pos if stride == 1 else f"{pos}*{stride}")
    return " + ".join(terms) if terms else "0"


def emit_nest(
    em: Emitter,
    name: str,
    entries: Sequence,
    counters: Sequence[sp.Symbol],
    nthreads: int = 1,
    arrays=None,
) -> tuple[str, ...]:
    """Print ``void name(char **ptrs, const int64_t *geom)`` running
    *entries* as one C loop nest; return the operand names in the order
    ``ptrs`` holds their data pointers (:func:`operand_ranks`).

    *entries* are :class:`~repro.core.fusion.FusionEntry` objects in
    execution order.  The geometry comes from one of two places:

    * **literals**, when *arrays* maps the operand names to the concrete
      ndarrays of a binding: every element stride is baked, and the
      innermost loop carries ``GCC unroll 8`` — what lets the compiler
      vectorise the inner loop.  A group of two or more bakes each
      entry's box too.  One entry bakes every bound but axis 0's, which
      it reads from ``geom[0..1]``: shard ranks differ only in their
      axis-0 slab rows, so they all run one build;
    * **the ``geom`` block**, when *arrays* is None (one entry): bounds
      ``[lo0, hi0, ..., lo{d-1}, hi{d-1}]``, then each operand's element
      strides in pointer order, so one build serves every binding.

    Everything else is printed once, here: the statement's stored CSE
    program as locals, the constants, Min/Max ternaries and float32
    casts of :class:`NativeCPrinter`, ``=``/``+=``, bare counters, and
    the OpenMP pragma (:func:`nest_threaded`).  The nest iterates the
    union box on the outer axes; at each outer point, maximal runs of
    entries with *equal* boxes execute point-interleaved in one inner
    loop (with values a member writes and a later member re-reads at
    the very same point forwarded through a local instead of a reload),
    and runs with differing boxes execute as consecutive inner loops
    guarded to their own outer ranges — both respect the lexicographic
    dependence conditions the fusion planner checked.  Every operand
    pointer is ``restrict``: the bind-time array gate refuses a written
    array sharing memory with a differently-named one.

    >>> from repro.apps import heat_problem
    >>> from repro.core.fusion import FusionEntry
    >>> from repro.runtime import compile_nests
    >>> prob = heat_problem(1)
    >>> kernel = compile_nests([prob.primal], prob.bindings(8))
    >>> stmt = kernel.regions[0].statements[0]
    >>> entry = FusionEntry(stmt, ((1, 6),), 1, "float64")
    >>> em = Emitter()
    >>> emit_nest(em, "heat", [entry], kernel.counters)   # geom block
    ('u', 'u_1')
    >>> print(em.code(), end="")  # doctest: +NORMALIZE_WHITESPACE
    void heat(char **ptrs, const int64_t *geom) {
      double *restrict a0 = (double *)ptrs[0];
      const double *restrict a1 = (const double *)ptrs[1];
      for (int64_t i0 = geom[0]; i0 <= geom[1]; ++i0) {
        a0[i0*geom[2]] += ((double)0.6)*a1[i0*geom[3]]
            + ((double)0.2)*a1[(i0 + (-1))*geom[3]]
            + ((double)0.2)*a1[(i0 + (1))*geom[3]];
      }
    }
    >>> em = Emitter()
    >>> _ = emit_nest(em, "heat", [entry], kernel.counters,   # literals
    ...               arrays=prob.allocate(8))
    >>> print(em.code(), end="")  # doctest: +NORMALIZE_WHITESPACE
    void heat(char **ptrs, const int64_t *geom) {
      double *restrict a0 = (double *)ptrs[0];
      const double *restrict a1 = (const double *)ptrs[1];
      _Pragma("GCC unroll 8")
      for (int64_t i0 = geom[0]; i0 <= geom[1]; ++i0) {
        a0[i0] += ((double)0.6)*a1[i0] + ((double)0.2)*a1[(i0 + (-1))]
            + ((double)0.2)*a1[(i0 + (1))];
      }
    }

    The one-statement literal nest above keeps its axis-0 bounds in
    ``geom``; a heat2d statement shows the inner bounds and the row
    stride baked:

    >>> prob = heat_problem(2)
    >>> kernel = compile_nests([prob.primal], prob.bindings(8))
    >>> stmt = kernel.regions[0].statements[0]
    >>> entry = FusionEntry(stmt, ((1, 6), (1, 6)), 2, "float64")
    >>> em = Emitter()
    >>> _ = emit_nest(em, "heat", [entry], kernel.counters,
    ...               arrays=prob.allocate(8))
    >>> print(*em.code().splitlines()[3:6], sep="\\n")
      for (int64_t i0 = geom[0]; i0 <= geom[1]; ++i0) {
        _Pragma("GCC unroll 8")
        for (int64_t i1 = 1; i1 <= 6; ++i1) {
    """
    first = entries[0]
    dim = first.dim
    real = _REAL_OF_DTYPE.get(first.dtype)
    if real is None:
        raise CodegenError(f"dtype {first.dtype} unsupported by the native backend")
    if dim < 1:
        raise CodegenError("zero-dimensional nest has no loop to print")
    ranks = operand_ranks(entry.stmt for entry in entries)
    written = {entry.stmt.target.name for entry in entries}
    baked = arrays is not None
    if baked:
        itemsize = {"double": 8, "float": 4}[real]
        strides = {
            n: tuple(s // itemsize for s in arrays[n].strides) for n in ranks
        }
        boxes = [entry.box for entry in entries]
        if len(entries) == 1:
            boxes = [(("geom[0]", "geom[1]"), *first.box[1:])]
    else:
        if len(entries) != 1:
            raise CodegenError("a geom block describes one statement")
        strides, base = {}, 2 * dim
        for n, rank in ranks.items():
            strides[n] = tuple(f"geom[{base + k}]" for k in range(rank))
            base += rank
        boxes = [tuple((f"geom[{2 * a}]", f"geom[{2 * a + 1}]") for a in range(dim))]
    union = tuple(
        (min(box[a][0] for box in boxes), max(box[a][1] for box in boxes))
        for a in range(dim)
    )
    slot_of = {n: k for k, n in enumerate(ranks)}

    def ref(acc) -> str:
        return f"a{slot_of[acc.name]}[{_index(acc.slots, strides[acc.name])}]"

    # Maximal runs of equal boxes become point-interleaved chunks.
    chunks: list[list[int]] = []
    for k, box in enumerate(boxes):
        if chunks and boxes[chunks[-1][-1]] == box:
            chunks[-1].append(k)
        else:
            chunks.append([k])

    omp = _omp_for(nthreads) if nest_threaded(entries, nthreads) else None
    em.line(f"void {name}(char **ptrs, const int64_t *geom) {{")
    em.push()
    if baked and len(entries) > 1:
        em.line("(void)geom;  /* bounds and strides are baked below */")
    for k, n in enumerate(ranks):
        qual = "" if n in written else "const "
        em.line(f"{qual}{real} *restrict a{k} = ({qual}{real} *)ptrs[{k}];")
    for axis in range(dim - 1):
        _open_loop(em, f"i{axis}", *union[axis], omp if axis == 0 else None)

    inner = dim - 1
    for chunk in chunks:
        box = boxes[chunk[0]]
        conds = []
        for axis in range(inner):
            (lo, hi), (ulo, uhi) = box[axis], union[axis]
            if lo != ulo:
                conds.append(f"i{axis} >= {lo}")
            if hi != uhi:
                conds.append(f"i{axis} <= {hi}")
        if conds:
            em.line(f"if ({' && '.join(conds)}) {{")
            em.push()
        if inner == 0 and omp is not None:
            pragma = omp
        else:
            pragma = '_Pragma("GCC unroll 8")' if baked else None
        _open_loop(em, f"i{inner}", *box[inner], pragma)
        # Same-point value forwarding: (name, slots) -> local C variable
        # holding the value most recently stored there at this point.
        forwarded: dict[tuple[str, tuple], str] = {}
        for k in chunk:
            st = entries[k].stmt
            symbol_map: dict[sp.Symbol, str] = {}
            for idx, acc in enumerate(st.reads):
                load = forwarded.get((acc.name, acc.slots)) or ref(acc)
                symbol_map[sp.Symbol(f"__acc{idx}")] = load
            for axis in st.bare_axes:
                symbol_map[counters[axis]] = f"(({real})i{axis})"
            printer = NativeCPrinter(symbol_map, real=real)
            # The Python path's eval_fn was lambdified from the
            # statement's CSE program, and CSE substitution can *regroup*
            # a product (x0 = 0.2*Min(...) pulls the third factor ahead
            # of the second), changing the rounding sequence.  Print that
            # same program, temporaries as locals, so the C performs the
            # same ops in the same order as the generated Python, not as
            # the pre-CSE expression tree.
            cses, reduced = st.cse
            for sym, sub in cses:
                em.line(f"const {real} f{k}_{sym} = {printer.doprint(sub)};")
                symbol_map[sym] = f"f{k}_{sym}"
            rhs = printer.doprint(reduced)
            tname, tref = st.target.name, ref(st.target)
            if len(chunk) == 1:
                op = "+=" if st.op == "+=" else "="
                em.line(f"{tref} {op} {rhs};")
                continue
            if st.op == "+=":
                tload = forwarded.get((tname, st.target.slots), tref)
                value = f"{tload} + ({rhs})"
            else:
                value = rhs
            em.line(f"const {real} v{k} = {value};")
            em.line(f"{tref} = v{k};")
            w_axes = tuple(axis for axis, _ in st.target.slots)
            for key in list(forwarded):
                if key[0] != tname:
                    continue
                if tuple(axis for axis, _ in key[1]) != w_axes:
                    # A write through a different slot-axis map could
                    # hit any cached location; drop conservatively.
                    del forwarded[key]
            forwarded[(tname, st.target.slots)] = f"v{k}"
        _close(em)
        if conds:
            _close(em)
    _close(em, dim)  # the outer loops, then the function
    return tuple(ranks)


# -- translation units ---------------------------------------------------------


def _header(em: Emitter, what: str, about: str, threads: int | None) -> None:
    em.line(f"/* Generated by repro.codegen.native_c{what} — do not edit. */")
    em.line(f"/* ABI v{NATIVE_ABI_VERSION}{about} */")
    if threads is not None:
        em.line(f"/* threaded variant: {threads} OpenMP threads */")
    em.line("#include <stdint.h>")


def generate_native_source(
    kernel, nthreads: int = 1
) -> tuple[str, dict[tuple[int, int], str]]:
    """Lower *kernel*'s eligible statements to one C translation unit.

    *kernel* is a :class:`~repro.runtime.compiler.CompiledKernel`
    (duck-typed).  Returns ``(source, manifest)`` where ``manifest``
    maps ``(region_index, statement_index)`` to the emitted function
    name.  Each function is a one-statement :func:`emit_nest` reading
    its geometry from ``geom``, so one build serves every binding of
    the kernel (shards, ensemble members, rotation parities).
    Ineligible statements are simply absent — the runtime keeps them on
    the Python path.  The runner that calls these functions is not part
    of the unit (:func:`generate_runtime_source`), so a kernel whose
    statements all run fused never needs it built.

    With ``nthreads > 1`` each nest gets an OpenMP ``parallel for`` on
    its outermost loop (:func:`nest_threaded`; the build layer adds
    ``-fopenmp`` after probing the compiler).  A program runs its calls
    serially — each call is internally parallel and the implicit barrier
    at the end of its parallel region preserves statement order, so the
    results are bitwise identical to the serial build at any thread
    count.
    """
    source, manifest, _refused = native_unit(
        kernel.name, kernel.regions, kernel.counters, nthreads
    )
    return source, manifest


def native_unit(
    name: str, regions, counters: Sequence[sp.Symbol], nthreads: int = 1
) -> tuple[str, dict[tuple[int, int], str], dict[tuple[int, int], str]]:
    """:func:`generate_native_source` over a kernel's parts, plus
    ``refused``: ``(region_index, statement_index)`` -> the printer's
    reason, for each statement :func:`native_eligibility` passed but
    :func:`emit_nest` could not print (a gap in the gate; it runs on
    the Python path and says why)."""
    em = Emitter(indent="  ")
    _header(em, "", f", kernel {name!r}", nthreads if nthreads > 1 else None)
    em.line("#include <math.h>")
    em.line()
    manifest: dict[tuple[int, int], str] = {}
    refused: dict[tuple[int, int], str] = {}
    dim = len(counters)
    for ri, region in enumerate(regions):
        dtype = getattr(region.dtype, "__name__", None) or str(region.dtype)
        for si, stmt in enumerate(region.statements):
            if native_eligibility(stmt, dim, region.dtype) is not None:
                continue
            fn_name = f"repro_s{ri}_{si}"
            nest = Emitter(indent="  ")
            try:
                emit_nest(
                    nest, fn_name, [FusionEntry(stmt, None, dim, dtype)],
                    counters, nthreads,
                )
            except CodegenError as exc:
                refused[(ri, si)] = str(exc)
                continue
            for text in nest.code().splitlines():
                em.line(text)
            em.line()
            manifest[(ri, si)] = fn_name
    return em.code(), manifest, refused


def generate_runtime_source() -> str:
    """The kernel-independent runners as one C translation unit.

    The program runner walks an ``int32`` index array over a table of
    distinct calls — a chain of native statements and a whole revolve
    sweep alike; ``repro_copy``/``repro_zero`` are the two whole-buffer
    memory statements.  None of them depends on a kernel, so every
    library shares one object built from this source, and a kernel
    whose statements all run fused never builds its
    :func:`generate_native_source` unit.
    """
    em = Emitter(indent="  ")
    _header(em, " (runners)", "", None)
    em.line("#include <string.h>")
    em.line()
    em.line("typedef void (*repro_stmt_fn)(char **, const int64_t *);")
    em.line()
    # Whole-buffer memory statements in the per-statement ABI (geom[0]
    # is a byte count), so programs run them like any other.
    em.line(f"void {COPY_FN_NAME}(char **ptrs, const int64_t *geom) {{")
    em.line("  memcpy(ptrs[0], ptrs[1], (size_t)geom[0]);")
    em.line("}")
    em.line()
    em.line(f"void {ZERO_FN_NAME}(char **ptrs, const int64_t *geom) {{")
    em.line("  memset(ptrs[0], 0, (size_t)geom[0]);")
    em.line("}")
    em.line()
    # The program runner: idx[k] selects which of the table's distinct
    # calls runs k-th, so a long schedule costs 4 bytes per entry.
    em.line(
        f"void {PROGRAM_RUNNER_NAME}(int64_t n, const int32_t *idx, "
        "void **fns, char ***ptrss, const int64_t **geoms) {"
    )
    em.push()
    _open_loop(em, "k", 0, "n - 1")
    em.line("const int32_t j = idx[k];")
    em.line("((repro_stmt_fn)fns[j])(ptrss[j], geoms[j]);")
    _close(em, 2)
    return em.code()


def generate_fused_source(
    entries: Sequence,
    arrays,
    counters: Sequence[sp.Symbol],
    nthreads: int = 1,
) -> tuple[str, str, tuple[str, ...]]:
    """Lower one fused statement group — or one statement — to a single
    C loop nest.

    *entries* are :class:`repro.core.fusion.FusionEntry` objects whose
    legality :func:`repro.core.fusion.plan_groups` has already
    established; *arrays* maps array names to the concrete ndarrays the
    group is being bound against.  Returns ``(source, function_name,
    ptr_order)`` where ``ptr_order`` names the distinct arrays in the
    order the function expects their data pointers.

    The nest is :func:`emit_nest` with **literal geometry**: boxes and
    element strides are compile-time constants, so the function is
    built per binding geometry (the runtime's content key covers it),
    and the constants are what let the compiler vectorise and unroll
    the merged loop — the fusion win on a memory-bound timestep comes
    from this codegen quality as much as from touching each row once.
    A one-statement nest reads its axis-0 bounds from ``geom[0..1]``,
    so bindings that differ only there (shard slabs) share its build.
    A statement the printer cannot lower raises
    :class:`~repro.codegen.base.CodegenError`; the runtime treats that
    as a per-group fallback.  With ``nthreads > 1`` the nest is threaded
    where :func:`nest_threaded` allows.
    """
    em = Emitter(indent="  ")
    threaded = nest_threaded(entries, nthreads)
    if len(entries) == 1:
        what, about = " (literal nest)", ", one statement"
    else:
        what, about = " (fused)", f", {len(entries)}-statement group"
    _header(em, what, about, nthreads if threaded else None)
    em.line("#include <math.h>")
    em.line()
    order = emit_nest(em, FUSED_FN_NAME, entries, counters, nthreads, arrays)
    return em.code(), FUSED_FN_NAME, order
