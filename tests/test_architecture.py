"""Architecture guards: the structural rules a reviewer would otherwise
re-check by hand on every change.

Each test is one rule — one place a decision is made, one path a
request takes, one stopwatch — checked over the source text, with the
message that says which rule broke.  They run in tier-1, so a change
that breaks one fails where every change is tested.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
RUNTIME = SRC / "runtime"


def matching_lines(pattern: str, *paths: Path) -> list[str]:
    """``file:line: text`` for every line of *paths* matching *pattern*."""
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]


# -- one ladder: the bind decisions stay in runtime/decisions.py --------------


def test_warnings_are_issued_only_by_decisions():
    sites = sorted(
        path.name
        for path in RUNTIME.glob("*.py")
        if "warnings.warn(" in path.read_text()
    )
    assert sites == ["decisions.py"], f"warnings.warn( outside decisions.py: {sites}"


def test_bound_and_ensemble_lower_through_the_ladder():
    hits = matching_lines(
        r"make_native_statement|make_fused_statement|plan_groups|FusionEntry",
        RUNTIME / "bound.py",
        RUNTIME / "ensemble.py",
    )
    assert not hits, f"bound.py/ensemble.py must lower through decisions.Ladder: {hits}"


def test_checkpoint_lowers_nothing():
    hits = matching_lines(
        r"make_native_statement|make_fused_statement|array_gate",
        RUNTIME / "checkpoint.py",
    )
    assert not hits, f"checkpoint.py records bound runnables; it lowers nothing: {hits}"


def test_sweep_refusal_reasons_live_in_decisions():
    hits = matching_lines(r'"per-action", *f?"', RUNTIME / "checkpoint.py")
    assert not hits, f"the sweep rung's refusal reasons live in decisions.py: {hits}"


# -- one request path, one CSE pass, one array codec --------------------------


def test_server_has_no_queue_and_no_executor():
    hits = matching_lines(
        r"ThreadPoolExecutor|queue\.Queue|import queue", RUNTIME / "server.py"
    )
    assert not hits, (
        f"server.py batches on its connection threads: no queue, no executor: {hits}"
    )


def test_native_printer_runs_no_cse_pass():
    hits = matching_lines(r"import.*\bcse\b|\bcse\(", SRC / "codegen" / "native_c.py")
    assert not hits, f"native_c.py prints CompiledStatement.cse; it runs no CSE pass: {hits}"


def test_client_decodes_through_the_server_codec():
    hits = matching_lines(r"base64", RUNTIME / "client.py")
    assert not hits, f"client.py decodes arrays through server.inline_arrays: {hits}"


# -- one stopwatch, one direction ---------------------------------------------


def test_cli_times_nothing():
    hits = matching_lines(r"perf_counter|tracemalloc|time\.time", SRC / "cli.py")
    assert not hits, f"cli.py must not time anything: bench/run.py is the stopwatch: {hits}"


def test_runtime_does_not_import_the_cli():
    hits = matching_lines(r"cli import|import cli", *sorted(RUNTIME.rglob("*.py")))
    assert not hits, f"runtime/ must not import cli: {hits}"


# -- leased shared memory: one helper creates segments, one unlinks them ------


def calls_by_function(path: Path) -> list[tuple[str, ast.Call]]:
    """Every call in *path*, with the name of the function enclosing it."""
    found: list[tuple[str, ast.Call]] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                found.append((owner, child))
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_client_creates_segments_only_in_its_lease_helper():
    owners = [
        owner
        for owner, call in calls_by_function(RUNTIME / "client.py")
        if called_name(call) == "SharedMemory"
        and any(kw.arg == "create" for kw in call.keywords)
    ]
    assert owners == ["_lease"], (
        f"client.py creates segments only in its lease helper: {owners}"
    )


def test_client_unlinks_segments_only_in_its_release_helper():
    owners = [
        owner
        for owner, call in calls_by_function(RUNTIME / "client.py")
        if called_name(call) == "unlink"
    ]
    assert owners == ["_release"], (
        f"client.py unlinks segments only in its release helper: {owners}"
    )


def test_the_wire_carries_no_base64():
    """Inline state is the frame's raw payload: only the kept
    encode_array calls the base64 codec, and nothing in the server or
    the client calls it."""
    owners = [
        (path.name, owner)
        for path in (RUNTIME / "server.py", RUNTIME / "client.py")
        for owner, call in calls_by_function(path)
        if re.match(r"b64|(en|de)code_array$", called_name(call))
        and owner != "encode_array"
    ]
    assert not owners, f"the wire carries raw bytes, never base64: {owners}"


def test_server_maps_segments_only_in_its_tracker_free_helper():
    owners = [
        owner
        for owner, call in calls_by_function(RUNTIME / "server.py")
        if called_name(call) in ("SharedMemory", "mmap")
    ]
    assert owners == ["_map_segment"], (
        f"server.py maps a client's segments only in _map_segment, which"
        f" registers nothing with the resource tracker: {owners}"
    )


# -- build only the rung that runs: one runners unit, a lazy per-statement one --


def names_by_function(path: Path) -> dict[str, set[str]]:
    """The bare names each top-level function of *path* mentions."""
    return {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }


def test_runners_are_emitted_by_one_generator():
    runners = {"PROGRAM_RUNNER_NAME", "COPY_FN_NAME", "ZERO_FN_NAME"}
    emitters = sorted(
        name
        for name, names in names_by_function(SRC / "codegen" / "native_c.py").items()
        if names & runners
    )
    assert emitters == ["generate_runtime_source"], (
        f"the three runners are emitted only by generate_runtime_source: {emitters}"
    )


def test_one_function_prints_c_loop_headers():
    tree = ast.parse((SRC / "codegen" / "native_c.py").read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and ast.get_docstring(node) is not None
    }
    printers = sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(leaf, ast.Constant)
            and id(leaf) not in docstrings
            and "for (" in str(leaf.value)
            for leaf in ast.walk(node)
        )
    )
    assert printers == ["_open_loop"], (
        f"every C loop header comes from one function of native_c.py: {printers}"
    )


def test_one_runner_and_one_nest_printer_stay():
    # Spelled so that a grep for the removed names finds no test either.
    pattern = r"Native(Chain)\b|repro_run_(chain)|parallel_(eligibility)"
    hits = matching_lines(pattern, *sorted(SRC.rglob("*.py")))
    assert not hits, (
        f"the chain runner and parallel eligibility are gone (README, Removed): {hits}"
    )


def test_per_statement_unit_is_built_only_by_the_library_loader():
    builds = sorted(
        (owner, ast.unparse(call.args[0]))
        for owner, call in calls_by_function(RUNTIME / "native.py")
        if called_name(call) == "_build_and_load"
    )
    assert builds == [
        ("_entries", "source"),  # NativeLibrary's loader, on first use
        ("library_verdict", "generate_runtime_source()"),
        ("make_fused_statement", "source"),
    ], f"native.py builds the per-statement unit only in NativeLibrary._entries: {builds}"


# -- one parse per spec: the server's parser call sits behind its memo ---------


def test_server_parses_specs_only_in_its_memo():
    owners = [
        owner
        for owner, call in calls_by_function(RUNTIME / "server.py")
        if called_name(call) == "parse_stencil"
    ]
    assert owners == ["_parse"], (
        f"server.py calls parse_stencil once, in its memo helper _parse: {owners}"
    )


# -- no unused imports: ruff's F401, for where ruff is not installed ----------


def unused_imports(path: Path) -> list[str]:
    """Imported names *path* never mentions (``__future__`` and ``noqa``
    lines excepted; a string naming it, as ``__all__`` does, counts)."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    mentioned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            mentioned.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            mentioned.add(node.value)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``; attribute chains root at a Name.
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in mentioned:
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return out


def test_no_unused_imports():
    files = sorted(
        path
        for top in ("src", "tests", "benchmarks", "examples")
        for path in (ROOT / top).rglob("*.py")
        if path.name != "__init__.py"
    )
    unused = [hit for path in files for hit in unused_imports(path)]
    assert not unused, f"unused imports: {unused}"


# -- the audited modes: one box per task, one thread knob per backend ----------


def test_execution_config_holds_the_audited_modes():
    from repro.runtime import ExecutionConfig

    # The composition lattice is the product of these fields.  A new
    # mode joins them only with a same-run speed floor (1.1x over the
    # config without it, on the workload it is for) or a paper citation.
    names = [field.name for field in dataclasses.fields(ExecutionConfig)]
    assert names == [
        "num_threads", "min_block_iterations", "backend",
        "fusion", "check", "transactional", "native_threads",
    ], f"ExecutionConfig fields changed without a mode audit: {names}"


def test_tiling_stays_deleted():
    # Spelled so that a grep for the removed names finds no test either.
    pattern = r"tile_(shape|box)|safe_to_(tile)|runtime\.(tiling)|from \.(tiling)"
    hits = matching_lines(pattern, *sorted(SRC.rglob("*.py")))
    assert not hits, f"tiling was removed by the mode audit (README, Removed): {hits}"


def test_scatter_discipline_stays_deleted():
    # The python pool partitions by core.fusion.parallel_safe_group alone;
    # spelled so that a grep for the removed names finds no test either.
    pattern = (
        r"validate_(scatter)_kernel|_run_(scatter)\b|safe_(split)_axis"
        r"|scatter\.(merge)|config\.(scatter)\b|\b(scatter): bool"
    )
    hits = matching_lines(pattern, *sorted(SRC.rglob("*.py")))
    assert not hits, f"the scatter discipline was removed (README, Removed): {hits}"
