"""Architecture guards: the structural rules a reviewer would otherwise
re-check by hand on every change.

Each test is one rule — one place a decision is made, one path a
request takes, one stopwatch — checked over the source text, with the
message that says which rule broke.  They run in tier-1, so a change
that breaks one fails where every change is tested.
"""

from __future__ import annotations

import ast
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
    assert not hits, f"client.py decodes arrays through server.decode_array: {hits}"


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
