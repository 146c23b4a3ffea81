"""Documentation integrity: internal links resolve, docs stay wired up.

The doctests inside ``docs/*.md`` and the runtime docstrings are
executed by the CI docs job (``pytest --doctest-glob='*.md' docs`` and
``--doctest-modules``); this module covers what doctests cannot — that
every internal markdown link (relative path + optional ``#anchor``)
points at a file and heading that exist, and that the documented CLI
surface is real.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: str(p),
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)


def _anchor(heading: str) -> str:
    """GitHub-style anchor for a heading."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_:,.()/'\"]", "", text)
    return re.sub(r"\s+", "-", text).strip("-")


def _anchors(md_path: Path) -> set[str]:
    return {_anchor(h) for h in _HEADING.findall(md_path.read_text())}


def _internal_links(md_path: Path):
    text = md_path.read_text()
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


def test_doc_files_exist():
    assert (REPO / "docs" / "architecture.md").is_file()
    assert (REPO / "docs" / "ensembles.md").is_file()
    assert (REPO / "docs" / "checkpointing.md").is_file()
    assert (REPO / "docs" / "fusion.md").is_file()
    assert (REPO / "docs" / "reliability.md").is_file()
    assert (REPO / "docs" / "serving.md").is_file()
    assert (REPO / "docs" / "sharding.md").is_file()
    assert (REPO / "docs" / "threading.md").is_file()
    assert len(DOC_FILES) >= 9  # README + the eight docs


@pytest.mark.parametrize("md_path", DOC_FILES, ids=lambda p: p.name)
def test_internal_links_resolve(md_path):
    for target in _internal_links(md_path):
        path_part, _, fragment = target.partition("#")
        resolved = (
            (md_path.parent / path_part).resolve() if path_part else md_path
        )
        assert resolved.exists(), (
            f"{md_path.relative_to(REPO)} links to missing {target!r}"
        )
        if fragment and resolved.suffix == ".md":
            assert fragment in _anchors(resolved), (
                f"{md_path.relative_to(REPO)} links to missing anchor "
                f"{target!r} (known: {sorted(_anchors(resolved))})"
            )


def test_docs_are_cross_linked():
    """The docs reference each other and the README, and vice versa."""
    arch = (REPO / "docs" / "architecture.md").read_text()
    ens = (REPO / "docs" / "ensembles.md").read_text()
    chk = (REPO / "docs" / "checkpointing.md").read_text()
    fus = (REPO / "docs" / "fusion.md").read_text()
    rel = (REPO / "docs" / "reliability.md").read_text()
    srv = (REPO / "docs" / "serving.md").read_text()
    shd = (REPO / "docs" / "sharding.md").read_text()
    readme = (REPO / "README.md").read_text()
    assert "ensembles.md" in arch and "fusion.md" in arch
    assert "architecture.md" in ens
    assert "architecture.md" in chk and "ensembles.md" in chk
    assert "architecture.md" in fus and "ensembles.md" in fus
    assert "architecture.md" in rel and "ensembles.md" in rel
    assert "checkpointing.md" in rel and "fusion.md" in rel
    assert "serving.md" in rel
    assert "architecture.md" in srv and "ensembles.md" in srv
    assert "reliability.md" in srv
    assert "sharding.md" in rel
    assert "architecture.md" in shd and "reliability.md" in shd
    assert "checkpointing.md" in shd
    assert "../README.md" in arch and "../README.md" in ens
    assert "../README.md" in chk and "../README.md" in fus
    assert "../README.md" in rel and "../README.md" in srv
    assert "../README.md" in shd
    assert "docs/architecture.md" in readme and "docs/ensembles.md" in readme
    assert "docs/checkpointing.md" in readme and "docs/fusion.md" in readme
    assert "docs/reliability.md" in readme
    assert "docs/serving.md" in readme
    assert "docs/sharding.md" in readme


def test_documented_cli_commands_exist():
    """Commands the docs mention parse against the real CLI."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["sweep", "--problem", "heat2d", "--members", "8",
         "--param", "alpha=0.1,0.2", "--workers", "2"]
    )
    assert args.command == "sweep"
    assert args.param == [("alpha", (0.1, 0.2))]
    args = parser.parse_args(
        ["adjoint", "--problem", "burgers1d", "--steps", "24",
         "--snaps", "4", "--members", "2", "--backend", "native"]
    )
    assert args.command == "adjoint"
    assert (args.steps, args.snaps) == (24, 4)
    args = parser.parse_args(
        ["fuse", "--problem", "burgers2d", "--dtype", "f32", "--explain"]
    )
    assert args.command == "fuse" and args.explain
    args = parser.parse_args(["verify", "--chaos"])
    assert args.command == "verify" and args.chaos
    args = parser.parse_args(
        ["serve", "--socket", "/tmp/repro.sock", "--workers", "4",
         "--max-batch", "8", "--batch-window-ms", "2"]
    )
    assert args.command == "serve" and args.max_batch == 8
    args = parser.parse_args(
        ["request", "--socket", "/tmp/repro.sock", "--file", "k.stencil",
         "--size", "n=4096", "--param", "c=0.25", "--steps", "8"]
    )
    assert args.command == "request" and args.size == ["n=4096"]
    args = parser.parse_args(
        ["shard", "--problem", "heat2d", "--ranks", "1", "--ranks", "2",
         "--ranks", "4", "--backend", "native"]
    )
    assert args.command == "shard" and args.ranks == [1, 2, 4]
    # Removed in PR 14: timings are compared by bench/run.py --compare only.
    # Removed in PR 17: timings are *taken* by bench/run.py only, and the
    # CUDA printer's output could not be compiled anywhere.
    for argv in (
        ["bench"], ["sweep", "--baseline", "x"],
        ["sweep", "--reps", "3"], ["sweep", "--quick"],
        ["adjoint", "--reps", "3"], ["adjoint", "--quick"],
        ["adjoint", "--output", "x.json"],
        ["shard", "--reps", "3"], ["shard", "--quick"],
        ["shard", "--output", "x.json"],
        ["generate", "--problem", "heat1d", "--backend", "cuda"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_docs_doctest_blocks_present():
    """The docs keep executable examples (the CI docs job runs them)."""
    for name in ("architecture.md", "ensembles.md", "checkpointing.md",
                 "fusion.md", "reliability.md", "serving.md",
                 "sharding.md", "threading.md"):
        text = (REPO / "docs" / name).read_text()
        assert text.count(">>> ") >= 5, f"{name} lost its doctest examples"
