"""Docs are checked artifacts: every back-ticked ``repro.x.y`` dotted name
and every ``src|tests|benchmarks|examples/...py`` path a Markdown page
mentions must resolve in this tree, and every ``python -m repro.bench``
and ``python -m repro.analyze`` command line a page or the CI workflow
spells out must parse.

ROADMAP.md, CHANGES.md and ISSUE.md are exempt: they are history (they name
what a past or future commit had), not a description of the tree.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from repro.analyze.__main__ import _parse as parse_analyze
from repro.bench.__main__ import _parse as parse_bench

ROOT = Path(__file__).resolve().parent.parent
HISTORY = {"ROADMAP.md", "CHANGES.md", "ISSUE.md"}
PAGES = sorted(p for p in [*ROOT.glob("*.md"), *ROOT.glob("docs/*.md")]
               if p.name not in HISTORY)

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\.\*|\(\))?`")
PATH = re.compile(r"\b((?:src|tests|benchmarks|examples)/[\w./-]+\.py)\b")

CLI_PAGES = PAGES + [p for p in (ROOT / ".github/workflows/ci.yml",
                                 ROOT / ".claude/skills/verify/SKILL.md")
                     if p.is_file()]
# the arguments after the module name, up to a code span's end, a shell
# comment or separator, a table cell's end or a closing parenthesis
ARGS = r"\b([^`#;|\n)]*)"


def resolves(dotted: str) -> bool:
    """``dotted`` is a module, or an attribute chain under one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def test_there_are_pages_to_check():
    assert {"README.md", "DESIGN.md"} <= {p.name for p in PAGES}
    assert any(p.parent.name == "docs" for p in PAGES)


@pytest.mark.parametrize("page", PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_dotted_name_and_path_resolves(page):
    text = page.read_text()
    stale = sorted({name for name in DOTTED.findall(text) if not resolves(name)}
                   | {path for path in PATH.findall(text)
                      if not (ROOT / path).is_file()})
    assert not stale, f"{page.relative_to(ROOT)} names what is not in the tree: {stale}"


def stale_commands(page, module, parse):
    """The ``python -m repro.<module>`` command lines on ``page`` that
    ``parse`` (the module's argparse setup) rejects."""
    text = re.sub(r"\\\n\s*", " ", page.read_text())  # join continued lines
    bad = []
    for args in re.findall(rf"python -m repro\.{module}{ARGS}", text):
        if not args.strip():  # the module named in prose, not a command line
            continue
        try:
            parse(shlex.split(args))
        except SystemExit:
            bad.append(f"python -m repro.{module}{args}")
    return bad


@pytest.mark.parametrize("page", CLI_PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_bench_command_line_parses(page, capsys):
    bad = stale_commands(page, "bench", parse_bench)
    assert not bad, f"{page.relative_to(ROOT)} spells out stale bench commands: {bad}"


@pytest.mark.parametrize("page", CLI_PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_analyze_command_line_parses(page, capsys):
    bad = stale_commands(page, "analyze", parse_analyze)
    assert not bad, f"{page.relative_to(ROOT)} spells out stale analyze commands: {bad}"
