"""Docs are checked artifacts: every back-ticked ``repro.x.y`` dotted name
and every ``src|tests|benchmarks|examples/...py`` path a Markdown page
mentions must resolve in this tree.

ROADMAP.md, CHANGES.md and ISSUE.md are exempt: they are history (they name
what a past or future commit had), not a description of the tree.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HISTORY = {"ROADMAP.md", "CHANGES.md", "ISSUE.md"}
PAGES = sorted(p for p in [*ROOT.glob("*.md"), *ROOT.glob("docs/*.md")]
               if p.name not in HISTORY)

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\.\*|\(\))?`")
PATH = re.compile(r"\b((?:src|tests|benchmarks|examples)/[\w./-]+\.py)\b")


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
