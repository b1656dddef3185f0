"""Session-wide fixtures."""

import os
from pathlib import Path
from typing import NamedTuple

import pytest

REPO = Path(__file__).resolve().parent.parent


class TreeScan(NamedTuple):
    """One whole-tree analyzer run: lint + dataflow."""

    report: object

    def findings(self, *dirs, prefix=""):
        """Findings located under any of ``dirs`` (repo-relative) whose
        rule starts with ``prefix``."""
        roots = tuple(str(REPO / d) + os.sep for d in dirs)
        return [f for f in self.report
                if f.rule.startswith(prefix) and f.location.startswith(roots)]


@pytest.fixture(scope="session")
def tree_scan():
    """``analyze_tree([src, examples, tests])``, run once per test
    session; every tree-clean test reads its report."""
    from repro.analyze import analyze_tree

    return TreeScan(analyze_tree(
        [REPO / "src", REPO / "examples", REPO / "tests"]))
