"""The analyzer pipeline: one driver, one configuration, every static pass.

:func:`analyze_source_set` is the only implementation of

1. **parse** every file into one
   :class:`~repro.analyze.dataflow.callgraph.Project`;
2. **summaries**: transitive per-function summaries, bottom-up over the
   call-graph condensation (:mod:`repro.analyze.dataflow.summaries`), so
   cross-function and cross-file request hand-off and rank taint resolve;
3. **lint** and the **dataflow** rules (REQ/BUF, SPMD), per file with
   the module's summary environment.

:func:`analyze_tree` only reads files from disk and hands them in.
Deliberately broken programs live under a ``fixtures/`` directory, which
directory expansion skips (:data:`SKIPPED_DIRS`); naming such a file
analyzes it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.analyze.dataflow import requests as _requests
from repro.analyze.dataflow import spmd as _spmd
from repro.analyze.dataflow.callgraph import Project
from repro.analyze.dataflow.cfg import build_cfg
from repro.analyze.dataflow.engine import CallSummary
from repro.analyze.dataflow.summaries import module_envs
from repro.analyze.findings import Report
from repro.analyze.lint import _Linter

__all__ = ["analyze_source_set", "analyze_tree", "iter_python_files"]

#: directory names skipped during directory expansion.  ``fixtures`` holds
#: deliberately broken analyzer inputs (tests pass them explicitly).
SKIPPED_DIRS = frozenset({"fixtures", "__pycache__"})


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories named in :data:`SKIPPED_DIRS` are pruned during
    expansion; explicitly named files are always included.
    """
    out: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(
                f for f in p.rglob("*.py")
                # prune on path segments *below* the requested directory,
                # so `analyze tests/fixtures` itself still works
                if not (SKIPPED_DIRS & set(f.relative_to(p).parts[:-1]))
            ))
        elif p.suffix == ".py":
            out.append(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {p}")
    return out


def _run_dataflow(tree: ast.Module, path: str, report: Report,
                  env: Dict[str, CallSummary]) -> None:
    """Run every dataflow rule pass over one parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _requests.check_function(build_cfg(node), path, report, env)
            _spmd.check_function(node, path, report, env)


def analyze_source_set(sources: List[Tuple[str, str]]) -> Report:
    """Analyze in-memory ``(path, text)`` pairs as one project.

    Unparseable text raises :class:`SyntaxError`.
    """
    report = Report()
    project = Project(sources)
    envs = module_envs(project)
    for path, _ in sources:
        tree = project.modules[path].tree
        _Linter(path, report).visit(tree)
        _run_dataflow(tree, path, report, envs.get(path, {}))
    return report


def analyze_tree(paths: Iterable[Union[str, Path]]) -> Report:
    """:func:`analyze_source_set` over every ``.py`` file under
    ``paths`` (files or directories, see :func:`iter_python_files`)."""
    sources = [(str(p), p.read_text(encoding="utf-8"))
               for p in iter_python_files(paths)]
    return analyze_source_set(sources)
