"""The analyzer pipeline: one driver for every static pass.

:func:`analyze_source_set` is the only implementation of

1. **parse** every file into one
   :class:`~repro.analyze.dataflow.callgraph.Project` and collect each
   file's ``# analyze: ignore[...]`` comments;
2. **summaries** (when dataflow or protocol runs): transitive
   per-function summaries, bottom-up over the call-graph condensation
   (:mod:`repro.analyze.dataflow.summaries`), so cross-function and
   cross-file request hand-off and rank taint resolve;
3. **lint** (always), then the optional **dataflow** rules (REQ/BUF,
   SPMD, PLAN) and the **protocol** verifier (MTC), per file with the
   module's summary environment;
4. **suppressions**, one index per file shared by every pass that ran,
   then **LNT007** for each suppression that matched nothing -- sound
   because a comment is "unused" only when no pass that ran could have
   matched it.

:func:`analyze_tree` only reads files from disk and hands them in; the
``--fix`` rewriter iterates :func:`analyze_source_set` over in-memory
text.  A lint-only run is ``dataflow=False, protocol=False``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analyze.dataflow import plans as _plans
from repro.analyze.dataflow import requests as _requests
from repro.analyze.dataflow import spmd as _spmd
from repro.analyze.dataflow.callgraph import Project
from repro.analyze.dataflow.cfg import build_cfg
from repro.analyze.dataflow.engine import CallSummary
from repro.analyze.dataflow.summaries import module_envs
from repro.analyze.findings import RULES, Report
from repro.analyze.lint import _Linter
from repro.analyze.suppress import (
    ALL,
    Suppressions,
    apply_suppressions,
    collect_suppressions,
)

__all__ = ["analyze_source_set", "analyze_tree", "iter_python_files"]

#: rule-code prefixes of the runtime/signature passes -- suppressions for
#: these are never reported unused by the static drivers (the matching
#: pass did not run here)
_NON_STATIC_PREFIXES = ("SIG", "DLK", "REQ0", "P2P", "COL", "ZBS")

#: directory names skipped during directory expansion.  ``fixtures`` holds
#: intentionally-broken analyzer inputs (tests pass them explicitly).
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
                  plans: List[_plans.CommunicationPlan],
                  env: Dict[str, CallSummary]) -> None:
    """Run every dataflow rule pass over one parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _requests.check_function(build_cfg(node), path, report, env)
            _spmd.check_function(node, path, report, env)
    plans.extend(_plans.extract_plans(tree, path, report)[0])


def _unused_suppression_eligible(code: str, dataflow: bool,
                                 protocol: bool = False) -> bool:
    """Whether an unmatched suppression for ``code`` is worth flagging:
    only when the pass family that could have matched it actually ran
    (unknown codes are always flagged -- they match nothing, ever)."""
    if code == ALL:
        return False
    if code not in RULES:
        return True  # typo'd rule code: can never match anything
    if code.startswith(_NON_STATIC_PREFIXES):
        return False
    if code.startswith("LNT"):
        return True  # the lint pass always runs
    if code.startswith("MTC"):
        return protocol  # the cross-rank verifier is opt-in
    return dataflow  # REQ1xx / BUF1xx / SPMD1xx / PLAN1xx


def _report_unused_suppressions(suppressions: Suppressions, path: str,
                                report: Report, dataflow: bool,
                                protocol: bool) -> None:
    for line, code in suppressions.unused_sites():
        if not _unused_suppression_eligible(code, dataflow, protocol):
            continue
        report.add(
            "LNT007",
            f"suppression '# analyze: ignore[{code}]' matches no finding"
            + ("" if code in RULES else f" (unknown rule code {code!r})"),
            location=path, line=line,
            key=("LNT007", path, line, code),
        )


def analyze_source_set(
    sources: List[Tuple[str, str]],
    *,
    dataflow: bool = True,
    protocol: bool = False,
    plans: Optional[List[_plans.CommunicationPlan]] = None,
    protocol_stats: Optional[list] = None,
) -> Tuple[Report, List[_plans.CommunicationPlan]]:
    """Analyze in-memory ``(path, text)`` pairs as one project.

    Returns the report and the extracted communication plans (appended
    to ``plans`` when given); ``protocol_stats`` collects the protocol
    verifier's per-function :class:`~repro.analyze.protocol.FunctionStat`.
    Unparseable text raises :class:`SyntaxError`.
    """
    report = Report()
    plans = plans if plans is not None else []
    project = Project(sources)
    envs = module_envs(project) if dataflow or protocol else {}
    for path, source in sources:
        tree = project.modules[path].tree
        env = envs.get(path, {})
        suppressions = collect_suppressions(source, tree)
        local = Report()
        _Linter(path, local).visit(tree)
        if dataflow:
            _run_dataflow(tree, path, local, plans, env)
        if protocol:
            from repro.analyze import protocol as _protocol

            _protocol.check_module(tree, path, local, env,
                                   stats=protocol_stats)
        filtered = apply_suppressions(local, suppressions)
        _report_unused_suppressions(suppressions, path, filtered, dataflow,
                                    protocol)
        report.extend(filtered)
    return report, plans


def analyze_tree(paths: Iterable[Union[str, Path]], **options
                 ) -> Tuple[Report, List[_plans.CommunicationPlan]]:
    """:func:`analyze_source_set` over every ``.py`` file under
    ``paths`` (files or directories, see :func:`iter_python_files`)."""
    sources = [(str(p), p.read_text(encoding="utf-8"))
               for p in iter_python_files(paths)]
    return analyze_source_set(sources, **options)
