"""``--fix``: conservative auto-rewrites for a fixable finding subset.

libcst-free: rewrites are plain line edits computed from the stdlib
``ast`` positions of the offending statements, applied bottom-up so
earlier edits never shift later ones.  Every codemod is **gated on a
finding** from a fresh analysis run -- the rewriter never pattern-matches
source on its own -- and the whole fix loop re-analyzes after each pass,
so a fix is applied only while its finding persists.  That is what makes
``--fix`` idempotent: once the finding is gone, no edit matches, and a
second run is a byte-for-byte no-op.

The fixable catalogue (see ``docs/ANALYZE.md`` for before/after):

LNT003 / REQ103 -- **insert the missing ``yield from``** on a discarded
    or undriven blocking-communication generator, when the enclosing
    function is already a generator (never changes a plain function into
    one).

REQ101 -- **restructure conditional waits**: a request created under one
    arm of an ``if`` and waited nowhere gets ``yield from r.wait()``
    appended to the creating arm; a request created unconditionally but
    waited on only one arm gets the wait mirrored onto the arm that
    skips it (waiting on every path is exactly what the rule demands).

LNT002 -- **hoist the loop-invariant flatten/pack**: a single-target
    ``name = chain.flatten()`` / ``.pack()`` assignment (zero-argument
    call) sitting directly in a loop body moves to just above the loop.
    Assumes flatten/pack are pure (true for :mod:`repro.datatypes`).

LNT007 -- **remove the unused suppression**: the stale code is dropped
    from the ``# analyze: ignore[...]`` list; when no code survives the
    whole marker goes, and a marker-only comment line disappears.

Anything not matching these exact shapes is left alone -- ``--fix``
reduces the finding count, it does not guarantee zero.
"""

from __future__ import annotations

import ast
import difflib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analyze.dataflow.driver import analyze_source_set, iter_python_files
from repro.analyze.dataflow.engine import completed_names
from repro.analyze.findings import Finding

__all__ = ["FixResult", "fix_sources", "fix_paths", "unified_diff"]

#: re-analyze/re-fix cycles before giving up (each pass applies at least
#: one edit or terminates, so this is a backstop, not a tuning knob)
MAX_PASSES = 10

_IGNORE_MARKER = re.compile(
    r"\s*#\s*analyze:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?")


@dataclass
class FixResult:
    """Outcome of one fix run over a file set."""

    #: path -> rewritten text, only for files that changed
    changed: Dict[str, str] = field(default_factory=dict)
    #: path -> original text for the changed files
    original: Dict[str, str] = field(default_factory=dict)
    #: human-readable "<path>:<line>: <what>" actions, in application order
    actions: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.changed)

    def diff(self) -> str:
        return "".join(
            unified_diff(self.original[p], self.changed[p], p)
            for p in sorted(self.changed))


def unified_diff(old: str, new: str, path: str) -> str:
    return "".join(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        fromfile=f"a/{path}", tofile=f"b/{path}"))


# -- line-edit plumbing -------------------------------------------------------


class _Lines:
    """One file's lines with 1-based whole-line edit operations, applied
    bottom-up by the caller ordering."""

    def __init__(self, source: str):
        self.lines = source.splitlines(keepends=True)
        if source and not source.endswith("\n"):
            self.lines[-1] += "\n"

    def text(self) -> str:
        return "".join(self.lines)

    def get(self, line: int) -> str:
        return self.lines[line - 1]

    def replace(self, line: int, text: str) -> None:
        self.lines[line - 1] = text

    def insert_after(self, line: int, text: str) -> None:
        self.lines.insert(line, text)

    def delete(self, line: int) -> None:
        del self.lines[line - 1]


def _indent_of(text: str) -> str:
    return text[: len(text) - len(text.lstrip())]


def _function_of(tree: ast.Module, line: int) -> Optional[ast.AST]:
    """Innermost function whose span contains ``line``."""
    best: Optional[ast.AST] = None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.lineno <= line <= (node.end_lineno or node.lineno):
            if best is None or node.lineno > best.lineno:
                best = node
    return best


def _is_generator(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _stmt_at(func: ast.AST, line: int, kinds: tuple) -> Optional[ast.stmt]:
    for node in ast.walk(func):
        if isinstance(node, kinds) and node.lineno == line:
            return node
    return None


def _suites(node: ast.AST) -> List[List[ast.stmt]]:
    out = []
    for attr in ("body", "orelse", "finalbody"):
        suite = getattr(node, attr, None)
        if suite:
            out.append(suite)
    for handler in getattr(node, "handlers", []) or []:
        out.append(handler.body)
    return out


def _waits_name(stmt: ast.stmt, name: str) -> bool:
    """Does this statement complete request ``name``?"""
    return any(isinstance(sub, ast.Call) and name in completed_names(sub)
               for sub in ast.walk(stmt))


def _mentions_name(stmt: ast.stmt, name: str) -> bool:
    return any(isinstance(s, ast.Name) and s.id == name
               for s in ast.walk(stmt))


# -- the per-rule codemods ----------------------------------------------------

#: one planned whole-line edit: (sort line, apply thunk, description)
_Planned = Tuple[int, object, str]


def _plan_yield_from(tree: ast.Module, lines: _Lines,
                     finding: Finding) -> List[_Planned]:
    """LNT003/REQ103: prefix the blocking call with ``yield from``."""
    line = finding.line or 0
    func = _function_of(tree, line)
    if func is None or not _is_generator(func):
        return []
    call_pos: Optional[Tuple[int, int]] = None
    if finding.rule == "LNT003":
        stmt = _stmt_at(func, line, (ast.Expr,))
        if stmt is not None and isinstance(stmt.value, ast.Call):
            call_pos = (stmt.value.lineno, stmt.value.col_offset)
    else:  # REQ103 at the undriven generator assignment (def-site
        # findings only; the 5-tuple rebind variant needs a human)
        if not (isinstance(finding.key, tuple) and len(finding.key) == 4):
            return []
        stmt = _stmt_at(func, line, (ast.Assign, ast.AnnAssign))
        value = getattr(stmt, "value", None)
        if isinstance(value, ast.Call):
            call_pos = (value.lineno, value.col_offset)
    if call_pos is None:
        return []
    row, col = call_pos
    text = lines.get(row)
    if text[col:].startswith("yield from "):
        return []  # already driven (stale finding)

    def apply(ls: _Lines = lines, r: int = row, c: int = col):
        ls.replace(r, ls.get(r)[:c] + "yield from " + ls.get(r)[c:])

    return [(row, apply, f"insert 'yield from' ({finding.rule})")]


def _plan_conditional_wait(tree: ast.Module, lines: _Lines,
                           finding: Finding) -> List[_Planned]:
    """REQ101: make every path wait the request."""
    key = finding.key
    if not (isinstance(key, tuple) and len(key) == 4):
        return []
    _rule, _fname, name, _def_node = key
    line = finding.line or 0
    func = _function_of(tree, line)
    if func is None or not _is_generator(func):
        return []
    waited_anywhere = any(_waits_name(s, name) for s in ast.walk(func)
                          if isinstance(s, ast.stmt))
    def_stmt = _stmt_at(func, line, (ast.Assign, ast.AnnAssign))
    if def_stmt is None:
        return []

    if not waited_anywhere:
        # created under one arm of an if, never completed: finish it at
        # the end of the creating arm
        suite = _creating_if_suite(func, def_stmt)
        if suite is None:
            return []
        return [_append_to_suite(lines, suite, name)]

    # waited on one arm only: mirror the wait onto the arm that skips it
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        body_waits = any(_waits_name(s, name) for s in node.body)
        orelse_waits = any(_waits_name(s, name) for s in node.orelse)
        if body_waits == orelse_waits:
            continue
        missing = node.orelse if body_waits else node.body
        if any(_mentions_name(s, name) for s in missing):
            continue  # the other arm handles it some other way: hands off
        if missing:
            return [_append_to_suite(lines, missing, name)]
        # no else arm at all: create one (skip elif chains -- appending
        # to them is ambiguous)
        if node.orelse:
            continue
        if_indent = _indent_of(lines.get(node.lineno))
        body_indent = _indent_of(lines.get(node.body[0].lineno))
        end = max(s.end_lineno or s.lineno for s in node.body)

        def apply(ls: _Lines = lines, e: int = end, ii: str = if_indent,
                  bi: str = body_indent, n: str = name):
            ls.insert_after(e, f"{bi}yield from {n}.wait()\n")
            ls.insert_after(e, f"{ii}else:\n")

        return [(end, apply, f"add else-arm wait for '{name}' (REQ101)")]
    return []


def _creating_if_suite(func: ast.AST,
                       def_stmt: ast.stmt) -> Optional[List[ast.stmt]]:
    """The if/else arm directly containing ``def_stmt`` -- with no loop
    on the path from the function body (hoisting a wait into a loop
    iteration is always safe; out of one is not, so loops are skipped)."""

    def search(node: ast.AST, in_loop: bool) -> Optional[List[ast.stmt]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and child is not func:
                continue
            loop_here = in_loop or isinstance(
                child, (ast.For, ast.AsyncFor, ast.While))
            if isinstance(child, ast.If) and not loop_here:
                for suite in (child.body, child.orelse):
                    if def_stmt in suite:
                        return suite
            found = search(child, loop_here)
            if found is not None:
                return found
        return None

    return search(func, False)


def _append_to_suite(lines: _Lines, suite: Sequence[ast.stmt],
                     name: str) -> _Planned:
    indent = _indent_of(lines.get(suite[0].lineno))
    end = max(s.end_lineno or s.lineno for s in suite)

    def apply(ls: _Lines = lines, e: int = end, i: str = indent,
              n: str = name):
        ls.insert_after(e, f"{i}yield from {n}.wait()\n")

    return (end, apply, f"append wait for '{name}' (REQ101)")


def _plan_hoist(tree: ast.Module, lines: _Lines,
                finding: Finding) -> List[_Planned]:
    """LNT002: move a loop-invariant zero-arg flatten/pack assignment
    out of the loop."""
    line = finding.line or 0
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.Assign) and stmt.lineno == line
                    and stmt.lineno == (stmt.end_lineno or stmt.lineno)):
                continue
            if len(stmt.targets) != 1 or not isinstance(
                    stmt.targets[0], ast.Name):
                continue
            value = stmt.value
            if not (isinstance(value, ast.Call) and not value.args
                    and not value.keywords
                    and isinstance(value.func, ast.Attribute)):
                continue
            target = stmt.targets[0].id
            rebinds = sum(
                1 for s in ast.walk(node)
                if isinstance(s, ast.Name) and s.id == target
                and isinstance(s.ctx, (ast.Store, ast.Del)))
            if rebinds != 1:
                continue  # the name is loop-variant beyond this stmt
            loop_indent = _indent_of(lines.get(node.lineno))
            moved = loop_indent + lines.get(stmt.lineno).lstrip()

            def apply(ls: _Lines = lines, sl: int = stmt.lineno,
                      ll: int = node.lineno, m: str = moved):
                ls.delete(sl)
                ls.insert_after(ll - 1, m)

            return [(stmt.lineno, apply,
                     f"hoist '{target} = ...' above the loop (LNT002)")]
    return []


def _plan_drop_suppression(tree: ast.Module, lines: _Lines,
                           finding: Finding) -> List[_Planned]:
    """LNT007: drop the stale code (or whole marker) from the comment."""
    key = finding.key
    if not (isinstance(key, tuple) and len(key) == 4):
        return []
    _rule, _path, line, code = key
    text = lines.get(line)
    match = _IGNORE_MARKER.search(text)
    if match is None:
        return []
    raw = match.group("codes")
    remaining: List[str] = []
    if raw is not None:
        listed = [c.strip().upper() for c in raw.split(",") if c.strip()]
        if code not in listed:
            return []
        remaining = [c for c in listed if c != code]
    elif code != "*":
        return []

    if remaining:
        new = (text[: match.start()]
               + re.sub(r"\[.*?\]", f"[{','.join(remaining)}]",
                        match.group(0), count=1)
               + text[match.end():])
    else:
        new = text[: match.start()] + text[match.end():]
        if not new.strip() or new.strip() == "#":
            new = None  # the line carried only the marker: drop it

    def apply(ls: _Lines = lines, row: int = line,
              replacement: Optional[str] = new):
        if replacement is None:
            ls.delete(row)
        else:
            ls.replace(row, replacement
                       if replacement.endswith("\n") else replacement + "\n")

    what = (f"drop '{code}' from suppression" if remaining
            else "remove unused suppression")
    return [(line, apply, f"{what} (LNT007)")]


_CODEMODS = {
    "LNT003": _plan_yield_from,
    "REQ103": _plan_yield_from,
    "REQ101": _plan_conditional_wait,
    "LNT002": _plan_hoist,
    "LNT007": _plan_drop_suppression,
}


# -- the fix loop -------------------------------------------------------------


def _fix_module_once(source: str, path: str,
                     findings: Iterable[Finding]) -> Tuple[str, List[str]]:
    """Apply at most one pass of edits to one module; returns (new
    source, action descriptions)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return source, []
    lines = _Lines(source)
    planned: List[_Planned] = []
    for finding in findings:
        codemod = _CODEMODS.get(finding.rule)
        if codemod is None:
            continue
        planned.extend(codemod(tree, lines, finding))
    if not planned:
        return source, []
    # bottom-up, one edit per line per pass (overlaps re-resolve next pass)
    seen_lines: set = set()
    actions: List[str] = []
    for anchor, apply, what in sorted(planned, key=lambda p: -p[0]):
        if anchor in seen_lines:
            continue
        seen_lines.add(anchor)
        apply()
        actions.append(f"{path}:{anchor}: {what}")
    new = lines.text()
    try:
        ast.parse(new, filename=path)
    except SyntaxError:  # a rewrite broke the file: refuse the whole pass
        return source, []
    return new, list(reversed(actions))


def fix_sources(sources: Dict[str, str],
                max_passes: int = MAX_PASSES) -> FixResult:
    """Iterate analyze -> rewrite to a fixpoint over in-memory sources.

    Every pass re-runs the full (interprocedural) analysis on the
    current text, so each codemod is gated on a finding that still
    exists; the loop ends when a pass changes nothing."""
    result = FixResult()
    current = dict(sources)
    for _ in range(max_passes):
        report, _plans = analyze_source_set(sorted(current.items()))
        by_path: Dict[str, List[Finding]] = {}
        for finding in report:
            by_path.setdefault(finding.location, []).append(finding)
        changed = False
        for path in sorted(current):
            new, actions = _fix_module_once(
                current[path], path, by_path.get(path, []))
            if new != current[path]:
                result.original.setdefault(path, sources[path])
                result.changed[path] = new
                result.actions.extend(actions)
                current[path] = new
                changed = True
        if not changed:
            break
    return result


def fix_paths(paths: Iterable[Union[str, Path]], write: bool = False,
              max_passes: int = MAX_PASSES) -> FixResult:
    """Run the fix loop over files/directories; with ``write`` the
    rewritten files are saved back (otherwise callers inspect
    :attr:`FixResult.changed` -- that is ``--fix --check``)."""
    files = iter_python_files(paths)
    sources = {str(p): Path(p).read_text(encoding="utf-8") for p in files}
    result = fix_sources(sources, max_passes=max_passes)
    if write:
        for path, text in result.changed.items():
            Path(path).write_text(text, encoding="utf-8")
    return result
