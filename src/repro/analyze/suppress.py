"""Inline suppression comments, honoured by every analyzer pass.

Syntax (anywhere on the offending line, or on the line a finding is
reported at)::

    req = comm.irecv(buf)        # analyze: ignore[REQ101]
    blocks = dt.flatten()        # analyze: ignore[LNT002,SIG004]
    something_hairy()            # analyze: ignore

A bare ``ignore`` (no bracket list) suppresses every rule on that line;
the bracketed form suppresses only the named codes.  A suppression on a
*comment-only* line also covers the next line, so long statements can
carry their marker above::

    # justified because ...  # analyze: ignore[BUF101]
    req = yield from comm.isend(really_long_expression, partner, tag)

Decorated functions report findings at the ``def`` line, which sits
below the decorator list; :func:`collect_suppressions` therefore also
propagates a suppression found on a decorator line (or on the comment
line above it) down to the ``def`` line when given the module AST.

Suppressions are collected with :mod:`tokenize` so strings containing
the marker text do not count, and applied once per file by the analyzer
pipeline (:mod:`repro.analyze.dataflow.driver`) to every pass's findings.
Every comment site tracks whether it actually matched a finding;
:meth:`Suppressions.unused_sites` feeds the LNT007 unused-suppression
lint.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze.findings import Report

__all__ = ["Suppressions", "collect_suppressions", "apply_suppressions"]

#: matches "# analyze: ignore" with an optional [CODE,CODE] list
_PATTERN = re.compile(
    r"#\s*analyze:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?")

#: sentinel meaning "every rule"
ALL = "*"


class Suppressions:
    """Line -> suppressed-rule index for one source file.

    ``by_line[line][code]`` holds the set of *comment lines* that put
    ``code`` in effect at ``line`` (a comment covers its own line, may
    cover the line below, and may be propagated to a ``def`` line) --
    so a match can be attributed back to the comment that earned it.
    """

    def __init__(self,
                 by_line: Optional[Dict[int, Dict[str, Set[int]]]] = None):
        self.by_line: Dict[int, Dict[str, Set[int]]] = by_line or {}
        #: every (comment line, code) written in the file
        self.sites: Set[Tuple[int, str]] = set()
        #: sites that matched at least one finding
        self.used: Set[Tuple[int, str]] = set()

    def is_suppressed(self, rule: str, line: Optional[int]) -> bool:
        """Whether ``rule`` at ``line`` is suppressed; marks the
        responsible comment site(s) used."""
        if line is None:
            return False
        codes = self.by_line.get(line)
        if not codes:
            return False
        hit = False
        for code in (ALL, rule):
            for origin in codes.get(code, ()):
                self.used.add((origin, code))
                hit = True
        return hit

    def unused_sites(self) -> List[Tuple[int, str]]:
        """(comment line, code) pairs that matched nothing, sorted."""
        return sorted(self.sites - self.used)

    def __bool__(self) -> bool:
        return bool(self.by_line)


def collect_suppressions(source: str,
                         tree: Optional[ast.Module] = None) -> Suppressions:
    """Scan ``source`` for ``# analyze: ignore[...]`` comments.

    With ``tree`` (the parsed module), suppressions sitting on decorator
    lines are additionally registered at the decorated ``def`` line.
    """
    supp = Suppressions()
    if "analyze:" not in source:
        return supp  # no marker anywhere: nothing to tokenize

    def register(line: int, code: str, origin: int) -> None:
        supp.by_line.setdefault(line, {}).setdefault(code, set()).add(origin)

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PATTERN.search(tok.string)
            if match is None:
                continue
            raw = match.group("codes")
            if raw is None:
                codes = {ALL}
            else:
                codes = {c.strip().upper() for c in raw.split(",") if c.strip()}
                if not codes:
                    codes = {ALL}
            origin = tok.start[0]
            for code in codes:
                supp.sites.add((origin, code))
                register(origin, code, origin)
                if tok.line.strip().startswith("#"):
                    # a comment-only line also covers the statement below
                    register(origin + 1, code, origin)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # unparseable comment stream: no suppressions, analysis proceeds
        pass

    if tree is not None:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not node.decorator_list:
                continue
            for dec in node.decorator_list:
                for code, origins in supp.by_line.get(dec.lineno, {}).items():
                    for origin in origins:
                        register(node.lineno, code, origin)
    return supp


def apply_suppressions(report: Report, suppressions: Suppressions) -> Report:
    """A new :class:`Report` without the suppressed findings."""
    if not suppressions:
        return report
    filtered = Report()
    for f in report:
        if suppressions.is_suppressed(f.rule, f.line):
            continue
        filtered.add(f.rule, f.message, f.location, f.line, f.key)
    return filtered
