"""SPMD rank-divergence analysis (SPMD1xx) -- the static twin of the
runtime COL001/COL002 checks.

Every rank executes the same program text; a collective only completes if
*all* ranks of the communicator reach it.  A collective call dominated by
a branch whose condition depends on ``comm.rank`` therefore hangs the
ranks that take the other side.

Taint seeding and propagation are flow-insensitive within one function:
``comm.rank`` / ``comm.grank`` loads are tainted, and any name assigned
from an expression using a tainted value becomes tainted (iterated to a
fixpoint so ``r = comm.rank; is_root = r == 0; if is_root:`` is caught).

Three idioms are recognised and exempted rather than flagged:

- **matched collectives**: when the *other* execution path of a
  rank-tainted branch performs the same collective method, every rank
  does enter it -- this is the canonical root-vs-nonroot shape of a
  rooted collective (``bcast(value)`` on the root, ``bcast(None)`` on
  the rest).  "Other path" means the ``else`` suite, plus the
  fall-through statements after the ``if`` when the branch body exits
  the function.
- **sub-communicator collectives**: a collective invoked on a receiver
  that is itself rank-tainted (``sub = yield from comm.split(...)``)
  is scoped to the ranks that hold it; membership divergence there is
  the *point* of ``split`` and is checked at runtime (COL001), not here.
- **agreement results**: a name assigned only from an agreement
  collective (``flagged = yield from comm.allreduce(local_problem, ...)``)
  holds the same value on every rank even when the argument is
  rank-derived -- branching on it is lockstep by construction.  This is
  the validation idiom of :meth:`VecScatter.from_needed_indices` and the
  plan-reuse guard in :meth:`Vec.assemble`.

Rules:

- **SPMD101** (error): a collective operation (or a ``yield from`` of a
  helper -- plain, ``self.``- or module-qualified -- whose call summary
  performs one) appears under a rank-tainted branch with no matching
  call on the other path.
- **SPMD102** (warning): a rank-tainted branch returns/raises out of the
  function while an unmatched collective appears later on the
  fall-through path -- the ranks that exit early never reach it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyze.dataflow.engine import CallSummary, resolve_call_summary
from repro.analyze.findings import Report
from repro.analyze.mpiapi import COLLECTIVE_METHODS

#: attribute names whose load seeds rank taint
RANK_ATTRS = frozenset({"rank", "grank"})

#: collectives whose return value is identical on every participating
#: rank by construction -- agreement steps.  A name assigned *only* from
#: such calls is rank-uniform even when the call's argument is
#: rank-derived: ``flagged = yield from comm.allreduce(problem is not
#: None, op=or_)`` reduces per-rank state into one common decision, which
#: is precisely the lockstep-validation / plan-reuse-guard idiom --
#: branching on it exits every rank together, so it must not carry taint.
UNIFORM_RESULT_COLLECTIVES = frozenset({"allreduce", "bcast"})


def expr_tainted(expr: ast.AST, tainted: Set[str],
                 summaries: Optional[Dict[str, CallSummary]] = None) -> bool:
    """Whether ``expr`` reads a rank-derived value: ``comm.rank``, a
    tainted name, or a helper whose summary returns one."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and sub.attr in RANK_ATTRS:
            return True
        if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                and sub.id in tainted):
            return True
        if summaries and isinstance(sub, ast.Call):
            # interprocedural seed: a helper whose summary says its
            # return value is rank-derived (`if _am_i_root(comm): ...`,
            # `if self._am_root(): ...`, `if util.is_root(comm): ...`)
            summary, _offset = resolve_call_summary(sub.func, summaries)
            if summary is not None and summary.returns_tainted:
                return True
    return False


def _agreement_result(expr: ast.AST) -> bool:
    """Is ``expr`` (an assignment's value) a direct call of an
    agreement collective -- ``comm.allreduce(...)``, possibly behind
    ``yield from`` / ``await``?"""
    node = expr
    while isinstance(node, (ast.Await, ast.YieldFrom)):
        node = node.value
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in UNIFORM_RESULT_COLLECTIVES)


def tainted_names(func: ast.AST,
                  summaries: Optional[Dict[str, CallSummary]] = None,
                  ) -> Set[str]:
    """Names carrying rank-derived values anywhere in ``func`` (fixpoint
    over simple assignments; augmented assignments taint their target).
    With ``summaries``, calls to helpers whose return value is
    rank-derived also seed taint.  Names whose *every* assignment is an
    agreement-collective result (:data:`UNIFORM_RESULT_COLLECTIVES`) are
    laundered: the value is rank-uniform regardless of the argument."""
    tainted: Set[str] = set()
    assigns: List[Tuple[Set[str], ast.AST]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            continue  # nested defs get their own analysis
        if isinstance(node, ast.Assign):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            assigns.append((names, node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            assigns.append(({node.target.id}, node.value))
        elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name):
            assigns.append(({node.target.id}, node.value))
            assigns.append(({node.target.id}, node.target))
        elif isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name):
            assigns.append(({node.target.id}, node.value))
    uniform: Set[str] = set()
    rebound: Set[str] = set()
    for names, value in assigns:
        if _agreement_result(value):
            uniform |= names
        else:
            rebound |= names
    laundered = uniform - rebound
    changed = True
    while changed:
        changed = False
        for names, value in assigns:
            names = names - laundered
            if names - tainted and expr_tainted(value, tainted, summaries):
                tainted |= names
                changed = True
    return tainted


def _collective_calls(node: ast.AST,
                      summaries: Dict[str, CallSummary],
                      ) -> List[Tuple[int, str, str, Optional[str]]]:
    """(line, description, method, receiver-name) of every collective
    operation inside ``node``, including one-level helper calls whose
    summary performs one.  ``receiver-name`` is the root ``Name`` the
    method is invoked on (``comm`` in ``comm.bcast``), or ``None`` for
    helper calls and computed receivers."""
    out: List[Tuple[int, str, str, Optional[str]]] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        fn = sub.func
        if isinstance(fn, ast.Attribute) and fn.attr in COLLECTIVE_METHODS:
            recv = fn.value.id if isinstance(fn.value, ast.Name) else None
            out.append((sub.lineno, f".{fn.attr}(...)", fn.attr, recv))
            continue
        summary, _offset = resolve_call_summary(fn, summaries)
        if summary is not None and summary.calls_collective:
            name = fn.id if isinstance(fn, ast.Name) \
                else f"{fn.value.id}.{fn.attr}"
            out.append((sub.lineno,
                        f"{name}(...) [helper performs a collective]",
                        name, None))
    return out


def _methods_in(stmts: Sequence[ast.stmt],
                summaries: Dict[str, CallSummary]) -> Set[str]:
    out: Set[str] = set()
    for stmt in stmts:
        for _line, _desc, method, _recv in _collective_calls(stmt, summaries):
            out.add(method)
    return out


def _block_exits(stmts: Sequence[ast.stmt]) -> bool:
    """Whether the block leaves the function (a top-level return/raise)."""
    return any(isinstance(s, (ast.Return, ast.Raise)) for s in stmts)


class _Guard:
    __slots__ = ("line", "src", "exempt", "branch_methods")

    def __init__(self, line: int, src: str, exempt: Set[str],
                 branch_methods: Set[str]):
        self.line = line
        self.src = src
        #: collective methods matched on the other execution path
        self.exempt = exempt
        #: collective methods the guarded branch itself performs (used to
        #: match collectives below a rank-dependent early exit)
        self.branch_methods = branch_methods


class _SpmdVisitor:
    """Block walker threading the fall-through ``tail`` of each statement
    so a rank-tainted ``if`` can see what the other side executes."""

    def __init__(self, func: ast.AST, path: str, report: Report,
                 summaries: Dict[str, CallSummary]):
        self.func = func
        self.fname = getattr(func, "name", "<lambda>")
        self.path = path
        self.report = report
        self.summaries = summaries
        self.tainted = tainted_names(func, summaries)
        self.guards: List[_Guard] = []
        #: (exit_line, guard_line, methods executed by the exiting branch)
        self.exits: List[Tuple[int, int, Set[str]]] = []
        #: every collective site in the function, for SPMD102
        self.collectives = sorted(
            _collective_calls(func, self.summaries), key=lambda c: c[0])

    # -- walking -------------------------------------------------------------

    def run(self) -> None:
        self._walk(self.func.body, [])

    def _walk(self, stmts: Sequence[ast.stmt],
              tail: Sequence[ast.stmt]) -> None:
        for i, stmt in enumerate(stmts):
            self._stmt(stmt, list(stmts[i + 1:]) + list(tail))

    def _stmt(self, stmt: ast.stmt, rest: Sequence[ast.stmt]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested definitions get their own analysis
        if isinstance(stmt, ast.If):
            self._if(stmt, rest)
        elif isinstance(stmt, ast.While):
            self._loop(stmt, stmt.test, rest)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # a rank-dependent *iteration count* diverges too
            self._loop(stmt, stmt.iter, rest)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check(item.context_expr)
            self._walk(stmt.body, rest)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body, rest)
            for handler in stmt.handlers:
                self._walk(handler.body, rest)
            self._walk(stmt.orelse, rest)
            self._walk(stmt.finalbody, rest)
        elif isinstance(stmt, ast.Match):
            for case in stmt.cases:
                self._walk(case.body, rest)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self._check(stmt)
            if self.guards:
                guard = self.guards[-1]
                self.exits.append(
                    (stmt.lineno, guard.line, set(guard.branch_methods)))
        else:
            self._check(stmt)

    def _if(self, node: ast.If, rest: Sequence[ast.stmt]) -> None:
        if not expr_tainted(node.test, self.tainted, self.summaries):
            self._walk(node.body, rest)
            self._walk(node.orelse, rest)
            return
        body_m = _methods_in(node.body, self.summaries)
        orelse_m = _methods_in(node.orelse, self.summaries)
        rest_m = _methods_in(rest, self.summaries)
        # the other side of the body is the else suite; when the body
        # exits the function, the non-taking ranks additionally run the
        # fall-through statements -- and vice versa for the else suite
        exempt_body = orelse_m | (rest_m if _block_exits(node.body) else set())
        exempt_orelse = body_m | (
            rest_m if _block_exits(node.orelse) else set())
        src = ast.unparse(node.test)
        self.guards.append(_Guard(node.lineno, src, exempt_body, body_m))
        self._walk(node.body, rest)
        self.guards.pop()
        self.guards.append(_Guard(node.lineno, src, exempt_orelse, orelse_m))
        self._walk(node.orelse, rest)
        self.guards.pop()

    def _loop(self, stmt: ast.stmt, cond: ast.AST,
              rest: Sequence[ast.stmt]) -> None:
        tainted = expr_tainted(cond, self.tainted, self.summaries)
        if tainted:
            # no "other side" to match: a rank-dependent trip count means
            # unequal numbers of collective calls across ranks
            body_m = _methods_in(stmt.body, self.summaries)
            self.guards.append(
                _Guard(stmt.lineno, ast.unparse(cond), set(), body_m))
        self._walk(stmt.body, rest)
        self._walk(getattr(stmt, "orelse", []) or [], rest)
        if tainted:
            self.guards.pop()

    # -- reporting -----------------------------------------------------------

    def _check(self, node: ast.AST) -> None:
        if not self.guards:
            return
        guard = self.guards[-1]
        for line, desc, method, recv in _collective_calls(
                node, self.summaries):
            if method in guard.exempt:
                continue  # matched on the other execution path
            if recv is not None and recv in self.tainted:
                continue  # sub-communicator from a rank-dependent split
            self.report.add(
                "SPMD101",
                f"collective {desc} in {self.fname}() executes under "
                f"the rank-dependent branch at line {guard.line} "
                f"(condition: {guard.src!r}) with no matching call on "
                "the other side; ranks taking the other side never "
                "enter it and the job hangs",
                location=self.path, line=line,
                key=("SPMD101", self.fname, line),
            )

    def finish(self) -> None:
        for exit_line, guard_line, executed in self.exits:
            later = [
                (line, method) for line, _desc, method, recv
                in self.collectives
                if line > exit_line
                and method not in executed
                and (recv is None or recv not in self.tainted)
            ]
            if later:
                self.report.add(
                    "SPMD102",
                    f"rank-dependent early exit at line {exit_line} in "
                    f"{self.fname}() (branch at line {guard_line}); the "
                    f"collective at line {later[0][0]} below is then "
                    "entered by only a subset of ranks",
                    location=self.path, line=exit_line,
                    key=("SPMD102", self.fname, exit_line),
                )


def check_function(func: ast.AST, path: str, report: Report,
                   summaries: Dict[str, CallSummary]) -> None:
    """Run SPMD1xx over one function's AST; ``summaries`` is the
    module's callee environment."""
    visitor = _SpmdVisitor(func, path, report, summaries)
    visitor.run()
    visitor.finish()


__all__ = ["check_function", "expr_tainted", "tainted_names"]
