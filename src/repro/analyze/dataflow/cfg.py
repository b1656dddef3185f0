"""Control-flow graphs over Python function ASTs.

One :class:`CFG` per function body.  Nodes are single simple statements
(plus synthetic ``entry`` / ``exit`` nodes and header nodes for branch and
loop conditions); edges cover ``if``/``else``, ``while``/``for`` (with the
loop back-edge and the ``else`` clause), ``break``/``continue``,
``return``/``raise``, ``with``, ``match``, and ``try``/``except``/
``else``/``finally``.

``try`` modelling is deliberately conservative-but-simple:

- every statement of the ``try`` body gets an exceptional edge to each
  handler (an exception may fire anywhere inside the body),
- the ``finally`` suite post-dominates body, ``else`` and handlers: normal
  completion of any of them routes *through* the finally block before
  continuing, so a ``finally: yield from req.wait()`` kills a pending
  request on every path,
- ``return`` inside a ``try`` with a ``finally`` routes through the
  finally suite before reaching ``exit``.

The CFG is intraprocedural; the interprocedural call summaries of
:mod:`repro.analyze.dataflow.summaries` see through ``yield from``
helper functions on top.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

__all__ = ["CFG", "CFGNode", "build_cfg"]


class CFGNode:
    """One CFG node: a single statement (or a synthetic marker)."""

    __slots__ = ("index", "stmt", "kind", "succ", "pred")

    def __init__(self, index: int, stmt: Optional[ast.AST], kind: str):
        self.index = index
        #: the AST statement (None for entry/exit)
        self.stmt = stmt
        #: "entry" | "exit" | "stmt" | "branch" | "loop"
        self.kind = kind
        self.succ: List[int] = []
        self.pred: List[int] = []

    @property
    def line(self) -> Optional[int]:
        return getattr(self.stmt, "lineno", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.kind if self.stmt is None else ast.dump(self.stmt)[:40]
        return f"<CFGNode {self.index} {label}>"


class CFG:
    """A per-function control-flow graph."""

    def __init__(self, name: str, func: Optional[ast.AST] = None):
        self.name = name
        #: the FunctionDef/AsyncFunctionDef this graph was built from
        self.func = func
        self.nodes: List[CFGNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")

    # -- construction --------------------------------------------------------

    def _new(self, stmt: Optional[ast.AST], kind: str) -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succ:
            self.nodes[src].succ.append(dst)
            self.nodes[dst].pred.append(src)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self.nodes)

    def statements(self) -> List[CFGNode]:
        return [n for n in self.nodes if n.stmt is not None]

    def rpo(self) -> List[int]:
        """Reverse postorder from entry (good iteration order for forward
        problems; unreachable nodes are appended at the end)."""
        seen = set()
        order: List[int] = []

        def dfs(i: int) -> None:
            stack = [(i, iter(self.nodes[i].succ))]
            seen.add(i)
            while stack:
                idx, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(self.nodes[nxt].succ)))
                        advanced = True
                        break
                if not advanced:
                    order.append(idx)
                    stack.pop()

        dfs(self.entry.index)
        order.reverse()
        for node in self.nodes:
            if node.index not in seen:
                order.append(node.index)
        return order


class _LoopFrame:
    __slots__ = ("head", "after")

    def __init__(self, head: int, after: int):
        self.head = head      # `continue` target
        self.after = after    # `break` target


class _Builder:
    """Recursive statement-list walker threading `frontier` sets of node
    indices whose normal successor is the next statement."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.loops: List[_LoopFrame] = []
        #: innermost enclosing finally suites (outermost first); `return`
        #: routes through each before reaching exit
        self.finals: List[List[ast.stmt]] = []

    # each _emit_* returns the out-frontier: node indices that fall through

    def build(self, body: List[ast.stmt]) -> None:
        frontier = self._emit_block(body, [self.cfg.entry.index])
        for idx in frontier:
            self.cfg.add_edge(idx, self.cfg.exit.index)

    def _emit_block(self, body: List[ast.stmt],
                    frontier: List[int]) -> List[int]:
        for stmt in body:
            if not frontier:
                break  # dead code after return/raise/break/continue
            frontier = self._emit_stmt(stmt, frontier)
        return frontier

    def _link(self, frontier: List[int], node: CFGNode) -> None:
        for idx in frontier:
            self.cfg.add_edge(idx, node.index)

    def _emit_stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._emit_loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._emit_try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = self.cfg._new(stmt, "stmt")
            self._link(frontier, node)
            return self._emit_block(stmt.body, [node.index])
        if isinstance(stmt, ast.Match):
            return self._emit_match(stmt, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self.cfg._new(stmt, "stmt")
            self._link(frontier, node)
            out = [node.index]
            # the exit path routes through every enclosing finally suite;
            # each suite is emitted with only the *outer* finals in scope
            # so a return inside a finally cannot recurse into itself
            saved = self.finals
            for k in range(len(saved) - 1, -1, -1):
                self.finals = saved[:k]
                out = self._emit_block(saved[k], out)
            self.finals = saved
            for idx in out:
                self.cfg.add_edge(idx, self.cfg.exit.index)
            return []
        if isinstance(stmt, ast.Break):
            node = self.cfg._new(stmt, "stmt")
            self._link(frontier, node)
            if self.loops:
                self.cfg.add_edge(node.index, self.loops[-1].after)
            return []
        if isinstance(stmt, ast.Continue):
            node = self.cfg._new(stmt, "stmt")
            self._link(frontier, node)
            if self.loops:
                self.cfg.add_edge(node.index, self.loops[-1].head)
            return []
        # nested function/class definitions are opaque single statements
        # (the driver builds their bodies' own CFGs)
        node = self.cfg._new(stmt, "stmt")
        self._link(frontier, node)
        return [node.index]

    def _emit_if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        head = self.cfg._new(stmt, "branch")
        self._link(frontier, head)
        out = self._emit_block(stmt.body, [head.index])
        if stmt.orelse:
            out += self._emit_block(stmt.orelse, [head.index])
        else:
            out = out + [head.index]
        return out

    def _emit_match(self, stmt: ast.Match, frontier: List[int]) -> List[int]:
        head = self.cfg._new(stmt, "branch")
        self._link(frontier, head)
        out: List[int] = []
        exhaustive = False
        for case in stmt.cases:
            out += self._emit_block(case.body, [head.index])
            if (isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None and case.guard is None):
                exhaustive = True
        if not exhaustive:
            out.append(head.index)
        return out

    def _emit_loop(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        head = self.cfg._new(stmt, "loop")
        self._link(frontier, head)
        # `after` anchor collects break targets; it is a synthetic no-op
        after = self.cfg._new(None, "stmt")
        after.kind = "join"
        self.loops.append(_LoopFrame(head.index, after.index))
        body_out = self._emit_block(stmt.body, [head.index])
        self.loops.pop()
        for idx in body_out:  # back edge
            self.cfg.add_edge(idx, head.index)
        # loop condition false / iterator exhausted -> else suite -> after
        orelse = getattr(stmt, "orelse", None) or []
        else_out = self._emit_block(orelse, [head.index])
        for idx in else_out:
            self.cfg.add_edge(idx, after.index)
        return [after.index]

    def _emit_try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        body_out = self._pushed_finally(stmt, lambda: self._emit_try_core(
            stmt, frontier))
        if stmt.finalbody:
            return self._emit_block(stmt.finalbody, body_out)
        return body_out

    def _pushed_finally(self, stmt: ast.Try, emit) -> List[int]:
        if stmt.finalbody:
            self.finals.append(stmt.finalbody)
            try:
                return emit()
            finally:
                self.finals.pop()
        return emit()

    def _emit_try_core(self, stmt: ast.Try,
                       frontier: List[int]) -> List[int]:
        # body statements, collecting every node for exceptional edges
        start = len(self.cfg.nodes)
        body_out = self._emit_block(stmt.body, frontier)
        body_nodes = [n.index for n in self.cfg.nodes[start:]
                      if n.stmt is not None]
        out: List[int] = []
        # handlers: an exception may fire *during* any body statement, in
        # which case that statement's effects (its assignments) have not
        # happened -- so the exceptional edge originates from each body
        # statement's predecessors (its in-state), not the statement
        # itself.  The pre-try frontier covers "before the first one".
        exc_sources: set = set(frontier)
        for idx in body_nodes:
            exc_sources.update(self.cfg.nodes[idx].pred)
        for handler in stmt.handlers:
            h = self.cfg._new(handler, "stmt")
            for idx in sorted(exc_sources):
                self.cfg.add_edge(idx, h.index)
            out += self._emit_block(handler.body, [h.index])
        # normal completion -> else suite
        out += self._emit_block(stmt.orelse, body_out)
        return out


def build_cfg(func: ast.AST, name: Optional[str] = None) -> CFG:
    """Build the CFG of one function (or an ``ast.Module`` top level)."""
    label = name or getattr(func, "name", "<module>")
    cfg = CFG(label, func=func)
    _Builder(cfg).build(func.body)
    return cfg
