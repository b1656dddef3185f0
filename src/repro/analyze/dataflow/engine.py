"""Gen-kill fixpoint lattices over a :class:`~repro.analyze.dataflow.cfg.CFG`.

Two classic bit-vector problems, both solved with a worklist iteration to
a fixpoint over finite powerset lattices (termination: transfer functions
are monotone, the lattice has finite height):

:func:`reaching_definitions`
    Forward, may.  A *definition* is any fact the caller attaches to a
    node (we use ``(name, node_index)`` pairs for variable definitions and
    richer tuples for request/buffer facts).  ``in[n] = U out[p]``,
    ``out[n] = gen[n] | (in[n] - kill[n])``.

:func:`liveness`
    Backward, may.  ``out[n] = U in[s]``, ``in[n] = use[n] | (out[n] -
    def[n])``.

Plus the AST plumbing the rule passes share: per-statement use/def
extraction, the :class:`CallSummary` record consulted at helper call
sites (does the helper wait a request parameter? does it perform a
collective or blocking call?) -- what lets the request-lifetime and SPMD
passes see through the codebase's generator-helper idiom -- and the one
answer, for every pass, to "does this expression create a pending
request?" (:func:`request_kind`) and "which requests does this call
complete?" (:func:`completed_names`, :func:`waited_arguments`).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Set

from repro.analyze.dataflow.cfg import CFG
from repro.analyze.mpiapi import (
    COMPLETES_ARGUMENTS,
    COMPLETES_RECEIVER,
    DIRECT_REQUEST_METHODS,
    WRAPPED_REQUEST_METHODS,
)

__all__ = [
    "DataflowSolution",
    "CallSummary",
    "call_of",
    "completed_names",
    "liveness",
    "reaching_definitions",
    "request_kind",
    "resolve_call_summary",
    "stmt_uses",
    "stmt_defs",
    "waited_arguments",
]

Fact = Hashable


class DataflowSolution:
    """Per-node ``in``/``out`` fact sets of one solved dataflow problem."""

    def __init__(self, cfg: CFG, in_sets: List[Set[Fact]],
                 out_sets: List[Set[Fact]]):
        self.cfg = cfg
        self.in_sets = in_sets
        self.out_sets = out_sets

    def at_entry(self, index: int) -> FrozenSet[Fact]:
        return frozenset(self.in_sets[index])

    def at_exit(self, index: int) -> FrozenSet[Fact]:
        return frozenset(self.out_sets[index])


def reaching_definitions(
    cfg: CFG,
    gen: Dict[int, Set[Fact]],
    kill: Callable[[int, Set[Fact]], Set[Fact]],
) -> DataflowSolution:
    """Forward may-analysis.  ``gen`` maps node index -> facts generated
    there; ``kill(index, facts)`` returns the subset of incoming ``facts``
    the node kills (a callable so kills can depend on the fact payload,
    e.g. "kill every pending request named r")."""
    n = len(cfg.nodes)
    in_sets: List[Set[Fact]] = [set() for _ in range(n)]
    out_sets: List[Set[Fact]] = [set() for _ in range(n)]
    order = cfg.rpo()
    work = list(order)
    in_work = set(work)
    while work:
        idx = work.pop(0)
        in_work.discard(idx)
        node = cfg.nodes[idx]
        new_in: Set[Fact] = set()
        for p in node.pred:
            new_in |= out_sets[p]
        in_sets[idx] = new_in
        new_out = set(gen.get(idx, ())) | (new_in - kill(idx, new_in))
        if new_out != out_sets[idx]:
            out_sets[idx] = new_out
            for s in node.succ:
                if s not in in_work:
                    in_work.add(s)
                    work.append(s)
    return DataflowSolution(cfg, in_sets, out_sets)


def liveness(cfg: CFG) -> DataflowSolution:
    """Backward may-analysis over plain variable names: ``in[n]`` is the
    set of names live on entry to node ``n``."""
    n = len(cfg.nodes)
    use: List[Set[str]] = [set() for _ in range(n)]
    defs: List[Set[str]] = [set() for _ in range(n)]
    for node in cfg.nodes:
        if node.stmt is not None:
            use[node.index] = stmt_uses(node.stmt)
            defs[node.index] = stmt_defs(node.stmt)
    in_sets: List[Set[Fact]] = [set() for _ in range(n)]
    out_sets: List[Set[Fact]] = [set() for _ in range(n)]
    work = list(reversed(cfg.rpo()))
    in_work = set(work)
    while work:
        idx = work.pop(0)
        in_work.discard(idx)
        node = cfg.nodes[idx]
        new_out: Set[Fact] = set()
        for s in node.succ:
            new_out |= in_sets[s]
        out_sets[idx] = new_out
        new_in = use[idx] | (new_out - defs[idx])
        if new_in != in_sets[idx]:
            in_sets[idx] = new_in
            for p in node.pred:
                if p not in in_work:
                    in_work.add(p)
                    work.append(p)
    return DataflowSolution(cfg, in_sets, out_sets)


# -- per-statement use/def extraction ----------------------------------------

def header_expressions(stmt: ast.AST) -> List[ast.AST]:
    """The expressions evaluated *at* a compound statement's header node
    (condition / iterable / context managers / match subject)."""
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: List[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def stmt_uses(stmt: ast.AST) -> Set[str]:
    """Names read by this statement (header expressions only for compound
    statements)."""
    out: Set[str] = set()
    for expr in header_expressions(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
    return out


def stmt_defs(stmt: ast.AST) -> Set[str]:
    """Names (re)bound by this statement."""
    out: Set[str] = set()
    for expr in header_expressions(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, (ast.Store, ast.Del)):
                out.add(sub.id)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        out.add(stmt.name)
    return out


# -- call summaries -----------------------------------------------------------

class CallSummary:
    """What one helper function does to its parameters -- the
    interprocedural summary consulted at ``helper(...)`` call sites,
    computed transitively over the project call graph by
    :mod:`repro.analyze.dataflow.summaries`.
    """

    __slots__ = ("name", "params", "waits_params", "calls_collective",
                 "calls_blocking", "returns_request", "request_kind",
                 "returns_tainted")

    def __init__(self, name: str, params: List[str],
                 waits_params: Set[int], calls_collective: bool,
                 calls_blocking: bool, returns_request: bool = False,
                 request_kind: str = "send",
                 returns_tainted: bool = False):
        self.name = name
        self.params = params
        #: positional parameter indices on which .wait()/.test() is called
        #: (directly or through a callee that waits them)
        self.waits_params = waits_params
        self.calls_collective = calls_collective
        self.calls_blocking = calls_blocking
        #: the function may return a pending request it created -- the
        #: caller adopts the wait obligation
        self.returns_request = returns_request
        #: "send" / "recv" for a returned request
        self.request_kind = request_kind
        #: the return value is rank-derived (the helper reads comm.rank)
        self.returns_tainted = returns_tainted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CallSummary):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in CallSummary.__slots__)

    def __hash__(self) -> int:  # pragma: no cover - summaries live in dicts
        return hash((self.name, tuple(self.params)))


def resolve_call_summary(fn: ast.AST,
                         summaries: Dict[str, CallSummary],
                         ) -> "tuple[Optional[CallSummary], int]":
    """The callee summary a call's ``func`` expression denotes, plus the
    *argument offset* mapping call-site positions to callee parameter
    indices.

    Three call shapes resolve (everything else is ``(None, 0)``):

    - ``helper(...)``: plain-name lookup, offset 0;
    - ``m.helper(...)``: qualified lookup under the ``"m.helper"`` key
      the summary environment carries for module aliases, offset 0;
    - ``self.helper(...)``: qualified lookup under ``"self.helper"``
      (present when exactly one top-level class of the module defines
      the method); offset 1 when the callee's first parameter is
      ``self``, since call-site argument 0 lands on parameter 1.
    """
    if isinstance(fn, ast.Name):
        return summaries.get(fn.id), 0
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        summary = summaries.get(f"{fn.value.id}.{fn.attr}")
        if summary is not None:
            offset = 1 if (fn.value.id == "self" and summary.params
                           and summary.params[0] == "self") else 0
            return summary, offset
    return None, 0


def waited_arguments(call: ast.Call, summary: CallSummary,
                     offset: int) -> Set[str]:
    """Names passed to ``call`` whose receiving parameter the callee's
    ``summary`` waits (``offset`` shifts positional arguments past an
    implicit ``self``)."""
    out = {arg.id for pos, arg in enumerate(call.args)
           if isinstance(arg, ast.Name)
           and pos + offset in summary.waits_params}
    out.update(kw.value.id for kw in call.keywords
               if isinstance(kw.value, ast.Name) and kw.arg in summary.params
               and summary.params.index(kw.arg) in summary.waits_params)
    return out


def completed_names(call: ast.Call) -> Set[str]:
    """Names a request-completion call completes: the receiver of
    ``req.wait()`` / ``req.test()``, every name inside the arguments of
    ``Request.waitall(..)`` / ``Request.waitany(..)``."""
    fn = call.func
    if not isinstance(fn, ast.Attribute):
        return set()
    if fn.attr in COMPLETES_RECEIVER:
        return {fn.value.id} if isinstance(fn.value, ast.Name) else set()
    if fn.attr in COMPLETES_ARGUMENTS:
        return {sub.id for arg in call.args for sub in ast.walk(arg)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    return set()


def call_of(value: ast.AST) -> Optional[ast.Call]:
    """Unwrap ``yield from call`` / ``await call`` down to the call."""
    if isinstance(value, (ast.YieldFrom, ast.Await)):
        value = value.value
    return value if isinstance(value, ast.Call) else None


def request_kind(value: ast.AST,
                 summaries: Dict[str, CallSummary]) -> Optional[str]:
    """``"send"``/``"recv"`` when ``value`` evaluates to a fresh pending
    request -- ``yield from comm.isend(..)``, ``comm.irecv(..)``, or a
    helper whose summary hands one back -- else None."""
    call = call_of(value)
    if call is None:
        return None
    fn = call.func
    if isinstance(fn, ast.Attribute):
        creators = (WRAPPED_REQUEST_METHODS
                    if isinstance(value, (ast.YieldFrom, ast.Await))
                    else DIRECT_REQUEST_METHODS)
        if fn.attr in creators:
            return creators[fn.attr]
    summary, _offset = resolve_call_summary(fn, summaries)
    if summary is not None and summary.returns_request:
        return summary.request_kind
    return None
