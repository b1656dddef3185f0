"""Request-lifetime and buffer-aliasing analysis (REQ1xx / BUF1xx).

Reaching-definitions facts over one function's CFG:

``("req", name, def_node, kind, buffer)``
    A pending :class:`~repro.mpi.request.Request` bound to ``name`` at CFG
    node ``def_node``; ``kind`` is ``"send"``/``"recv"``; ``buffer`` is
    the buffer variable the operation reads/writes (or None).

``("gen", name, def_node, method)``
    A blocking-communication *generator object* (``g = comm.send(..)``)
    that has not been driven with ``yield from`` yet.

Kills:

- ``name.wait()`` / ``name.test()`` / ``Request.waitall([.., name, ..])``
  complete a request,
- ``yield from helper(name, ..)`` -- also ``self.helper(..)`` and
  ``mod.helper(..)`` -- where the call summary says the helper waits
  that parameter,
- any other *escape* of the name (argument to an unknown callee, return
  value, container element, attribute store) conservatively completes it
  (someone else may wait it),
- rebinding ``name`` kills the old fact -- after REQ102 has inspected it.

Findings:

- **REQ101** (error): a pending request reaches function exit -- some
  path skips the ``wait()``.  The message distinguishes "no wait anywhere"
  (liveness: the name is dead right after the definition) from "a wait
  exists but not on every path".
- **REQ102** (error): a name holding a pending request is rebound
  (classically: the loop-carried ``req = comm.isend(..)`` whose wait sits
  after the loop, completing only the last iteration).
- **REQ103** (error): a blocking-communication generator object is
  assigned but never driven on some path -- the dataflow-complete LNT003.
- **BUF101** (error): a buffer is written between ``isend`` and the wait
  that completes it (the send may pack/transmit the clobbered bytes).
- **BUF102** (warning): a receive buffer is read between ``irecv`` and
  the completing wait (the bytes are not there yet).
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set, Tuple

from repro.analyze.dataflow.cfg import CFG
from repro.analyze.dataflow.engine import (
    CallSummary,
    call_of,
    completed_names,
    header_expressions,
    liveness,
    reaching_definitions,
    request_kind,
    resolve_call_summary,
    stmt_defs,
    waited_arguments,
)
from repro.analyze.findings import Report
from repro.analyze.mpiapi import (
    DIRECT_REQUEST_METHODS,
    GENERATOR_METHODS,
    WRAPPED_REQUEST_METHODS,
)

#: the API calls creating a request; their first argument is its buffer
_API_CREATORS = WRAPPED_REQUEST_METHODS.keys() | DIRECT_REQUEST_METHODS.keys()

#: ndarray / list methods that mutate the receiver in place
MUTATING_METHODS = frozenset({
    "fill", "sort", "resize", "put", "partition", "setfield", "itemset",
    "append", "extend", "insert", "clear", "pop", "remove",
})


def _buffer_name(call: ast.Call) -> Optional[str]:
    """The buffer argument of an isend/irecv-style call, when it is a
    plain name (first positional, or ``buffer=``)."""
    cand: Optional[ast.AST] = None
    if call.args:
        cand = call.args[0]
    for kw in call.keywords:
        if kw.arg == "buffer":
            cand = kw.value
    if isinstance(cand, ast.Name):
        return cand.id
    return None


class _FunctionFacts:
    """Per-node gen/kill metadata extracted from the statements once."""

    def __init__(self, cfg: CFG, summaries: Dict[str, CallSummary]):
        self.cfg = cfg
        self.summaries = summaries
        self.gen: Dict[int, Set[Tuple]] = {}
        #: node -> request/generator names completed there
        self.completes: Dict[int, Set[str]] = {}
        #: node -> names that escape there (conservative completion)
        self.escapes: Dict[int, Set[str]] = {}
        #: node -> names rebound there
        self.rebinds: Dict[int, Set[str]] = {}
        #: node -> names written there (buffer mutation candidates)
        self.writes: Dict[int, Set[str]] = {}
        #: node -> names read there (Load context)
        self.reads: Dict[int, Set[str]] = {}
        for node in cfg.nodes:
            if node.stmt is not None:
                self._scan(node.index, node.stmt)

    # -- statement scanning --------------------------------------------------

    def _scan(self, idx: int, stmt: ast.AST) -> None:
        exprs = header_expressions(stmt)
        self.rebinds[idx] = stmt_defs(stmt)
        completes: Set[str] = set()
        escapes: Set[str] = set()
        writes: Set[str] = set(self.rebinds[idx])
        reads: Set[str] = set()
        driven: Set[str] = set()

        for expr in exprs:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call):
                    self._scan_call(sub, completes, escapes)
                elif isinstance(sub, ast.YieldFrom) and isinstance(
                        sub.value, ast.Name):
                    driven.add(sub.value.id)  # `yield from g`
                elif isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Load):
                    reads.add(sub.id)
                elif isinstance(sub, ast.Subscript):
                    root = sub.value
                    if isinstance(root, ast.Name) and isinstance(
                            sub.ctx, (ast.Store, ast.Del)):
                        writes.add(root.id)
        if isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name):
            writes.add(stmt.target.id)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            # a returned request escapes: the caller adopts the wait
            # obligation (the transitive summary marks returns_request,
            # so the call site regenerates the fact over there)
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Load):
                    escapes.add(sub.id)
        completes |= driven

        self.completes[idx] = completes
        self.escapes[idx] = escapes
        self.writes[idx] = writes
        self.reads[idx] = reads
        self._scan_defs(idx, stmt)

    def _scan_call(self, call: ast.Call, completes: Set[str],
                   escapes: Set[str]) -> None:
        fn = call.func
        arg_names = [a.id for a in call.args if isinstance(a, ast.Name)]
        kw_names = [kw.value.id for kw in call.keywords
                    if isinstance(kw.value, ast.Name)]
        done = completed_names(call)
        if done:
            completes |= done  # req.wait() / Request.waitall([a, b])
            return
        summary, offset = resolve_call_summary(fn, self.summaries)
        if summary is not None:
            # call summary (plain, module-qualified or self-method):
            # only the waited params complete; other known-helper params
            # stay pending (precise)
            completes |= waited_arguments(call, summary, offset)
            return
        # unknown callee: arguments escape; a mutating method on the
        # receiver is recorded by the caller via MUTATING_METHODS
        escapes.update(arg_names + kw_names)

    def _scan_defs(self, idx: int, stmt: ast.AST) -> None:
        """Request / generator definitions generated at this node."""
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        call = call_of(value)
        if call is None:
            return
        attr = getattr(call.func, "attr", None)
        if attr in GENERATOR_METHODS and not isinstance(
                value, (ast.YieldFrom, ast.Await)):
            # `g = comm.send(..)`: a generator object, not yet driven
            facts = {("gen", name, idx, attr) for name in names}
        else:
            # `req = yield from comm.isend(..)` / `req = comm.irecv(..)`,
            # or a helper whose transitive summary hands back a pending
            # request: the wait obligation lands here
            kind = request_kind(value, self.summaries)
            buf = _buffer_name(call) if attr in _API_CREATORS else None
            facts = set() if kind is None else {
                ("req", name, idx, kind, buf) for name in names}
        if facts:
            self.gen[idx] = facts
            # the definition node must not kill its own fresh facts
            self.completes[idx] = self.completes[idx] - set(names)
            self.escapes[idx] = self.escapes[idx] - set(names)

    # -- kill function for the reaching-defs solve ---------------------------

    def kill(self, idx: int, facts: Set[Tuple]) -> Set[Tuple]:
        done = self.completes.get(idx, set()) | self.escapes.get(idx, set())
        rebound = self.rebinds.get(idx, set())
        reads = self.reads.get(idx, set())
        out = set()
        for fact in facts:
            name = fact[1]
            killed = name in done or name in rebound
            if fact[0] == "gen" and name in reads:
                # any use of a generator object may drive it indirectly
                # (dispatch loops, isinstance switches); only the
                # assigned-and-never-referenced case stays a finding
                killed = True
            if killed and fact[2] != idx:
                # never kill the node's own fresh gen facts
                out.add(fact)
        return out


def check_function(cfg: CFG, path: str, report: Report,
                   summaries: Dict[str, CallSummary]) -> None:
    """Run REQ1xx/BUF1xx over one function CFG; ``summaries`` is the
    module's callee environment."""
    facts = _FunctionFacts(cfg, summaries)
    if not facts.gen:
        return  # no requests or generators created here
    solution = reaching_definitions(cfg, facts.gen, facts.kill)
    live = liveness(cfg)
    fname = cfg.name

    def line_of(def_node: int) -> Optional[int]:
        return cfg.nodes[def_node].line

    # REQ101 / REQ103: pending facts reaching the exit node ------------------
    for fact in sorted(solution.at_entry(cfg.exit.index),
                       key=lambda f: (line_of(f[2]) or 0, f[1])):
        if fact[0] == "req":
            _tag, name, def_node, kind, _buf = fact
            never_used = name not in live.at_exit(def_node)
            detail = ("it is never waited anywhere" if never_used else
                      "a path to function exit skips the wait()")
            report.add(
                "REQ101",
                f"nonblocking {kind} request '{name}' in {fname}() may "
                f"reach function exit without wait()/test(): {detail}",
                location=path, line=line_of(def_node),
                key=("REQ101", fname, name, def_node),
            )
        else:
            _tag, name, def_node, method = fact
            report.add(
                "REQ103",
                f"generator '{name} = ...{method}(...)' in {fname}() is "
                "never driven with 'yield from' on some path; the "
                "communication silently does not happen",
                location=path, line=line_of(def_node),
                key=("REQ103", fname, name, def_node),
            )

    # node-local checks against the reaching facts ---------------------------
    for node in cfg.nodes:
        if node.stmt is None:
            continue
        idx = node.index
        incoming = solution.at_entry(idx)
        if not incoming:
            continue
        rebound = facts.rebinds.get(idx, set())
        writes = facts.writes.get(idx, set()) - rebound
        reads = facts.reads.get(idx, set())
        mutated = _mutated_receivers(node.stmt)
        for fact in sorted(incoming, key=lambda f: (f[1], f[2])):
            name = fact[1]
            if name in rebound:
                # fact[2] == idx is the loop-carried case: the definition's
                # own fact flows around the back edge into a fresh rebind
                rule = "REQ102" if fact[0] == "req" else "REQ103"
                what = ("a pending request" if fact[0] == "req"
                        else "an undriven communication generator")
                where = ("the previous loop iteration"
                         if fact[2] == idx else f"line {line_of(fact[2])}")
                report.add(
                    rule,
                    f"'{name}' is rebound in {fname}() while still holding "
                    f"{what} (from {where}); "
                    "the previous operation is never completed",
                    location=path, line=node.line,
                    key=(rule, fname, name, fact[2], idx),
                )
            if fact[0] != "req" or fact[4] is None or fact[2] == idx:
                continue
            buf = fact[4]
            if fact[3] == "send" and (buf in writes or buf in mutated):
                report.add(
                    "BUF101",
                    f"buffer '{buf}' is written while the nonblocking send "
                    f"'{name}' (line {line_of(fact[2])}) is still pending; "
                    "the transmitted bytes are undefined",
                    location=path, line=node.line,
                    key=("BUF101", fname, name, fact[2], idx),
                )
            elif fact[3] == "recv" and buf in (reads | mutated) \
                    and name not in facts.completes.get(idx, set()):
                report.add(
                    "BUF102",
                    f"buffer '{buf}' is read before the nonblocking receive "
                    f"'{name}' (line {line_of(fact[2])}) completes; the "
                    "data has not arrived yet",
                    location=path, line=node.line,
                    key=("BUF102", fname, name, fact[2], idx),
                )


def _mutated_receivers(stmt: ast.AST) -> Set[str]:
    """Receiver names of in-place mutating method calls in ``stmt``."""
    out: Set[str] = set()
    for expr in header_expressions(stmt):
        for sub in ast.walk(expr):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in MUTATING_METHODS
                    and isinstance(sub.func.value, ast.Name)):
                out.add(sub.func.value.id)
    return out


__all__ = ["check_function"]
