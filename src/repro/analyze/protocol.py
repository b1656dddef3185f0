"""Cross-rank protocol verification (rules MTC101-MTC105).

Every dataflow pass so far reasons about *one* rank's control flow.
This module closes the loop: it abstractly executes each analyzed
function once per rank of a few small **model worlds** (sizes
:data:`WORLD_SIZES`), with ``comm.rank`` / ``comm.size`` bound to
concrete integers, records the per-rank abstract communication traces,
and joins them in the static match graph of
:mod:`repro.analyze.matchgraph`:

- **MTC101 / MTC102** -- a send (receive) with no feasible peer under
  the envelope rules of MPI matching (destination, source, tag,
  typed/object channel, wildcards honoured);
- **MTC103** -- a deterministic deadlock: the abstract scheduler, using
  rendezvous semantics for blocking sends, stops with a wait-for cycle
  (the classic head-to-head ``send``/``send``);
- **MTC104** -- ranks disagree on the collective sequence (kind or
  root) -- the cross-rank strengthening of SPMD101, which only sees
  that a collective sits under a rank-dependent branch;
- **MTC105** -- a *matched* send/receive pair whose statically known
  datatypes violate the paper's correctness contract: the send
  signature must be a prefix of the receive signature (MPI-3.0 section
  3.3.1, via the same :func:`repro.analyze.signatures.transfer_verdict`
  the concrete checker uses) and each endpoint's buffer must actually
  hold ``count`` copies of its datatype.

Soundness model
---------------

The extractor is deliberately *incomplete* but tries hard not to lie:

- Whenever a rank's behaviour depends on something it cannot evaluate
  -- data-dependent tags or peers, ``while`` loops around
  communication, unknown branches containing communication, dynamic
  peer sets, ``probe``/``waitany``/``split`` -- extraction **bails**
  for that model size and nothing is reported from it.
- A finding is emitted only when it appears at **every** model size
  that extracted successfully (intersection semantics).  Programs
  written for an assumed world size (e.g. a two-rank pingpong run
  under a size-4 model) produce spurious unmatched ops at the wrong
  sizes only, so the intersection discards them.
- Unknown non-rank conditions are assumed SPMD-replicated: branches
  without communication are skipped with their assignments poisoned,
  and guard-clause returns are assumed not taken, identically on every
  rank.

Only *top-level* functions that take a communicator parameter and are
never called inside their own module are verified directly -- anything
that is called is a helper, and is verified inlined at its call sites
(same module, bounded depth), where its arguments are known.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analyze.dataflow.engine import CallSummary
from repro.analyze.findings import Report
from repro.analyze.matchgraph import (
    ANY,
    Op,
    WorldResult,
    verify_world,
)
from repro.analyze.mpiapi import (
    COLLECTIVE_METHODS,
    COMM_ATTRIBUTES,
    COMM_PARAMS,
    COMMUNICATION_METHODS,
    LOCAL_METHODS,
    ROOT_ARG,
)
from repro.analyze.signatures import (
    DATATYPE_NAMES,
    construct_datatype,
    render_signature,
    transfer_verdict,
)
from repro.datatypes.ir import compile_datatype
from repro.datatypes.typemap import Datatype, primitive_for

__all__ = ["WORLD_SIZES", "FunctionStat", "check_module"]

#: the model world sizes; a finding must hold at every size that
#: extracts to be reported
WORLD_SIZES = (2, 3, 4)

#: extraction budgets (exceeding any of them bails the model size)
MAX_UNROLL = 64          # iterations of one statically known loop
MAX_OPS = 512            # communication ops per rank trace
MAX_STMTS = 8192         # executed statements per rank (fuel)
MAX_INLINE_DEPTH = 5     # nested helper inlining

#: comm methods the extractor refuses outright (dynamic matching or
#: communicator surgery the static model cannot follow)
_BAIL_METHODS = frozenset({
    "probe", "iprobe", "waitany", "test", "split", "dup", "shrink",
    "agree", "revoke",
})

_NUMPY_CTORS = frozenset({"zeros", "empty", "ones", "arange", "full"})


class _Bail(Exception):
    """Extraction gave up for this model size; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Return(Exception):
    def __init__(self, value: Any):
        super().__init__("return")
        self.value = value


class _EndTrace(Exception):
    """An unconditional ``raise`` was reached: the trace ends here."""


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Unknown:
    """The single abstract 'no idea' value."""

    _instance: Optional["_Unknown"] = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unknown>"


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class _CommVal:
    rank: int
    size: int


@dataclass(frozen=True)
class _RequestVal:
    """A pending request: the trace index of the op that created it."""

    op_index: int


@dataclass(frozen=True)
class _ArrayVal:
    """A numpy-ish buffer with (possibly) known element count."""

    elems: Any            # int or UNKNOWN
    itemsize: Any         # int or UNKNOWN
    dtype_name: Any = None  # str or None

    @property
    def nbytes(self) -> Any:
        if isinstance(self.elems, int) and isinstance(self.itemsize, int):
            return self.elems * self.itemsize
        return UNKNOWN


@dataclass(frozen=True)
class _TypedBufVal:
    buf_bytes: Any        # int or UNKNOWN
    datatype: Any         # Datatype or UNKNOWN
    count: Any            # int or UNKNOWN


@dataclass(frozen=True)
class _DTypeVal:
    name: str
    itemsize: int


@dataclass(frozen=True)
class _FuncVal:
    node: ast.AST


@dataclass
class FunctionStat:
    """What happened to one candidate function."""

    path: str
    func: str
    verified_sizes: Tuple[int, ...]
    bailed: Tuple[Tuple[int, str], ...] = ()
    ops: int = 0


# -- module context -----------------------------------------------------------


class _ModuleCtx:
    """Everything the extractor shares across ranks and sizes."""

    def __init__(self, tree: ast.Module, path: str,
                 env: Optional[Dict[str, CallSummary]] = None):
        self.path = path
        self.env = env or {}
        self.module_funcs: Dict[str, ast.AST] = {
            node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.np_aliases: Set[str] = set()
        self.typedbuffer_names: Set[str] = set()
        self.request_names: Set[str] = set()
        self.consts: Dict[str, Any] = {}
        self._has_comm_memo: Dict[str, bool] = {}
        self._scan_module(tree)

    def _scan_module(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name == "numpy":
                        self.np_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name == "numpy":
                        self.np_aliases.add(local)
                    elif alias.name == "TypedBuffer":
                        self.typedbuffer_names.add(local)
                    elif alias.name == "Request":
                        self.request_names.add(local)
                    elif alias.name in ("ANY_SOURCE", "ANY_TAG"):
                        self.consts[local] = ANY
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(
                        value.value, (int, float, str, bool)):
                    if name in self.consts:
                        self.consts[name] = UNKNOWN  # reassigned: unsafe
                    else:
                        self.consts[name] = value.value

    def has_comm(self, node: ast.AST) -> bool:
        """Whether executing ``node`` could touch communication --
        directly, through a local helper (transitively, memoised per
        function), or through an imported function whose summary says it
        blocks/collects."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)) or (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in COMMUNICATION_METHODS):
                return True
            if not isinstance(sub, ast.Call):
                continue
            fn = sub.func
            if isinstance(fn, ast.Name):
                name = fn.id
                if name in self.module_funcs:
                    memo = self._has_comm_memo
                    if name not in memo:
                        memo[name] = False  # cycle guard
                        memo[name] = self.has_comm(self.module_funcs[name])
                    if memo[name]:
                        return True
            elif isinstance(fn, ast.Attribute) \
                    and isinstance(fn.value, ast.Name):
                name = f"{fn.value.id}.{fn.attr}"
            else:
                continue
            summary = self.env.get(name)
            if summary is not None and (summary.calls_blocking
                                        or summary.calls_collective):
                return True
        return False


# -- the abstract executor ----------------------------------------------------


class _Extractor:
    """Abstractly executes one function for one (rank, size) world."""

    def __init__(self, ctx: _ModuleCtx, rank: int, size: int):
        self.ctx = ctx
        self.rank = rank
        self.size = size
        self.trace: List[Op] = []
        self.fuel = MAX_STMTS
        self.inline_stack: List[str] = []
        self.func_name = ""

    # -- entry ----------------------------------------------------------------

    def run(self, func: ast.AST, comm_param: str) -> List[Op]:
        self.func_name = getattr(func, "name", "<fn>")
        env = self._bind_params(func, {comm_param: _CommVal(self.rank,
                                                            self.size)})
        try:
            self._exec_body(func.body, env)
        except _Return:
            pass
        except _EndTrace:
            pass
        return self.trace

    def _bind_params(self, func: ast.AST,
                     given: Dict[str, Any]) -> Dict[str, Any]:
        args = func.args
        if args.vararg is not None or args.kwarg is not None:
            raise _Bail(f"{getattr(func, 'name', '?')}: *args/**kwargs "
                        "parameters")
        env: Dict[str, Any] = {}
        params = [a.arg for a in args.posonlyargs + args.args]
        defaults = list(args.defaults)
        # right-align defaults onto params
        default_of: Dict[str, ast.AST] = {}
        for param, dnode in zip(params[len(params) - len(defaults):],
                                defaults):
            default_of[param] = dnode
        for a, dnode in zip(args.kwonlyargs, args.kw_defaults):
            if dnode is not None:
                default_of[a.arg] = dnode
            params.append(a.arg)
        for p in params:
            if p in given:
                env[p] = given[p]
            elif p in default_of:
                try:
                    env[p] = self._eval(default_of[p], env)
                except _Bail:
                    env[p] = UNKNOWN
            else:
                env[p] = UNKNOWN
        return env

    # -- statements -----------------------------------------------------------

    def _exec_body(self, body: Sequence[ast.stmt],
                   env: Dict[str, Any]) -> None:
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.stmt, env: Dict[str, Any]) -> None:
        self.fuel -= 1
        if self.fuel <= 0:
            raise _Bail(f"{self.func_name}: statement budget exceeded")
        if isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal,
                             ast.Import, ast.ImportFrom, ast.Assert)):
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
            return
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, value, env)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, self._eval(stmt.value, env),
                                  env)
            return
        if isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                cur = env.get(stmt.target.id, UNKNOWN)
                env[stmt.target.id] = self._binop_values(
                    stmt.op, cur, value)
            return
        if isinstance(stmt, ast.If):
            self._exec_if(stmt, env)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(stmt, env)
            return
        if isinstance(stmt, ast.While):
            if self.ctx.has_comm(stmt):
                raise _Bail(f"{self.func_name}: while-loop around "
                            "communication")
            self._poison_assigned(stmt, env)
            return
        if isinstance(stmt, ast.Return):
            value = (self._eval(stmt.value, env)
                     if stmt.value is not None else None)
            raise _Return(value)
        if isinstance(stmt, ast.Raise):
            raise _EndTrace()
        if isinstance(stmt, ast.Try):
            if self.ctx.has_comm(stmt):
                raise _Bail(f"{self.func_name}: try-block around "
                            "communication")
            self._poison_assigned(stmt, env)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, UNKNOWN, env)
            self._exec_body(stmt.body, env)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env[stmt.name] = _FuncVal(stmt)
            return
        if isinstance(stmt, ast.Break):
            raise _Break()
        if isinstance(stmt, ast.Continue):
            raise _Continue()
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return
        if self.ctx.has_comm(stmt):
            raise _Bail(f"{self.func_name}: unsupported statement "
                        f"{type(stmt).__name__} around communication")
        self._poison_assigned(stmt, env)

    def _exec_if(self, stmt: ast.If, env: Dict[str, Any]) -> None:
        test = self._eval(stmt.test, env)
        if test is not UNKNOWN and not isinstance(
                test, (_CommVal, _RequestVal, _ArrayVal, _TypedBufVal,
                       _DTypeVal, _FuncVal)):
            branch = stmt.body if test else stmt.orelse
            self._exec_body(branch, env)
            return
        # unknown condition: SPMD-replicated by assumption, but we do not
        # know which way it goes -- only safe when neither branch talks
        for branch in (stmt.body, stmt.orelse):
            for sub_stmt in branch:
                if self.ctx.has_comm(sub_stmt):
                    raise _Bail(f"{self.func_name}: unknown branch "
                                "condition guards communication "
                                f"(line {stmt.lineno})")
                for sub in ast.walk(sub_stmt):
                    if isinstance(sub, (ast.Break, ast.Continue)):
                        raise _Bail(f"{self.func_name}: unknown branch "
                                    "condition guards loop control "
                                    f"(line {stmt.lineno})")
        # guard clauses (`if bad: return`) are assumed not taken --
        # SPMD-identical fall-through on every rank
        self._poison_assigned(stmt, env)

    def _exec_for(self, stmt: ast.For, env: Dict[str, Any]) -> None:
        items = self._eval(stmt.iter, env)
        if not isinstance(items, list):
            if self.ctx.has_comm(stmt):
                raise _Bail(f"{self.func_name}: loop over unknown iterable "
                            f"around communication (line {stmt.lineno})")
            self._poison_assigned(stmt, env)
            return
        if len(items) > MAX_UNROLL:
            raise _Bail(f"{self.func_name}: loop of {len(items)} iterations "
                        f"exceeds the unroll budget (line {stmt.lineno})")
        broke = False
        for item in items:
            self._bind_target(stmt.target, item, env)
            try:
                self._exec_body(stmt.body, env)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
        if not broke:
            self._exec_body(stmt.orelse, env)

    def _bind_target(self, target: ast.AST, value: Any,
                     env: Dict[str, Any]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if isinstance(value, list) and len(value) == len(elts) \
                    and not any(isinstance(e, ast.Starred) for e in elts):
                for elt, v in zip(elts, value):
                    self._bind_target(elt, v, env)
            else:
                for elt in elts:
                    self._bind_target(elt, UNKNOWN, env)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, UNKNOWN, env)
        # Subscript / Attribute targets mutate objects we do not model

    def _poison_assigned(self, node: ast.AST, env: Dict[str, Any]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                env[sub.id] = UNKNOWN
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                env[sub.name] = UNKNOWN

    # -- expressions ----------------------------------------------------------

    def _eval(self, node: ast.AST, env: Dict[str, Any]) -> Any:
        if isinstance(node, (ast.YieldFrom, ast.Await)):
            return self._eval(node.value, env)
        if isinstance(node, ast.Yield):
            raise _Bail(f"{self.func_name}: bare 'yield' (engine-level "
                        "code, not a comm call)")
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self._lookup(node.id, env)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.BinOp):
            return self._binop_values(node.op, self._eval(node.left, env),
                                      self._eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if operand is UNKNOWN:
                return UNKNOWN
            try:
                if isinstance(node.op, ast.USub):
                    return -operand
                if isinstance(node.op, ast.UAdd):
                    return +operand
                if isinstance(node.op, ast.Not):
                    return not operand
                if isinstance(node.op, ast.Invert):
                    return ~operand
            except TypeError:
                return UNKNOWN
            return UNKNOWN
        if isinstance(node, ast.Compare):
            return self._compare(node, env)
        if isinstance(node, ast.BoolOp):
            result = UNKNOWN
            for value in node.values:
                v = self._eval(value, env)
                if v is UNKNOWN:
                    return UNKNOWN
                result = v
                if isinstance(node.op, ast.And) and not v:
                    return v
                if isinstance(node.op, ast.Or) and v:
                    return v
            return result
        if isinstance(node, ast.IfExp):
            test = self._eval(node.test, env)
            if test is UNKNOWN:
                if self.ctx.has_comm(node):
                    raise _Bail(f"{self.func_name}: unknown conditional "
                                "expression around communication")
                return UNKNOWN
            return self._eval(node.body if test else node.orelse, env)
        if isinstance(node, (ast.Tuple, ast.List)):
            if any(isinstance(e, ast.Starred) for e in node.elts):
                return UNKNOWN
            return [self._eval(e, env) for e in node.elts]
        if isinstance(node, ast.Subscript):
            return self._subscript(node, env)
        if isinstance(node, ast.Slice):
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            if self.ctx.has_comm(node):
                raise _Bail(f"{self.func_name}: comprehension around "
                            "communication")
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            return UNKNOWN
        if isinstance(node, ast.Dict):
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return UNKNOWN
        if self.ctx.has_comm(node):
            raise _Bail(f"{self.func_name}: unsupported expression "
                        f"{type(node).__name__} around communication")
        return UNKNOWN

    def _lookup(self, name: str, env: Dict[str, Any]) -> Any:
        if name in env:
            return env[name]
        if name in self.ctx.consts:
            return self.ctx.consts[name]
        if name in ("ANY_SOURCE", "ANY_TAG"):
            return ANY
        if name in DATATYPE_NAMES and not callable(DATATYPE_NAMES[name]):
            return DATATYPE_NAMES[name]
        return UNKNOWN

    def _eval_attribute(self, node: ast.Attribute,
                        env: Dict[str, Any]) -> Any:
        base = self._eval(node.value, env)
        if isinstance(base, _CommVal):
            if node.attr == "rank":
                return base.rank
            if node.attr == "size":
                return base.size
            return UNKNOWN
        if isinstance(base, _ArrayVal):
            if node.attr == "size":
                return base.elems
            if node.attr == "itemsize":
                return base.itemsize
            if node.attr == "nbytes":
                return base.nbytes
            if node.attr == "dtype" and base.dtype_name is not None \
                    and isinstance(base.itemsize, int):
                return _DTypeVal(base.dtype_name, base.itemsize)
            return UNKNOWN
        if isinstance(base, Datatype):
            if node.attr in ("size", "extent"):
                return int(getattr(base, node.attr))
            return UNKNOWN
        # np.float64 and friends used as dtype tokens
        if isinstance(node.value, ast.Name) \
                and node.value.id in self.ctx.np_aliases:
            scalar = getattr(np, node.attr, None)
            if isinstance(scalar, type) \
                    and issubclass(scalar, (np.number, np.bool_)):
                return _DTypeVal(node.attr, np.dtype(scalar).itemsize)
        return UNKNOWN

    def _compare(self, node: ast.Compare, env: Dict[str, Any]) -> Any:
        left = self._eval(node.left, env)
        for op, comp in zip(node.ops, node.comparators):
            right = self._eval(comp, env)
            if left is UNKNOWN or right is UNKNOWN:
                return UNKNOWN
            try:
                if isinstance(op, ast.Eq):
                    ok = left == right
                elif isinstance(op, ast.NotEq):
                    ok = left != right
                elif isinstance(op, ast.Lt):
                    ok = left < right
                elif isinstance(op, ast.LtE):
                    ok = left <= right
                elif isinstance(op, ast.Gt):
                    ok = left > right
                elif isinstance(op, ast.GtE):
                    ok = left >= right
                elif isinstance(op, ast.In):
                    ok = isinstance(right, list) and left in right
                elif isinstance(op, ast.NotIn):
                    ok = isinstance(right, list) and left not in right
                else:
                    return UNKNOWN
            except TypeError:
                return UNKNOWN
            if not ok:
                return False
            left = right
        return True

    def _binop_values(self, op: ast.operator, left: Any, right: Any) -> Any:
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        try:
            if isinstance(op, ast.Add):
                return left + right
            if isinstance(op, ast.Sub):
                return left - right
            if isinstance(op, ast.Mult):
                return left * right
            if isinstance(op, ast.FloorDiv):
                return left // right
            if isinstance(op, ast.Div):
                return left / right
            if isinstance(op, ast.Mod):
                return left % right
            if isinstance(op, ast.Pow):
                return left ** right
            if isinstance(op, ast.BitXor):
                return left ^ right
            if isinstance(op, ast.BitAnd):
                return left & right
            if isinstance(op, ast.BitOr):
                return left | right
            if isinstance(op, ast.LShift):
                return left << right
            if isinstance(op, ast.RShift):
                return left >> right
        except (TypeError, ValueError, ZeroDivisionError):
            return UNKNOWN
        return UNKNOWN

    def _subscript(self, node: ast.Subscript, env: Dict[str, Any]) -> Any:
        base = self._eval(node.value, env)
        if isinstance(node.slice, ast.Slice):
            lower = (self._eval(node.slice.lower, env)
                     if node.slice.lower is not None else 0)
            upper = (self._eval(node.slice.upper, env)
                     if node.slice.upper is not None else None)
            step = (self._eval(node.slice.step, env)
                    if node.slice.step is not None else 1)
            if isinstance(base, _ArrayVal) and isinstance(base.elems, int) \
                    and isinstance(lower, int) and step == 1 \
                    and (upper is None or isinstance(upper, int)):
                stop = base.elems if upper is None else min(upper, base.elems)
                if lower < 0 or (upper is not None and upper < 0):
                    return UNKNOWN
                return _ArrayVal(max(0, stop - lower), base.itemsize,
                                 base.dtype_name)
            if isinstance(base, list) and isinstance(lower, int) \
                    and step == 1 and (upper is None
                                       or isinstance(upper, int)):
                return base[lower:upper]
            return UNKNOWN
        index = self._eval(node.slice, env)
        if isinstance(base, list) and isinstance(index, int) \
                and -len(base) <= index < len(base):
            return base[index]
        return UNKNOWN

    # -- calls ----------------------------------------------------------------

    def _eval_call(self, node: ast.Call, env: Dict[str, Any]) -> Any:
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(kw.arg is None for kw in node.keywords):
            if self.ctx.has_comm(node):
                raise _Bail(f"{self.func_name}: starred arguments in a "
                            "communicating call")
            return UNKNOWN
        fn = node.func
        if isinstance(fn, ast.Attribute):
            return self._eval_method(node, fn, env)
        if isinstance(fn, ast.Name):
            return self._eval_named_call(node, fn.id, env)
        if self.ctx.has_comm(node):
            raise _Bail(f"{self.func_name}: call through an unsupported "
                        "callee expression around communication")
        return UNKNOWN

    def _args_kwargs(self, node: ast.Call, env: Dict[str, Any],
                     ) -> Tuple[List[Any], Dict[str, Any]]:
        args = [self._eval(a, env) for a in node.args]
        kwargs = {kw.arg: self._eval(kw.value, env) for kw in node.keywords}
        return args, kwargs

    def _eval_method(self, node: ast.Call, fn: ast.Attribute,
                     env: Dict[str, Any]) -> Any:
        base = self._eval(fn.value, env)
        attr = fn.attr
        if isinstance(base, _CommVal):
            return self._comm_method(node, attr, env)
        if isinstance(base, _RequestVal):
            if attr == "wait":
                return self._record_wait((base.op_index,), node.lineno)
            if attr in ("test", "waitany"):
                raise _Bail(f"{self.func_name}: data-dependent request "
                            f"completion via .{attr}() (line {node.lineno})")
            return UNKNOWN
        if attr == "waitall":
            # Request.waitall([...]) -- by far the common spelling; the
            # base class name itself resolves to UNKNOWN
            args, _ = self._args_kwargs(node, env)
            if len(args) == 1 and isinstance(args[0], list) \
                    and all(isinstance(r, _RequestVal) for r in args[0]):
                return self._record_wait(
                    tuple(r.op_index for r in args[0]), node.lineno)
            raise _Bail(f"{self.func_name}: waitall over an unknown "
                        f"request set (line {node.lineno})")
        if isinstance(base, list):
            args, _ = self._args_kwargs(node, env)
            if attr == "append" and len(args) == 1:
                base.append(args[0])
                return None
            if attr == "extend" and len(args) == 1 \
                    and isinstance(args[0], list):
                base.extend(args[0])
                return None
            if attr == "clear":
                base.clear()
                return None
            if attr == "pop" and not args and base:
                return base.pop()
            return UNKNOWN
        # numpy constructors through a module alias
        if isinstance(fn.value, ast.Name) \
                and fn.value.id in self.ctx.np_aliases:
            return self._numpy_call(node, attr, env)
        if attr in COMMUNICATION_METHODS or attr in _BAIL_METHODS:
            raise _Bail(f"{self.func_name}: .{attr}() on an unknown object "
                        f"-- possibly a communicator (line {node.lineno})")
        # module-qualified helper with a known summary
        if isinstance(fn.value, ast.Name):
            summary = self.ctx.env.get(f"{fn.value.id}.{attr}")
            if summary is not None and (summary.calls_blocking
                                        or summary.calls_collective):
                raise _Bail(f"{self.func_name}: cross-module communicating "
                            f"helper {fn.value.id}.{attr}() "
                            f"(line {node.lineno})")
        args, _ = self._args_kwargs(node, env)
        if any(isinstance(a, _CommVal) for a in args):
            raise _Bail(f"{self.func_name}: communicator passed into "
                        f"unresolved .{attr}() (line {node.lineno})")
        return UNKNOWN

    def _numpy_call(self, node: ast.Call, attr: str,
                    env: Dict[str, Any]) -> Any:
        args, kwargs = self._args_kwargs(node, env)
        if attr in _NUMPY_CTORS:
            elems: Any = UNKNOWN
            if attr == "arange":
                shape_args = [a for a in args if not isinstance(a, _DTypeVal)]
                if len(shape_args) == 1 and isinstance(shape_args[0], int):
                    elems = max(0, shape_args[0])
            elif args:
                shape = args[0]
                if isinstance(shape, int):
                    elems = shape
                elif isinstance(shape, list) \
                        and all(isinstance(d, int) for d in shape):
                    elems = 1
                    for d in shape:
                        elems *= d
            dtype = kwargs.get("dtype")
            if dtype is None and attr == "full" and len(args) >= 3 \
                    and isinstance(args[2], _DTypeVal):
                dtype = args[2]
            if dtype is None and attr in ("zeros", "empty", "ones") \
                    and len(args) >= 2 and isinstance(args[1], _DTypeVal):
                dtype = args[1]
            if isinstance(dtype, _DTypeVal):
                return _ArrayVal(elems, dtype.itemsize, dtype.name)
            if dtype is None:
                if attr == "arange":
                    return _ArrayVal(elems, 8, "int64")
                return _ArrayVal(elems, 8, "float64")
            return _ArrayVal(elems, UNKNOWN, None)
        return UNKNOWN

    def _eval_named_call(self, node: ast.Call, name: str,
                         env: Dict[str, Any]) -> Any:
        args, kwargs = self._args_kwargs(node, env)
        # nested function defined in this body
        local = env.get(name)
        if isinstance(local, _FuncVal):
            return self._inline(local.node, name, node, args, kwargs)
        if name in self.ctx.module_funcs and name not in env:
            return self._inline(self.ctx.module_funcs[name], name, node,
                                args, kwargs)
        if name in ("range",):
            ints = [a for a in args if isinstance(a, int)]
            if len(ints) == len(args) and 1 <= len(args) <= 3:
                return list(range(*args))  # _exec_for enforces MAX_UNROLL
            return UNKNOWN
        if name == "len":
            if args and isinstance(args[0], list):
                return len(args[0])
            if args and isinstance(args[0], _ArrayVal) \
                    and isinstance(args[0].elems, int):
                return args[0].elems
            return UNKNOWN
        if name in ("min", "max", "abs", "sum", "int", "float", "bool"):
            if all(isinstance(a, (int, float, bool)) for a in args) and args:
                try:
                    return {"min": min, "max": max, "abs": abs, "sum": sum,
                            "int": int, "float": float,
                            "bool": bool}[name](*args)
                except (TypeError, ValueError):
                    return UNKNOWN
            if name in ("min", "max", "sum") and len(args) == 1 \
                    and isinstance(args[0], list) \
                    and all(isinstance(v, (int, float)) for v in args[0]) \
                    and args[0]:
                return {"min": min, "max": max, "sum": sum}[name](args[0])
            return UNKNOWN
        if name == "enumerate" and args and isinstance(args[0], list):
            start = args[1] if len(args) > 1 and isinstance(args[1], int) \
                else 0
            return [[start + i, v] for i, v in enumerate(args[0])]
        if name == "zip" and args \
                and all(isinstance(a, list) for a in args):
            return [list(t) for t in zip(*args)]
        if name == "list" and args and isinstance(args[0], list):
            return list(args[0])
        if name == "sorted" and args and isinstance(args[0], list) \
                and not kwargs \
                and all(isinstance(v, (int, float)) for v in args[0]):
            return sorted(args[0])
        if name in self.ctx.typedbuffer_names:
            return self._typedbuffer_ctor(args, kwargs)
        if name in DATATYPE_NAMES:
            if any(a is UNKNOWN or isinstance(
                    a, (_CommVal, _ArrayVal, _TypedBufVal))
                    for a in args) or any(
                    v is UNKNOWN for v in kwargs.values()):
                return UNKNOWN
            datatype = construct_datatype(name, args, kwargs)
            return UNKNOWN if datatype is None else datatype
        summary = self.ctx.env.get(name)
        if summary is not None and (summary.calls_blocking
                                    or summary.calls_collective):
            raise _Bail(f"{self.func_name}: cross-module communicating "
                        f"helper {name}() (line {node.lineno})")
        if any(isinstance(a, _CommVal) for a in args) \
                or any(isinstance(v, _CommVal) for v in kwargs.values()):
            raise _Bail(f"{self.func_name}: communicator passed into "
                        f"unresolved {name}() (line {node.lineno})")
        return UNKNOWN

    def _typedbuffer_ctor(self, args: List[Any],
                          kwargs: Dict[str, Any]) -> Any:
        params = ["buffer", "datatype", "count", "offset_bytes"]
        bound = dict(zip(params, args))
        bound.update(kwargs)
        buffer = bound.get("buffer", UNKNOWN)
        datatype = bound.get("datatype", UNKNOWN)
        count = bound.get("count", 1)
        offset = bound.get("offset_bytes", 0)
        buf_bytes: Any = UNKNOWN
        if isinstance(buffer, _ArrayVal) and isinstance(buffer.nbytes, int) \
                and isinstance(offset, int):
            buf_bytes = buffer.nbytes - offset
        if not isinstance(datatype, Datatype):
            datatype = UNKNOWN
        if not isinstance(count, int):
            count = UNKNOWN
        return _TypedBufVal(buf_bytes, datatype, count)

    def _inline(self, func: ast.AST, name: str, node: ast.Call,
                args: List[Any], kwargs: Dict[str, Any]) -> Any:
        if name in self.inline_stack:
            raise _Bail(f"{self.func_name}: recursive helper {name}() "
                        f"(line {node.lineno})")
        if len(self.inline_stack) >= MAX_INLINE_DEPTH:
            raise _Bail(f"{self.func_name}: helper inlining depth exceeded "
                        f"at {name}() (line {node.lineno})")
        fargs = func.args
        if fargs.vararg is not None or fargs.kwarg is not None:
            raise _Bail(f"{self.func_name}: helper {name}() takes "
                        "*args/**kwargs")
        params = [a.arg for a in fargs.posonlyargs + fargs.args]
        given: Dict[str, Any] = {}
        for pos, value in enumerate(args):
            if pos < len(params):
                given[params[pos]] = value
        given.update(kwargs)
        callee_env = self._bind_params(func, given)
        self.inline_stack.append(name)
        try:
            self._exec_body(func.body, callee_env)
            result: Any = None
        except _Return as ret:
            result = ret.value
        finally:
            self.inline_stack.pop()
        return result

    # -- comm-op recording -----------------------------------------------------

    def _record(self, op: Op) -> int:
        if len(self.trace) >= MAX_OPS:
            raise _Bail(f"{self.func_name}: trace exceeds {MAX_OPS} "
                        "operations")
        self.trace.append(op)
        return op.index

    def _record_wait(self, waits_on: Tuple[int, ...], line: int) -> Any:
        self._record(Op(rank=self.rank, index=len(self.trace), kind="wait",
                        line=line, func=self.func_name, waits_on=waits_on))
        return UNKNOWN

    def _require_rank(self, value: Any, what: str, line: int,
                      wildcard_ok: bool = False) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Bail(f"{self.func_name}: data-dependent {what} "
                        f"(line {line})")
        if value == ANY and wildcard_ok:
            return ANY
        if not 0 <= value < self.size:
            raise _EndTrace()  # invalid rank raises MPIError at runtime
        return value

    def _require_tag(self, value: Any, line: int) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Bail(f"{self.func_name}: data-dependent tag "
                        f"(line {line})")
        return value

    def _bound(self, node: ast.Call, env: Dict[str, Any]) -> Dict[str, Any]:
        """The arguments of a ``comm.<method>(..)`` call by parameter
        name, as :class:`~repro.mpi.comm.Comm` binds them."""
        args, kwargs = self._args_kwargs(node, env)
        bound = dict(zip(COMM_PARAMS[node.func.attr], args))
        bound.update(kwargs)
        return bound

    def _payload(self, bound: Dict[str, Any],
                 ) -> Tuple[Any, Any, Any]:
        """Effective (datatype, count, capacity bytes) of one endpoint,
        mirroring ``repro.mpi.comm.as_typed``; ``None`` where unknown."""
        buffer = bound.get("buffer", UNKNOWN)
        datatype = bound.get("datatype", UNKNOWN)
        count = bound.get("count", UNKNOWN)
        offset = bound.get("offset_bytes", 0)
        if not isinstance(offset, int):
            offset = None
        if isinstance(buffer, _TypedBufVal):
            dt = buffer.datatype if isinstance(buffer.datatype, Datatype) \
                else None
            cnt = buffer.count if isinstance(buffer.count, int) else None
            cap = buffer.buf_bytes if isinstance(buffer.buf_bytes, int) \
                else None
            return dt, cnt, cap
        dt = datatype if isinstance(datatype, Datatype) else None
        cnt = count if isinstance(count, int) and not isinstance(
            count, bool) else None
        cap = None
        if isinstance(buffer, _ArrayVal):
            nbytes = buffer.nbytes
            if isinstance(nbytes, int) and offset is not None:
                cap = nbytes - offset
            if dt is None and buffer.dtype_name is not None:
                try:
                    dt = primitive_for(np.dtype(buffer.dtype_name))
                except Exception:
                    dt = None
            if cnt is None and dt is not None and cap is not None \
                    and dt.extent > 0:
                cnt = cap // int(dt.extent)
        return dt, cnt, cap

    def _comm_method(self, node: ast.Call, attr: str,
                     env: Dict[str, Any]) -> Any:
        line = node.lineno
        if attr in _BAIL_METHODS:
            raise _Bail(f"{self.func_name}: comm.{attr}() is outside the "
                        f"static model (line {line})")
        if attr in LOCAL_METHODS:
            return None
        if attr in ("isend", "send"):
            bound = self._bound(node, env)
            dest = self._require_rank(bound.get("dest", UNKNOWN),
                                      "destination", line)
            tag = self._require_tag(bound.get("tag", 0), line)
            dt, cnt, cap = self._payload(bound)
            idx = self._record(Op(
                rank=self.rank, index=len(self.trace), kind=attr, line=line,
                func=self.func_name, peer=dest, tag=tag, channel="typed",
                count=cnt, datatype=dt, buf_bytes=cap))
            return _RequestVal(idx) if attr == "isend" else None
        if attr in ("irecv", "recv"):
            bound = self._bound(node, env)
            source = self._require_rank(bound.get("source", ANY), "source",
                                        line, wildcard_ok=True)
            tag = self._require_tag(bound.get("tag", ANY), line)
            dt, cnt, cap = self._payload(bound)
            idx = self._record(Op(
                rank=self.rank, index=len(self.trace), kind=attr, line=line,
                func=self.func_name, peer=source, tag=tag, channel="typed",
                count=cnt, datatype=dt, buf_bytes=cap))
            return _RequestVal(idx) if attr == "irecv" else UNKNOWN
        if attr == "sendrecv":
            bound = self._bound(node, env)
            dest = self._require_rank(bound.get("dest", UNKNOWN),
                                      "destination", line)
            source = self._require_rank(bound.get("source", UNKNOWN),
                                        "source", line, wildcard_ok=True)
            sendtag = self._require_tag(bound.get("sendtag", 0), line)
            recvtag = bound.get("recvtag")
            if recvtag is None:
                recvtag = sendtag
            recvtag = self._require_tag(recvtag, line)
            sdt, scnt, scap = self._payload({"buffer":
                                             bound.get("sendbuffer",
                                                       UNKNOWN)})
            rdt, rcnt, rcap = self._payload({"buffer":
                                             bound.get("recvbuffer",
                                                       UNKNOWN)})
            # mirrors the implementation: irecv posts, isend posts, then
            # both complete under one wait
            ridx = self._record(Op(
                rank=self.rank, index=len(self.trace), kind="irecv",
                line=line, func=self.func_name, peer=source, tag=recvtag,
                channel="typed", count=rcnt, datatype=rdt, buf_bytes=rcap))
            sidx = self._record(Op(
                rank=self.rank, index=len(self.trace), kind="isend",
                line=line, func=self.func_name, peer=dest, tag=sendtag,
                channel="typed", count=scnt, datatype=sdt, buf_bytes=scap))
            self._record(Op(rank=self.rank, index=len(self.trace),
                            kind="wait", line=line, func=self.func_name,
                            waits_on=(ridx, sidx)))
            return UNKNOWN
        if attr == "isend_obj":
            bound = self._bound(node, env)
            dest = self._require_rank(bound.get("dest", UNKNOWN),
                                      "destination", line)
            tag = self._require_tag(bound.get("tag", 0), line)
            idx = self._record(Op(
                rank=self.rank, index=len(self.trace), kind="isend",
                line=line, func=self.func_name, peer=dest, tag=tag,
                channel="obj", eager=True))
            return _RequestVal(idx)
        if attr == "recv_obj":
            bound = self._bound(node, env)
            source = self._require_rank(bound.get("source", UNKNOWN),
                                        "source", line, wildcard_ok=True)
            tag = self._require_tag(bound.get("tag", UNKNOWN), line)
            self._record(Op(
                rank=self.rank, index=len(self.trace), kind="recv",
                line=line, func=self.func_name, peer=source, tag=tag,
                channel="obj"))
            return UNKNOWN
        if attr in COLLECTIVE_METHODS:
            root: Optional[int] = None
            root_pos = ROOT_ARG.get(attr)
            if root_pos is not None:
                args, kwargs = self._args_kwargs(node, env)
                value: Any = 0  # every rooted collective defaults root=0
                if "root" in kwargs:
                    value = kwargs["root"]
                elif len(args) > root_pos:
                    value = args[root_pos]
                if isinstance(value, int) and not isinstance(value, bool):
                    root = value
                else:
                    raise _Bail(f"{self.func_name}: data-dependent "
                                f"collective root (line {line})")
            self._record(Op(rank=self.rank, index=len(self.trace),
                            kind="coll", line=line, func=self.func_name,
                            coll=attr, root=root))
            return UNKNOWN
        # unknown comm attribute (config access etc.): evaluate arguments
        # for their effects and move on
        self._args_kwargs(node, env)
        return UNKNOWN


# -- function discovery and the rule driver -----------------------------------


def _called_names(tree: ast.Module) -> Set[str]:
    """Names invoked anywhere in the module -- such functions are
    helpers, verified inlined at their call sites, not as roots."""
    called: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name):
                called.add(fn.id)
            elif isinstance(fn, ast.Attribute):
                called.add(fn.attr)
    return called


def _comm_params(func: ast.AST) -> List[str]:
    """Parameters of ``func`` that are used as communicators."""
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    used: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr in COMM_ATTRIBUTES \
                and isinstance(node.value, ast.Name) \
                and node.value.id in params:
            used.add(node.value.id)
    for p in params:
        if p == "comm" and p not in used:
            used.add(p)
    return [p for p in params if p in used]


def _bytes_needed(datatype: Datatype, count: int) -> int:
    """Bytes a buffer must hold for ``count`` copies of ``datatype``: the
    compiled plan's end bound (the last copy only needs its
    furthest-reaching block)."""
    if count <= 0:
        return 0
    return compile_datatype(datatype, count).end_bytes


def _world_findings(result: WorldResult) -> Dict[Tuple, Dict[str, Any]]:
    """All findings of one model world, keyed for cross-size
    intersection."""
    out: Dict[Tuple, Dict[str, Any]] = {}
    for op in result.unmatched_sends:
        out[("MTC101", op.func, op.line)] = {
            "rule": "MTC101", "line": op.line, "func": op.func,
            "message": f"{op.describe()} is never received "
                       "under the model worlds",
        }
    for op in result.unmatched_recvs:
        out[("MTC102", op.func, op.line)] = {
            "rule": "MTC102", "line": op.line, "func": op.func,
            "message": f"{op.describe()} is never sent to "
                       "under the model worlds",
        }
    if result.divergence is not None:
        div = result.divergence
        line = max((l for _k, _r, l in div.per_rank.values()), default=0)
        func = next((op.func for t in result.traces.values() for op in t
                     if op.func), "")
        what = "kind" if div.kind_mismatch else "root"
        out[("MTC104", func)] = {
            "rule": "MTC104", "line": line, "func": func,
            "message": f"collective sequence diverges across ranks "
                       f"({what} mismatch at collective "
                       f"#{div.index}): {div.describe()}",
        }
    if result.deadlock is not None:
        dl = result.deadlock
        line = min((op.line for op in dl.blocked if op.line), default=0)
        func = next((op.func for op in dl.blocked if op.func), "")
        out[("MTC103", func)] = {
            "rule": "MTC103", "line": line, "func": func,
            "message": f"deterministic deadlock: {dl.describe()}",
        }
    for send, recv in result.matches:
        if send.channel != "typed":
            continue
        findings = _mtc105(send, recv)
        for suffix, message in findings:
            out[("MTC105", send.func, send.line, recv.line, suffix)] = {
                "rule": "MTC105", "line": recv.line or send.line,
                "func": send.func or recv.func, "message": message,
            }
    return out


def _mtc105(send: Op, recv: Op) -> List[Tuple[str, str]]:
    """Signature/truncation problems of one matched edge, as
    (kind-suffix, message) pairs."""
    problems: List[Tuple[str, str]] = []
    if isinstance(send.datatype, Datatype) \
            and isinstance(recv.datatype, Datatype) \
            and isinstance(send.count, int) and isinstance(recv.count, int):
        verdict = transfer_verdict(send.datatype, send.count,
                                   recv.datatype, recv.count)
        edge = (f"rank {send.rank} (line {send.line}) -> "
                f"rank {recv.rank} (line {recv.line})")
        if verdict.truncates:
            problems.append((
                "truncation",
                f"truncation on {edge}: send is {verdict.send_bytes} bytes "
                f"but the receive holds only {verdict.recv_bytes}",
            ))
        if not verdict.prefix_ok:
            problems.append((
                "prefix",
                f"signature mismatch on {edge}: send signature "
                f"[{render_signature(verdict.send_sig)}] is not a prefix "
                f"of receive signature "
                f"[{render_signature(verdict.recv_sig)}]",
            ))
    for op, side in ((send, "send"), (recv, "receive")):
        if isinstance(op.datatype, Datatype) and isinstance(op.count, int) \
                and isinstance(op.buf_bytes, int):
            need = _bytes_needed(op.datatype, op.count)
            if op.buf_bytes < need:
                problems.append((
                    f"extent-{side}",
                    f"{side} buffer on rank {op.rank} (line {op.line}) "
                    f"holds {op.buf_bytes} bytes but count={op.count} x "
                    f"{op.datatype!r} needs {need}",
                ))
    return problems


def check_module(tree: ast.Module, path: str, report: Report,
                 env: Optional[Dict[str, CallSummary]] = None,
                 stats: Optional[List[FunctionStat]] = None) -> None:
    """Run the protocol verifier over one parsed module.

    Every uncalled top-level function with a communicator parameter is
    executed under each model size of :data:`WORLD_SIZES`; a finding is
    reported only when present at every size that extracted.
    """
    ctx = _ModuleCtx(tree, path, env)
    called = _called_names(tree)
    for name, func in ctx.module_funcs.items():
        if name in called:
            continue
        comm_params = _comm_params(func)
        if len(comm_params) != 1:
            continue
        results: List[WorldResult] = []
        bails: List[Tuple[int, str]] = []
        for size in WORLD_SIZES:
            try:
                traces = {rank: _Extractor(ctx, rank, size).run(
                    func, comm_params[0]) for rank in range(size)}
            except _Bail as bail:  # some rank left the static model
                bails.append((size, bail.reason))
                continue
            results.append(verify_world(traces, size))
        if stats is not None:
            stats.append(FunctionStat(
                path=path, func=name,
                verified_sizes=tuple(r.size for r in results),
                bailed=tuple(bails),
                ops=max((r.num_ops for r in results), default=0)))
        if not results:
            continue
        per_size = [_world_findings(r) for r in results]
        common = set(per_size[0])
        for keys in per_size[1:]:
            common &= set(keys)
        sizes = "/".join(str(r.size) for r in results)
        for key in sorted(common, key=lambda k: (k[0], str(k[1:]))):
            payload = per_size[0][key]
            fname = payload["func"] or name
            report.add(
                payload["rule"],
                f"{fname}: {payload['message']} "
                f"(model sizes {sizes})",
                location=path,
                line=payload["line"] or func.lineno,
                key=(payload["rule"], path) + key[1:],
            )
