"""Static communication-plan extraction (PLAN1xx).

The paper's section 4.1/4.2 lesson is that the library already *knows*
the layout and volume set before communicating; this pass exploits the
same knowledge at analysis time.  For every collective / typed-send call
site whose counts and datatypes are statically constant, it:

1. symbolically evaluates the count list / datatype constructor chain
   (a small constant-propagation interpreter over module- and
   function-level assignments of literals, arithmetic and
   ``repro.datatypes`` constructors),
2. materialises the predicted per-peer **volume profile** in bytes and
   classifies it with the autotuner's bucket heuristic
   (:func:`repro.mpi.algorithms.tuning.volume_profile`),
3. builds a real :class:`SelectionContext` and reports which registry
   algorithm each selection policy (``mpich`` on the baseline config,
   ``adaptive`` on the optimized config) would pick, and
4. warns on pathological shapes:

   - **PLAN101** (warning): a sparse volume set (mostly-zero counts)
     feeding an Alltoallw-style exchange -- the zero-byte
     synchronisation traffic the binned algorithm of section 4.2.2
     removes,
   - **PLAN102** (warning): a heavy-outlier volume set feeding an
     Allgatherv-style collective -- the ring algorithm serialises on the
     largest contribution (Eq. 1 territory),
   - **PLAN103** (warning): a constant low-density datatype at a
     communication call site (SIG004's cost model applied where the data
     actually moves).

The extracted :class:`CommunicationPlan` records are cross-checkable
against a live :class:`repro.mpi.trace.MessageTrace`: the plan's
``volumes`` are exactly the per-peer byte counts the trace observes when
the call executes with the same arguments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analyze.findings import Report
from repro.analyze.mpiapi import COUNTS_ARG
from repro.analyze.signatures import (
    DATATYPE_NAMES,
    MAX_STATIC_BLOCKS,
    construct_datatype,
    low_density,
)

#: call-site method names analysed, mapped to their plan "shape"
PLANNED_METHODS = {
    "allgatherv": "pervolume",   # counts = per-rank contribution
    "gatherv": "pervolume",
    "scatterv": "pervolume",
    "alltoallw": "perpeer",      # specs = per-peer messages
    "isend": "p2p",
    "send": "p2p",
    "irecv": "p2p",
    "recv": "p2p",
}


@dataclass
class CommunicationPlan:
    """One statically predicted communication at a call site."""

    path: str
    line: int
    function: str
    collective: str
    #: element counts when the call carries a count vector (else None)
    counts: Optional[List[int]] = None
    #: predicted per-peer/per-rank volumes in bytes
    volumes: Optional[List[int]] = None
    total_bytes: int = 0
    #: autotuner bucket class: zero / sparse / outlier / uniform
    profile: str = ""
    #: repr of the statically evaluated datatype (if any)
    datatype: Optional[str] = None
    dtype_size: int = 8
    contiguous: bool = True
    #: policy name -> algorithm the registry would select
    decisions: Dict[str, str] = field(default_factory=dict)
    #: the materialised Datatype object (not serialised)
    datatype_obj: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "collective": self.collective,
            "counts": self.counts,
            "volumes": self.volumes,
            "total_bytes": self.total_bytes,
            "profile": self.profile,
            "datatype": self.datatype,
            "dtype_size": self.dtype_size,
            "contiguous": self.contiguous,
            "decisions": self.decisions,
        }


# -- constant evaluation ------------------------------------------------------

class _NotConstant(Exception):
    pass


class _ConstEval:
    """Tiny abstract interpreter: literals, list arithmetic, and the
    ``repro.datatypes`` constructors."""

    def __init__(self, env: Dict[str, Any]):
        self.env = env

    def eval(self, node: ast.AST) -> Any:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                    node.value, bool):
                return node.value
            raise _NotConstant
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in DATATYPE_NAMES and not callable(
                    DATATYPE_NAMES[node.id]):
                return DATATYPE_NAMES[node.id]  # DOUBLE, INT, ...
            raise _NotConstant
        if isinstance(node, (ast.List, ast.Tuple)):
            return [self.eval(e) for e in node.elts]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = self.eval(node.operand)
            if isinstance(v, (int, float)):
                return -v
            raise _NotConstant
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.ListComp):
            raise _NotConstant  # could be supported; keep v1 simple
        raise _NotConstant

    def _binop(self, node: ast.BinOp) -> Any:
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = node.op
        if isinstance(op, ast.Mult) and (
                isinstance(left, list) or isinstance(right, list)):
            seq, n = (left, right) if isinstance(left, list) else (right, left)
            if isinstance(n, int) and 0 <= n * len(seq) <= MAX_STATIC_BLOCKS:
                return seq * n  # [0] * nprocs
            raise _NotConstant
        if isinstance(left, list) and isinstance(right, list) \
                and isinstance(op, ast.Add):
            return left + right
        if not isinstance(left, (int, float)) or not isinstance(
                right, (int, float)):
            raise _NotConstant
        try:
            if isinstance(op, ast.Add):
                return left + right
            if isinstance(op, ast.Sub):
                return left - right
            if isinstance(op, ast.Mult):
                return left * right
            if isinstance(op, ast.FloorDiv):
                return left // right
            if isinstance(op, ast.Mod):
                return left % right
            if isinstance(op, ast.Pow) and abs(right) <= 64:
                return left ** right
        except (ZeroDivisionError, OverflowError) as exc:
            raise _NotConstant from exc
        raise _NotConstant

    def _call(self, node: ast.Call) -> Any:
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        datatype = construct_datatype(
            name, [self.eval(a) for a in node.args],
            {kw.arg: self.eval(kw.value) for kw in node.keywords
             if kw.arg is not None})
        if datatype is None:
            raise _NotConstant
        return datatype


def _constant_env(func: ast.AST, module: ast.Module) -> Dict[str, Any]:
    """Constants visible inside ``func``: module-level then local simple
    assignments, each evaluated against what is known so far.  A name
    assigned twice to different constants is dropped (flow-insensitive
    safety)."""
    env: Dict[str, Any] = {}
    poisoned: set = set()

    def feed(body: List[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets
                           if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                    and isinstance(stmt.target, ast.Name):
                targets, value = [stmt.target.id], stmt.value
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                    stmt.target, ast.Name):
                poisoned.add(stmt.target.id)
                continue
            else:
                continue
            for name in targets:
                if name in poisoned:
                    continue
                try:
                    val = _ConstEval(env).eval(value)
                except _NotConstant:
                    env.pop(name, None)
                    poisoned.add(name)
                    continue
                if name in env and env[name] != val:
                    env.pop(name)
                    poisoned.add(name)
                else:
                    env[name] = val

    feed(module.body)
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While, ast.comprehension)):
            # loop targets change per iteration
            tgt = getattr(node, "target", None)
            if isinstance(tgt, ast.Name):
                poisoned.add(tgt.id)
                env.pop(tgt.id, None)
    feed([s for s in ast.walk(func) if isinstance(
        s, (ast.Assign, ast.AnnAssign, ast.AugAssign))])
    return env


# -- plan extraction ----------------------------------------------------------

def _predict_decisions(collective: str, volumes: List[int],
                       dtype_size: int, contiguous: bool) -> Dict[str, str]:
    """Which algorithm would each selection policy pick for this call?"""
    from repro.mpi.algorithms.policies import AdaptivePolicy, MpichPolicy
    from repro.mpi.algorithms.registry import REGISTRY, SelectionContext
    from repro.mpi.config import MPIConfig
    from repro.util.costmodel import CostModel

    if collective not in REGISTRY.collectives():
        return {}
    ctx = SelectionContext(
        collective=collective, size=len(volumes),
        volumes=tuple(int(v) for v in volumes), dtype_size=dtype_size,
        contiguous=contiguous, config=MPIConfig.baseline(),
        cost=CostModel(),
    )
    out: Dict[str, str] = {}
    try:
        out["mpich"] = MpichPolicy(MPIConfig.baseline()).decide(ctx).algorithm
        out["adaptive"] = AdaptivePolicy(
            MPIConfig.optimized()).decide(ctx).algorithm
    except Exception:  # no applicable algorithm for this N: no prediction
        return out
    return out


def _datatype_of_call(call: ast.Call, ev: _ConstEval) -> Optional[Any]:
    from repro.datatypes.typemap import Datatype

    for kw in call.keywords:
        if kw.arg == "datatype":
            try:
                value = ev.eval(kw.value)
            except _NotConstant:
                return None
            return value if isinstance(value, Datatype) else None
    return None


def extract_plans(tree: ast.Module, path: str,
                  report: Optional[Report] = None,
                  ) -> Tuple[List[CommunicationPlan], Report]:
    """Extract static communication plans (and PLAN1xx findings) from one
    module AST."""
    report = report if report is not None else Report()
    plans: List[CommunicationPlan] = []
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for func in functions:
        calls = [node for node in ast.walk(func)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr in PLANNED_METHODS]
        if not calls:
            continue  # no call site to plan: skip the constant env
        ev = _ConstEval(_constant_env(func, tree))
        for node in calls:
            method = node.func.attr
            plan = _plan_call(node, method, PLANNED_METHODS[method],
                              func.name, path, ev)
            if plan is None:
                continue
            plans.append(plan)
            _plan_findings(plan, report)
    return plans, report


def _plan_call(node: ast.Call, method: str, shape: str, fname: str,
               path: str, ev: _ConstEval) -> Optional[CommunicationPlan]:
    datatype = _datatype_of_call(node, ev)
    dtype_size = datatype.size if datatype is not None else 8
    contiguous = datatype.is_contiguous() if datatype is not None else True
    counts: Optional[List[int]] = None
    if shape == "pervolume":
        counts_node = _argument(node, method)
        if counts_node is None:
            return None
        try:
            counts = ev.eval(counts_node)
        except _NotConstant:
            counts = None
        if not isinstance(counts, list) or not all(
                isinstance(c, int) and c >= 0 for c in counts) or not counts:
            counts = None
    if counts is None and datatype is None:
        return None  # nothing statically known: no plan
    volumes = [c * dtype_size for c in counts] if counts is not None else None
    plan = CommunicationPlan(
        path=path, line=node.lineno, function=fname, collective=method,
        counts=counts, volumes=volumes,
        total_bytes=sum(volumes) if volumes else 0,
        datatype=repr(datatype) if datatype is not None else None,
        dtype_size=dtype_size, contiguous=contiguous,
        datatype_obj=datatype,
    )
    if volumes is not None:
        from repro.mpi.algorithms.tuning import volume_profile

        plan.profile = volume_profile(volumes)
        registry_name = "allgatherv" if method in (
            "allgatherv", "gatherv", "scatterv") else method
        plan.decisions = _predict_decisions(
            registry_name, volumes, dtype_size, contiguous)
    return plan


def _argument(node: ast.Call, method: str) -> Optional[ast.AST]:
    """The ``counts`` argument of a count-vector call site."""
    for kw in node.keywords:
        if kw.arg == "counts":
            return kw.value
    pos = COUNTS_ARG[method]
    if len(node.args) > pos:
        return node.args[pos]
    return None


def _plan_findings(plan: CommunicationPlan, report: Report) -> None:
    decisions = ", ".join(
        f"{p}->{a}" for p, a in sorted(plan.decisions.items())) or "n/a"
    if plan.profile == "sparse":
        nz = sum(1 for v in plan.volumes if v > 0)
        report.add(
            "PLAN101",
            f"{plan.collective}() at this site has a statically sparse "
            f"volume set ({nz}/{len(plan.volumes)} peers nonzero): most "
            "messages are zero-byte synchronisation traffic; the binned "
            "algorithm (section 4.2.2) skips the zero bin entirely "
            f"[policies: {decisions}]",
            location=plan.path, line=plan.line,
            key=("PLAN101", plan.path, plan.line),
        )
    elif plan.profile == "outlier":
        vmax = max(plan.volumes)
        mean = plan.total_bytes / max(1, len(plan.volumes))
        report.add(
            "PLAN102",
            f"{plan.collective}() at this site has a heavy-outlier volume "
            f"set (max {vmax} B vs mean {mean:.0f} B): ring-style "
            "algorithms serialise on the largest contribution (Eq. 1); "
            f"prefer an adaptive/autotuned policy [policies: {decisions}]",
            location=plan.path, line=plan.line,
            key=("PLAN102", plan.path, plan.line),
        )
    density = (low_density(plan.datatype_obj)
               if plan.datatype_obj is not None else None)
    if density is not None:
        num_blocks, mean_len = density
        report.add(
            "PLAN103",
            f"{plan.collective}() at this site moves a statically "
            f"low-density datatype ({plan.datatype}: "
            f"{num_blocks} blocks of mean length "
            f"{mean_len:.1f} B); the section-4.1 cost model predicts "
            "pack slower than copy here -- restructure toward longer "
            "runs or enable the dual-context engine",
            location=plan.path, line=plan.line,
            key=("PLAN103", plan.path, plan.line),
        )


__all__ = ["CommunicationPlan", "extract_plans"]
