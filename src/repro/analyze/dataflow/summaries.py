"""Transitive per-function summaries over the project call graph.

A function's own body answers "does *this body* wait parameter 0?";
that misses every helper-of-a-helper, any request a function *returns*,
and rank taint flowing out through return values.  This module computes
the :class:`~repro.analyze.dataflow.engine.CallSummary` fields
*transitively*:

- ``waits_params``: the function waits parameter *i* directly **or**
  passes it (positionally or by keyword) into a callee that waits the
  receiving parameter;
- ``calls_collective`` / ``calls_blocking``: directly or through any
  resolved callee;
- ``returns_request`` / ``request_kind``: some ``return`` hands back a
  pending request the function created (directly via
  ``isend``/``irecv``/``isend_obj``, or by forwarding a callee's
  returned request) -- the caller adopts the wait obligation;
- ``returns_tainted``: some ``return`` value is rank-derived, so
  ``if helper(comm):`` guards are rank-dependent branches in callers.

Callee resolution covers plain-``Name`` calls and the two qualified
shapes of :func:`~repro.analyze.dataflow.engine.resolve_call_summary`:
module-qualified ``m.helper(...)`` (via the ``"m.helper"`` environment
keys built for module aliases) and same-class ``self.helper(...)``
(via ``"self.helper"`` keys, published only when exactly one top-level
class of the module defines the method).

Order and termination
---------------------

Summaries are computed bottom-up over the Tarjan condensation from
:func:`repro.analyze.dataflow.callgraph.strongly_connected`: every
callee's final summary exists before its callers are summarized.
Recursive components are iterated to a *local fixpoint*: members start
from their direct (one-level) summaries and are re-summarized against
each other until nothing changes.  All summary fields live in finite
lattices (bit flags, subsets of a fixed parameter list) and the
transfer is monotone, so the fixpoint exists; the iteration is still
capped at :data:`MAX_SCC_ITERATIONS` as a widening backstop -- hitting
the cap keeps the (sound, possibly less precise) current summaries.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from repro.analyze.dataflow.callgraph import (
    FunctionRef,
    ModuleInfo,
    Project,
    strongly_connected,
)
from repro.analyze.dataflow.engine import (
    CallSummary,
    completed_names,
    request_kind,
    resolve_call_summary,
    waited_arguments,
)
from repro.analyze.dataflow.spmd import expr_tainted, tainted_names
from repro.analyze.mpiapi import BLOCKING_METHODS, COLLECTIVE_METHODS

__all__ = ["MAX_SCC_ITERATIONS", "compute_summaries", "module_envs"]

#: widening backstop for recursive components (the lattice is finite, so
#: genuine divergence is impossible; this guards against pathological
#: component sizes)
MAX_SCC_ITERATIONS = 32


def _request_locals(func: ast.AST,
                    env: Dict[str, CallSummary]) -> Dict[str, str]:
    """local name -> kind, for names ever assigned a fresh request."""
    out: Dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets: Iterable[ast.AST] = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        kind = request_kind(value, env)
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = kind
    return out


def _summarize(name: str, func: ast.AST,
               env: Dict[str, CallSummary]) -> CallSummary:
    """Summarize one function body against callee summaries in ``env``."""
    # keyword-only params ride at the end: positional call-site mapping
    # stays index-accurate, keyword mapping finds them by name
    params = [a.arg for a in (func.args.posonlyargs + func.args.args
                              + func.args.kwonlyargs)]
    param_index = {p: i for i, p in enumerate(params)}
    waits: Set[int] = set()
    calls_collective = False
    calls_blocking = False

    for call in (node for node in ast.walk(func)
                 if isinstance(node, ast.Call)):
        fn = call.func
        if isinstance(fn, ast.Attribute):
            calls_collective |= fn.attr in COLLECTIVE_METHODS
            calls_blocking |= fn.attr in BLOCKING_METHODS
        waited = completed_names(call)
        callee, offset = resolve_call_summary(fn, env)
        if callee is not None:
            calls_collective |= callee.calls_collective
            calls_blocking |= callee.calls_blocking
            # waited callee parameters map back onto our own parameters
            waited |= waited_arguments(call, callee, offset)
        waits.update(param_index[n] for n in waited if n in param_index)

    request_locals = _request_locals(func, env)
    returns_request = False
    returned_kind = "send"
    tainted = tainted_names(func, env)
    returns_tainted = False
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            continue
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        kind = request_kind(node.value, env)
        if kind is None and isinstance(node.value, ast.Name):
            kind = request_locals.get(node.value.id)
        if kind is not None and not returns_request:
            returns_request = True
            returned_kind = kind
        if expr_tainted(node.value, tainted, env):
            returns_tainted = True
    return CallSummary(name, params, waits, calls_collective, calls_blocking,
                       returns_request=returns_request,
                       request_kind=returned_kind,
                       returns_tainted=returns_tainted)


def _env_for(project: Project, module: ModuleInfo,
             summaries: Dict[FunctionRef, CallSummary],
             ) -> Dict[str, CallSummary]:
    """Callee summaries visible inside ``module``, restricted to what
    has been computed so far.  Keys:

    - plain names for local functions and resolved ``from ... import``
      bindings;
    - ``"alias.fn"`` for every function of a module bound by
      ``import pkg.mod as alias`` / ``from pkg import mod`` that
      resolves inside the analyzed set;
    - ``"self.m"`` for methods defined by exactly *one* top-level class
      of this module (more than one definer is ambiguous at a bare
      ``self.m(...)`` site, so no key is published).
    """
    env: Dict[str, CallSummary] = {}
    for local in module.functions:
        ref = (module.path, local)
        if ref in summaries:
            env[local] = summaries[ref]
    for local in module.imports:
        ref = project.resolve(module, local)
        if ref is not None and ref in summaries and local not in env:
            env[local] = summaries[ref]
    # module-qualified callees: both import styles that bind a module
    aliases = dict(module.module_aliases)
    for local, (target, remote) in module.imports.items():
        if local not in aliases:
            aliases[local] = target + (remote,)
    for local, target in aliases.items():
        target_mod = project._resolve_module(target)
        if target_mod is None:
            continue
        for fname in target_mod.functions:
            ref = (target_mod.path, fname)
            key = f"{local}.{fname}"
            if ref in summaries and key not in env:
                env[key] = summaries[ref]
    # same-class method callees, where unambiguous in this module
    for mname, owners in module.method_owners.items():
        if len(owners) != 1:
            continue
        ref = (module.path, f"{owners[0]}.{mname}")
        if ref in summaries:
            env[f"self.{mname}"] = summaries[ref]
    return env


def compute_summaries(project: Project) -> Dict[FunctionRef, CallSummary]:
    """Transitive summaries for every top-level function in ``project``,
    computed bottom-up over the call-graph condensation."""
    edges = project.call_edges()
    summaries: Dict[FunctionRef, CallSummary] = {}
    for scc in strongly_connected(project.function_refs(), edges):
        # seed every member so mutually recursive calls resolve during
        # the component's local fixpoint iteration
        for ref in scc:
            module = project.modules[ref[0]]
            env = _env_for(project, module, summaries)
            summaries[ref] = _summarize(ref[1], project.function(ref), env)
        if len(scc) == 1 and scc[0] not in edges.get(scc[0], []):
            continue  # non-recursive: one pass is exact
        for _ in range(MAX_SCC_ITERATIONS):
            changed = False
            for ref in scc:
                module = project.modules[ref[0]]
                env = _env_for(project, module, summaries)
                new = _summarize(ref[1], project.function(ref), env)
                if new != summaries[ref]:
                    summaries[ref] = new
                    changed = True
            if not changed:
                break
    return summaries


def module_envs(project: Project,
                summaries: Optional[Dict[FunctionRef, CallSummary]] = None,
                ) -> Dict[str, Dict[str, CallSummary]]:
    """Per-module ``local name -> CallSummary`` environments, ready to
    prefill the rule passes' ``summary_cache``."""
    if summaries is None:
        summaries = compute_summaries(project)
    return {
        path: _env_for(project, module, summaries)
        for path, module in project.modules.items()
    }
