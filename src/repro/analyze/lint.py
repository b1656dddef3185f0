"""AST-based project lint (rules LNT001-LNT006).

Repo-specific invariants that generic linters do not know about:

- **LNT001** -- bare ``except:`` clauses (swallow ``SystemExit`` and
  ``KeyboardInterrupt``; always name the exception class),
- **LNT002** -- calling ``.flatten()`` / ``.pack()`` on a loop-invariant
  object inside a loop.  Flattening is cached per datatype but packing is
  not, and re-deriving block lists per iteration is exactly the O(N^2)
  rescan of flattened block lists the paper's section 4.1 eliminates,
- **LNT003** -- *dropped generators*: this codebase's blocking
  communication calls (``comm.send``, ``comm.barrier``, ``req.wait`` ...)
  are generator functions that do nothing unless driven with
  ``yield from``.  A bare ``comm.send(x, 1)`` statement silently sends
  nothing -- the single most common bug in simulated-process code,
- **LNT004** -- mutable default arguments,
- **LNT005** -- ``time.sleep`` in simulated code (wall-clock sleeps do not
  advance simulated time; charge ``yield Delay(..)`` or ``comm.cpu``),
- **LNT006** -- importing a concrete collective-algorithm implementation
  (``_ring``, ``_binned``, ...) from outside the algorithm subsystem.
  Which implementation runs is a *selection-rule* decision; go through
  :data:`repro.mpi.algorithms.REGISTRY` (or pass ``algorithm=...`` to the
  collective) instead of hard-wiring one.

The rules run inside the one analyzer pipeline
(:func:`repro.analyze.dataflow.driver.analyze_source_set`); every
``python -m repro.analyze`` run includes them.  The method names LNT003
and LNT006 look for come from :mod:`repro.analyze.mpiapi`.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Union

from repro.analyze.findings import Report
from repro.analyze.mpiapi import ALGORITHM_IMPLEMENTATIONS, GENERATOR_METHODS

#: rebuild-in-loop methods for LNT002
RESCAN_METHODS = frozenset({"flatten", "pack"})

#: path fragments exempt from LNT006 (the algorithm subsystem itself)
_LNT006_EXEMPT = ("repro/mpi/algorithms", "repro/mpi/collectives")


def _dotted_path(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _assigned_names(node: ast.AST) -> set:
    """Names and dotted attribute paths (re)bound anywhere inside
    ``node`` (``x``, ``self.dtype`` ...)."""
    out: set = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, (ast.Store, ast.Del)):
            dotted = _dotted_path(sub)
            if dotted is not None:
                out.add(dotted)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(sub.name)
    return out


def _prefixes(dotted: str) -> List[str]:
    """``a.b.c`` -> [``a``, ``a.b``, ``a.b.c``]."""
    parts = dotted.split(".")
    return [".".join(parts[:i + 1]) for i in range(len(parts))]


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, report: Report):
        self.path = path
        self.report = report
        self._loop_invariant_names: List[set] = []

    # LNT001 ---------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report.add(
                "LNT001",
                "bare 'except:'; catch a named exception class instead",
                location=self.path, line=node.lineno,
            )
        self.generic_visit(node)

    # LNT004 ---------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        label = getattr(node, "name", "<lambda>")
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.report.add(
                    "LNT004",
                    f"mutable default argument in {label}(); "
                    "use None and create it inside the function",
                    location=self.path, line=default.lineno,
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_dropped_generators(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # lambda defaults (`lambda x=[]: ...`) evaluate once like any
        # other default -- including lambdas nested in other lambdas,
        # which generic_visit reaches recursively
        self._check_defaults(node)
        self.generic_visit(node)

    # LNT003 ---------------------------------------------------------------
    def _check_dropped_generators(self, fn: ast.FunctionDef) -> None:
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Expr):
                continue
            call = sub.value
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in GENERATOR_METHODS
            ):
                self.report.add(
                    "LNT003",
                    f"result of blocking call '.{func.attr}(...)' is "
                    "discarded; generators do nothing unless driven with "
                    "'yield from'",
                    location=self.path, line=sub.lineno,
                )

    # LNT002 / LNT005 ------------------------------------------------------
    def _visit_loop(self, node: Union[ast.For, ast.While]) -> None:
        assigned = _assigned_names(node)
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)):
                continue
            if sub.func.attr not in RESCAN_METHODS:
                continue
            recv = sub.func.value
            # flag calls on a plain name -- or an attribute chain rooted
            # at one (`self.dtype.flatten()`) -- that the loop never
            # rebinds: a loop-invariant datatype being re-flattened per
            # trip.  Rebinding any prefix of the chain (`self.dtype = ..`
            # or `self = ..`) makes the receiver loop-variant.
            dotted = _dotted_path(recv)
            if dotted is not None and not any(
                    p in assigned for p in _prefixes(dotted)):
                self.report.add(
                    "LNT002",
                    f"'{dotted}.{sub.func.attr}()' re-derives its block "
                    "list on every loop iteration; hoist it out of the loop",
                    location=self.path, line=sub.lineno,
                )
        self.generic_visit(node)

    visit_For = _visit_loop
    visit_While = _visit_loop

    # LNT006 ---------------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        exempt = any(frag in self.path.replace("\\", "/")
                     for frag in _LNT006_EXEMPT)
        if not exempt and module.startswith("repro.mpi.collectives"):
            for alias in node.names:
                if alias.name in ALGORITHM_IMPLEMENTATIONS:
                    self.report.add(
                        "LNT006",
                        f"concrete algorithm '{alias.name}' imported from "
                        f"{module}; dispatch through "
                        "repro.mpi.algorithms.REGISTRY (or pass "
                        "algorithm=...) instead",
                        location=self.path, line=node.lineno,
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self.report.add(
                "LNT005",
                "time.sleep does not advance simulated time; "
                "yield Delay(seconds) or comm.cpu(seconds) instead",
                location=self.path, line=node.lineno,
            )
        self.generic_visit(node)
