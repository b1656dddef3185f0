"""Whole-program dataflow analysis: CFG + fixpoint engine + rule passes.

This package is the *flow-sensitive* tier of the analyzer.  Where
:mod:`repro.analyze.lint` looks at one statement at a time, the passes
here build a control-flow graph per function (:mod:`.cfg`), run gen-kill
fixpoint lattices over it (:mod:`.engine` -- reaching definitions and
liveness), and ask path questions the lint tier cannot:

``repro.analyze.dataflow.requests``  (REQ1xx / BUF1xx)
    Request-lifetime analysis: a nonblocking request that can reach
    function exit, or be rebound, without ``wait()``/``test()`` executing
    on *every* path; generator objects assigned but never driven (the
    dataflow-complete LNT003); and writes to a send buffer between the
    ``isend`` and the wait that completes it.

``repro.analyze.dataflow.spmd``  (SPMD1xx)
    Rank-divergence analysis: a collective or blocking call dominated by
    a branch whose condition is tainted by ``comm.rank`` -- the static
    twin of the runtime COL001/COL002 checks -- and rank-dependent early
    exits ahead of a collective.

Entry points: :func:`analyze_tree` (files/directories) and
:func:`analyze_source_set` (in-memory text) in
:mod:`repro.analyze.dataflow.driver` -- the one pipeline that also runs
the lint pass.
"""

from repro.analyze.dataflow.cfg import CFG, CFGNode, build_cfg
from repro.analyze.dataflow.callgraph import Project, strongly_connected
from repro.analyze.dataflow.driver import analyze_source_set, analyze_tree
from repro.analyze.dataflow.engine import (
    DataflowSolution,
    liveness,
    reaching_definitions,
)
from repro.analyze.dataflow.summaries import compute_summaries, module_envs

__all__ = [
    "CFG",
    "CFGNode",
    "DataflowSolution",
    "Project",
    "analyze_source_set",
    "analyze_tree",
    "build_cfg",
    "compute_summaries",
    "liveness",
    "module_envs",
    "reaching_definitions",
    "strongly_connected",
]
