"""MUST-style MPI correctness analyzer for the simulated stack.

Four layers, one finding currency (:class:`Finding` / :class:`Report`),
and one static pipeline in one configuration: :func:`analyze_tree`
(files and directories) and :func:`analyze_source_set` (in-memory
``(path, text)`` pairs) always run the lint and dataflow layers over one
parsed project.  The ``repro.mpi`` method names every layer recognises
come from :mod:`repro.analyze.mpiapi`, which reads them off the library.

``repro.analyze.signatures``
    Datatype-signature matching built on typemap flattening: the
    prefix rule behind SIG001/SIG002.

``repro.analyze.runtime``
    :class:`RuntimeVerifier` subscribes to cluster observer events and
    checks wire-level signature matching, wait-for-graph deadlocks,
    request leaks, unmatched traffic, collective consistency and
    zero-byte synchronisation (DLK/REQ/P2P/COL/ZBS rules).

``repro.analyze.lint``
    AST rules over project and example code: bare excepts, O(N^2) block
    rescans, ``yield from`` discipline (LNT001-LNT006).

``repro.analyze.dataflow``
    CFG + fixpoint dataflow passes: request lifetime (REQ1xx), buffer
    use-after-isend (BUF1xx) and SPMD rank divergence (SPMD1xx).

The library's collectives are checked by execution instead:
``tests/test_collectives_explore.py`` runs every registered algorithm
under a :class:`RuntimeVerifier` over small worlds.

Shell entry point::

    python -m repro.analyze src examples tests
    python -m repro.analyze --format sarif -o out.sarif src
    python -m repro.analyze --run examples/ghost_exchange_2d.py

Deliberately broken programs live under a ``fixtures/`` directory, which
directory scans skip; naming such a file analyzes it.  The rule
catalogue is documented in ``docs/ANALYZE.md``.
"""

from repro.analyze.dataflow.driver import analyze_source_set, analyze_tree
from repro.analyze.findings import RULES, SEVERITIES, Finding, Report
from repro.analyze.runtime import RuntimeVerifier
from repro.analyze.signatures import render_signature, signature_prefix

__all__ = [
    "RULES",
    "SEVERITIES",
    "Finding",
    "Report",
    "RuntimeVerifier",
    "analyze_source_set",
    "analyze_tree",
    "render_signature",
    "signature_prefix",
]
