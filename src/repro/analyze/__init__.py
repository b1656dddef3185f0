"""MUST-style MPI correctness analyzer for the simulated stack.

Five layers, one finding currency (:class:`Finding` / :class:`Report`),
and one static pipeline in one configuration: :func:`analyze_tree`
(files and directories) and :func:`analyze_source_set` (in-memory
``(path, text)`` pairs) always run the lint, dataflow and protocol layers
over one parsed project.  The
``repro.mpi`` method names every layer recognises come from
:mod:`repro.analyze.mpiapi`, which reads them off the library.

``repro.analyze.signatures``
    Static datatype analysis built on typemap flattening: the
    send/receive signature-compatibility and truncation verdict behind
    SIG001/SIG002 and MTC105.

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

``repro.analyze.protocol``
    Cross-rank protocol verification: each function is abstractly
    executed per model rank (world sizes 2/3/4), the per-rank traces are
    joined into a static match graph (:mod:`repro.analyze.matchgraph`),
    and unmatched envelopes, deterministic deadlocks, collective
    divergence and signature-incompatible matched pairs are proved
    statically (MTC101-MTC105).

Shell entry point::

    python -m repro.analyze src examples tests
    python -m repro.analyze --format sarif -o out.sarif src
    python -m repro.analyze --protocol-stats src
    python -m repro.analyze --run examples/ghost_exchange_2d.py

Deliberately broken programs live under a ``fixtures/`` directory, which
directory scans skip; naming such a file analyzes it.  The rule
catalogue is documented in ``docs/ANALYZE.md``.
"""

from repro.analyze.dataflow.driver import analyze_source_set, analyze_tree
from repro.analyze.findings import RULES, SEVERITIES, Finding, Report
from repro.analyze.runtime import RuntimeVerifier
from repro.analyze.matchgraph import check_collectives, match_p2p, verify_world
from repro.analyze.protocol import check_module as check_protocol
from repro.analyze.signatures import (
    TransferVerdict,
    full_signature,
    render_signature,
    signature_prefix,
    transfer_verdict,
)

__all__ = [
    "RULES",
    "SEVERITIES",
    "Finding",
    "Report",
    "RuntimeVerifier",
    "TransferVerdict",
    "analyze_source_set",
    "analyze_tree",
    "check_collectives",
    "check_protocol",
    "full_signature",
    "match_p2p",
    "render_signature",
    "signature_prefix",
    "transfer_verdict",
    "verify_world",
]
