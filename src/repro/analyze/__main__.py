"""Command-line entry point: ``python -m repro.analyze``.

Every run goes through the one analyzer pipeline
(:func:`repro.analyze.dataflow.driver.analyze_tree`) in its one
configuration:

``python -m repro.analyze src examples tests``
    Analyze every ``.py`` file under the given files/directories: the
    lint rules (LNT001-LNT006) and the CFG/fixpoint dataflow passes
    (REQ1xx request lifetime, BUF1xx buffer aliasing, SPMD1xx rank
    divergence).  Exit code 1 if anything actionable is found.

``python -m repro.analyze --run examples/ghost_exchange_2d.py``
    Additionally *execute* the script(s), each with ``sys.argv`` set to
    ``[script]`` and every :class:`Cluster` it creates instrumented by a
    :class:`RuntimeVerifier`, then report runtime findings (deadlocks,
    leaked requests, signature mismatches, collective inconsistencies,
    zero-byte audits).  Every path must then be a ``.py`` script.
    Deadlocks and MPI errors become findings; a script that dies of any
    other exception still gets its report printed, and the exception
    then propagates.

Output:

``--format text|json|sarif`` selects the emitter (SARIF 2.1.0 feeds CI
annotations); ``--output FILE``, which needs ``json`` or ``sarif``,
writes that document to a file while keeping the human-readable summary
on stdout.  A directory scan skips ``fixtures/`` directories
(deliberately broken inputs); a file named on the command line is always
analyzed.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from typing import List

from repro.analyze.dataflow.driver import analyze_tree
from repro.analyze.findings import Report
from repro.analyze.runtime import RuntimeVerifier


def _run_verified(script: str, report: Report) -> None:
    """Execute ``script`` with auto-attached runtime verifiers and
    ``sys.argv = [script]``, as if it ran on its own."""
    from repro.mpi.comm import Cluster, MPIError
    from repro.simtime.engine import SimulationDeadlock

    verifiers: List[RuntimeVerifier] = []
    original_init = Cluster.__init__
    original_run = Cluster.run

    def instrumented_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        verifiers.append(RuntimeVerifier.attach(self))

    def instrumented_run(self, fn, *args, **kwargs):
        # record deadlocks on the attached verifier even when the script
        # drives cluster.run itself (and possibly swallows the exception)
        try:
            return original_run(self, fn, *args, **kwargs)
        except SimulationDeadlock as exc:
            for verifier in verifiers:
                if verifier.cluster is self and verifier.deadlock is None:
                    verifier.deadlock = exc
            raise

    Cluster.__init__ = instrumented_init
    Cluster.run = instrumented_run
    original_argv = sys.argv
    sys.argv = [script]
    try:
        runpy.run_path(script, run_name="__main__")
    except (SimulationDeadlock, MPIError):
        pass  # already recorded on the verifier; reported below
    finally:
        sys.argv = original_argv
        Cluster.__init__ = original_init
        Cluster.run = original_run
        for verifier in verifiers:
            report.extend(verifier.finalize())


def _parse(argv: List[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="MPI correctness analyzer: lint, CFG/dataflow "
                    "analysis and runtime verification.",
    )
    parser.add_argument("paths", nargs="+",
                        help="python files or directories to analyze")
    parser.add_argument("--run", action="store_true",
                        help="also execute the given script(s) under a "
                             "runtime verifier")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="fmt",
                        help="output format (default: text)")
    parser.add_argument("--output", "-o", metavar="FILE",
                        help="write the json/sarif document to FILE "
                             "(text summary stays on stdout)")
    parser.add_argument("--show-info", action="store_true",
                        help="include informational findings in the output")
    args = parser.parse_args(argv)
    if args.output and args.fmt == "text":
        parser.error("--output writes a json or sarif document; "
                     "add --format json or --format sarif")
    if args.run:
        for path in args.paths:
            if not path.endswith(".py"):
                parser.error(f"--run executes python scripts; {path!r} "
                             "is not a .py file")
    return args


def _emit(args: argparse.Namespace, report: Report) -> None:
    """Print ``report`` in the chosen format (and write ``--output``)."""
    document = None
    if args.fmt == "json":
        from repro.analyze.emit import to_json

        document = to_json(report)
    elif args.fmt == "sarif":
        from repro.analyze.emit import to_sarif

        document = to_sarif(report)

    if document is not None and args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(document + "\n")
        document = None  # fall through to the text summary on stdout

    if document is not None:
        print(document)
    else:
        show = (("error", "warning", "info") if args.show_info
                else ("error", "warning"))
        print(report.render(show=show))


def main(argv: List[str] | None = None) -> int:
    args = _parse(argv)
    try:
        report = analyze_tree(args.paths)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2

    if args.run:
        for path in args.paths:
            try:
                _run_verified(path, report)
            except Exception:
                # a script that dies of a non-MPI error (a DatatypeError
                # from an undersized receive buffer, say): report what
                # the verifiers saw, then let the traceback follow
                _emit(args, report)
                raise
    _emit(args, report)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
