"""Command-line entry point: regenerate the paper's figures and run the gates.

Usage::

    python -m repro.bench figures                # all figures (several min)
    python -m repro.bench figures fig12 fig14a   # a selection
    python -m repro.bench figures --quick        # reduced sweeps
    python -m repro.bench figures --quick --profile --emit-json out.json \
        --trace-out trace.json                   # + repro.prof instrumentation
    python -m repro.bench guidelines             # datatype guideline gate
    python -m repro.bench assembly --quick       # repeated-assembly gate
    python -m repro.bench identity               # == IDENTITY.json (bench.identity)

Every subcommand produces figure tables and, for the two gates, a list of
violations; the shared options then apply the same way to each of them.
``--emit-json`` writes a ``repro-bench/1`` document embedding the figures
(and, when profiling, the whole-session profile report).
``--profile`` attaches a :class:`repro.prof.Profiler` to every cluster the
run builds and prints the Fig. 13-style pack/compute/wire/wait breakdown;
``--trace-out`` (Chrome trace-event file for ``chrome://tracing`` /
Perfetto), ``--critpath-out`` and ``--flame-out`` imply it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import FigureData, figures, identity, print_figure

ALL = ["fig12", "fig13", "fig14a", "fig14b", "fig15", "fig16", "fig17"]


def _figure_name(name: str) -> str:
    if name not in ALL:
        raise argparse.ArgumentTypeError(
            f"unknown figure {name!r}; choose from {ALL}")
    return name


def _figure_kwargs(name: str, quick: bool, seed: int) -> dict:
    kwargs = {"seed": seed}
    if quick and name == "fig15":
        kwargs["procs"] = (2, 4, 8, 16, 32)
    if quick and name == "fig16":
        kwargs["procs"] = (2, 4, 8, 16)
    if quick and name == "fig17":
        kwargs["procs"] = (4, 8)
        kwargs["grid"] = (48, 48, 48)
    return kwargs


def _figures(args: argparse.Namespace):
    produced = []
    for name in args.figs or ALL:
        out = getattr(figures, name)(
            **_figure_kwargs(name, args.quick, args.seed))
        produced.extend([out] if isinstance(out, FigureData) else out)
    return produced, []


def _guidelines(args: argparse.Namespace):
    from repro.bench.guidelines import run_guidelines

    fig, violations = run_guidelines(scale=256 if args.quick else 512)
    return [fig], violations


def _assembly(args: argparse.Namespace):
    from repro.bench.assembly import assembly_figure

    fig, problems = assembly_figure(quick=args.quick)
    return [fig], problems


def _figure_doc(fig: FigureData) -> dict:
    return {"title": fig.title, "columns": fig.columns,
            "rows": fig.rows, "notes": fig.notes}


def _profile_outputs(args: argparse.Namespace) -> dict:
    """Print the session breakdown, write the requested profiler files and
    return the report for the JSON artifact."""
    from repro.prof import render_breakdown, session

    report = dict(session.report())
    report.pop("prometheus", None)  # bulky text form
    rows = session.breakdown_rows()
    if rows:
        print("== profile: pack/compute/wire/wait breakdown ==")
        print(render_breakdown(rows))
        ok = report["breakdown_valid"]
        print(f"breakdown consistency (sums within 1%): "
              f"{'ok' if ok else 'FAILED'}")
        print()
    if args.trace_out:
        session.write_chrome_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out}")
    if args.critpath_out:
        crit_doc = session.write_critpath(args.critpath_out)
        print(f"critical-path report written to {args.critpath_out}")
        flagged = sorted({r for run in crit_doc["runs"]
                          for r in run["stragglers"]["ranks"]})
        if flagged:
            print(f"  straggler rank(s) flagged: {flagged}")
    if args.flame_out:
        stacks = session.write_flamegraph(args.flame_out)
        print(f"flamegraph ({len(stacks)} stacks) written to "
              f"{args.flame_out}")
    return report


def _run(args: argparse.Namespace) -> int:
    """Run one subcommand's body and report its figures and verdict."""
    from repro.prof import session

    profile = bool(args.profile or args.trace_out or args.critpath_out
                   or args.flame_out)
    if profile:
        session.enable()

    t0 = time.time()
    try:
        produced, problems = args.body(args)
        for fig in produced:
            print_figure(fig)
            print()
        report = _profile_outputs(args) if profile else None
        if args.emit_json:
            doc = {"schema": "repro-bench/1", "quick": args.quick,
                   "figures": {f.name: _figure_doc(f) for f in produced}}
            if report is not None:
                doc["profile"] = report
            with open(args.emit_json, "w") as fh:
                json.dump(doc, fh, indent=1, default=str)
            print(f"JSON report written to {args.emit_json}")
    finally:
        if profile:
            session.disable()

    print(f"wall time: {time.time() - t0:.0f} s")
    if problems:
        print(args.failed)
        for problem in problems:
            print(f"  {problem}")
        return 1
    if args.held:
        print(args.held)
    return 0


def _parse(argv: list[str]) -> argparse.Namespace:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quick", action="store_true",
                        help="reduced sweeps for smoke runs")
    common.add_argument("--profile", action="store_true",
                        help="attach the repro.prof session profiler")
    common.add_argument("--emit-json", metavar="PATH", default=None,
                        help="write figures (+ profile report) as JSON")
    common.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace-event file "
                             "(implies --profile)")
    common.add_argument("--critpath-out", metavar="PATH", default=None,
                        help="write the repro-critpath/1 causal "
                             "critical-path report (implies --profile)")
    common.add_argument("--flame-out", metavar="PATH", default=None,
                        help="write a collapsed-stack flamegraph "
                             "(implies --profile)")

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's figures and run the CI gates.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, body, summary, failed=None, held=None):
        sub = commands.add_parser(name, parents=[common], help=summary)
        sub.set_defaults(run=_run, body=body, failed=failed, held=held)
        return sub

    sub = command("figures", _figures, "regenerate the paper's figures")
    sub.add_argument("figs", nargs="*", metavar="FIG", type=_figure_name,
                     help=f"figures to run (default: all of {ALL})")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the simulator's CPU-jitter RNG; one "
                          "value reproduces a whole run bit-for-bit "
                          "(default: %(default)s)")
    command(
        "guidelines", _guidelines,
        "run the datatype performance-guideline suite (pack <= manual "
        "copy, Vector <= Indexed, Contiguous <= Vector); exit 1 on any "
        "violation",
        failed="GUIDELINE VIOLATION(S):",
        held="all datatype performance guidelines hold")
    command("assembly", _assembly,
            "run the repeated-sparse-assembly figure (dense vs NBX "
            "discovery vs cached plan); exit 1 unless plan reuse is "
            "byte-identical and strictly cheaper on the wire",
            failed="ASSEMBLY GATE VIOLATION(S):",
            held="plan reuse is byte-identical to rediscovery and "
                 "strictly cheaper on the wire at every size")
    sub = commands.add_parser(
        "identity",
        help="regenerate the deterministic artifacts (figures, assembly "
             "and the chaos report); exit 1 unless they equal the "
             "committed IDENTITY.json")
    sub.set_defaults(run=lambda args: identity.run(update=args.update))
    sub.add_argument("--update", action="store_true",
                     help="rewrite IDENTITY.json from this tree instead")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
