"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.bench                 # all figures (slow: several min)
    python -m repro.bench fig12 fig14a    # a selection
    python -m repro.bench --quick         # reduced sweeps
    python -m repro.bench --quick --profile --emit-json out.json \
        --trace-out trace.json            # + repro.prof instrumentation
    python -m repro.bench --autotune --quick \
        --tuning-out tuning_table.json    # train + validate a tuning table

``--autotune`` runs the simulator measurement sweep
(:mod:`repro.mpi.algorithms.autotune`), writes the ``repro-tuning/1``
table JSON, then replays the paper's nonuniform benches under the
baseline, optimised and autotuned configurations and **fails (exit 1)**
unless an NBX variant wins a ``sparse_alltoall`` bucket and the
autotuned policy ties-or-beats both fixed configs on every row -- the CI
contract for the tuning-table artifact.

With ``--profile`` every cluster built by the figure sweeps carries a
:class:`repro.prof.Profiler`; the run then prints the Fig. 13-style
pack/compute/wire/wait breakdown and (with ``--emit-json``) writes a
``repro-bench/1`` JSON artifact embedding the figures, the metric
snapshots per figure row, and the whole-session profile report.
``--trace-out`` additionally dumps a Chrome trace-event file viewable in
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import figures, print_figure

ALL = ["fig12", "fig13", "fig14a", "fig14b", "fig15", "fig16", "fig17"]


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's figures.",
    )
    parser.add_argument("figures", nargs="*", metavar="FIG",
                        help=f"figures to run (default: all of {ALL})")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps for smoke runs")
    parser.add_argument("--profile", action="store_true",
                        help="attach the repro.prof session profiler")
    parser.add_argument("--emit-json", metavar="PATH", default=None,
                        help="write figures (+ profile report) as JSON")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace-event file "
                             "(requires --profile)")
    parser.add_argument("--critpath-out", metavar="PATH", default=None,
                        help="write the repro-critpath/1 causal "
                             "critical-path report (requires --profile)")
    parser.add_argument("--flame-out", metavar="PATH", default=None,
                        help="write a collapsed-stack flamegraph "
                             "(requires --profile)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="compare against a committed repro-bench/1 "
                             "baseline; exit 1 on any relative slowdown "
                             "beyond --baseline-tolerance")
    parser.add_argument("--baseline-tolerance", type=float, default=0.10,
                        metavar="FRAC",
                        help="per-measurement relative-slowdown tolerance "
                             "for --baseline (default: %(default)s)")
    parser.add_argument("--trajectory", metavar="PATH", default=None,
                        help="append this run's figures to a "
                             "BENCH_trajectory.json perf-trajectory file")
    parser.add_argument("--trajectory-label", metavar="LABEL", default=None,
                        help="label recorded with the --trajectory entry "
                             "(e.g. a commit SHA)")
    parser.add_argument("--degrade", type=float, default=None, metavar="SCALE",
                        help="multiply every wire transfer's time by SCALE "
                             "via the fault injector (regression-gate "
                             "self-test aid)")
    parser.add_argument("--guidelines", action="store_true",
                        help="run the datatype performance-guideline suite "
                             "(pack <= manual copy, Vector <= Indexed, "
                             "Contiguous <= Vector) and exit 1 on any "
                             "violation")
    parser.add_argument("--no-ir-passes", action="store_true",
                        help="disable the datatype-IR optimization passes "
                             "(guideline-gate self-test aid; the suite "
                             "must then FAIL)")
    parser.add_argument("--assembly", action="store_true",
                        help="run the repeated-sparse-assembly figure "
                             "(dense vs NBX discovery vs cached plan) and "
                             "exit 1 unless plan reuse is byte-identical "
                             "and strictly cheaper on the wire")
    parser.add_argument("--autotune", action="store_true",
                        help="train a tuning table in the simulator and "
                             "assert it ties-or-beats the fixed configs")
    parser.add_argument("--tuning-out", metavar="PATH",
                        default="tuning_table.json",
                        help="where --autotune writes the table "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the simulator's CPU-jitter RNG; "
                             "one value reproduces a whole run bit-for-bit "
                             "(default: %(default)s)")
    return parser.parse_args(argv)


def _figure_kwargs(name: str, quick: bool, seed: int = 0) -> dict:
    kwargs = {"seed": seed}
    if quick and name == "fig15":
        kwargs["procs"] = (2, 4, 8, 16, 32)
    if quick and name == "fig16":
        kwargs["procs"] = (2, 4, 8, 16)
    if quick and name == "fig17":
        kwargs["procs"] = (4, 8)
        kwargs["grid"] = (48, 48, 48)
    return kwargs


def _run_autotune(args: argparse.Namespace) -> int:
    """Train a tuning table, validate it against the fixed configs."""
    from repro.mpi.algorithms.autotune import (
        autotune, check_ties_or_beats, compare_policies,
    )

    t0 = time.time()
    if args.profile:
        from repro.prof import session

        session.enable()
    try:
        print(f"== autotune sweep ({'quick' if args.quick else 'full'}) ==")
        table = autotune(quick=args.quick, verbose=True)
        table.save(args.tuning_out)
        print(f"tuning table ({len(table)} buckets) written to "
              f"{args.tuning_out}")
        sparse_winners = {
            entry.get("algorithm")
            for key, entry in table.entries.items()
            if key.startswith("sparse_alltoall|")
        }
        if not sparse_winners:
            print("sparse_alltoall never entered the sweep -- the NBX "
                  "algorithms are not participating in selection")
            return 1
        if not sparse_winners & {"nbx", "nbx_binned"}:
            print("no NBX variant won any sparse_alltoall bucket "
                  f"(winners: {sorted(sparse_winners)}) -- the consensus "
                  "implementations are not competitive in their own sweep")
            return 1
        n_sparse = sum(1 for k in table.entries
                       if k.startswith("sparse_alltoall|"))
        print(f"sparse_alltoall trained {n_sparse} bucket(s); "
              f"winners: {sorted(sparse_winners)}")
        print()

        fig = compare_policies(args.tuning_out, quick=args.quick)
        print_figure(fig)
        print()
        problems = check_ties_or_beats(fig)

        profile_report = None
        if args.profile:
            from repro.prof import session

            profile_report = session.report()
        if args.emit_json:
            doc = {
                "schema": "repro-bench/1",
                "quick": args.quick,
                "tuning_table": table.as_dict(),
                "figures": {
                    fig.name: {
                        "title": fig.title,
                        "columns": fig.columns,
                        "rows": fig.rows,
                        "notes": fig.notes,
                    }
                },
            }
            if profile_report is not None:
                profile_report = dict(profile_report)
                profile_report.pop("prometheus", None)
                doc["profile"] = profile_report
            with open(args.emit_json, "w") as fh:
                json.dump(doc, fh, indent=1, default=str)
            print(f"JSON report written to {args.emit_json}")
    finally:
        if args.profile:
            from repro.prof import session

            session.disable()

    print(f"wall time: {time.time() - t0:.0f} s")
    if problems:
        print("autotuned policy LOSES to a fixed config:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("autotuned policy ties-or-beats both fixed configs on every row")
    return 0


def _run_assembly(args: argparse.Namespace) -> int:
    """The repeated-assembly amortisation figure (CI gate)."""
    from repro.apps.assembly_bench import run_assembly
    from repro.bench import FigureData

    t0 = time.time()
    procs = (4, 8, 16) if args.quick else (4, 8, 16, 32)
    # the plan's one-time fingerprint agreement amortises after ~4-5
    # cached rounds; run well past break-even so the gate is meaningful
    rounds = 8 if args.quick else 12
    fig = FigureData(
        name="assembly",
        title=f"Repeated sparse Vec assembly x{rounds} "
              "(latency s / wire messages)",
        columns=["P", "dense (s)", "NBX (s)", "NBX+plan (s)",
                 "dense msgs", "NBX msgs", "plan msgs"],
        notes=["dense/NBX rediscover the pattern every round; NBX+plan "
               "caches it (VEC_SUBSET_OFF_PROC_ENTRIES) after round 0"],
    )
    problems = []
    for n in procs:
        res = {s: run_assembly(n, s, rounds=rounds)
               for s in ("dense", "nbx", "plan")}
        fig.add_row(n, res["dense"].latency, res["nbx"].latency,
                    res["plan"].latency, res["dense"].messages,
                    res["nbx"].messages, res["plan"].messages)
        if not (res["dense"].checksum == res["nbx"].checksum
                == res["plan"].checksum):
            problems.append(
                f"P={n}: strategies disagree on the assembled vector "
                f"(dense {res['dense'].checksum}, nbx {res['nbx'].checksum},"
                f" plan {res['plan'].checksum})")
        for other in ("dense", "nbx"):
            if res["plan"].messages >= res[other].messages:
                problems.append(
                    f"P={n}: cached plan sent {res['plan'].messages} "
                    f"message(s), not fewer than {other}'s "
                    f"{res[other].messages}")
    print_figure(fig)
    print()

    doc = {
        "schema": "repro-bench/1",
        "quick": args.quick,
        "figures": {
            fig.name: {
                "title": fig.title,
                "columns": fig.columns,
                "rows": fig.rows,
                "notes": fig.notes,
            }
        },
    }
    if args.emit_json:
        with open(args.emit_json, "w") as fh:
            json.dump(doc, fh, indent=1, default=str)
        print(f"JSON report written to {args.emit_json}")
    if args.trajectory:
        from repro.bench.baseline import append_trajectory

        n = append_trajectory(args.trajectory, doc,
                              label=args.trajectory_label)
        print(f"trajectory entry {n} appended to {args.trajectory}")

    print(f"wall time: {time.time() - t0:.0f} s")
    if problems:
        print("ASSEMBLY GATE VIOLATION(S):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("plan reuse is byte-identical to rediscovery and strictly "
          "cheaper on the wire at every size")
    return 0


def _run_guidelines(args: argparse.Namespace) -> int:
    """The self-checking datatype guideline suite (CI gate)."""
    from repro.bench.guidelines import run_guidelines
    from repro.datatypes import ir

    t0 = time.time()
    if args.no_ir_passes:
        ir.set_passes_enabled(False)
        ir.cache_clear()
        print("datatype IR optimization passes DISABLED (--no-ir-passes)")
    if args.profile:
        from repro.prof import session

        session.enable()
    try:
        scale = 256 if args.quick else 512
        fig, violations = run_guidelines(scale=scale)
        print_figure(fig)
        print()
        if args.emit_json:
            doc = {
                "schema": "repro-bench/1",
                "quick": args.quick,
                "ir_passes": ir.passes_enabled(),
                "figures": {
                    fig.name: {
                        "title": fig.title,
                        "columns": fig.columns,
                        "rows": fig.rows,
                        "notes": fig.notes,
                    }
                },
            }
            if args.profile:
                from repro.prof import session

                report = dict(session.report())
                report.pop("prometheus", None)
                doc["profile"] = report
            with open(args.emit_json, "w") as fh:
                json.dump(doc, fh, indent=1, default=str)
            print(f"JSON report written to {args.emit_json}")
    finally:
        if args.profile:
            from repro.prof import session

            session.disable()
        if args.no_ir_passes:
            ir.set_passes_enabled(True)
            ir.cache_clear()

    print(f"wall time: {time.time() - t0:.0f} s")
    if violations:
        print("GUIDELINE VIOLATION(S):")
        for problem in violations:
            print(f"  {problem}")
        return 1
    print("all datatype performance guidelines hold")
    return 0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.guidelines:
        if args.figures:
            print("--guidelines does not take figure arguments")
            return 2
        return _run_guidelines(args)
    if args.assembly:
        if args.figures:
            print("--assembly does not take figure arguments")
            return 2
        return _run_assembly(args)
    if args.no_ir_passes:
        print("--no-ir-passes requires --guidelines")
        return 2
    if args.autotune:
        if args.figures:
            print("--autotune does not take figure arguments")
            return 2
        return _run_autotune(args)
    wanted = args.figures or ALL
    unknown = [w for w in wanted if w not in ALL]
    if unknown:
        print(f"unknown figure(s): {unknown}; choose from {ALL}")
        return 2
    for flag, value in (("--trace-out", args.trace_out),
                        ("--critpath-out", args.critpath_out),
                        ("--flame-out", args.flame_out)):
        if value and not args.profile:
            print(f"{flag} requires --profile")
            return 2

    baseline_doc = None
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline_doc = json.load(fh)
            if baseline_doc.get("schema") != "repro-bench/1":
                raise ValueError(
                    "not a repro-bench/1 document "
                    f"(schema={baseline_doc.get('schema')!r})")
        except (OSError, ValueError) as exc:
            print(f"--baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2

    if args.profile:
        from repro.prof import session

        session.enable()
    if args.degrade is not None:
        # every cluster the figure sweeps construct (many layers below
        # here) picks this plan up as its default fault plan
        from repro.faults import set_default_plan
        from repro.faults.plan import FaultPlan

        set_default_plan(FaultPlan().degrade(args.degrade))
        print(f"fault injection: wire time x{args.degrade:g} on every "
              "transfer (--degrade)")

    produced = []
    regressions = []
    t0 = time.time()
    try:
        for name in wanted:
            if name == "fig13":
                for fig in figures.fig13():
                    produced.append(fig)
                    print_figure(fig)
                    print()
                continue
            fig = getattr(figures, name)(
                **_figure_kwargs(name, args.quick, args.seed))
            produced.append(fig)
            print_figure(fig)
            print()

        profile_report = None
        if args.profile:
            from repro.prof import render_breakdown, session

            profile_report = session.report()
            rows = session.breakdown_rows()
            if rows:
                print("== profile: pack/compute/wire/wait breakdown ==")
                print(render_breakdown(rows))
                ok = profile_report["breakdown_valid"]
                print(f"breakdown consistency (sums within 1%): "
                      f"{'ok' if ok else 'FAILED'}")
                print()
            if args.trace_out:
                session.write_chrome_trace(args.trace_out)
                print(f"chrome trace written to {args.trace_out}")
            if args.critpath_out:
                crit_doc = session.write_critpath(args.critpath_out)
                print(f"critical-path report written to {args.critpath_out}")
                flagged = sorted({
                    r for run in crit_doc["runs"]
                    for r in run["stragglers"]["ranks"]})
                if flagged:
                    print(f"  straggler rank(s) flagged: {flagged}")
            if args.flame_out:
                stacks = session.write_flamegraph(args.flame_out)
                print(f"flamegraph ({len(stacks)} stacks) written to "
                      f"{args.flame_out}")

        doc = {
            "schema": "repro-bench/1",
            "quick": args.quick,
            "figures": {
                f.name: {
                    "title": f.title,
                    "columns": f.columns,
                    "rows": f.rows,
                    "notes": f.notes,
                }
                for f in produced
            },
        }
        if args.emit_json:
            out = dict(doc)
            if profile_report is not None:
                profile_report = dict(profile_report)
                profile_report.pop("prometheus", None)  # bulky text form
                out["profile"] = profile_report
            with open(args.emit_json, "w") as fh:
                json.dump(out, fh, indent=1, default=str)
            print(f"JSON report written to {args.emit_json}")

        if baseline_doc is not None:
            from repro.bench.baseline import compare_to_baseline

            regressions = compare_to_baseline(
                doc, baseline_doc, rel_tol=args.baseline_tolerance)
        if args.trajectory:
            from repro.bench.baseline import append_trajectory

            n = append_trajectory(args.trajectory, doc,
                                  label=args.trajectory_label)
            print(f"trajectory entry {n} appended to {args.trajectory}")
    finally:
        if args.degrade is not None:
            from repro.faults import set_default_plan

            set_default_plan(None)
        if args.profile:
            from repro.prof import session

            session.disable()

    print(f"wall time: {time.time() - t0:.0f} s")
    if regressions:
        print(f"PERF REGRESSION vs {args.baseline} "
              f"(tolerance {100 * args.baseline_tolerance:.0f}%):")
        for problem in regressions:
            print(f"  {problem}")
        return 1
    if baseline_doc is not None:
        print(f"no perf regression vs {args.baseline} "
              f"(tolerance {100 * args.baseline_tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
