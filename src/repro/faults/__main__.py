"""CLI: ``python -m repro.faults chaos`` -- run the chaos harness.

Examples::

    python -m repro.faults chaos
    python -m repro.faults chaos --seeds 1 2 3 4 5 --nprocs 8 \
        --report chaos-report.json
    python -m repro.faults chaos --scenario crash_allgatherv --seeds 7

Exit status is 0 iff every invariant held; the JSON report (``--report``)
records per-run fault/transport counters for CI artifacts.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.chaos import MIN_NPROCS, SCENARIOS, run_chaos


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="fault-injection chaos harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chaos = sub.add_parser("chaos", help="run the invariant-checking harness")
    chaos.add_argument("--seeds", type=int, nargs="+",
                       default=[1, 2, 3, 4, 5],
                       help="fault-schedule seeds (default: 1..5)")
    chaos.add_argument("--nprocs", type=int, default=8,
                       help="simulated processes per scenario (default 8)")
    chaos.add_argument("--scenario", action="append", dest="scenarios",
                       choices=sorted(SCENARIOS),
                       help="run only this scenario (repeatable)")
    chaos.add_argument("--report", metavar="PATH",
                       help="write the JSON chaos report here")
    args = parser.parse_args(argv)
    if args.nprocs < MIN_NPROCS:
        chaos.error(f"--nprocs must be >= {MIN_NPROCS}, got {args.nprocs}")

    report = run_chaos(seeds=tuple(args.seeds), nprocs=args.nprocs,
                       scenarios=args.scenarios, log=print)
    print()
    print(report.summary())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
