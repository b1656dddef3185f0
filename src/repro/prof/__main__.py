"""CLI: verify the metric-name catalogue never drifts.

Usage::

    python -m repro.prof check-catalogue [--docs docs/OBSERVABILITY.md]

Fails with exit code 1 on any drift: every metric name in
:data:`repro.prof.metrics.CATALOGUE` must appear (backtick-quoted) in the
documentation, and the documentation may mention no ``repro_*`` metric
that is not catalogued.  No emitted artifact needs checking: the metrics
registry refuses any name outside the catalogue.

CI runs this so an instrumentation rename cannot land without its
documentation.
"""

from __future__ import annotations

import argparse
import re
import sys

from repro.prof.metrics import CATALOGUE

_METRIC_RE = re.compile(r"`(repro_[a-z0-9_]+)`")
#: suffix forms Prometheus renders for histograms; not independent names
_DERIVED_SUFFIXES = ("_bucket", "_sum", "_count")


def _base_name(name: str) -> str:
    for suffix in _DERIVED_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in CATALOGUE:
            return name[: -len(suffix)]
    return name


def check_docs(path: str) -> list[str]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        return [f"cannot read docs file {path}: {exc}"]
    documented = {_base_name(m) for m in _METRIC_RE.findall(text)}
    problems = []
    for name in sorted(set(CATALOGUE) - documented):
        problems.append(f"{path}: catalogued metric `{name}` is not documented")
    for name in sorted(documented - set(CATALOGUE)):
        problems.append(f"{path}: documented metric `{name}` is not in the catalogue")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro.prof")
    sub = parser.add_subparsers(dest="command", required=True)
    chk = sub.add_parser("check-catalogue",
                         help="verify metric names match the documentation")
    chk.add_argument("--docs", default="docs/OBSERVABILITY.md",
                     help="documentation file to check against")
    args = parser.parse_args(argv)

    problems = check_docs(args.docs)
    for p in problems:
        print(f"DRIFT: {p}")
    if problems:
        print(f"{len(problems)} catalogue drift problem(s)")
        return 1
    print(f"catalogue ok: {len(CATALOGUE)} metric(s) consistent with {args.docs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
