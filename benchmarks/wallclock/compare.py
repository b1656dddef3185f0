#!/usr/bin/env python3
"""Compare two ``run.py`` reports under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/wallclock/compare.py A.json B.json

A is the base (the parent commit), B the change.  One row per workload x
end-to-end metric: both medians with quartiles, the ratio B/A, and

- ``ok``          B's median is no worse than A's by more than the bound,
- ``worse``       it is,
- ``unresolved``  it is within the bound but a side's own spread
                  (interquartile distance / median) exceeds the bound, so
                  "unchanged" is not shown -- unless every sample of B
                  beats every sample of A.

Exit 1 on any ``worse`` row, any exact metric (simulated time, event,
message, byte and plan counts) that differs, or any increase of
``ops_failed``; exit 2 when the reports are not comparable (seed, sizes,
time box, smoke flag or workload set differ).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

import schema


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def incomparable(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    why = []
    for key in ("seed", "seconds", "smoke"):
        if a["manifest"][key] != b["manifest"][key]:
            why.append(f"{key}: {a['manifest'][key]!r} vs {b['manifest'][key]!r}")
    if set(a["workloads"]) != set(b["workloads"]):
        why.append(f"workloads: {sorted(a['workloads'])} vs {sorted(b['workloads'])}")
        return why
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        if wa["sizes"] != wb["sizes"]:
            why.append(f"{name} sizes: {wa['sizes']} vs {wb['sizes']}")
        if ("end_to_end" in wa) != ("end_to_end" in wb):
            why.append(f"{name}: only one report has the end-to-end half")
    return why


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float) -> str:
    # every end-to-end metric is lower-is-better
    if b["median"] > a["median"] * (1.0 + bound):
        return "worse"
    spread = max((row["q3"] - row["q1"]) / row["median"] for row in (a, b))
    if spread > bound and not max(b["samples"]) < min(a["samples"]):
        return "unresolved"
    return "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    bounds = {m["name"]: m["bound"]
              for m in schema.load_benchmark_json()["end_to_end"]}
    failed = False
    print(f"base A = {a['manifest']['git_sha'][:12]}, "
          f"B = {b['manifest']['git_sha'][:12]}, seed {a['manifest']['seed']}")
    print(f"{'workload':17s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'B/A':>7s}  verdict (bound)")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, ra in wa.get("end_to_end", {}).items():
            rb = wb["end_to_end"][metric]
            v = verdict(ra, rb, bounds[metric])
            failed |= v == "worse"
            print(f"{name:17s} {metric:12s} "
                  f"{ra['median']:10.4f} [{ra['q1']:8.4f},{ra['q3']:8.4f}] "
                  f"{rb['median']:10.4f} [{rb['q1']:8.4f},{rb['q3']:8.4f}] "
                  f"{rb['median'] / ra['median']:7.3f}  {v} "
                  f"(+{bounds[metric]:.0%} of A, n={ra['n']}/{rb['n']})")
        for metric, va in wa["exact"].items():
            vb = wb["exact"][metric]
            if va != vb:
                failed = True
                print(f"{name:17s} {metric}: exact metric differs: "
                      f"A {va!r} vs B {vb!r}")
        if wb["ops_failed"] > wa["ops_failed"]:
            failed = True
            print(f"{name:17s} ops_failed rose: A {wa['ops_failed']} of "
                  f"{wa['ops_total']}, B {wb['ops_failed']} of "
                  f"{wb['ops_total']}: {wb['failures'][:3]}")
        if wa["reps"] != wb["reps"]:
            print(f"{name:17s} note: {wa['reps']} vs {wb['reps']} timed "
                  f"reps in the same time box")
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    why = incomparable(a, b)
    if why:
        print("compare: the two reports are not comparable:")
        for line in why:
            print(f"  {line}")
        return 2
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
