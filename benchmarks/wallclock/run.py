#!/usr/bin/env python3
"""The host-time benchmark: how long the simulator takes to produce the
paper's (simulated) numbers, end to end and layer by layer.

    python3 benchmarks/wallclock/run.py [--seed N] [--out FILE]

runs the five workloads one after another (closed loop: one
single-threaded subprocess per workload, never two at once), checks every
output, then makes the layer probes and one traced run per workload, and
prints every metric by name with its unit.  ``--workload NAME --trace 0|1``
runs one workload's untraced (end-to-end) or traced (per-layer) half and
ends with one JSON line for a driver.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import schema  # noqa: E402

SRC = schema.ROOT / "src"
OUT_DIR = HERE / "out"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.simtime, repro.mpi, repro.datatypes, repro.petsc, repro.prof; "
    "print(time.perf_counter() - t)"
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_import_s() -> List[float]:
    """``import repro...`` seconds in three fresh interpreters."""
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             env=child_env(), check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(3)
    ]


def run_worker(job: str, args, workload: Optional[str] = None) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "worker.py"), job,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if workload:
        cmd += ["--workload", workload]
    if job != "untraced":
        cmd += ["--trace-out",
                str(OUT_DIR / f"trace-{workload or 'probes'}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if job != "probes":
        cmd += ["--slowdown", str(args.self_test_slowdown)]
        if args.self_test_corrupt:
            cmd.append("--corrupt")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"wallclock: {job} {workload or ''} subprocess "
                         f"failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    proc = subprocess.run(["git", "-C", str(schema.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def manifest(args, import_s: List[float]) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "self_test_slowdown": args.self_test_slowdown,
        "self_test_corrupt": args.self_test_corrupt,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
        "import_s": import_s,
    }


def end_to_end(untraced: Dict[str, Any], import_s: float) -> Dict[str, Any]:
    samples = untraced["samples"]
    rows = {
        "wall_s": schema.summarize(samples["wall_s"]),
        "cpu_s": schema.summarize(samples["cpu_s"]),
        # what a fresh process pays before the first measured region
        "setup_s": schema.summarize(
            [import_s + s for s in samples["setup_rep_s"]]),
        "peak_rss_mb": schema.summarize([untraced["peak_rss_mb"]]),
    }
    units = schema.units(schema.END_TO_END)
    for name, row in rows.items():
        row["unit"] = units[name]
    return rows


def per_workload(result: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics one workload process reports about itself."""
    wall = schema.summarize(result["samples"]["wall_s"])["median"]
    events = result["exact"]["simtime.engine.events"]
    values = dict(result["exact"])
    values.update({
        "simtime.engine.us_per_event": wall / events * 1e6 if events else 0.0,
        "datatypes.ir.cache_hit_ratio": result["datatypes.ir.cache_hit_ratio"],
        "host.cold_rep_s": result["host.cold_rep_s"],
        "host.calib_s": sum(result["host.calib_s"]) / 2,
        "host.gc_collections": result["host.gc_collections"],
    })
    if "layers" in result:
        values["trace.overhead_frac"] = result["trace.overhead_frac"]
        for layer, row in result["layers"].items():
            values[f"layer.{layer}.self_frac"] = row["self_frac"]
            values[f"layer.{layer}.self_s"] = row["self_s"]
    return values


def print_report(report: Dict[str, Any]) -> None:
    units = schema.units(schema.PER_LAYER)
    for name, wl in report["workloads"].items():
        print(f"== {name}: {wl['ops_failed']} of {wl['ops_total']} checks "
              f"failed, {wl['reps']} reps")
        for metric, row in wl.get("end_to_end", {}).items():
            print(f"{name:17s} {metric:12s} {row['median']:12.4f} "
                  f"{row['unit']:3s} q1 {row['q1']:.4f} q3 {row['q3']:.4f} "
                  f"n {row['n']}")
        for metric, value in wl.get("per_layer", {}).items():
            print(f"{name:17s} {metric:38s} {value:16.6g} {units[metric]}")
    for metric, value in report.get("probes", {}).items():
        print(f"{'probe':17s} {metric:38s} {value:16.6g} {units[metric]}")


def build_report(args, names: List[str]) -> Dict[str, Any]:
    import_s = measure_import_s()
    report: Dict[str, Any] = {
        "schema": "wallclock/1",
        "manifest": manifest(args, import_s),
        "workloads": {},
    }
    for name in names:
        wl: Dict[str, Any] = {"ops_total": 0, "ops_failed": 0, "failures": []}
        if args.trace != 1:
            untraced = wl["untraced"] = run_worker("untraced", args, name)
            wl["end_to_end"] = end_to_end(untraced, min(import_s))
            wl["per_layer"] = per_workload(untraced)
        if args.trace != 0:
            traced = wl["traced"] = run_worker("traced", args, name)
            wl["per_layer"] = {**per_workload(traced),
                               **wl.get("per_layer", {})}
        for half in ("untraced", "traced"):
            if half in wl:
                wl["ops_total"] += wl[half]["ops_total"]
                wl["ops_failed"] += wl[half]["ops_failed"]
                wl["failures"] += wl[half]["failures"]
        first = wl.get("untraced") or wl["traced"]
        wl.update(sizes=first["sizes"], reps=first["reps"],
                  exact=first["exact"])
        report["workloads"][name] = wl
    if args.trace != 0:
        report["probes"] = run_worker("probes", args)["probes"]
        report["probes"]["host.import_s"] = min(import_s)
    return report


def driver_line(report: Dict[str, Any], name: str, trace: int) -> str:
    """The one JSON object a benchmark driver reads off the last line."""
    wl = report["workloads"][name]
    if trace == 0:
        metrics = {m: {"value": row["median"], "unit": row["unit"]}
                   for m, row in wl["end_to_end"].items()}
    else:
        units = schema.units(schema.PER_LAYER)
        values = {**wl["per_layer"], **report["probes"]}
        metrics = {m: {"value": values[m], "unit": units[m]}
                   for m, _, _ in schema.PER_LAYER}
    return json.dumps({
        "correct": wl["ops_failed"] == 0,
        "attempted": wl["ops_total"],
        "failed": wl["ops_failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=list(schema.WORKLOADS),
                    help="run one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds every generated input and Cluster(seed=)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="time box of a workload's timed reps, within "
                         "5..7 reps (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end half only; 1: traced half and "
                         "probes only (default: both)")
    ap.add_argument("--out", default=None,
                    help="report file (default: out/report.json)")
    ap.add_argument("--smoke", action="store_true",
                    help="same code paths at tiny sizes, 2 reps; the "
                         "output is never comparable with a full run")
    ap.add_argument("--self-test-slowdown", type=float, default=0.0,
                    metavar="F", help="busy-wait F of every measured "
                    "region; compare.py against a clean run must fail")
    ap.add_argument("--self-test-corrupt", action="store_true",
                    help="spoil one expected output per rep; ops_failed "
                         "must become non-zero")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"wallclock: no program to measure: {SRC}/repro "
                         "is missing\n")
        return 2
    if args.seconds is None:
        args.seconds = float(schema.load_benchmark_json()["run_seconds"])
    names = [args.workload] if args.workload else list(schema.WORKLOADS)
    report = build_report(args, names)
    out = Path(args.out) if args.out else OUT_DIR / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report)
    print(f"report written to {out}")
    if args.workload and args.trace is not None:
        print(driver_line(report, args.workload, args.trace))
    failed = sum(wl["ops_failed"] for wl in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
