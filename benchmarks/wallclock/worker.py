"""One benchmark subprocess: a workload's untraced reps, its traced reps,
or the layer probes.  ``run.py`` starts it with the thread and hash-seed
environment pinned and reads the JSON object on its last output line.

A workload process runs one untimed cold rep first (it fills the
process-wide datatype-plan cache and numpy's lazy state, which users pay
once per process) and then timed reps, each on fresh clusters, with
``gc.collect()`` before each and the collector left enabled.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

import numpy as np

import repro
from repro.datatypes import ir

from probes import run_all
from tracing import LayerSampler, Recorder
from workloads import REGISTRY, run_rep

MIN_REPS, MAX_REPS = 5, 7
#: a traced process: this many plain reps (the overhead reference), then
#: as many with the sampler and span recording on
TRACED_REPS = 2


def calibrate() -> float:
    """A fixed pure-Python + numpy loop, timed before and after the reps:
    if it moved, the machine drifted, not the code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def _collections() -> int:
    return sum(g["collections"] for g in gc.get_stats())


class _Reps:
    """One workload process: the calibration loop, the cold rep, then
    reps on demand; keeps their checks and builds the result."""

    def __init__(self, args):
        self.wl = REGISTRY[args.workload](args.smoke)
        self.seed = args.seed
        self.slowdown, self.corrupt = args.slowdown, args.corrupt
        self.first = None
        self.ops_total = self.ops_failed = 0
        self.failures: List[str] = []
        self.calib = [calibrate()]
        t0 = time.perf_counter()
        self.run(Recorder())
        self.cold_s = time.perf_counter() - t0
        self.gc0 = _collections()

    def run(self, rec, sampler=None):
        gc.collect()
        rep = run_rep(self.wl, self.seed, rec, sampler,
                      slowdown=self.slowdown, corrupt=self.corrupt)
        checks = list(rep.checks)
        if self.first is None:
            self.first = rep
        else:
            # a deterministic simulator repeats these bit for bit
            checks += [
                ("sim_time_s repeats", rep.counters.sim_time_s
                 == self.first.counters.sim_time_s),
                ("event count repeats", rep.counters.events
                 == self.first.counters.events),
                ("wire-message count repeats", rep.counters.messages
                 == self.first.counters.messages),
                ("output fingerprint repeats", rep.fingerprint
                 == self.first.fingerprint),
            ]
        self.ops_total += len(checks)
        bad = [label for label, ok in checks if not ok]
        self.ops_failed += len(bad)
        self.failures += bad
        return rep

    def result(self, timed) -> Dict[str, Any]:
        """What the process reports; ``timed`` are its untraced timed reps."""
        gc_collections = _collections() - self.gc0
        self.calib.append(calibrate())
        c = self.first.counters
        stats = ir.cache_stats()
        lookups = stats["hits"] + stats["misses"]
        return {
            "sizes": self.wl.sizes,
            "reps": len(timed),
            "samples": {
                "wall_s": [r.wall_s for r in timed],
                "cpu_s": [r.cpu_s for r in timed],
                "setup_rep_s": [r.setup_s for r in timed],
            },
            "exact": {
                "sim_time_s": float(c.sim_time_s),
                "simtime.engine.events": int(c.events),
                "simtime.network.messages": int(c.messages),
                "simtime.network.bytes": int(c.nbytes),
                "datatypes.ir.plans": int(self.first.plans),
            },
            "datatypes.ir.cache_hit_ratio":
                stats["hits"] / lookups if lookups else 0.0,
            "host.cold_rep_s": self.cold_s,
            "host.calib_s": self.calib,
            "host.gc_collections": gc_collections,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_total": self.ops_total,
            "ops_failed": self.ops_failed,
            "failures": self.failures[:20],
        }


def run_untraced(args) -> Dict[str, Any]:
    reps = _Reps(args)
    rec = Recorder()
    min_reps, max_reps = (2, 2) if args.smoke else (MIN_REPS, MAX_REPS)
    timed = []
    t0 = time.perf_counter()
    while len(timed) < min_reps or (
            len(timed) < max_reps
            and time.perf_counter() - t0 < args.seconds):
        timed.append(reps.run(rec))
    return reps.result(timed)


def run_traced(args) -> Dict[str, Any]:
    reps = _Reps(args)
    plain = Recorder()
    untraced = [reps.run(plain) for _ in range(TRACED_REPS)]
    rec = Recorder(keep=True)
    sampler = LayerSampler(os.path.dirname(repro.__file__))
    traced = [reps.run(rec, sampler) for _ in range(TRACED_REPS)]
    rec.write(args.trace_out, workload=args.workload, seed=args.seed,
              sampler_ticks=dict(sampler.counts))
    out = reps.result(untraced)
    traced_wall = float(np.median([r.wall_s for r in traced]))
    out["traced_wall_s"] = [r.wall_s for r in traced]
    out["trace.overhead_frac"] = traced_wall / float(
        np.median([r.wall_s for r in untraced])) - 1.0
    out["sampler_ticks"] = sum(sampler.counts.values())
    out["layers"] = {
        layer: {"self_frac": frac, "self_s": frac * traced_wall}
        for layer, frac in sampler.fractions().items()
    }
    return out


def run_probes(args) -> Dict[str, Any]:
    rec = Recorder(keep=True)
    values = run_all(rec, args.smoke)
    rec.write(args.trace_out, probes=True)
    return {"probes": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("job", choices=["untraced", "traced", "probes"])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--slowdown", type=float, default=0.0)
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    job = {"untraced": run_untraced, "traced": run_traced,
           "probes": run_probes}[args.job]
    result = job(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
