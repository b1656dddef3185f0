"""What the host-time benchmark reports: workloads, metrics, units.

This is the single list every other file reads -- ``run.py`` emits these
names, ``BENCHMARK.json`` declares them (a test keeps the two equal) and
``compare.py`` applies the declared bounds to them.  A metric is a
``(name, unit, better)`` triple; *exact* metrics are counts or simulated
times that repeat bit-for-bit for one seed, so two commits compare
exactly on them.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: name -> the one line on why the workload exists
WORKLOADS: Dict[str, str] = {
    "mg_solve": "the paper's multigrid application: the only workload "
                "where engine, Comm, datatypes and PETSc all do real work",
    "coll_scale": "nonuniform collectives at 512/96 ranks: engine dispatch "
                  "and Comm matching, zero PETSc, so a PETSc change must not move it",
    "dtype_exec": "few datatypes, warm plans, many large transfers: "
                  "pack/unpack copy programs and the two cost engines",
    "dtype_compile": "4000 distinct cold datatype trees, no Cluster: plan "
                     "compile cost, which a faster-executing plan may make dearer",
    "scatter_assembly": "PETSc remote reads beside remote writes at 64 "
                        "ranks; set-up is most of the cost, so work moved into it shows",
}

Metric = Tuple[str, str, str]  # name, unit, better

#: what a user of the simulator waits for or pays, per workload
END_TO_END: List[Metric] = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: per workload, bit-identical for one seed: compare.py requires equality
EXACT: List[Metric] = [
    ("sim_time_s", "sim_s", "lower"),
    ("simtime.engine.events", "count", "lower"),
    ("simtime.network.messages", "count", "lower"),
    ("simtime.network.bytes", "B", "lower"),
    ("datatypes.ir.plans", "count", "lower"),
]

#: per workload, read off public counters or the workload's own clock
PER_WORKLOAD: List[Metric] = EXACT + [
    ("simtime.engine.us_per_event", "us", "lower"),
    ("datatypes.ir.cache_hit_ratio", "ratio", "higher"),
    ("host.cold_rep_s", "s", "lower"),
    ("host.calib_s", "s", "lower"),
    ("host.gc_collections", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: layers the stack sampler charges host time to (module paths under
#: src/repro); ``other`` is any repro module not listed, ``driver`` the
#: benchmark's own frames
LAYERS: List[str] = [
    "simtime.engine", "simtime.network", "simtime.resources",
    "mpi.comm", "mpi.request", "mpi.collectives", "mpi.algorithms",
    "datatypes.typemap", "datatypes.ir", "datatypes.flatten",
    "datatypes.packing", "datatypes.engine",
    "petsc.vec", "petsc.scatter", "petsc.dmda", "petsc.mat", "petsc.mg",
    "petsc.commplan", "prof", "util", "other", "driver",
]

LAYER_METRICS: List[Metric] = [
    m for layer in LAYERS for m in (
        (f"layer.{layer}.self_frac", "ratio", "lower"),
        (f"layer.{layer}.self_s", "s", "lower"),
    )
]

_COLLECTIVES = ("allgatherv", "alltoallw", "sparse_alltoall", "allreduce",
                "barrier")

#: workload-independent probes: one direct call into one layer each
PROBES: List[Metric] = [
    ("simtime.engine.delay_events_per_s", "1/s", "higher"),
    ("simtime.engine.future_events_per_s", "1/s", "higher"),
    ("simtime.engine.spawn_us", "us", "lower"),
    ("simtime.network.transfers_per_s", "1/s", "higher"),
    ("mpi.comm.p2p_msgs_per_s", "1/s", "higher"),
    ("mpi.comm.p2p_events_per_msg", "count", "lower"),
    ("mpi.comm.rndv_msgs_per_s", "1/s", "higher"),
    ("mpi.comm.unexpected_match_us", "us", "lower"),
    ("mpi.comm.cluster_init_ms", "ms", "lower"),
] + [
    m for c in _COLLECTIVES for m in (
        (f"mpi.collectives.{c}_ms", "ms", "lower"),
        (f"mpi.collectives.{c}_events", "count", "lower"),
        (f"mpi.collectives.{c}_msgs", "count", "lower"),
    )
] + [
    ("mpi.algorithms.select_us", "us", "lower"),
    ("util.kselect.us", "us", "lower"),
    ("datatypes.typemap.construct_us", "us", "lower"),
    ("datatypes.ir.compile_us", "us", "lower"),
    ("datatypes.ir.cache_hit_us", "us", "lower"),
    ("datatypes.packing.typedbuffer_us", "us", "lower"),
    ("datatypes.packing.pack_MBps_strided", "MB/s", "higher"),
    ("datatypes.packing.pack_MBps_gather", "MB/s", "higher"),
    ("datatypes.packing.unpack_MBps_strided", "MB/s", "higher"),
    ("datatypes.packing.unpack_MBps_gather", "MB/s", "higher"),
    ("datatypes.engine.single_us", "us", "lower"),
    ("datatypes.engine.dual_us", "us", "lower"),
    ("petsc.mat.mult_ms", "ms", "lower"),
    ("petsc.mg.vcycle_ms", "ms", "lower"),
    ("petsc.dmda.ghost_update_ms", "ms", "lower"),
    ("petsc.dmda.ghost_update_events", "count", "lower"),
    ("petsc.dmda.owned_box_us", "us", "lower"),
    ("petsc.vec.blas1_us", "us", "lower"),
    ("petsc.dmda.init_ms", "ms", "lower"),
    ("petsc.mg.init_ms", "ms", "lower"),
    ("petsc.scatter.build_ms", "ms", "lower"),
    ("petsc.scatter.scatter_ms", "ms", "lower"),
    ("petsc.scatter.scatter_hand_ms", "ms", "lower"),
    ("petsc.vec.assemble_discover_ms", "ms", "lower"),
    ("petsc.vec.assemble_cached_ms", "ms", "lower"),
    ("petsc.commplan.hit_ratio", "ratio", "higher"),
    ("prof.attached_overhead_frac", "ratio", "lower"),
    ("prof.null_call_ns", "ns", "lower"),
    ("host.import_s", "s", "lower"),
]

PER_LAYER: List[Metric] = PER_WORKLOAD + PROBES + LAYER_METRICS


def units(metrics: Sequence[Metric]) -> Dict[str, str]:
    return {name: unit for name, unit, _ in metrics}


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of a handful of timings.  With 5-7 samples no
    tail percentile is supported, so none is reported."""
    xs = [float(x) for x in samples]
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3,
            "n": len(xs), "samples": xs}


def load_benchmark_json() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_json() -> dict:
    """The BENCHMARK.json this file declares (bounds and run length are
    fixed here; ``python schema.py`` rewrites the root file from it)."""
    # the widest a bound may be: ten-seed spreads here reach 14 % (README.md)
    bounds = {"wall_s": 0.25, "cpu_s": 0.25, "setup_s": 0.25,
              "peak_rss_mb": 0.10}
    return {
        "command": ["python3", "benchmarks/wallclock/run.py"],
        "paths": ["benchmarks/wallclock"],
        "run_seconds": 12,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bounds[n]}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    BENCHMARK_JSON.write_text(
        json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BENCHMARK_JSON} ({len(PER_LAYER)} per-layer metrics)")
