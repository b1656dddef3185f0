"""Layer probes: each times direct calls into ONE layer's public
functions (or reads a public counter), away from any workload, so a
change to that layer has a number of its own.  README.md says which
end-to-end metric on which workload each should move.

A probe returns ``{metric name: value}``; :func:`run_all` wraps each in
one span.  ``*_events``/``*_msgs``/``*_per_msg``/``hit_ratio`` values
repeat exactly; ``*_per_s``/``*_us``/``*_ms``/``*_ns`` carry host noise.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Generator, List

import numpy as np

from repro import datatypes as dt
from repro.datatypes import TypedBuffer, engine_for, ir
from repro.mpi import Cluster, MPIConfig
from repro.mpi.algorithms import SelectionContext, select
from repro.petsc import DMDA, GeneralIS, Laplacian, Layout, MGSolver, Vec, VecScatter
from repro.prof import NULL_PROFILER, Profiler
from repro.simtime import Delay, Engine, NetworkModel
from repro.util.kselect import k_select

from workloads import DtypeExec, MgSolve, ScatterAssembly, build_datatype, random_spec

Values = Dict[str, float]
clock = time.perf_counter


def _timed(fn: Callable[[], Any]) -> float:
    t0 = clock()
    fn()
    return clock() - t0


# -- simtime ------------------------------------------------------------------


def probe_engine(smoke: bool) -> Values:
    procs, rounds = (32, 20) if smoke else (256, 200)

    def delays():
        for _ in range(rounds):
            yield Delay(1e-6)

    eng = Engine()
    for _ in range(procs):
        eng.spawn(delays())
    t_delay = _timed(eng.run)
    delay_events = eng.events_fired

    eng = Engine()

    def waits():
        for _ in range(rounds):
            fut = eng.future()
            eng.schedule(1e-6, fut.set_result)
            yield fut

    for _ in range(procs):
        eng.spawn(waits())
    t_future = _timed(eng.run)
    future_events = eng.events_fired

    def nothing():
        return
        yield

    eng = Engine()
    n = procs * rounds // 4

    def spawn_all():
        for _ in range(n):
            eng.spawn(nothing())
        eng.run()

    return {
        "simtime.engine.delay_events_per_s": delay_events / t_delay,
        "simtime.engine.future_events_per_s": future_events / t_future,
        "simtime.engine.spawn_us": _timed(spawn_all) / n * 1e6,
    }


def probe_network(smoke: bool) -> Values:
    ranks, rounds = (8, 10) if smoke else (64, 150)
    eng = Engine()
    net = NetworkModel(eng, ranks)
    for r in range(ranks):
        for _ in range(rounds):
            eng.spawn(net.transfer(r, (r + 1) % ranks, 1024))
    wall = _timed(eng.run)
    return {"simtime.network.transfers_per_s": net.messages_on_wire / wall}


# -- mpi ----------------------------------------------------------------------


def _ring(nbytes: int, rounds: int) -> Callable[[Any], Generator]:
    def program(comm):
        send = np.zeros(nbytes // 8)
        recv = np.zeros(nbytes // 8)
        for _ in range(rounds):
            yield from comm.sendrecv(send, (comm.rank + 1) % comm.size,
                                     recv, (comm.rank - 1) % comm.size)
    return program


def probe_comm(smoke: bool) -> Values:
    ranks, rounds, queued, big = (4, 5, 32, 16) if smoke else (16, 150, 512, 512)
    out = {}
    for key, nbytes, k in (("p2p", 64, rounds), ("rndv", 64 * 1024, rounds // 3)):
        cluster = Cluster(ranks, config=MPIConfig.optimized())
        wall = _timed(lambda: cluster.run(_ring(nbytes, k)))
        msgs = cluster.net.messages_on_wire
        out[f"mpi.comm.{key}_msgs_per_s"] = msgs / wall
        if key == "p2p":
            out["mpi.comm.p2p_events_per_msg"] = cluster.engine.events_fired / msgs

    def unexpected(comm):
        buf = np.zeros(8)
        if comm.rank == 0:
            for tag in range(queued):
                yield from comm.send(buf, dest=1, tag=tag)
            yield from comm.barrier()
        else:
            # every send is queued as unexpected before the first receive,
            # which then asks for the last one posted
            yield from comm.barrier()
            for tag in reversed(range(queued)):
                yield from comm.recv(buf, source=0, tag=tag)

    cluster = Cluster(2, config=MPIConfig.optimized())
    out["mpi.comm.unexpected_match_us"] = \
        _timed(lambda: cluster.run(unexpected)) / queued * 1e6
    out["mpi.comm.cluster_init_ms"] = \
        _timed(lambda: Cluster(big, config=MPIConfig.optimized())) * 1e3
    return out


def probe_collectives(smoke: bool) -> Values:
    ranks, calls = (12, 2) if smoke else (128, 4)
    cluster = Cluster(ranks, config=MPIConfig.optimized())
    counts = [1024] + [1] * (ranks - 1)
    state: Dict[int, Any] = {}

    def setup(comm):
        n, rank = comm.size, comm.rank
        sendbuf, recvbuf = np.zeros((2, 100)), np.zeros((2, 100))
        sendspecs: List[Any] = [None] * n
        recvspecs: List[Any] = [None] * n
        for slot, peer in enumerate(((rank + 1) % n, (rank - 1) % n)):
            sendspecs[peer] = TypedBuffer(sendbuf, dt.DOUBLE, 100, slot * 800)
            recvspecs[peer] = TypedBuffer(recvbuf, dt.DOUBLE, 100, slot * 800)
        payloads = {(rank + d) % n: np.zeros(16) for d in (1, 5, 7)}
        state[rank] = (np.zeros(counts[rank]), np.zeros(sum(counts)),
                       sendspecs, recvspecs, payloads)
        yield from comm.barrier()

    cluster.run(setup)

    def call(name: str, comm) -> Generator:
        send, recv, sendspecs, recvspecs, payloads = state[comm.rank]
        if name == "allgatherv":
            yield from comm.allgatherv(send, recv, counts)
        elif name == "alltoallw":
            yield from comm.alltoallw(sendspecs, recvspecs)
        elif name == "sparse_alltoall":
            yield from comm.sparse_alltoall(payloads)
        elif name == "allreduce":
            yield from comm.allreduce(comm.rank)
        else:
            yield from comm.barrier()

    out = {}
    for name in ("allgatherv", "alltoallw", "sparse_alltoall", "allreduce",
                 "barrier"):
        def program(comm, name=name):
            for _ in range(calls):
                yield from call(name, comm)

        events, msgs = cluster.engine.events_fired, cluster.net.messages_on_wire
        wall = _timed(lambda: cluster.run(program))
        out[f"mpi.collectives.{name}_ms"] = wall / calls * 1e3
        out[f"mpi.collectives.{name}_events"] = \
            (cluster.engine.events_fired - events) / calls
        out[f"mpi.collectives.{name}_msgs"] = \
            (cluster.net.messages_on_wire - msgs) / calls
    return out


def probe_selection(smoke: bool) -> Values:
    entries, calls = (64, 20) if smoke else (512, 200)
    comm = Cluster(entries, config=MPIConfig.optimized()).comm(0)
    volumes = [8] * entries
    volumes[0] = 32768
    ctx = SelectionContext.for_comm(comm, "allgatherv", volumes, dtype_size=8)

    def selections():
        for _ in range(calls):
            select(comm, "allgatherv", ctx)

    values = [float((i * 7919) % entries) for i in range(entries)]

    def kselects():
        for _ in range(calls):
            k_select(values, entries // 2)

    return {"mpi.algorithms.select_us": _timed(selections) / calls * 1e6,
            "util.kselect.us": _timed(kselects) / calls * 1e6}


# -- datatypes ----------------------------------------------------------------


def probe_datatype_compile(smoke: bool) -> Values:
    n = 100 if smoke else 1500
    rng = np.random.default_rng(12345)
    specs = [random_spec(rng, 2) for _ in range(n)]
    types: List[dt.Datatype] = []
    t_construct = _timed(lambda: types.extend(build_datatype(s) for s in specs))
    ir.cache_clear()

    def compile_all():
        for datatype in types:
            ir.compile_datatype(datatype)

    t_cold = _timed(compile_all)
    t_hit = _timed(compile_all)
    return {"datatypes.typemap.construct_us": t_construct / n * 1e6,
            "datatypes.ir.compile_us": t_cold / n * 1e6,
            "datatypes.ir.cache_hit_us": t_hit / n * 1e6}


def probe_datatype_exec(smoke: bool) -> Values:
    calls, reps = (200, 2) if smoke else (20_000, 10)
    buf = np.zeros(100)

    def typed_buffers():
        for _ in range(calls):
            TypedBuffer(buf, dt.DOUBLE, 100)

    out = {"datatypes.packing.typedbuffer_us": _timed(typed_buffers) / calls * 1e6}
    cases = {label: TypedBuffer(src, DtypeExec.datatype_of(spec))
             for label, src, spec, _ in DtypeExec(smoke).generate(0)}
    corpora = {"strided": ("vector", "face0", "face1", "face2"),
               "gather": ("indexed", "transpose")}
    for corpus, labels in corpora.items():
        tbs = [cases[label] for label in labels]
        packed = [tb.pack() for tb in tbs]  # warms the plans' gather indices
        mbytes = sum(tb.nbytes for tb in tbs) * reps / 1e6

        def pack():
            for _ in range(reps):
                for tb in tbs:
                    tb.pack()

        def unpack():
            for _ in range(reps):
                for tb, data in zip(tbs, packed):
                    tb.unpack(data)

        out[f"datatypes.packing.pack_MBps_{corpus}"] = mbytes / _timed(pack)
        out[f"datatypes.packing.unpack_MBps_{corpus}"] = mbytes / _timed(unpack)
    cost = Cluster(1).cost
    for key, dual in (("single", False), ("dual", True)):
        def plans():
            for _ in range(reps):
                engine_for(cases["transpose"], cost, dual).plan()

        out[f"datatypes.engine.{key}_us"] = _timed(plans) / reps * 1e6
    return out


# -- petsc --------------------------------------------------------------------


def probe_petsc_grid(smoke: bool) -> Values:
    ranks, grid, calls, cycles = (8, 16, 2, 1) if smoke else (16, 48, 10, 3)
    cluster = Cluster(ranks, config=MPIConfig.optimized())
    state: Dict[int, Any] = {}
    init = {"dmda": 0.0, "mg": 0.0}

    def setup(comm):
        t0 = clock()
        da = DMDA(comm, (grid,) * 3, dof=1, stencil="star", stencil_width=1)
        t1 = clock()
        mg = MGSolver(da, nlevels=2, backend="datatype")
        init["dmda"] += t1 - t0
        init["mg"] += clock() - t1
        x, y = da.create_global_vec(), da.create_global_vec()
        x.local[:] = 1.0
        state[comm.rank] = (da, mg, Laplacian(da), x, y, da.create_local_array())
        # build the ghost scatter outside the timed update
        yield from da.global_to_local(x, state[comm.rank][5])

    cluster.run(setup)

    def programs(comm, what):
        da, mg, lap, x, y, larr = state[comm.rank]
        for _ in range(cycles if what == "cycle" else calls):
            if what == "mult":
                yield from lap.mult(x, y)
            elif what == "ghost":
                yield from da.global_to_local(x, larr)
            elif what == "blas1":
                yield from y.axpy(0.5, x)
            else:
                yield from mg.vcycle(0, x, y)

    out = {"petsc.dmda.init_ms": init["dmda"] / ranks * 1e3,
           "petsc.mg.init_ms": init["mg"] / ranks * 1e3}
    for what, name, per, scale in (
            ("mult", "petsc.mat.mult_ms", calls, 1e3),
            ("cycle", "petsc.mg.vcycle_ms", cycles, 1e3),
            ("ghost", "petsc.dmda.ghost_update_ms", calls, 1e3),
            ("blas1", "petsc.vec.blas1_us", calls * ranks, 1e6)):
        events = cluster.engine.events_fired
        out[name] = _timed(lambda: cluster.run(programs, what)) / per * scale
        if what == "ghost":
            out["petsc.dmda.ghost_update_events"] = \
                (cluster.engine.events_fired - events) / calls
    da = state[0][0]
    n = 200 if smoke else 20_000

    def boxes():
        for _ in range(n):
            da.owned_box()

    out["petsc.dmda.owned_box_us"] = _timed(boxes) / n * 1e6
    return out


def probe_petsc_scatter(smoke: bool) -> Values:
    wl = ScatterAssembly(smoke=True)
    if not smoke:
        wl.sizes.update(ranks=16, per=2048, asm_per=256, per_peer=8)
    ranks, calls = wl.sizes["ranks"], 2 if smoke else 10
    src_idx, dst_idx, xvals, targets = wl.generate(0)
    cluster = Cluster(ranks, config=MPIConfig.optimized())
    prof = Profiler.attach(Cluster(ranks, config=MPIConfig.optimized()))
    state: Dict[Any, Any] = {}
    build = [0.0]

    def setup(comm, profiled):
        lay = Layout(comm.size, comm.size * wl.sizes["per"])
        x, y = Vec(comm, lay), Vec(comm, lay)
        t0 = clock()
        sc = VecScatter.from_index_sets(
            comm, lay, GeneralIS(src_idx), lay, GeneralIS(dst_idx))
        if not profiled:
            build[0] += clock() - t0
        asm = Layout(comm.size, comm.size * wl.sizes["asm_per"])
        cached, discover = Vec(comm, asm), Vec(comm, asm)
        cached.set_option("subset_off_proc_entries")
        state[profiled, comm.rank] = (x, y, sc, cached, discover)
        yield from comm.barrier()

    def program(comm, profiled, what):
        x, y, sc, cached, discover = state[profiled, comm.rank]
        idx = targets[comm.rank]
        for _ in range(calls):
            if what in ("datatype", "hand_tuned"):
                yield from sc.scatter(x, y, backend=what)
            else:
                vec = cached if what == "cached" else discover
                vec.set_values(idx, np.ones(idx.size), mode="add")
                yield from vec.assemble()

    cluster.run(setup, False)
    out = {"petsc.scatter.build_ms": build[0] / ranks * 1e3}
    # the first assembly of the caching Vec discovers; time the reuses
    cluster.run(program, False, "cached")
    for what, name in (("datatype", "petsc.scatter.scatter_ms"),
                       ("hand_tuned", "petsc.scatter.scatter_hand_ms"),
                       ("discover", "petsc.vec.assemble_discover_ms"),
                       ("cached", "petsc.vec.assemble_cached_ms")):
        out[name] = _timed(
            lambda: cluster.run(program, False, what)) / calls * 1e3
    # the hit ratio is a counter of the profiler: read it off a second,
    # profiled cluster so the timings above stay unprofiled
    prof.cluster.run(setup, True)
    prof.cluster.run(program, True, "cached")
    hits = prof.metrics.counter("repro_plan_cache_hits_total").total
    misses = prof.metrics.counter("repro_plan_cache_misses_total").total
    out["petsc.commplan.hit_ratio"] = hits / (hits + misses)
    return out


# -- prof ---------------------------------------------------------------------


def probe_prof(smoke: bool) -> Values:
    wl = MgSolve(smoke=True)
    if not smoke:
        wl.sizes.update(ranks=8, grid=32, levels=2, cycles=2)
    walls = {False: [], True: []}
    for i in range(2 if smoke else 6):
        attached = bool(i % 2)
        ctx = wl.cluster_init(wl.generate(0), 0)
        if attached:
            Profiler.attach(ctx.clusters[0])
        wl.run_setup(ctx)
        walls[attached].append(_timed(lambda: wl.run_measured(ctx)))
    n = 1000 if smoke else 200_000

    def null_calls():
        for _ in range(n):
            with NULL_PROFILER.span("p2p", "isend", 0):
                pass
            NULL_PROFILER.count("repro_send_messages_total")

    return {
        "prof.attached_overhead_frac":
            float(np.median(walls[True]) / np.median(walls[False])) - 1.0,
        "prof.null_call_ns": _timed(null_calls) / n * 1e9,
    }


PROBES: List[Callable[[bool], Values]] = [
    probe_engine, probe_network, probe_comm, probe_collectives,
    probe_selection, probe_datatype_compile, probe_datatype_exec,
    probe_petsc_grid, probe_petsc_scatter, probe_prof,
]


def run_all(rec, smoke: bool) -> Values:
    values: Values = {}
    for probe in PROBES:
        with rec.span(probe.__name__):
            values.update(probe(smoke))
    return values
