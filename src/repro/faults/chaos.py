"""The chaos harness: seeded fault schedules + checked recovery invariants.

``python -m repro.faults chaos --seeds 1 2 3 4 5`` runs every scenario
below under each seed and fails loudly (exit code 1) when any invariant is
violated.  The scenarios and their invariants:

``fem_lossy`` / ``agv_lossy``
    The FEM Poisson solve / the nonuniform Allgatherv benchmark under a
    random background of message drops, corruption, duplication and delay
    spikes, with the reliable transport enabled.  **Invariant**: the
    application completes with results *identical* to the fault-free run
    of the same configuration (the transport masks every payload fault),
    and the retransmission count stays under the hard bound
    ``(MAX_RETRANSMITS - 1) x fault-free message count``
    (:data:`repro.mpi.comm.MAX_RETRANSMITS`).

``crash_allgatherv`` / ``crash_alltoallw``
    A crash injected while every registered algorithm of the collective is
    running.  **Invariant**: every surviving rank raises
    :class:`RankFailedError` naming the dead rank -- never a hang, never a
    :class:`SimulationDeadlock`, never a wrong answer silently returned.

``checkpoint_restart``
    A crash in the middle of a checkpointed CG solve.  **Invariant**: the
    survivors shrink, restart from the last checkpoint and converge to the
    same discretisation error as the fault-free solve.

``deadlock_diagnosis``
    A deliberately deadlocked program (satellite self-check).
    **Invariant**: the engine's :class:`SimulationDeadlock` carries a
    populated ``blocked`` payload naming each stuck process and what it
    waits on -- the debugging affordance the rest of the harness (and any
    user hitting a real deadlock) relies on.

``assembly_plan_disagree``
    Cached-assembly-plan reuse (``VEC_SUBSET_OFF_PROC_ENTRIES``) with one
    rank's stash growing beyond its recorded pattern.  **Invariant**:
    with guards disabled the disagreement is the documented deterministic
    deadlock (diagnosable ``blocked`` payload); with guards enabled the
    plan-signature agreement converts it into a uniform
    :class:`~repro.petsc.PlanMismatchError` on every rank; and in the
    fault-free control, cached assembly stays byte-identical to plan-free
    assembly while putting strictly fewer messages on the wire.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.mpi import Cluster, MPIConfig, RankFailedError
from repro.mpi.comm import MAX_RETRANSMITS
from repro.simtime.engine import SimulationDeadlock

__all__ = ["ChaosInvariantError", "ChaosRun", "ChaosReport", "run_chaos"]


class ChaosInvariantError(AssertionError):
    """A chaos invariant was violated."""


@dataclass
class ChaosRun:
    """Outcome of one scenario under one seed."""

    scenario: str
    seed: int
    ok: bool
    detail: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class ChaosReport:
    """All runs of one chaos session."""

    runs: List[ChaosRun] = field(default_factory=list)

    @property
    def failures(self) -> List[ChaosRun]:
        return [r for r in self.runs if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {"ok": self.ok, "runs": [asdict(r) for r in self.runs]},
            indent=2, sort_keys=True,
        )

    def summary(self) -> str:
        lines = []
        for r in self.runs:
            mark = "PASS" if r.ok else "FAIL"
            extra = f" -- {r.detail}" if (r.detail and not r.ok) else ""
            lines.append(f"[{mark}] {r.scenario} seed={r.seed}{extra}")
        lines.append(
            f"{len(self.runs) - len(self.failures)}/{len(self.runs)} passed"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# instrumentation helpers


def _counters(cluster: Cluster) -> Dict[str, float]:
    """Fault/transport counters for the report (profiler-backed)."""
    prof = cluster.profiler
    out: Dict[str, float] = {
        "messages_on_wire": float(cluster.net.messages_on_wire),
    }
    if not prof.enabled:
        return out
    for name in ("repro_faults_injected_total", "repro_retransmits_total",
                 "repro_checksum_failures_total",
                 "repro_rank_failures_total"):
        out[name] = prof.metrics.counter(name).total
    return out


def _observer(bucket: Dict):
    """App ``observe`` callback: attach a private profiler, keep handles."""
    def observe(cluster: Cluster) -> None:
        from repro.prof import Profiler
        bucket["cluster"] = cluster
        bucket["profiler"] = Profiler.attach(cluster)
    return observe


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ChaosInvariantError(message)


# ---------------------------------------------------------------------------
# scenarios


def _reliable_config() -> MPIConfig:
    return MPIConfig.optimized().with_(reliable_transport=True)


def _fem_lossy(seed: int, nprocs: int) -> Dict[str, float]:
    from repro.apps.fem_poisson import solve_poisson_fem

    cfg = _reliable_config()
    clean_bucket: Dict = {}
    clean = solve_poisson_fem(nprocs, n=10, config=cfg,
                              observe=_observer(clean_bucket))
    clean_counts = _counters(clean_bucket["cluster"])
    _require(clean_counts.get("repro_retransmits_total", 0) == 0,
             "fault-free reliable run performed retransmissions")

    plan = FaultPlan.random(seed, nprocs)
    bucket: Dict = {}
    res = solve_poisson_fem(nprocs, n=10, config=cfg, fault_plan=plan,
                            observe=_observer(bucket))
    counts = _counters(bucket["cluster"])

    _require(res.converged, "faulted solve did not converge")
    _require(res.iterations == clean.iterations,
             f"iteration count drifted: {res.iterations} != "
             f"{clean.iterations}")
    _require(res.error_max == clean.error_max,
             f"solution not byte-identical: error_max {res.error_max!r} "
             f"!= {clean.error_max!r}")
    bound = (MAX_RETRANSMITS - 1) * clean_counts["messages_on_wire"]
    _require(counts.get("repro_retransmits_total", 0) <= bound,
             f"retransmissions {counts.get('repro_retransmits_total')} "
             f"exceed bound {bound}")
    return counts


def _agv_lossy(seed: int, nprocs: int) -> Dict[str, float]:
    from repro.apps.allgatherv_bench import allgatherv_benchmark

    cfg = _reliable_config()
    clean_bucket: Dict = {}
    clean = allgatherv_benchmark(nprocs, 512, cfg,
                                 observe=_observer(clean_bucket))
    clean_counts = _counters(clean_bucket["cluster"])
    _require(clean.correct, "fault-free benchmark produced wrong data")
    _require(clean_counts.get("repro_retransmits_total", 0) == 0,
             "fault-free reliable run performed retransmissions")

    plan = FaultPlan.random(seed, nprocs)
    bucket: Dict = {}
    res = allgatherv_benchmark(nprocs, 512, cfg, fault_plan=plan,
                               observe=_observer(bucket))
    counts = _counters(bucket["cluster"])
    _require(res.correct,
             "gathered data corrupted despite reliable transport")
    bound = (MAX_RETRANSMITS - 1) * clean_counts["messages_on_wire"]
    _require(counts.get("repro_retransmits_total", 0) <= bound,
             f"retransmissions exceed bound {bound}")
    return counts


def _crash_collective(seed: int, nprocs: int, collective: str) -> Dict[str, float]:
    """Crash one rank inside every registered algorithm of ``collective``."""
    from repro.mpi.algorithms import REGISTRY
    from repro.prof import Profiler

    counts: Dict[str, float] = {}
    for algorithm in REGISTRY.names(collective):
        n = nprocs
        if algorithm == "recursive_doubling" and n & (n - 1):
            # the algorithm only applies to power-of-two sizes
            n = 1 << (n.bit_length() - 1)
        victim = 1 + seed % (n - 1)
        plan = FaultPlan(seed=seed).crash(victim, at_op=2 + seed % 6,
                                          reason=f"chaos {collective}")
        cluster = Cluster(n, config=MPIConfig.optimized(),
                          fault_plan=plan)
        Profiler.attach(cluster)

        if collective == "allgatherv":
            counts_v = [3] * n
            counts_v[0] = 257  # outlier pattern exercises adaptive paths
            total = sum(counts_v)

            def main(comm):
                send = np.full(counts_v[comm.rank], float(comm.rank))
                recv = np.zeros(total)
                for _ in range(4):
                    yield from comm.allgatherv(send, recv, counts_v,
                                               algorithm=algorithm)
                return True
        else:
            from repro.datatypes import DOUBLE, TypedBuffer

            def main(comm):
                n = comm.size
                count = 32
                sendbuf = np.full((n, count), float(comm.rank))
                recvbuf = np.zeros((n, count))
                sendspecs = [
                    TypedBuffer(sendbuf, DOUBLE, count,
                                offset_bytes=p * count * 8)
                    for p in range(n)
                ]
                recvspecs = [
                    TypedBuffer(recvbuf, DOUBLE, count,
                                offset_bytes=p * count * 8)
                    for p in range(n)
                ]
                for _ in range(4):
                    yield from comm.alltoallw(sendspecs, recvspecs,
                                              algorithm=algorithm)
                return True

        try:
            outcomes = cluster.run(main, return_exceptions=True)
        except SimulationDeadlock as exc:
            raise ChaosInvariantError(
                f"{collective}/{algorithm}: deadlock instead of failure "
                f"propagation; blocked={exc.blocked!r}"
            ) from None
        for rank, out in enumerate(outcomes):
            if rank == victim:
                _require(isinstance(out, RankFailedError),
                         f"{collective}/{algorithm}: victim outcome "
                         f"{out!r}")
                continue
            _require(isinstance(out, RankFailedError),
                     f"{collective}/{algorithm}: rank {rank} got {out!r} "
                     "instead of RankFailedError")
            _require(out.rank == victim,
                     f"{collective}/{algorithm}: rank {rank} blames rank "
                     f"{out.rank}, victim was {victim}")
        run_counts = _counters(cluster)
        _require(run_counts.get("repro_rank_failures_total", 0) >= 1,
                 f"{collective}/{algorithm}: failure not counted")
        for k, v in run_counts.items():
            counts[f"{algorithm}.{k}"] = v
    return counts


def _checkpoint_restart(seed: int, nprocs: int) -> Dict[str, float]:
    from repro.apps.fem_poisson import solve_poisson_fem

    clean = solve_poisson_fem(nprocs, n=10)
    victim = 1 + seed % (nprocs - 1)
    plan = FaultPlan(seed=seed).crash(
        victim, at_time=clean.simulated_time * 0.5,
        reason="chaos crash mid-solve")
    bucket: Dict = {}
    res = solve_poisson_fem(nprocs, n=10, fault_plan=plan,
                            observe=_observer(bucket), checkpoint_every=5)
    counts = _counters(bucket["cluster"])
    _require(res.converged, "restarted solve did not converge")
    _require(abs(res.error_max - clean.error_max) < 1e-6,
             f"restarted solve drifted: {res.error_max} vs "
             f"{clean.error_max}")
    _require(counts.get("repro_rank_failures_total", 0) == 1,
             "expected exactly one rank failure")
    return counts


def _deadlock_diagnosis(seed: int, nprocs: int) -> Dict[str, float]:
    cluster = Cluster(2, config=MPIConfig.optimized())

    def main(comm):
        # both ranks receive, nobody sends: a textbook deadlock
        buf = np.zeros(1)
        yield from comm.recv(buf, source=1 - comm.rank)

    try:
        cluster.run(main)
    except SimulationDeadlock as exc:
        _require(bool(exc.blocked), "deadlock reported without a payload")
        names = [name for name, _wait in exc.blocked]
        _require(any(name.startswith("rank") for name in names),
                 f"blocked payload does not name the ranks: {exc.blocked!r}")
        for name, wait in exc.blocked:
            _require(bool(wait),
                     f"process {name!r} blocked on an unnamed target")
        return {"blocked": float(len(exc.blocked))}
    raise ChaosInvariantError("deadlocked program terminated cleanly")


def _assembly_plan_disagree(seed: int, nprocs: int) -> Dict[str, float]:
    """``VEC_SUBSET_OFF_PROC_ENTRIES`` reuse with ranks disagreeing.

    One rank's stash pattern grows beyond its cached plan from round
    ``1`` on while every other rank still conforms.  Unguarded reuse
    then mixes cached point-to-point with fresh discovery -- the
    documented PETSc deadlock.  Three invariants:

    1. guards off: a deterministic :class:`SimulationDeadlock` whose
       ``blocked`` payload names every stuck rank (never a wrong
       answer),
    2. guards on: the plan-signature agreement turns the same program
       into a *uniform* :class:`PlanMismatchError` on **all** ranks,
    3. fault-free control: cached assembly is byte-identical to
       plan-free assembly and puts strictly fewer messages on the wire.
    """
    from repro.petsc import Layout, PlanMismatchError, Vec
    from repro.prof import Profiler

    n = nprocs
    size_g = 4 * n
    victim = 1 + seed % (n - 1)

    def program(diverge: bool, guard: bool, rounds: int):
        def main(comm):
            lay = Layout(comm.size, size_g)
            v = Vec(comm, lay)
            v.set_option("subset_off_proc_entries", guard=guard)
            chunk = size_g // comm.size
            base = [((comm.rank + 1) % comm.size) * chunk]
            for rnd in range(rounds):
                tgt = list(base)
                if diverge and comm.rank == victim and rnd >= 1:
                    tgt.append(((comm.rank + 3) % comm.size) * chunk + 2)
                v.set_values(np.asarray(tgt, dtype=np.int64),
                             np.full(len(tgt), float(comm.rank + rnd)),
                             mode="add")
                yield from v.assemble()
            return v.local.copy()
        return main

    # -- fault-free control: cached vs plan-free, byte-identical, fewer
    # sends.  Six rounds: the guard agreement and the one-time pattern
    # fingerprint cost messages too, and amortise after ~4 cached rounds.
    control_rounds = 6
    cached_cluster = Cluster(n, config=MPIConfig.optimized())
    Profiler.attach(cached_cluster)
    cached = cached_cluster.run(program(diverge=False, guard=True,
                                        rounds=control_rounds))

    def plain_main(comm):
        lay = Layout(comm.size, size_g)
        v = Vec(comm, lay)
        chunk = size_g // comm.size
        for rnd in range(control_rounds):
            v.set_values(np.asarray([((comm.rank + 1) % comm.size) * chunk],
                                    dtype=np.int64),
                         np.asarray([float(comm.rank + rnd)]), mode="add")
            yield from v.assemble()
        return v.local.copy()

    plain_cluster = Cluster(n, config=MPIConfig.optimized())
    Profiler.attach(plain_cluster)
    plain = plain_cluster.run(plain_main)
    for rank, (a, b) in enumerate(zip(cached, plain)):
        _require(np.array_equal(a, b),
                 f"cached assembly diverged from plan-free on rank {rank}")
    cached_msgs = cached_cluster.net.messages_on_wire
    plain_msgs = plain_cluster.net.messages_on_wire
    _require(cached_msgs < plain_msgs,
             f"plan reuse did not reduce traffic: {cached_msgs} cached vs "
             f"{plain_msgs} plan-free messages")

    # -- guards on: uniform PlanMismatchError on every rank
    guarded = Cluster(n, config=MPIConfig.optimized())
    outcomes = guarded.run(program(diverge=True, guard=True, rounds=3),
                           return_exceptions=True)
    for rank, out in enumerate(outcomes):
        _require(isinstance(out, PlanMismatchError),
                 f"guarded rank {rank} got {out!r} instead of "
                 "PlanMismatchError")

    # -- guards off: the documented deadlock, with a diagnosable payload
    unguarded = Cluster(n, config=MPIConfig.optimized())
    try:
        unguarded.run(program(diverge=True, guard=False, rounds=3),
                      return_exceptions=True)
    except SimulationDeadlock as exc:
        _require(bool(exc.blocked),
                 "unguarded disagreement deadlocked without a payload")
        for name, wait in exc.blocked:
            _require(bool(wait),
                     f"process {name!r} blocked on an unnamed target")
        return {
            "messages_cached": float(cached_msgs),
            "messages_plan_free": float(plain_msgs),
            "blocked": float(len(exc.blocked)),
        }
    raise ChaosInvariantError(
        "unguarded plan disagreement completed instead of deadlocking")


#: below 4 ranks ``assembly_plan_disagree``'s extra entry hits a known peer
#: and a seeded crash can miss a 2-rank collective (at 1, a modulo by 0)
MIN_NPROCS = 4

SCENARIOS: Dict[str, Callable[[int, int], Dict[str, float]]] = {
    "fem_lossy": _fem_lossy,
    "agv_lossy": _agv_lossy,
    "crash_allgatherv": lambda s, n: _crash_collective(s, n, "allgatherv"),
    "crash_alltoallw": lambda s, n: _crash_collective(s, n, "alltoallw"),
    "checkpoint_restart": _checkpoint_restart,
    "deadlock_diagnosis": _deadlock_diagnosis,
    "assembly_plan_disagree": _assembly_plan_disagree,
}


def run_chaos(seeds=(1, 2, 3, 4, 5), nprocs: int = 8,
              scenarios: Optional[List[str]] = None,
              log: Optional[Callable[[str], None]] = None) -> ChaosReport:
    """Run every scenario under every seed; returns a :class:`ChaosReport`."""
    if nprocs < MIN_NPROCS:
        raise ValueError(
            f"chaos scenarios need nprocs >= {MIN_NPROCS}, got {nprocs}")
    report = ChaosReport()
    names = scenarios or list(SCENARIOS)
    for name in names:
        fn = SCENARIOS[name]
        for seed in seeds:
            try:
                metrics = fn(seed, nprocs)
                run = ChaosRun(name, seed, True, metrics=metrics or {})
            except ChaosInvariantError as exc:
                run = ChaosRun(name, seed, False, detail=str(exc))
            except SimulationDeadlock as exc:
                run = ChaosRun(
                    name, seed, False,
                    detail=f"unexpected deadlock; blocked={exc.blocked!r}")
            except Exception as exc:  # noqa: BLE001 - report, don't mask
                run = ChaosRun(name, seed, False,
                               detail=f"{type(exc).__name__}: {exc}")
            report.runs.append(run)
            if log is not None:
                mark = "PASS" if run.ok else "FAIL"
                log(f"[{mark}] {name} seed={seed}"
                    + (f" -- {run.detail}" if run.detail else ""))
    return report
