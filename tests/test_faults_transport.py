"""Reliable transport under injected wire faults.

The contract: with ``MPIConfig(reliable_transport=True)`` the application
observes *exactly* the data a fault-free run would deliver -- drops and
corruption are masked by ack/retransmit, duplication changes nothing --
and a wire that never delivers surfaces a bounded :class:`TransportError`.
Without it a dropped or corrupted message is lost.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.mpi import Cluster, MPIConfig, RankFailedError, TransportError
from repro.mpi.comm import MAX_RETRANSMITS
from repro.prof import Profiler
from repro.simtime import SimulationDeadlock
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)
RELIABLE = MPIConfig.optimized().with_(reliable_transport=True)


def _ring_exchange(nprocs, config, fault_plan=None, count=64):
    """Every rank sends `count` doubles to its successor; returns buffers."""
    cluster = Cluster(nprocs, config=config, cost=QUIET,
                      fault_plan=fault_plan)
    prof = Profiler.attach(cluster)

    def main(comm):
        succ = (comm.rank + 1) % comm.size
        pred = (comm.rank - 1) % comm.size
        send = np.arange(count, dtype=np.float64) + comm.rank * 1000
        recv = np.zeros(count)
        req = yield from comm.isend(send, dest=succ, tag=7)
        yield from comm.recv(recv, source=pred, tag=7)
        yield from req.wait()
        return recv

    results = cluster.run(main)
    return results, cluster, prof


def _expected(nprocs, count=64):
    return [np.arange(count, dtype=np.float64) + ((r - 1) % nprocs) * 1000
            for r in range(nprocs)]


def test_fault_free_reliable_run_has_zero_retransmits():
    results, _, prof = _ring_exchange(4, RELIABLE)
    for got, want in zip(results, _expected(4)):
        assert np.array_equal(got, want)
    assert prof.metrics.counter("repro_retransmits_total").total == 0
    assert prof.metrics.counter("repro_checksum_failures_total").total == 0


@pytest.mark.parametrize("kind", ["drop", "corrupt"])
def test_payload_faults_are_masked(kind):
    plan = FaultPlan(seed=5)
    getattr(plan, kind)(probability=1.0, nth=2)  # fault the 2nd transfer
    results, cluster, prof = _ring_exchange(4, RELIABLE, fault_plan=plan)
    for got, want in zip(results, _expected(4)):
        assert np.array_equal(got, want)
    assert cluster.fault_injector.injected >= 1
    assert prof.metrics.counter("repro_retransmits_total").total >= 1
    if kind == "corrupt":
        assert prof.metrics.counter(
            "repro_checksum_failures_total").total >= 1


def test_probabilistic_loss_is_masked_and_bounded():
    plan = FaultPlan(seed=11).drop(probability=0.2).corrupt(probability=0.1)
    results, _, prof = _ring_exchange(6, RELIABLE, fault_plan=plan)
    for got, want in zip(results, _expected(6)):
        assert np.array_equal(got, want)
    retrans = prof.metrics.counter("repro_retransmits_total").total
    assert retrans <= (MAX_RETRANSMITS - 1) * 6 * 2  # msgs + acks


def test_total_blackout_raises_transport_error():
    # every payload between ranks 0 and 1 is dropped, forever
    plan = FaultPlan(seed=1).drop(probability=1.0, min_bytes=1)
    cluster = Cluster(2, config=RELIABLE, cost=QUIET, fault_plan=plan)

    def main(comm):
        buf = np.zeros(4)
        if comm.rank == 0:
            yield from comm.send(np.ones(4), dest=1)
        else:
            yield from comm.recv(buf, source=0)
        return True

    outcomes = cluster.run(main, return_exceptions=True)
    assert any(isinstance(o, TransportError) for o in outcomes)
    exc = next(o for o in outcomes if isinstance(o, TransportError))
    assert exc.attempts == MAX_RETRANSMITS


def test_rendezvous_to_a_rank_that_crashes_before_matching_fails_fast():
    """A 32 KiB (rendezvous) send whose receiver crashes before posting
    the receive raises the crash's own error at the crash time: the
    failure sweep fails the unmatched send, not the rendezvous poll."""
    plan = FaultPlan(seed=0).crash(1, at_time=2e-4)
    cluster = Cluster(2, config=RELIABLE, cost=QUIET, fault_plan=plan)
    payload = np.ones(4096)
    assert payload.nbytes > RELIABLE.eager_threshold

    def main(comm):
        if comm.rank == 0:
            try:
                yield from comm.send(payload, dest=1)
            except RankFailedError as exc:
                return exc, comm.engine.now
        else:
            yield from comm.cpu(1e-3)  # still computing when it crashes
            yield from comm.recv(np.zeros(4096), source=0)
        return None

    outcomes = cluster.run(main, return_exceptions=True)
    exc, when = outcomes[0]
    assert (exc.rank, exc.reason) == (1, "injected crash")
    assert when == pytest.approx(2e-4)
    assert isinstance(outcomes[1], RankFailedError)


def test_transport_results_identical_to_fault_free():
    """The lossy reliable run delivers byte-identical application data."""
    clean, _, _ = _ring_exchange(5, RELIABLE)
    plan = FaultPlan(seed=9).drop(probability=0.3)
    lossy, _, _ = _ring_exchange(5, RELIABLE, fault_plan=plan)
    for a, b in zip(clean, lossy):
        assert np.array_equal(a, b)


def test_default_config_path_untouched_by_fault_machinery():
    """An injector that never fires -- an empty plan, or one whose only
    rule lies beyond the run -- simulates exactly what no plan does, on
    either transport."""
    def run(config, plan):
        results, cluster, _ = _ring_exchange(4, config, fault_plan=plan)
        return (cluster.elapsed, cluster.engine.events_fired,
                cluster.net.messages_on_wire, cluster.net.bytes_on_wire,
                [r.tolist() for r in results])

    for config in (MPIConfig.optimized(), RELIABLE):
        bare = run(config, None)
        assert run(config, FaultPlan(seed=1)) == bare
        assert run(config, FaultPlan(seed=1).drop(after=1.0)) == bare


@pytest.mark.parametrize("kind", ["drop", "corrupt"])
def test_best_effort_transport_loses_a_spoiled_payload(kind):
    """Without the reliable transport nothing checks what arrives: a
    dropped or corrupted message is lost, its rendezvous send still
    completes (the bytes left the sender), and its receive never does."""
    plan = getattr(FaultPlan(seed=1), kind)(1.0)
    cluster = Cluster(2, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.ones(4), dest=1, tag=3)        # eager
            yield from comm.send(np.ones(4096), dest=1, tag=4)     # rendezvous
            return True
        small, big = np.zeros(4), np.zeros(4096)
        reqs = [comm.irecv(small, source=0, tag=3),
                comm.irecv(big, source=0, tag=4)]
        for req in reqs:
            yield from req.wait()
        return small

    with pytest.raises(SimulationDeadlock) as info:
        cluster.run(main)
    assert [name for name, _ in info.value.blocked] == ["rank1"]
    assert "recv@1 tag=3" in str(info.value)
    assert cluster._rank_procs[0].result is True
    # one eager transfer and two pipeline chunks, each spoiled once
    assert cluster.fault_injector.counts == {kind: 3}


def test_delay_spike_slows_but_preserves_data():
    cfg = MPIConfig.optimized()
    clean, c_clean, _ = _ring_exchange(3, cfg)
    plan = FaultPlan(seed=2).delay_spike(delay=5e-3, probability=1.0,
                                         min_bytes=1)
    slow, c_slow, _ = _ring_exchange(3, cfg, fault_plan=plan)
    for a, b in zip(clean, slow):
        assert np.array_equal(a, b)
    # the 5 ms NIC stall dominates the sub-10 us clean exchange
    assert c_slow.elapsed > 5e-3 > 100 * c_clean.elapsed


def test_degrade_scales_wire_time():
    cfg = MPIConfig.optimized()
    _, c_clean, _ = _ring_exchange(3, cfg, count=4096)
    plan = FaultPlan(seed=2).degrade(scale=8.0, probability=1.0, min_bytes=1)
    _, c_slow, _ = _ring_exchange(3, cfg, fault_plan=plan, count=4096)
    assert c_slow.elapsed > c_clean.elapsed
