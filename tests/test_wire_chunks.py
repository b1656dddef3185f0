"""A pipelined message on the wire: one transfer per chunk, pinned.

``NetworkModel.transfer`` moves a whole pipelined message: each chunk
consults the fault injector, takes and releases both ports, pays its own
wire time and reports its own :class:`TransferEvent`.  The streams below
were recorded on the commit whose ``Comm._deliver`` still looped over the
chunks itself; the one-generator wire must reproduce them exactly.  Run
this file as a script to print the current tree's streams.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.mpi import Cluster, MPIConfig
from repro.simtime import SimulationDeadlock
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)
CHUNK = QUIET.pipeline_chunk
RELIABLE = MPIConfig.optimized().with_(reliable_transport=True)


def _stream(nprocs, senders, nbytes, config=None, fault_plan=None):
    """Each rank of ``senders`` sends ``nbytes`` to the last rank; returns
    the cluster and its ``(src, dst, nbytes, t_start, t_end, msg_id)``
    transfer stream in completion order."""
    cluster = Cluster(nprocs, config=config or MPIConfig.optimized(),
                      cost=QUIET, heterogeneous=False, fault_plan=fault_plan)
    events = []
    cluster.net.add_transfer_listener(lambda e: events.append(
        (e.src, e.dst, e.nbytes, e.t_start, e.t_end, e.msg_id)))
    sink = nprocs - 1
    count = nbytes // 8

    def main(comm):
        if comm.rank in senders:
            payload = np.arange(count, dtype=np.float64) + comm.rank
            yield from comm.send(payload, dest=sink, tag=comm.rank)
        elif comm.rank == sink:
            bufs = {s: np.zeros(count) for s in senders}
            reqs = [comm.irecv(bufs[s], source=s, tag=s) for s in senders]
            for req in reqs:
                yield from req.wait()
            return bufs

    return cluster, cluster.run(main), events


def rendezvous_stream():
    """One 3.5-chunk rendezvous message."""
    return _stream(2, (0,), 7 * CHUNK // 2)[2]


def contended_stream():
    """Two 2.5-chunk messages contending for rank 2's receive port."""
    return _stream(3, (0, 1), 5 * CHUNK // 2)[2]


PINNED = {
    "rendezvous": [
        (0, 1, 16384, 0.0, 1.5702857142857142e-05, 1),
        (0, 1, 16384, 1.5702857142857142e-05, 3.1405714285714284e-05, 1),
        (0, 1, 16384, 3.1405714285714284e-05, 4.710857142857142e-05, 1),
        (0, 1, 8192, 4.710857142857142e-05, 5.696e-05, 1),
    ],
    "contended": [
        (0, 2, 16384, 0.0, 1.5702857142857142e-05, 1),
        (1, 2, 16384, 0.0, 3.1405714285714284e-05, 2),
        (0, 2, 16384, 1.5702857142857142e-05, 4.710857142857142e-05, 1),
        (1, 2, 16384, 3.1405714285714284e-05, 6.281142857142857e-05, 2),
        (0, 2, 8192, 4.710857142857142e-05, 7.266285714285714e-05, 1),
        (1, 2, 8192, 6.281142857142857e-05, 8.251428571428572e-05, 2),
    ],
}


def test_rendezvous_chunks_pinned():
    assert rendezvous_stream() == PINNED["rendezvous"]


def test_contending_messages_interleave_chunks_fifo():
    assert contended_stream() == PINNED["contended"]


def _drop_second_chunk():
    # zero-byte control transfers do not count toward ``nth``
    return FaultPlan(seed=1).drop(nth=2, min_bytes=1)


def test_dropping_one_chunk_loses_a_best_effort_message():
    with pytest.raises(SimulationDeadlock) as info:
        _stream(2, (0,), 7 * CHUNK // 2, fault_plan=_drop_second_chunk())
    assert [name for name, _ in info.value.blocked] == ["rank1"]


def test_dropping_one_chunk_retransmits_a_reliable_message():
    cluster, results, events = _stream(2, (0,), 7 * CHUNK // 2,
                                       config=RELIABLE,
                                       fault_plan=_drop_second_chunk())
    assert cluster.fault_injector.counts == {"drop": 1}
    assert np.array_equal(results[1][0], np.arange(7 * CHUNK // 16) + 0.0)
    # the whole message went out twice: four chunks per attempt
    payload = [e for e in events if e[0] == 0 and e[2]]
    assert [e[2] for e in payload] == [CHUNK, CHUNK, CHUNK, CHUNK // 2] * 2


if __name__ == "__main__":
    print(f"    \"rendezvous\": {rendezvous_stream()!r},")
    print(f"    \"contended\": {contended_stream()!r},")
