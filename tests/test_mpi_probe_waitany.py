"""Tests for probe/iprobe and Request.waitany."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.mpi.request import Request
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def test_iprobe_sees_pending_message():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(10), dest=1, tag=3)
            return None
        yield from comm.cpu(1.0)  # let the message arrive unexpected
        status = comm.iprobe(source=0, tag=3)
        assert status is not None
        assert status.nbytes == 80 and status.source == 0
        # probing does not consume: the receive still works
        buf = np.zeros(10)
        yield from comm.recv(buf, source=0, tag=3)
        return True

    assert cluster.run(main)[1]


def test_iprobe_returns_none_when_nothing_pending():
    cluster = make_cluster(2)

    def main(comm):
        assert comm.iprobe() is None
        yield from comm.barrier()
        return True

    assert all(cluster.run(main))


def test_blocking_probe_waits_for_message():
    cluster = make_cluster(2)
    times = {}

    def main(comm):
        if comm.rank == 0:
            yield from comm.cpu(2.0)
            yield from comm.send(np.zeros(5), dest=1, tag=9)
            return None
        status = yield from comm.probe(source=0, tag=9)
        times["probed"] = comm.engine.now
        buf = np.zeros(5)
        yield from comm.recv(buf, source=0, tag=9)
        return status.nbytes

    results = cluster.run(main)
    assert results[1] == 40
    assert times["probed"] >= 2.0


def test_probe_then_sized_receive():
    """The classic probe idiom: learn the size, then allocate."""
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            n = 123
            yield from comm.send(np.arange(n, dtype=np.float64), dest=1)
            return None
        status = yield from comm.probe(source=0)
        buf = np.zeros(status.nbytes // 8)
        yield from comm.recv(buf, source=0)
        return buf.size, float(buf[-1])

    assert cluster.run(main)[1] == (123, 122.0)


def test_waitany_returns_first_completion():
    cluster = make_cluster(3)

    def main(comm):
        if comm.rank == 0:
            bufs = [np.zeros(4), np.zeros(4)]
            reqs = [comm.irecv(bufs[0], source=1), comm.irecv(bufs[1], source=2)]
            idx, status = yield from Request.waitany(reqs)
            # rank 2 sends first (shorter compute)
            first = (idx, status.source)
            yield from Request.waitall([reqs[1 - idx]])
            return first
        yield from comm.cpu(3.0 if comm.rank == 1 else 0.5)
        yield from comm.send(np.zeros(4), dest=0)
        return None

    first = cluster.run(main)[0]
    assert first == (1, 2)


def test_waitany_with_already_done_request():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(2), dest=1)
            return None
        buf = np.zeros(2)
        req = comm.irecv(buf, source=0)
        yield from comm.cpu(1.0)  # request completes meanwhile
        idx, status = yield from Request.waitany([req])
        return idx

    assert cluster.run(main)[1] == 0


def test_waitany_empty_rejected():
    with pytest.raises(ValueError):
        gen = Request.waitany([])
        next(gen)
