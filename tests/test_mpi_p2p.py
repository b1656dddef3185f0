"""Point-to-point messaging tests."""

import numpy as np
import pytest

from repro.datatypes import DOUBLE, Contiguous, TypedBuffer, Vector
from repro.mpi import ANY_SOURCE, ANY_TAG, Cluster, MPIConfig, MPIError, TruncationError
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n, config=None, **kw):
    kw.setdefault("cost", QUIET)
    kw.setdefault("heterogeneous", False)
    return Cluster(n, config=config or MPIConfig.optimized(), **kw)


def test_send_recv_contiguous():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            data = np.arange(100, dtype=np.float64)
            yield from comm.send(data, dest=1, tag=7)
            return None
        buf = np.zeros(100, dtype=np.float64)
        status = yield from comm.recv(buf, source=0, tag=7)
        return buf.copy(), status

    results = cluster.run(main)
    buf, status = results[1]
    assert np.array_equal(buf, np.arange(100, dtype=np.float64))
    assert status.source == 0 and status.tag == 7 and status.nbytes == 800
    assert cluster.elapsed > 0


def test_send_recv_noncontiguous_column():
    cluster = make_cluster(2)
    n = 32

    def main(comm):
        if comm.rank == 0:
            m = np.arange(n * n, dtype=np.float64).reshape(n, n)
            col = TypedBuffer(m, Vector(n, 1, n, DOUBLE), offset_bytes=3 * 8)
            yield from comm.send(col, dest=1)
            return m
        buf = np.zeros(n, dtype=np.float64)
        yield from comm.recv(buf, source=0)
        return buf

    m, buf = cluster.run(main)
    assert np.array_equal(buf, m[:, 3])


def test_recv_any_source_any_tag():
    cluster = make_cluster(3)

    def main(comm):
        if comm.rank != 0:
            data = np.full(4, float(comm.rank))
            yield from comm.send(data, dest=0, tag=comm.rank * 10)
            return None
        seen = []
        for _ in range(2):
            buf = np.zeros(4)
            status = yield from comm.recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
            seen.append((status.source, status.tag, buf[0]))
        return sorted(seen)

    results = cluster.run(main)
    assert results[0] == [(1, 10, 1.0), (2, 20, 2.0)]


def test_message_ordering_same_pair():
    """Messages between the same pair with the same tag arrive in order."""
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(np.array([float(i)]), dest=1, tag=0)
            return None
        got = []
        for _ in range(5):
            buf = np.zeros(1)
            yield from comm.recv(buf, source=0, tag=0)
            got.append(buf[0])
        return got

    results = cluster.run(main)
    assert results[1] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_isend_irecv_overlap():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            reqs = []
            for i in range(3):
                req = yield from comm.isend(np.full(8, float(i)), dest=1, tag=i)
                reqs.append(req)
            for req in reqs:
                yield from req.wait()
            return None
        bufs = [np.zeros(8) for _ in range(3)]
        reqs = [comm.irecv(bufs[i], source=0, tag=i) for i in (2, 1, 0)]
        for req in reqs:
            yield from req.wait()
        return [b[0] for b in bufs]

    results = cluster.run(main)
    assert results[1] == [0.0, 1.0, 2.0]


def test_sendrecv_pairwise_exchange():
    cluster = make_cluster(2)

    def main(comm):
        other = 1 - comm.rank
        sbuf = np.full(16, float(comm.rank))
        rbuf = np.zeros(16)
        yield from comm.sendrecv(sbuf, other, rbuf, other)
        return rbuf[0]

    results = cluster.run(main)
    assert results == [1.0, 0.0]


def test_truncation_error():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(10), dest=1)
            return None
        buf = np.zeros(5)
        yield from comm.recv(buf, source=0)

    with pytest.raises(TruncationError):
        cluster.run(main)


@pytest.mark.parametrize("count", [16, 4096])  # eager, rendezvous
def test_truncation_fails_the_receive_and_completes_the_send(count):
    # the sender's delivery process used to re-raise the receiver's
    # TruncationError and abort the whole run
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.ones(count), dest=1)
            return "sent"
        yield from comm.recv(np.zeros(count // 2), source=0)

    sent, failed = cluster.run(main, return_exceptions=True)
    assert sent == "sent"
    assert isinstance(failed, TruncationError)


@pytest.mark.parametrize("count", [4, 2048])  # eager, rendezvous
def test_short_message_fills_the_prefix_of_a_noncontiguous_receive(count):
    # MPI allows a message shorter than the receive; delivering one into a
    # strided layout used to abort the run from the delivery process
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.arange(count, dtype=np.float64) + 1.0,
                                 dest=1)
            return None
        buf = np.full(4 * count, -1.0)
        status = yield from comm.recv(
            TypedBuffer(buf, Vector(2 * count, 1, 2, DOUBLE)), source=0)
        return buf, status

    _, (buf, status) = cluster.run(main)
    assert status.nbytes == 8 * count
    assert np.array_equal(buf[0:2 * count:2], np.arange(count) + 1.0)
    assert np.all(buf[2 * count::2] == -1.0)  # layout elements past the message
    assert np.all(buf[1::2] == -1.0)  # the gaps between them


def test_zero_byte_message_costs_alpha():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.empty(0), dest=1)
            return None
        buf = np.empty(0)
        status = yield from comm.recv(buf, source=0)
        return status.nbytes

    results = cluster.run(main)
    assert results[1] == 0
    assert cluster.elapsed >= QUIET.alpha


def test_eager_send_completes_before_recv_posted():
    """A small send must not block waiting for the matching receive."""
    cluster = make_cluster(2)
    timeline = {}

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(8), dest=1)  # 64 B: eager
            timeline["send_done"] = comm.engine.now
            return None
        yield from comm.cpu(1.0)  # receiver busy for a long time
        buf = np.zeros(8)
        yield from comm.recv(buf, source=0)
        timeline["recv_done"] = comm.engine.now

    cluster.run(main)
    assert timeline["send_done"] < 0.01
    assert timeline["recv_done"] >= 1.0


def test_rendezvous_send_waits_for_recv():
    """A large send cannot complete until the receive is posted."""
    cluster = make_cluster(2)
    timeline = {}

    def main(comm):
        if comm.rank == 0:
            data = np.zeros(100_000)  # 800 KB: rendezvous
            yield from comm.send(data, dest=1)
            timeline["send_done"] = comm.engine.now
            return None
        yield from comm.cpu(1.0)
        buf = np.zeros(100_000)
        yield from comm.recv(buf, source=0)

    cluster.run(main)
    assert timeline["send_done"] >= 1.0


def test_noncontiguous_send_charges_search_only_in_baseline():
    n = 8192  # 64 KB column: several pipeline stages, so re-search happens

    def main(comm):
        if comm.rank == 0:
            m = np.zeros((n, 4))
            col = TypedBuffer(m, Vector(n, 1, 4, DOUBLE))
            yield from comm.send(col, dest=1)
            return None
        buf = np.zeros(n)
        yield from comm.recv(buf, source=0)

    base = make_cluster(2, MPIConfig.baseline())
    base.run(main)
    opt = make_cluster(2, MPIConfig.optimized())
    opt.run(main)
    assert base.ledgers[0].get("search") > 0
    assert opt.ledgers[0].get("search") == 0
    assert opt.ledgers[0].get("lookahead") > 0


def test_self_send():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            req = yield from comm.isend(np.arange(4, dtype=np.float64), dest=0)
            buf = np.zeros(4)
            yield from comm.recv(buf, source=0)
            yield from req.wait()
            return buf
        if False:
            yield  # pragma: no cover -- rank 1 is passive in this test
        return None

    results = cluster.run(main)
    assert np.array_equal(results[0], np.arange(4.0))


def test_inferred_count_measures_the_room_past_the_offset():
    """With no ``count`` a send covers what fits *after* ``offset_bytes``,
    and that -- not the whole array -- must be a whole number of items."""
    cluster = make_cluster(2)
    triple = Contiguous(3, DOUBLE)

    def main(comm):
        if comm.rank == 0:
            # 80 - 8 = 72 bytes: exactly three triples
            yield from comm.send(np.arange(10.0), dest=1, datatype=triple,
                                 offset_bytes=8)
            # 72 - 8 = 64 bytes: two triples and 16 bytes that used to be
            # dropped without a word
            with pytest.raises(MPIError, match="64 bytes does not hold a whole"):
                yield from comm.send(np.arange(9.0), dest=1, datatype=triple,
                                     offset_bytes=8)
            return None
        buf = np.zeros(9)
        status = yield from comm.recv(buf, source=0)
        return buf, status.nbytes

    buf, nbytes = cluster.run(main)[1]
    assert nbytes == 72
    assert np.array_equal(buf, np.arange(1.0, 10.0))


def test_invalid_ranks_rejected():
    cluster = make_cluster(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(1), dest=9)
        return None

    with pytest.raises(Exception):
        cluster.run(main)


def test_determinism_same_seed():
    def main(comm):
        other = 1 - comm.rank
        for _ in range(10):
            sbuf = np.zeros(100)
            rbuf = np.zeros(100)
            yield from comm.sendrecv(sbuf, other, rbuf, other)
        return None

    noisy = CostModel(cpu_noise=0.05)
    c1 = Cluster(2, config=MPIConfig.optimized(), cost=noisy, seed=3)
    c1.run(main)
    c2 = Cluster(2, config=MPIConfig.optimized(), cost=noisy, seed=3)
    c2.run(main)
    assert c1.elapsed == c2.elapsed
