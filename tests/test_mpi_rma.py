"""Tests for one-sided communication (windows, put/get/accumulate)."""

import numpy as np
import pytest

from repro.datatypes import DOUBLE, TypedBuffer, Vector
from repro.mpi import Cluster, MPIConfig, MPIError
from repro.mpi.rma import Win
from repro.prof import Profiler
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def test_put_contiguous():
    cluster = make_cluster(2)

    def main(comm):
        local = np.zeros(10)
        win = yield from Win.create(comm, local)
        if comm.rank == 0:
            data = np.arange(10, dtype=np.float64)
            yield from win.put(data, target_rank=1)
        yield from win.fence()
        return local.copy()

    results = cluster.run(main)
    assert np.array_equal(results[1], np.arange(10, dtype=np.float64))
    assert np.all(results[0] == 0.0)


def test_put_with_offset_and_count():
    cluster = make_cluster(2)

    def main(comm):
        local = np.zeros(10)
        win = yield from Win.create(comm, local)
        if comm.rank == 0:
            yield from win.put(np.full(3, 7.0), 1, DOUBLE, 3,
                               target_offset_bytes=4 * 8)
        yield from win.fence()
        return local.copy()

    got = cluster.run(main)[1]
    assert got.tolist() == [0, 0, 0, 0, 7, 7, 7, 0, 0, 0]


@pytest.mark.parametrize("method", ["pack", "multi_rdma"])
def test_put_noncontiguous_target(method):
    """Put into a strided target layout (a matrix column)."""
    n = 8
    cluster = make_cluster(2)

    def main(comm):
        local = np.zeros((n, n))
        win = yield from Win.create(comm, local)
        if comm.rank == 0:
            col = Vector(n, 1, n, DOUBLE)
            yield from win.put(
                np.arange(n, dtype=np.float64), 1, col, 1,
                target_offset_bytes=2 * 8, method=method,
            )
        yield from win.fence()
        return local.copy()

    got = cluster.run(main)[1]
    assert np.array_equal(got[:, 2], np.arange(n, dtype=np.float64))
    assert got[:, :2].sum() == 0 and got[:, 3:].sum() == 0


def test_multi_rdma_faster_for_dense_slower_for_sparse():
    """The related-work trade-off: zero-copy wins with few large blocks,
    host-assisted packing wins with many tiny blocks."""

    def run(nblocks, blocklen, method):
        cluster = make_cluster(2)

        def main(comm):
            local = np.zeros(nblocks * blocklen * 2)
            win = yield from Win.create(comm, local)
            if comm.rank == 0:
                target = Vector(nblocks, blocklen, 2 * blocklen, DOUBLE)
                data = np.ones(nblocks * blocklen)
                t0 = comm.engine.now
                yield from win.put(data, 1, target, 1, method=method)
                yield from win.fence()
                return comm.engine.now - t0
            yield from win.fence()
            return None

        return cluster.run(main)[0]

    # sparse: 4096 single-double blocks
    sparse_pack = run(4096, 1, "pack")
    sparse_rdma = run(4096, 1, "multi_rdma")
    assert sparse_pack < sparse_rdma
    # dense: 2 large blocks
    dense_pack = run(2, 8192, "pack")
    dense_rdma = run(2, 8192, "multi_rdma")
    assert dense_rdma <= dense_pack * 1.05


def test_get():
    cluster = make_cluster(2)

    def main(comm):
        local = np.full(6, float(comm.rank + 1) * 10)
        win = yield from Win.create(comm, local)
        yield from win.fence()
        out = np.zeros(6)
        if comm.rank == 0:
            yield from win.get(out, target_rank=1)
        yield from win.fence()
        return out

    results = cluster.run(main)
    assert np.all(results[0] == 20.0)


def test_accumulate_from_many_origins():
    n = 4
    cluster = make_cluster(n)

    def main(comm):
        local = np.zeros(4)
        win = yield from Win.create(comm, local)
        yield from win.fence()
        # everyone accumulates into rank 0
        yield from win.accumulate(np.full(4, float(comm.rank + 1)), 0)
        yield from win.fence()
        return local.copy()

    results = cluster.run(main)
    assert np.all(results[0] == float(sum(range(1, n + 1))))


@pytest.mark.parametrize("dtype", [np.float32, np.int32])
def test_accumulate_sums_in_the_window_element_type(dtype):
    # every rank adds its own 4-element window into rank 0's
    cluster = make_cluster(2)

    def main(comm):
        local = np.full(4, 1.5 if dtype is np.float32 else 7, dtype=dtype)
        win = yield from Win.create(comm, local)
        yield from win.fence()
        add = np.array([2.5, -1.0, 0.25, 1e3] if dtype is np.float32
                       else [5, -9, 1 << 20, 0], dtype=dtype)
        yield from win.accumulate(add * (comm.rank + 1), 0)
        yield from win.fence()
        return local.copy(), add

    results = cluster.run(main)
    start = np.full(4, 1.5 if dtype is np.float32 else 7, dtype=dtype)
    add = results[1][1]
    assert results[0][0].dtype == dtype
    assert np.array_equal(results[0][0], start + add + 2 * add)
    assert np.array_equal(results[1][0], start)


def test_accumulate_rejects_an_invalid_target_rank():
    cluster = make_cluster(2)

    def main(comm):
        local = np.full(4, 15.0)
        win = yield from Win.create(comm, local)
        if comm.rank == 0:
            yield from win.accumulate(np.ones(4), -1)
        yield from win.fence()

    with pytest.raises(MPIError, match="invalid target rank -1"):
        cluster.run(main)


def test_lock_unlock_passive_target():
    cluster = make_cluster(3)

    def main(comm):
        local = np.zeros(2)
        win = yield from Win.create(comm, local)
        yield from win.fence()
        if comm.rank != 0:
            yield from win.lock(0)
            yield from win.put(np.full(2, float(comm.rank)), 0)
            yield from win.unlock(0)
        yield from win.fence()
        return local.copy()

    results = cluster.run(main)
    # last unlocking rank wins; either way data is consistent (1 or 2)
    assert results[0][0] in (1.0, 2.0)
    assert results[0][0] == results[0][1]


def test_size_mismatch_rejected():
    cluster = make_cluster(2)

    def main(comm):
        local = np.zeros(4)
        win = yield from Win.create(comm, local)
        if comm.rank == 0:
            yield from win.put(np.zeros(2), 1, DOUBLE, 4)
        yield from win.fence()

    with pytest.raises(MPIError):
        cluster.run(main)


def test_invalid_method_rejected():
    cluster = make_cluster(2)

    def main(comm):
        local = np.zeros(4)
        win = yield from Win.create(comm, local)
        if comm.rank == 0:
            yield from win.put(np.zeros(4), 1, method="teleport")
        yield from win.fence()

    with pytest.raises(MPIError):
        cluster.run(main)


def test_two_windows_are_independent():
    cluster = make_cluster(2)

    def main(comm):
        a = np.zeros(2)
        b = np.zeros(2)
        win_a = yield from Win.create(comm, a)
        win_b = yield from Win.create(comm, b)
        if comm.rank == 0:
            yield from win_a.put(np.full(2, 1.0), 1)
            yield from win_b.put(np.full(2, 2.0), 1)
        yield from win_a.fence()
        yield from win_b.fence()
        return a.copy(), b.copy()

    a, b = cluster.run(main)[1]
    assert np.all(a == 1.0) and np.all(b == 2.0)


def test_rma_cpu_charges_run_on_the_io_lane():
    """RMA moves run in background processes, so their CPU charges open
    ``cpu`` spans on the ``io`` lane: the rank's main track keeps its
    one-span-at-a-time rule while the origin pack overlaps its own compute,
    and the target-side unpack and the accumulate are on the timeline."""
    n = 4096
    cluster = make_cluster(2)
    prof = Profiler.attach(cluster)

    def main(comm):
        local = np.zeros(4 * n)
        win = yield from Win.create(comm, local)
        if comm.rank == 0:
            origin = TypedBuffer(np.arange(4.0 * n), Vector(n, 1, 4, DOUBLE))
            yield from win.put(origin, 1, Vector(n, 1, 4, DOUBLE), 1,
                               method="pack")
            yield from comm.cpu(5e-6)
        yield from win.fence()
        if comm.rank == 0:
            yield from win.accumulate(np.ones(4 * n), 1)
        yield from win.fence()

    cluster.run(main)
    cpu = [s for s in prof.tracer.spans if s.category == "cpu"]
    for rank in (0, 1):
        main_track = sorted((s.t_start, s.t_end) for s in cpu
                            if s.track == (rank, "main"))
        for (_, end), (start, _) in zip(main_track, main_track[1:]):
            assert start >= end
    io = {(s.rank, s.name) for s in cpu if s.track[1] == "io"}
    assert io == {(0, "pack"), (1, "unpack"), (1, "compute")}
    assert [s.name for s in cpu if s.track == (0, "main")] == ["compute"]
