"""Tests for Vec.save/load over MPI-IO and the cluster utilization report."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.mpi.io import _SimFileSystem
from repro.petsc import Layout, Vec
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def test_vec_save_load_roundtrip_same_layout():
    cluster = make_cluster(4)

    def main(comm):
        lay = Layout(comm.size, 32)
        v = Vec(comm, lay)
        start, end = v.owned_range
        v.local[:] = np.arange(start, end, dtype=np.float64) ** 2
        yield from v.save("vec.bin")
        w = Vec(comm, lay)
        yield from w.load("vec.bin")
        return bool(np.array_equal(v.local, w.local))

    assert all(cluster.run(main))


def test_vec_save_load_different_decomposition():
    """The on-disk format is global order: re-load with other local sizes."""
    cluster = make_cluster(3)

    def main(comm):
        lay_a = Layout(comm.size, 12, [6, 3, 3])
        v = Vec(comm, lay_a)
        start, end = v.owned_range
        v.local[:] = np.arange(start, end, dtype=np.float64)
        yield from v.save("redistrib.bin")
        lay_b = Layout(comm.size, 12, [2, 2, 8])
        w = Vec(comm, lay_b)
        yield from w.load("redistrib.bin")
        s, e = w.owned_range
        return bool(np.array_equal(w.local, np.arange(s, e, dtype=np.float64)))

    assert all(cluster.run(main))


def test_vec_save_writes_global_order_bytes():
    cluster = make_cluster(2)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 8))
        start, end = v.owned_range
        v.local[:] = np.arange(start, end, dtype=np.float64) * 3
        yield from v.save("ordered.bin")

    cluster.run(main)
    raw = _SimFileSystem.of(cluster).files["ordered.bin"][:64].view(np.float64)
    assert np.array_equal(raw, np.arange(8, dtype=np.float64) * 3)


def test_utilization_report():
    cluster = make_cluster(2)

    def main(comm):
        other = 1 - comm.rank
        yield from comm.cpu(1e-3)
        sbuf = np.zeros(1000)
        rbuf = np.zeros(1000)
        yield from comm.sendrecv(sbuf, other, rbuf, other)

    cluster.run(main)
    report = cluster.utilization_report()
    assert report["messages"] == 2
    assert report["bytes"] == 16000
    assert report["elapsed"] > 1e-3
    assert 0.0 < report["max_send_link_utilization"] <= 1.0
    assert report["cpu_seconds_by_category"]["compute"] == pytest.approx(2e-3)


def test_utilization_report_empty_run():
    cluster = make_cluster(2)

    def main(comm):
        yield from comm.barrier()

    cluster.run(main)
    report = cluster.utilization_report()
    assert report["messages"] >= 1  # the barrier's messages
    assert report["bytes"] == 0     # all zero-byte
