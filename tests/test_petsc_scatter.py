"""Tests for VecScatter: both backends, correctness and cost behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Cluster, MPIConfig
from repro.petsc import GeneralIS, Layout, PETScError, StrideIS, Vec, VecScatter
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def run_scatter(n, src_idx, dst_idx, backend, config=None, global_size=None):
    """dst[dst_idx[k]] = src[src_idx[k]] with src[i] = i globally."""
    config = config or MPIConfig.optimized()
    gsize = global_size or (max(max(src_idx), max(dst_idx)) + 1)
    cluster = Cluster(n, config=config, cost=QUIET, heterogeneous=False)

    def main(comm):
        lay = Layout(comm.size, gsize)
        src = Vec(comm, lay)
        dst = Vec(comm, lay)
        start, end = src.owned_range
        src.local[:] = np.arange(start, end, dtype=np.float64)
        dst.local[:] = -1.0
        sc = VecScatter.from_index_sets(
            comm, lay, GeneralIS(src_idx), lay, GeneralIS(dst_idx)
        )
        yield from sc.scatter(src, dst, backend=backend)
        return dst.local.copy()

    results = cluster.run(main)
    return np.concatenate(results), cluster.elapsed


def oracle(src_idx, dst_idx, gsize):
    out = np.full(gsize, -1.0)
    for s, d in zip(src_idx, dst_idx):
        out[d] = float(s)
    return out


@pytest.mark.parametrize("backend", ["hand_tuned", "datatype"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_identity_scatter(backend, n):
    gsize = 16
    idx = list(range(gsize))
    got, _ = run_scatter(n, idx, idx, backend, global_size=gsize)
    assert np.array_equal(got, np.arange(gsize, dtype=np.float64))


@pytest.mark.parametrize("backend", ["hand_tuned", "datatype"])
def test_reversal_scatter(backend):
    gsize = 12
    src = list(range(gsize))
    dst = list(reversed(src))
    got, _ = run_scatter(3, src, dst, backend, global_size=gsize)
    assert np.array_equal(got, oracle(src, dst, gsize))


@pytest.mark.parametrize("backend", ["hand_tuned", "datatype"])
def test_partial_scatter_leaves_gaps(backend):
    gsize = 20
    src = [0, 5, 10, 15]
    dst = [19, 18, 17, 16]
    got, _ = run_scatter(4, src, dst, backend, global_size=gsize)
    assert np.array_equal(got, oracle(src, dst, gsize))


@pytest.mark.parametrize("backend", ["hand_tuned", "datatype"])
def test_stride_to_stride(backend):
    """Even entries of the first half -> contiguous second half."""
    gsize = 32
    src_is = StrideIS(8, first=0, step=2)
    dst_is = StrideIS(8, first=16, step=1)
    cluster = Cluster(4, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)

    def main(comm):
        lay = Layout(comm.size, gsize)
        src = Vec(comm, lay)
        dst = Vec(comm, lay)
        start, end = src.owned_range
        src.local[:] = np.arange(start, end, dtype=np.float64)
        sc = VecScatter.from_index_sets(comm, lay, src_is, lay, dst_is)
        yield from sc.scatter(src, dst, backend=backend)
        return dst.local.copy()

    got = np.concatenate(cluster.run(main))
    assert np.array_equal(got[16:24], np.arange(0, 16, 2, dtype=np.float64))


def test_backends_agree_on_random_pattern():
    rng = np.random.default_rng(42)
    gsize = 64
    k = 40
    src = rng.integers(0, gsize, k).tolist()
    dst = rng.permutation(gsize)[:k].tolist()
    a, _ = run_scatter(4, src, dst, "hand_tuned", global_size=gsize)
    b, _ = run_scatter(4, src, dst, "datatype", global_size=gsize)
    assert np.array_equal(a, b)
    assert np.array_equal(a, oracle(src, dst, gsize))


def test_duplicate_destination_rejected():
    cluster = Cluster(2, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)

    def main(comm):
        lay = Layout(comm.size, 8)
        VecScatter.from_index_sets(
            comm, lay, GeneralIS([0, 1]), lay, GeneralIS([3, 3])
        )
        yield from comm.barrier()

    with pytest.raises(PETScError) as info:
        cluster.run(main)
    assert str(info.value) == (
        "destination indices must be unique (no overwrites)")


def test_from_index_sets_maps_match_the_mask_rescan_reference():
    """The stable argsort-by-owner split builds exactly the maps (peer
    order, per-peer entry order) of the one-mask-per-peer loop it replaced."""
    nranks, gsize = 5, 203
    rng = np.random.default_rng(11)
    src_idx = rng.integers(0, gsize, size=150)
    dst_idx = rng.permutation(gsize)[:150]
    cluster = Cluster(nranks, config=MPIConfig.optimized(), cost=QUIET)
    lay = Layout(nranks, gsize)
    src_owner, dst_owner = lay.owners(src_idx), lay.owners(dst_idx)
    for rank in range(nranks):
        sc = VecScatter.from_index_sets(
            cluster.comm(rank), lay, GeneralIS(src_idx), lay,
            GeneralIS(dst_idx))
        out = (src_owner == rank) & (dst_owner != rank)
        inn = (dst_owner == rank) & (src_owner != rank)
        want_send = {int(p): lay.to_local(src_idx[out & (dst_owner == p)], rank)
                     for p in np.unique(dst_owner[out])}
        want_recv = {int(p): lay.to_local(dst_idx[inn & (src_owner == p)], rank)
                     for p in np.unique(src_owner[inn])}
        for got, want in ((sc.send_map, want_send), (sc.recv_map, want_recv)):
            assert list(got) == list(want)
            assert all(np.array_equal(got[p], want[p]) for p in want)
        both = (src_owner == rank) & (dst_owner == rank)
        assert np.array_equal(sc.local_src, lay.to_local(src_idx[both], rank))
        assert np.array_equal(sc.local_dst, lay.to_local(dst_idx[both], rank))


def test_length_mismatch_rejected():
    cluster = Cluster(2, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)

    def main(comm):
        lay = Layout(comm.size, 8)
        VecScatter.from_index_sets(
            comm, lay, GeneralIS([0, 1, 2]), lay, GeneralIS([3, 4])
        )
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)


def test_out_of_range_index_rejected():
    cluster = Cluster(2, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)

    def main(comm):
        lay = Layout(comm.size, 8)
        VecScatter.from_index_sets(
            comm, lay, GeneralIS([9]), lay, GeneralIS([0])
        )
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)


def test_unknown_backend_rejected():
    cluster = Cluster(2, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)

    def main(comm):
        lay = Layout(comm.size, 8)
        v = Vec(comm, lay)
        sc = VecScatter.from_index_sets(
            comm, lay, GeneralIS([0]), lay, GeneralIS([1])
        )
        yield from sc.scatter(v, v, backend="warp-drive")

    with pytest.raises(PETScError):
        cluster.run(main)


def test_reversed_scatter_round_trips():
    gsize = 16
    src = [0, 3, 6, 9, 12, 15]
    dst = [1, 2, 4, 8, 10, 14]
    cluster = Cluster(4, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)

    def main(comm):
        lay = Layout(comm.size, gsize)
        a = Vec(comm, lay)
        b = Vec(comm, lay)
        c = Vec(comm, lay)
        start, end = a.owned_range
        a.local[:] = np.arange(start, end, dtype=np.float64)
        c.local[:] = -1.0
        sc = VecScatter.from_index_sets(
            comm, lay, GeneralIS(src), lay, GeneralIS(dst)
        )
        yield from sc.scatter(a, b, backend="datatype")
        yield from sc.reversed().scatter(b, c, backend="datatype")
        return c.local.copy()

    got = np.concatenate(cluster.run(main))
    for s in src:
        assert got[s] == float(s)


def test_datatype_backend_message_counts_follow_config():
    """Baseline datatype path messages everyone; optimised only partners."""
    gsize = 64
    src = list(range(8))           # all owned by rank 0 (of 8)
    dst = [56 + i for i in range(8)]  # all owned by rank 7

    def msgs(config):
        cluster = Cluster(8, config=config, cost=QUIET, heterogeneous=False)

        def main(comm):
            lay = Layout(comm.size, gsize)
            a = Vec(comm, lay)
            b = Vec(comm, lay)
            sc = VecScatter.from_index_sets(
                comm, lay, GeneralIS(src), lay, GeneralIS(dst)
            )
            yield from sc.scatter(a, b, backend="datatype")

        cluster.run(main)
        return cluster.net.messages_on_wire

    assert msgs(MPIConfig.baseline()) == 8 * 7  # zero-byte to everyone
    assert msgs(MPIConfig.optimized()) == 1     # one real message


@given(st.integers(1, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_property_matches_serial_oracle(n, data):
    gsize = data.draw(st.integers(n, 40))
    k = data.draw(st.integers(0, gsize))
    perm = data.draw(st.permutations(range(gsize)))
    dst = list(perm[:k])
    src = [data.draw(st.integers(0, gsize - 1)) for _ in range(k)]
    if k == 0:
        return
    for backend in ("hand_tuned", "datatype"):
        got, _ = run_scatter(n, src, dst, backend, global_size=gsize)
        assert np.array_equal(got, oracle(src, dst, gsize))
