"""Tests for Allgatherv algorithms and the adaptive selection logic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Cluster, MPIConfig
from repro.mpi.algorithms import SelectionContext, select
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def run_allgatherv(n, counts, config, algorithm=None, seed=0):
    """All ranks contribute rank-stamped data; return (results, elapsed)."""
    cluster = Cluster(n, config=config, cost=QUIET, heterogeneous=False, seed=seed)
    displs = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(int).tolist()
    total = int(np.sum(counts))

    def main(comm):
        send = np.full(counts[comm.rank], float(comm.rank + 1))
        recv = np.zeros(total)
        yield from comm.allgatherv(send, recv, counts, displs, algorithm=algorithm)
        return recv

    results = cluster.run(main)
    return results, cluster.elapsed


def expected(counts):
    parts = [np.full(c, float(r + 1)) for r, c in enumerate(counts)]
    return np.concatenate(parts) if parts else np.zeros(0)


@pytest.mark.parametrize("algorithm", ["ring", "recursive_doubling", "dissemination"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_algorithms_correct_uniform(algorithm, n):
    counts = [3] * n
    results, _ = run_allgatherv(n, counts, MPIConfig.optimized(), algorithm)
    exp = expected(counts)
    for r in results:
        assert np.array_equal(r, exp)


@pytest.mark.parametrize("algorithm", ["ring", "dissemination"])
@pytest.mark.parametrize("n", [3, 5, 7, 12])
def test_algorithms_correct_non_power_of_two(algorithm, n):
    counts = [(r % 3) + 1 for r in range(n)]
    results, _ = run_allgatherv(n, counts, MPIConfig.optimized(), algorithm)
    exp = expected(counts)
    for r in results:
        assert np.array_equal(r, exp)


def test_recursive_doubling_rejects_non_power_of_two():
    with pytest.raises(Exception):
        run_allgatherv(3, [1, 1, 1], MPIConfig.optimized(), "recursive_doubling")


@pytest.mark.parametrize("n", [4, 8])
def test_nonuniform_with_zero_counts(n):
    counts = [0] * n
    counts[1] = 5
    counts[n - 1] = 2
    for algorithm in ("ring", "recursive_doubling", "dissemination"):
        results, _ = run_allgatherv(n, counts, MPIConfig.optimized(), algorithm)
        exp = expected(counts)
        for r in results:
            assert np.array_equal(r, exp)


def test_one_large_contribution_correct_all_algorithms():
    n = 8
    counts = [1] * n
    counts[0] = 4096  # 32 KB outlier
    for algorithm in ("ring", "recursive_doubling", "dissemination", None):
        for config in (MPIConfig.baseline(), MPIConfig.optimized()):
            results, _ = run_allgatherv(n, counts, config, algorithm)
            exp = expected(counts)
            for r in results:
                assert np.array_equal(r, exp)


def test_adaptive_beats_ring_on_outlier_workload():
    """The paper's Fig. 14 situation: one big block, everyone else tiny."""
    n = 16
    counts = [1] * n
    counts[0] = 16384  # 128 KB from rank 0
    _, t_ring = run_allgatherv(n, counts, MPIConfig.baseline(), "ring")
    _, t_tree = run_allgatherv(n, counts, MPIConfig.baseline(), "recursive_doubling")
    assert t_tree < t_ring


def test_ring_competitive_on_uniform_large_volumes():
    """For uniform volumes both algorithms move (N-1) blocks per rank; in the
    contention-free alpha-beta model they are near-equal (the ring's real
    advantage -- nearest-neighbour locality -- is outside the model).  What
    matters for the paper is that the ring is NOT pathological here, unlike
    the outlier case where it is ~N/log(N) slower."""
    n = 8
    counts = [8192] * n  # 64 KB each
    _, t_ring = run_allgatherv(n, counts, MPIConfig.baseline(), "ring")
    _, t_tree = run_allgatherv(n, counts, MPIConfig.baseline(), "recursive_doubling")
    assert t_ring < t_tree * 1.15


class _FakeComm:
    def __init__(self, size, config, cost):
        self.size = size
        self.config = config
        self.cost = cost


def _select_algorithm(comm, counts, dtype):
    """The pre-registry helper, reconstructed on the policy layer."""
    ctx = SelectionContext.for_comm(
        comm, "allgatherv",
        volumes=[c * dtype.size for c in counts],
        dtype_size=dtype.size,
        contiguous=dtype.is_contiguous(),
    )
    return select(comm, "allgatherv", ctx).algorithm


def test_selection_logic():
    from repro.datatypes import DOUBLE

    base = _FakeComm(8, MPIConfig.baseline(), QUIET)
    opt = _FakeComm(8, MPIConfig.optimized(), QUIET)
    uniform_large = [4096] * 8
    outlier_large = [1] * 8
    outlier_large[0] = 32768
    small = [10] * 8
    # small totals take the tree path everywhere
    assert _select_algorithm(base, small, DOUBLE) == "recursive_doubling"
    assert _select_algorithm(opt, small, DOUBLE) == "recursive_doubling"
    # large uniform stays on the ring in both configurations
    assert _select_algorithm(base, uniform_large, DOUBLE) == "ring"
    assert _select_algorithm(opt, uniform_large, DOUBLE) == "ring"
    # large with outliers: only the optimised config escapes the ring
    assert _select_algorithm(base, outlier_large, DOUBLE) == "ring"
    assert _select_algorithm(opt, outlier_large, DOUBLE) == "recursive_doubling"
    # non-power-of-two world uses dissemination
    opt5 = _FakeComm(5, MPIConfig.optimized(), QUIET)
    assert _select_algorithm(opt5, [32768, 1, 1, 1, 1], DOUBLE) == "dissemination"
    # the allgatherv flag alone switches the rule
    flagged = _FakeComm(8, MPIConfig.baseline().with_(
        adaptive_allgatherv=True), QUIET)
    assert _select_algorithm(flagged, outlier_large, DOUBLE) == "recursive_doubling"


def test_default_selection_runs_inside_collective():
    n = 8
    counts = [1] * n
    counts[0] = 16384
    results, _ = run_allgatherv(n, counts, MPIConfig.optimized(), None)
    exp = expected(counts)
    for r in results:
        assert np.array_equal(r, exp)


@given(
    st.integers(2, 9),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_property_all_algorithms_agree(n, data):
    counts = data.draw(
        st.lists(st.integers(0, 40), min_size=n, max_size=n).filter(lambda c: sum(c) > 0)
    )
    exp = expected(counts)
    algorithms = ["ring", "dissemination"]
    if n & (n - 1) == 0:
        algorithms.append("recursive_doubling")
    for algorithm in algorithms:
        results, _ = run_allgatherv(n, counts, MPIConfig.optimized(), algorithm)
        for r in results:
            assert np.array_equal(r, exp)
