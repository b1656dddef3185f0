"""Tests for the NBX sparse dynamic data exchange (``sparse_alltoall``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import DOUBLE, TypedBuffer, Vector
from repro.faults.plan import FaultPlan
from repro.mpi import Cluster, MPIConfig, MPIError, RankFailedError
from repro.mpi.algorithms import SelectionContext
from repro.mpi.algorithms.policies import policy_for
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)

ALGORITHMS = ["dense", "nbx", "nbx_binned"]


def run_sparse(n, pattern, algorithm=None, config=None, fault_plan=None,
               return_exceptions=False):
    """Run one exchange; ``pattern(rank, n)`` builds each rank's payloads."""
    cluster = Cluster(n, config=config or MPIConfig.optimized(), cost=QUIET,
                      heterogeneous=False, fault_plan=fault_plan)

    def main(comm):
        out = yield from comm.sparse_alltoall(pattern(comm.rank, n),
                                              algorithm=algorithm)
        return {src: np.asarray(arr).copy() for src, arr in out.items()}

    return cluster, cluster.run(main, return_exceptions=return_exceptions)


def ring_pattern(rank, n):
    return {(rank + 1) % n: np.full(4, float(rank))}


def sparse_pattern(rank, n):
    """Every other rank is silent; senders hit two peers with different
    volumes (exercises zero-entry ranks and nonuniform sizes)."""
    if rank % 2:
        return {}
    return {
        (rank + 1) % n: np.full(3, float(rank + 1)),
        (rank + 2) % n: np.arange(7, dtype=np.float64) + rank,
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_ring_correct(algorithm, n):
    _, results = run_sparse(n, ring_pattern, algorithm=algorithm)
    for rank, got in enumerate(results):
        pred = (rank - 1) % n
        if n == 1:
            continue
        assert set(got) == {pred}
        np.testing.assert_array_equal(got[pred], np.full(4, float(pred)))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", [3, 5, 6])  # includes non-power-of-two
def test_sparse_pattern_with_silent_ranks(algorithm, n):
    _, results = run_sparse(n, sparse_pattern, algorithm=algorithm)
    expect = [{} for _ in range(n)]
    for src in range(n):
        for dst, arr in sparse_pattern(src, n).items():
            expect[dst][src] = arr
    for rank, got in enumerate(results):
        assert set(got) == set(expect[rank])
        for src in got:
            np.testing.assert_array_equal(got[src], expect[rank][src])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_algorithms_byte_identical(n):
    baseline = None
    for algorithm in ALGORITHMS:
        _, results = run_sparse(n, sparse_pattern, algorithm=algorithm)
        if baseline is None:
            baseline = results
            continue
        for got, want in zip(results, baseline):
            assert set(got) == set(want)
            for src in got:
                np.testing.assert_array_equal(got[src], want[src])


def test_self_entry_and_zero_byte_elision():
    def pattern(rank, n):
        return {rank: np.array([1.5, 2.5]),          # self-copy
                (rank + 1) % n: np.empty(0)}         # elided

    _, results = run_sparse(4, pattern, algorithm="nbx")
    for rank, got in enumerate(results):
        assert set(got) == {rank}
        np.testing.assert_array_equal(got[rank], [1.5, 2.5])


def test_noncontiguous_typed_buffer_payload():
    """A strided Vector send arrives as its packed float64 image."""
    stride, count = 3, 5

    def pattern(rank, n):
        base = np.arange(stride * count, dtype=np.float64) + 100 * rank
        vec = Vector(count=count, blocklength=1, stride=stride, base=DOUBLE)
        return {(rank + 1) % n: TypedBuffer(base, vec, 1)}

    for algorithm in ALGORITHMS:
        _, results = run_sparse(4, pattern, algorithm=algorithm)
        for rank, got in enumerate(results):
            pred = (rank - 1) % 4
            want = (np.arange(stride * count, dtype=np.float64)
                    + 100 * pred)[::stride]
            np.testing.assert_array_equal(got[pred], want)


@given(st.integers(2, 6), st.data())
@settings(max_examples=20, deadline=None)
def test_hypothesis_byte_identity_across_algorithms(n, data):
    """Random sparse patterns (zero-entry ranks, self entries, mixed
    volumes), eager or rendezvous-only: every algorithm returns the
    identical result map."""
    eager = data.draw(st.sampled_from([MPIConfig.eager_threshold, 0]),
                      label="eager_threshold")
    config = MPIConfig.optimized().with_(eager_threshold=eager)
    matrix = {}
    for src in range(n):
        peers = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                   max_size=n), label=f"peers{src}")
        matrix[src] = {
            dst: np.asarray(data.draw(
                st.lists(st.floats(-1e6, 1e6, allow_nan=False,
                                   width=64), min_size=1, max_size=9),
                label=f"payload{src}->{dst}"), dtype=np.float64)
            for dst in peers
        }

    def pattern(rank, _n):
        return dict(matrix[rank])

    baseline = None
    for algorithm in ALGORITHMS:
        _, results = run_sparse(n, pattern, algorithm=algorithm,
                                config=config)
        if baseline is None:
            baseline = results
            continue
        for got, want in zip(results, baseline):
            assert set(got) == set(want)
            for src in got:
                np.testing.assert_array_equal(got[src], want[src])


def test_invalid_destination_and_odd_bytes_raise():
    def bad_dst(rank, n):
        return {n + 3: np.ones(2)}

    with pytest.raises(MPIError, match="invalid destination"):
        run_sparse(2, bad_dst, algorithm="nbx")

    def odd_bytes(rank, n):
        return {(rank + 1) % n: np.ones(3, dtype=np.float32)}

    with pytest.raises(MPIError, match="float64"):
        run_sparse(2, odd_bytes, algorithm="nbx")


def test_policy_selection_is_rank_uniform():
    """mpich stays on the dense protocol; adaptive picks an NBX variant
    from rank-uniform inputs, binned only on mixed volume sets."""
    cost = CostModel(cpu_noise=0.0)
    config = MPIConfig.optimized()
    uniform = SelectionContext(collective="sparse_alltoall", size=8,
                               volumes=(0, 64, 0, 64, 0, 0, 0, 0),
                               dtype_size=8, cost=cost)
    threshold = int(cost.small_message_threshold)
    mixed = SelectionContext(collective="sparse_alltoall", size=8,
                             volumes=(0, 8, 0, 8 * threshold, 0, 0, 0, 0),
                             dtype_size=8, cost=cost)
    assert policy_for(MPIConfig.baseline()).decide(uniform).algorithm == "dense"
    assert policy_for(config).decide(uniform).algorithm == "nbx"
    assert policy_for(config).decide(mixed).algorithm == "nbx_binned"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_crash_surfaces_uniformly(algorithm):
    n, victim = 5, 2
    plan = FaultPlan(seed=7).crash(victim, at_op=2, reason="test crash")

    def pattern(rank, size):
        return {(rank + 1) % size: np.full(6, float(rank)),
                (rank + 2) % size: np.full(2, float(rank))}

    _, outcomes = run_sparse(n, pattern, algorithm=algorithm,
                             fault_plan=plan, return_exceptions=True)
    for rank, out in enumerate(outcomes):
        assert isinstance(out, RankFailedError), (rank, out)
        assert out.rank == victim


def test_consensus_rounds_metric_observed():
    from repro.prof import Profiler

    n = 6
    cluster = Cluster(n, config=MPIConfig.optimized(), cost=QUIET,
                      heterogeneous=False)
    prof = Profiler.attach(cluster)

    def main(comm):
        out = yield from comm.sparse_alltoall(
            ring_pattern(comm.rank, n), algorithm="nbx")
        return len(out)

    cluster.run(main)
    hist = prof.metrics.histogram("repro_nbx_consensus_rounds")
    assert hist.count == n          # one observation per rank
    assert hist.sum >= n            # at least one wakeup each
