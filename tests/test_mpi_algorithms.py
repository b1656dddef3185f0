"""Tests for the collective-algorithm registry, the selection rule
(:mod:`repro.mpi.algorithms`), each algorithm's own domain guard and the
v-collectives' argument validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import DOUBLE, TypedBuffer, Vector
from repro.mpi import Cluster, MPIConfig, MPIError
from repro.mpi.algorithms import (
    REGISTRY,
    Algorithm,
    SelectionContext,
    decide,
    select,
)
from repro.mpi.collectives.allgatherv import normalize_counts_displs
from repro.mpi.collectives.alltoallw import check_spec_lengths
from repro.mpi.outlier import detection_cpu_seconds
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)
BASE = MPIConfig.baseline()
OPT = MPIConfig.optimized()
#: the default eager threshold, and 0: every message takes rendezvous
EAGER_THRESHOLDS = st.sampled_from([OPT.eager_threshold, 0])


def ctx_for(counts, size=None, dtype_size=8, contiguous=True,
            collective="allgatherv"):
    return SelectionContext(
        collective=collective,
        size=size if size is not None else len(counts),
        volumes=tuple(c * dtype_size for c in counts),
        dtype_size=dtype_size,
        contiguous=contiguous,
        cost=QUIET,
    )


# -- registry -----------------------------------------------------------------

def test_registry_knows_every_collective():
    collectives = REGISTRY.collectives()
    assert collectives == sorted([
        "allgatherv", "alltoallw", "allreduce", "barrier", "bcast",
        "gather_obj", "alltoall", "sparse_alltoall"])
    assert sum(len(REGISTRY.names(c)) for c in collectives) == 13


def test_registry_allgatherv_candidates():
    assert REGISTRY.names("allgatherv") == [
        "dissemination", "recursive_doubling", "ring"]
    assert REGISTRY.names("alltoallw") == ["binned", "round_robin"]


def test_registry_unknown_name_raises():
    with pytest.raises(MPIError, match="registered"):
        REGISTRY.get("allgatherv", "quantum")
    with pytest.raises(MPIError):
        REGISTRY.get("no_such_collective", "ring")


def test_registry_duplicate_with_different_fn_rejected():
    def other(*a):  # pragma: no cover - never run
        yield

    with pytest.raises(ValueError, match="already registered"):
        REGISTRY.register(Algorithm("allgatherv", "ring", other))
    # re-registering the same fn is idempotent
    ring = REGISTRY.get("allgatherv", "ring")
    REGISTRY.register(ring)


# -- counts/displs and spec-vector validation ---------------------------------

def test_normalize_counts_displs_defaults():
    counts, displs = normalize_counts_displs(4, [3, 0, 2, 1])
    assert counts == [3, 0, 2, 1]
    assert displs == [0, 3, 3, 5]
    assert all(isinstance(x, int) for x in counts + displs)


def test_normalize_counts_displs_explicit_displs_kept():
    counts, displs = normalize_counts_displs(3, [1, 1, 1], [10, 20, 30])
    assert displs == [10, 20, 30]


def test_normalize_rejects_bad_lengths():
    with pytest.raises(MPIError, match="3 entries for 4 ranks"):
        normalize_counts_displs(4, [1, 2, 3])
    with pytest.raises(MPIError, match="displs has 2 entries"):
        normalize_counts_displs(3, [1, 1, 1], [0, 1])


def test_normalize_rejects_negative_counts():
    with pytest.raises(MPIError, match="negative count"):
        normalize_counts_displs(3, [1, -1, 1])


def test_check_spec_lengths():
    check_spec_lengths(2, [None, None], [None, None])
    with pytest.raises(MPIError, match="2 entries"):
        check_spec_lengths(2, [None], [None, None])


# -- decision parity with the pre-refactor dispatch ---------------------------

SMALL = [10] * 8                       # 640 B total: short regime
UNIFORM_LARGE = [4096] * 8             # 256 KiB total, uniform
OUTLIER_LARGE = [32768] + [1] * 7      # one 256 KiB outlier


@pytest.mark.parametrize("counts,mpich_pick,adaptive_pick", [
    (SMALL, "recursive_doubling", "recursive_doubling"),
    (UNIFORM_LARGE, "ring", "ring"),
    (OUTLIER_LARGE, "ring", "recursive_doubling"),
])
def test_allgatherv_decision_parity(counts, mpich_pick, adaptive_pick):
    """baseline()/optimized() decisions pinned to the pre-refactor logic."""
    assert decide(BASE, ctx_for(counts)).algorithm == mpich_pick
    assert decide(OPT, ctx_for(counts)).algorithm == adaptive_pick


def test_allgatherv_non_power_of_two_uses_dissemination():
    counts = [32768] + [1] * 4
    decision = decide(OPT, ctx_for(counts))
    assert decision.algorithm == "dissemination"


def test_noncontiguous_always_rides_the_ring():
    for config in (BASE, OPT):
        for counts in (SMALL, OUTLIER_LARGE):
            ctx = ctx_for(counts, contiguous=False)
            assert decide(config, ctx).algorithm == "ring"


def test_alltoallw_decision_parity():
    ctx = ctx_for([100] * 8, collective="alltoallw")
    assert decide(BASE, ctx).algorithm == "round_robin"
    assert decide(OPT, ctx).algorithm == "binned"


def test_flag_policy_mixes_per_collective():
    cfg = BASE.with_(adaptive_allgatherv=True)  # binned_alltoallw stays off
    agv = decide(cfg, ctx_for(OUTLIER_LARGE))
    a2a = decide(cfg, ctx_for([100] * 8, collective="alltoallw"))
    assert (agv.algorithm, agv.policy) == ("recursive_doubling", "adaptive")
    assert (a2a.algorithm, a2a.policy) == ("round_robin", "mpich")


def test_adaptive_charges_detection_only_in_long_regime():
    long_u = decide(OPT, ctx_for(UNIFORM_LARGE))
    assert long_u.detect_seconds == pytest.approx(detection_cpu_seconds(8))
    short = decide(OPT, ctx_for(SMALL))
    assert short.detect_seconds == 0.0
    assert decide(BASE, ctx_for(UNIFORM_LARGE)).detect_seconds == 0.0


def test_decide_rejects_an_unknown_collective():
    with pytest.raises(MPIError, match="quantum"):
        decide(OPT, ctx_for([1] * 4, collective="quantum"))


def test_select_forced_algorithm_and_validation():
    comm = Cluster(8, config=OPT, cost=QUIET).comm(0)
    decision = select(comm, "allgatherv", ctx_for(SMALL), algorithm="ring")
    assert decision.algorithm == "ring" and decision.policy == "forced"
    with pytest.raises(MPIError):
        select(comm, "allgatherv", ctx_for(SMALL), algorithm="quantum")


# -- end-to-end: selection inside real clusters -------------------------------

def run_allgatherv(n, counts, config, algorithm=None):
    cluster = Cluster(n, config=config, cost=QUIET, heterogeneous=False)
    total = int(np.sum(counts))

    def main(comm):
        send = np.full(counts[comm.rank], float(comm.rank + 1))
        recv = np.zeros(total)
        yield from comm.allgatherv(send, recv, list(counts))
        return recv

    def main_forced(comm):
        send = np.full(counts[comm.rank], float(comm.rank + 1))
        recv = np.zeros(total)
        yield from comm.allgatherv(send, recv, list(counts),
                                   algorithm=algorithm)
        return recv

    return cluster.run(main if algorithm is None else main_forced)


@given(st.integers(2, 9), st.data())
@settings(max_examples=25, deadline=None)
def test_property_every_applicable_allgatherv_algorithm_agrees(n, data):
    """Byte-identical receive buffers across every allgatherv algorithm
    whose domain holds N (ring and dissemination always, recursive
    doubling on a power of two) -- zero counts, non-pow-2 N and
    rendezvous-only delivery included."""
    counts = data.draw(st.lists(st.integers(0, 32), min_size=n, max_size=n)
                       .filter(lambda c: sum(c) > 0))
    config = OPT.with_(eager_threshold=data.draw(EAGER_THRESHOLDS,
                                                 label="eager_threshold"))
    names = ["ring", "dissemination"]
    if n & (n - 1) == 0:
        names.append("recursive_doubling")
    reference = None
    for algorithm in names:
        results = run_allgatherv(n, counts, config, algorithm)
        blob = np.concatenate(results).tobytes()
        if reference is None:
            reference = blob
        else:
            assert blob == reference, f"{algorithm} disagrees with {names[0]}"


# -- each algorithm's own domain guard ----------------------------------------

@pytest.mark.parametrize("n", [3, 6])
def test_forced_recursive_doubling_off_a_power_of_two_raises(n):
    with pytest.raises(MPIError, match="power-of-two"):
        run_allgatherv(n, [2] * n, OPT, "recursive_doubling")


@pytest.mark.parametrize("algorithm", ["recursive_doubling", "dissemination"])
def test_forced_tree_over_noncontiguous_multi_block_regions_raises(algorithm):
    """A tree forwards several contribution regions as one HIndexed
    message, which a noncontiguous element type cannot form."""
    n = 4
    elem = Vector(2, 1, 2, DOUBLE)
    span = elem.extent // 8
    counts = [2] * n
    cluster = Cluster(n, config=OPT, cost=QUIET, heterogeneous=False)

    def main(comm):
        send = np.ones(counts[comm.rank] * span)
        recv = np.zeros(sum(counts) * span)
        yield from comm.allgatherv(send, recv, counts, datatype=elem,
                                   algorithm=algorithm)

    with pytest.raises(MPIError, match="non-contiguous element types"):
        cluster.run(main)


def test_noncontiguous_element_type_runs_on_the_ring():
    """A strided (noncontiguous) element type must survive default selection
    even in the outlier regime where the adaptive rule wants a tree."""
    n = 4
    elem = Vector(2, 1, 2, DOUBLE)      # 2 doubles picked from a 3-double span
    assert not elem.is_contiguous()
    span = elem.extent // 8             # doubles spanned per element
    counts = [1030, 1, 1, 1]            # > 16 KiB total: long regime, outlier
    displs = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(int).tolist()
    total = int(np.sum(counts))
    cluster = Cluster(n, config=OPT, cost=QUIET, heterogeneous=False)

    def main(comm):
        send = np.full(counts[comm.rank] * span, float(comm.rank + 1))
        recv = np.zeros(total * span)
        yield from comm.allgatherv(send, recv, counts, displs, datatype=elem)
        return recv

    for recv in cluster.run(main):
        for b in range(n):
            off = displs[b] * span
            for e in range(counts[b]):
                assert recv[off + e * span] == float(b + 1)
                assert recv[off + e * span + 2] == float(b + 1)
                assert recv[off + e * span + 1] == 0.0  # the gap stays clean


@given(st.integers(2, 6), st.data())
@settings(max_examples=20, deadline=None)
def test_property_alltoallw_algorithms_agree(n, data):
    """round_robin and binned produce byte-identical receive buffers on
    randomized per-peer volumes (zeros included), eager or
    rendezvous-only."""
    volumes = data.draw(st.lists(
        st.lists(st.integers(0, 20), min_size=n, max_size=n),
        min_size=n, max_size=n))
    config = OPT.with_(eager_threshold=data.draw(EAGER_THRESHOLDS,
                                                 label="eager_threshold"))
    for i in range(n):
        volumes[i][i] = 0  # keep self-exchange trivial
    cap = max(max(row) for row in volumes) + 1

    def run(algorithm):
        cluster = Cluster(n, config=config, cost=QUIET, heterogeneous=False)

        def main(comm):
            sendbuf = np.arange(n * cap, dtype=np.float64) + comm.rank * 1000
            recvbuf = np.zeros(n * cap)
            sendspecs, recvspecs = [], []
            for peer in range(n):
                c_out = volumes[comm.rank][peer]
                c_in = volumes[peer][comm.rank]
                sendspecs.append(
                    TypedBuffer(sendbuf, DOUBLE, c_out, offset_bytes=peer * cap * 8)
                    if c_out else None)
                recvspecs.append(
                    TypedBuffer(recvbuf, DOUBLE, c_in, offset_bytes=peer * cap * 8)
                    if c_in else None)
            yield from comm.alltoallw(sendspecs, recvspecs, algorithm=algorithm)
            return recvbuf

        return np.concatenate(cluster.run(main)).tobytes()

    assert run("round_robin") == run("binned")


def test_selection_metrics_emitted():
    from repro.prof import Profiler

    n = 4
    cluster = Cluster(n, config=OPT, cost=QUIET, heterogeneous=False)
    prof = Profiler.attach(cluster)
    counts = [16] * n

    def main(comm):
        recv = np.zeros(sum(counts))
        send = np.full(counts[comm.rank], 1.0)
        yield from comm.allgatherv(send, recv, counts)
        yield from comm.barrier()

    cluster.run(main)
    counter = prof.metrics.counter("repro_algorithm_selections_total")
    assert counter.value(labels={
        "collective": "allgatherv", "algorithm": "recursive_doubling",
        "policy": "adaptive"}) == n
    assert counter.value(labels={
        "collective": "barrier", "algorithm": "dissemination",
        "policy": "adaptive"}) == n
