"""Tests for the collective-algorithm registry, selection policies, shared
argument validation and the tuning-table machinery
(:mod:`repro.mpi.algorithms`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import DOUBLE, TypedBuffer, Vector
from repro.mpi import Cluster, MPIConfig, MPIError
from repro.mpi.algorithms import (
    REGISTRY,
    Algorithm,
    AutotunedPolicy,
    RulePolicy,
    SelectionContext,
    TuningTable,
    bucket_key,
    check_spec_lengths,
    normalize_counts_displs,
    policy_for,
    select,
    size_bucket,
    total_bucket,
    volume_profile,
)
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
    for name in ("allgatherv", "alltoallw", "allreduce", "barrier", "bcast",
                 "gather_obj", "gatherv", "scatterv", "alltoall",
                 "reduce", "allreduce_array", "scan"):
        assert name in collectives, f"{name} missing from {collectives}"


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


def test_predicates_filter_candidates():
    # non-power-of-two excludes recursive doubling
    names = [a.name for a in
             REGISTRY.candidates("allgatherv", ctx_for([1] * 6))]
    assert "recursive_doubling" not in names
    assert "dissemination" in names and "ring" in names
    # noncontiguous element types leave only the ring
    names = [a.name for a in REGISTRY.candidates(
        "allgatherv", ctx_for([1] * 8, contiguous=False))]
    assert names == ["ring"]


# -- shared counts/displs validation ------------------------------------------

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


# -- policy resolution --------------------------------------------------------

def test_policy_for_derives_from_flags():
    for config in (BASE, OPT, BASE.with_(adaptive_allgatherv=True)):
        assert isinstance(policy_for(config), RulePolicy)


def test_policy_for_picks_the_table_when_one_is_named(tmp_path):
    path = str(tmp_path / "t.json")
    TuningTable().save(path)
    assert isinstance(policy_for(OPT.with_(tuning_table=path)),
                      AutotunedPolicy)


def test_policy_instances_are_cached_per_config():
    assert policy_for(MPIConfig.baseline()) is policy_for(MPIConfig.baseline())


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
    assert policy_for(BASE).decide(ctx_for(counts)).algorithm == mpich_pick
    assert policy_for(OPT).decide(ctx_for(counts)).algorithm == adaptive_pick


def test_allgatherv_non_power_of_two_uses_dissemination():
    counts = [32768] + [1] * 4
    decision = policy_for(OPT).decide(ctx_for(counts))
    assert decision.algorithm == "dissemination"


def test_noncontiguous_always_rides_the_ring():
    for config in (BASE, OPT):
        for counts in (SMALL, OUTLIER_LARGE):
            ctx = ctx_for(counts, contiguous=False)
            assert policy_for(config).decide(ctx).algorithm == "ring"


def test_alltoallw_decision_parity():
    ctx = ctx_for([100] * 8, collective="alltoallw")
    assert policy_for(BASE).decide(ctx).algorithm == "round_robin"
    assert policy_for(OPT).decide(ctx).algorithm == "binned"


def test_flag_policy_mixes_per_collective():
    cfg = BASE.with_(adaptive_allgatherv=True)  # binned_alltoallw stays off
    pol = policy_for(cfg)
    agv = pol.decide(ctx_for(OUTLIER_LARGE))
    a2a = pol.decide(ctx_for([100] * 8, collective="alltoallw"))
    assert (agv.algorithm, agv.policy) == ("recursive_doubling", "adaptive")
    assert (a2a.algorithm, a2a.policy) == ("round_robin", "mpich")


def test_adaptive_charges_detection_only_in_long_regime():
    pol = policy_for(OPT)
    long_u = pol.decide(ctx_for(UNIFORM_LARGE))
    assert long_u.detect_seconds == pytest.approx(detection_cpu_seconds(8))
    short = pol.decide(ctx_for(SMALL))
    assert short.detect_seconds == 0.0
    assert policy_for(BASE).decide(ctx_for(UNIFORM_LARGE)).detect_seconds == 0.0


def test_select_forced_algorithm_and_validation():
    class FakeComm:
        size = 8
        config = OPT
        cost = QUIET

    decision = select(FakeComm(), "allgatherv", ctx_for(SMALL),
                      algorithm="ring")
    assert decision.algorithm == "ring" and decision.policy == "forced"
    with pytest.raises(MPIError):
        select(FakeComm(), "allgatherv", ctx_for(SMALL),
               algorithm="quantum")


# -- tuning table -------------------------------------------------------------

def test_volume_profile_classes():
    assert volume_profile([]) == "zero"
    assert volume_profile([0, 0, 0]) == "zero"
    assert volume_profile([0, 0, 0, 5, 5, 0]) == "sparse"
    assert volume_profile([4096] + [1] * 7) == "outlier"
    assert volume_profile([100] * 8) == "uniform"


def test_size_and_total_buckets():
    assert size_bucket(1) == 1
    assert size_bucket(5) == 8
    assert size_bucket(64) == 64
    assert total_bucket(0) == 0
    assert total_bucket(1024) == 10
    assert total_bucket(1500) == 10


def test_bucket_key_format():
    key = bucket_key(ctx_for([4096] + [1] * 7))
    assert key == "allgatherv|p8|b15|outlier"


def test_tuning_table_record_and_lookup():
    table = TuningTable()
    table.record("k", {"ring": 2e-6, "dissemination": 1e-6})
    assert table.lookup("k") == "dissemination"
    assert table.lookup("untrained") is None
    # accumulation across scenarios can flip the winner
    table.record("k", {"ring": 1e-6, "dissemination": 5e-6})
    assert table.entries["k"]["scenarios"] == 2
    assert table.lookup("k") == "ring"


def test_tuning_table_roundtrip(tmp_path):
    table = TuningTable(cost_model={"alpha": 1e-6})
    table.record("allgatherv|p8|b15|outlier", {"ring": 3e-6, "dissemination": 1e-6})
    path = str(tmp_path / "table.json")
    table.save(path)
    loaded = TuningTable.load(path)
    assert loaded.lookup("allgatherv|p8|b15|outlier") == "dissemination"
    assert loaded.cost_model["alpha"] == 1e-6
    with pytest.raises(ValueError, match="repro-tuning/1"):
        TuningTable.from_dict({"schema": "nope"})


def test_autotuned_policy_table_hit_and_fallback():
    ctx = ctx_for(OUTLIER_LARGE)
    table = TuningTable()
    table.record(bucket_key(ctx), {"ring": 9e-6, "recursive_doubling": 1e-6})
    pol = AutotunedPolicy(OPT, table=table)
    hit = pol.decide(ctx)
    assert (hit.algorithm, hit.policy, hit.reason) == \
        ("recursive_doubling", "autotuned", "table")
    # table decisions never charge the detection pass
    assert hit.detect_seconds == 0.0
    # untrained bucket: adaptive fallback with honest detection cost
    other = ctx_for([8192] * 16)
    decision = pol.decide(other)
    assert decision.policy == "autotuned"
    assert decision.reason.startswith("untrained->")
    assert decision.algorithm == "ring"  # uniform large -> adaptive says ring
    assert decision.detect_seconds == pytest.approx(detection_cpu_seconds(16))


def test_the_table_is_the_only_decision_store():
    """Every decide() reads the table: an entry changed between two calls
    on one policy changes the second decision (no stale cached pick)."""
    ctx = ctx_for(OUTLIER_LARGE)
    key = bucket_key(ctx)
    table = TuningTable(entries={key: {"algorithm": "recursive_doubling"}})
    pol = AutotunedPolicy(OPT, table=table)
    assert pol.decide(ctx).algorithm == "recursive_doubling"
    table.entries[key] = {"algorithm": "ring"}
    second = pol.decide(ctx)
    assert (second.algorithm, second.reason) == ("ring", "table")
    del table.entries[key]
    assert pol.decide(ctx).reason == "untrained->adaptive:outliers"


def test_trained_bucket_with_an_inapplicable_winner_is_not_untrained():
    """A 48-rank call lands in the p64 bucket, whose trained winner
    (recursive doubling) needs a power-of-two communicator: the rule
    decides, and the reason says the pick was inapplicable, not that the
    bucket is untrained."""
    n = 48
    ctx = ctx_for([8192] + [1] * (n - 1))  # one 64 KiB outlier
    key = bucket_key(ctx)
    assert key == "allgatherv|p64|b16|outlier"
    table = TuningTable(entries={key: {"algorithm": "recursive_doubling"}})
    decision = AutotunedPolicy(OPT, table=table).decide(ctx)
    assert decision.algorithm == "dissemination"
    assert decision.policy == "autotuned"
    assert decision.reason == "inapplicable->adaptive:outliers"
    assert decision.detect_seconds == pytest.approx(detection_cpu_seconds(n))
    # an unregistered winner is reported the same way
    table.entries[key] = {"algorithm": "bogus"}
    assert AutotunedPolicy(OPT, table=table).decide(ctx).reason == \
        "inapplicable->adaptive:outliers"


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
    """Byte-identical receive buffers across every registered algorithm the
    registry deems applicable -- zero counts, non-pow-2 N and
    rendezvous-only delivery included."""
    counts = data.draw(st.lists(st.integers(0, 32), min_size=n, max_size=n)
                       .filter(lambda c: sum(c) > 0))
    config = OPT.with_(eager_threshold=data.draw(EAGER_THRESHOLDS,
                                                 label="eager_threshold"))
    ctx = ctx_for(counts, size=n)
    names = [a.name for a in REGISTRY.candidates("allgatherv", ctx)]
    assert "ring" in names  # the ring is always applicable
    reference = None
    for algorithm in names:
        results = run_allgatherv(n, counts, config, algorithm)
        blob = np.concatenate(results).tobytes()
        if reference is None:
            reference = blob
        else:
            assert blob == reference, f"{algorithm} disagrees with {names[0]}"


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


def test_autotuned_alltoallw_is_rank_uniform(tmp_path):
    """Every rank of one alltoallw lands in the same table bucket.  A key
    built from each rank's own send volumes puts rank 0 (three peers) and
    the others (one peer each) in different buckets, and this two-entry
    table would then send rank 0 to round_robin and the rest to binned,
    whose wire protocols do not interoperate: round_robin waits for
    zero-byte messages binned never sends."""
    n, count = 4, 8
    edges = {0: (1, 2, 3), 1: (0,), 2: (0,), 3: (1,)}
    table = TuningTable(entries={
        "alltoallw|p4|b7|uniform": {"algorithm": "round_robin"},
        "alltoallw|p4|b6|sparse": {"algorithm": "binned"},
    })
    path = str(tmp_path / "t.json")
    table.save(path)
    keys = {bucket_key(ctx_for([count if p in edges[r] else 0
                                     for p in range(n)],
                               collective="alltoallw"))
            for r in range(n)}
    assert len(keys) == 1
    cluster = Cluster(n, config=OPT.with_(tuning_table=path), cost=QUIET,
                      heterogeneous=False)

    def main(comm):
        sendbuf = np.full(n * count, float(comm.rank + 1))
        recvbuf = np.zeros(n * count)
        sendspecs = [TypedBuffer(sendbuf, DOUBLE, count,
                                 offset_bytes=p * count * 8)
                     if p in edges[comm.rank] else None for p in range(n)]
        recvspecs = [TypedBuffer(recvbuf, DOUBLE, count,
                                 offset_bytes=p * count * 8)
                     if comm.rank in edges[p] else None for p in range(n)]
        yield from comm.alltoallw(sendspecs, recvspecs)
        return recvbuf

    for rank, recv in enumerate(cluster.run(main)):
        for p in range(n):
            want = float(p + 1) if rank in edges[p] else 0.0
            assert (recv[p * count:(p + 1) * count] == want).all()
