"""Tests for the single- vs dual-context pack engines (paper section 4.1)."""

import numpy as np
import pytest

from repro.datatypes import (
    DOUBLE,
    Contiguous,
    DualContextEngine,
    Indexed,
    Resized,
    SingleContextEngine,
    Subarray,
    TypedBuffer,
    Vector,
    engine_for,
    ir,
)
from repro.datatypes.engine import unpack_stage_cost
from repro.datatypes.flatten import BlockList
from repro.mpi import Cluster, MPIConfig
from repro.prof import Profiler
from repro.util import CostModel


def sparse_type(nblocks, block_bytes=24, gap=8):
    """A vector of `nblocks` short blocks -- classified sparse."""
    doubles = block_bytes // 8
    stride = doubles + gap // 8
    return Vector(nblocks, doubles, stride, DOUBLE)


COST = CostModel(cpu_noise=0.0)


def test_contiguous_type_has_no_processing_cost():
    dt = Contiguous(100_000, DOUBLE)
    blocks = dt.flatten()
    for cls in (SingleContextEngine, DualContextEngine):
        stages = cls(blocks, COST).plan()
        assert len(stages) == -(-dt.size // COST.pipeline_chunk)
        assert all(s.cpu_s == 0.0 for s in stages)
        assert all(s.dense for s in stages)


def test_sparse_classification():
    dt = sparse_type(1000)
    eng = DualContextEngine(dt.flatten(), COST)
    assert not eng.classify(0)


def test_dense_classification():
    # 4 KB contiguous runs are dense
    dt = Vector(100, 512, 1024, DOUBLE)
    eng = DualContextEngine(dt.flatten(), COST)
    assert eng.classify(0)


def test_single_context_search_grows_per_stage():
    dt = sparse_type(20_000)
    stages = SingleContextEngine(dt.flatten(), COST).plan()
    searches = [s.search_s for s in stages]
    assert len(searches) > 10
    assert searches[0] == 0.0  # first stage starts at block 0
    # strictly increasing: each stage re-walks everything already packed
    assert all(b > a for a, b in zip(searches, searches[1:]))


def test_dual_context_never_searches():
    dt = sparse_type(20_000)
    stages = DualContextEngine(dt.flatten(), COST).plan()
    assert all(s.search_s == 0.0 for s in stages)
    assert all(s.lookahead_s > 0.0 for s in stages)


def test_search_total_quadratic_vs_constant():
    """Doubling the datatype should ~4x the baseline search time but only
    ~2x the optimised engine's total look-ahead time."""
    small = sparse_type(10_000).flatten()
    large = sparse_type(20_000).flatten()
    s_small = sum(s.search_s for s in SingleContextEngine(small, COST).plan())
    s_large = sum(s.search_s for s in SingleContextEngine(large, COST).plan())
    assert s_large / s_small == pytest.approx(4.0, rel=0.1)
    d_small = sum(s.lookahead_s for s in DualContextEngine(small, COST).plan())
    d_large = sum(s.lookahead_s for s in DualContextEngine(large, COST).plan())
    assert d_large / d_small == pytest.approx(2.0, rel=0.1)


def test_pack_cost_identical_between_engines():
    dt = sparse_type(5000)
    s1 = SingleContextEngine(dt.flatten(), COST).plan()
    s2 = DualContextEngine(dt.flatten(), COST).plan()
    assert [s.pack_s for s in s1] == [s.pack_s for s in s2]
    assert [s.nbytes for s in s1] == [s.nbytes for s in s2]


def test_stages_cover_payload_exactly():
    dt = sparse_type(777)
    stages = DualContextEngine(dt.flatten(), COST).plan()
    assert stages[0].start == 0
    for a, b in zip(stages, stages[1:]):
        assert b.start == a.start + a.nbytes
    assert stages[-1].start + stages[-1].nbytes == dt.size


def test_dense_stages_have_no_copy_cost():
    dt = Vector(100, 4096, 8192, DOUBLE)  # 32 KB dense runs
    stages = SingleContextEngine(dt.flatten(), COST).plan()
    assert all(s.dense for s in stages)
    assert all(s.search_s == 0.0 for s in stages)
    # iovec setup only: far cheaper than copying the chunk
    for s in stages:
        assert s.pack_s < s.nbytes * COST.copy_byte / 10


def test_engine_for_factory():
    dt = sparse_type(10)
    # the engine walks the shared plan's stream, offset or not
    tb = TypedBuffer(np.zeros(dt.extent + 8, dtype=np.uint8), dt, offset_bytes=8)
    shared = dt.flatten()
    for dual, cls in ((True, DualContextEngine), (False, SingleContextEngine)):
        engine = engine_for(tb, COST, dual)
        assert isinstance(engine, cls)
        assert engine.blocks is shared


def test_empty_plan_for_zero_size():
    # datatypes can't be empty, a hand-built block list can
    assert DualContextEngine(BlockList([], []), COST).plan() == ()
    dt = Contiguous(1, DOUBLE)
    stages = DualContextEngine(dt.flatten(), COST).plan()
    assert len(stages) == 1 and stages[0].nbytes == 8


def test_unpack_stage_cost():
    assert unpack_stage_cost(1000, 10, COST, contiguous=True) == 0.0
    expect = 1000 * COST.copy_byte + 10 * COST.block_overhead
    assert unpack_stage_cost(1000, 10, COST, contiguous=False) == pytest.approx(expect)


def test_lookahead_clipped_at_tail():
    dt = sparse_type(5)  # fewer blocks than lookahead_depth
    stages = DualContextEngine(dt.flatten(), COST).plan()
    assert stages[0].lookahead_s == pytest.approx(5 * COST.lookahead_block)


# -- engines are costed once and shared through the compiled plan ------------

def dtype_exec_shaped():
    """The six layouts of the ``dtype_exec`` benchmark workload, small."""
    n, cube = 96, 24
    rng = np.random.default_rng(0)
    lens = rng.integers(1, 4, size=6000)
    disps = np.cumsum(rng.integers(0, 4, size=6000) + np.r_[0, lens[:-1]])
    types = {"transpose": Contiguous(n, Resized(Vector(n, 1, n, DOUBLE), 8)),
             "indexed": Indexed(lens, disps, DOUBLE),
             "vector": Vector(20_000, 1, 4, DOUBLE)}
    for d in range(3):
        sub, start = [cube] * 3, [0] * 3
        sub[d], start[d] = 2, cube - 3
        types[f"face{d}"] = Subarray((cube,) * 3, sub, start, DOUBLE)
    return {label: TypedBuffer(np.zeros(ir.compile_datatype(dt).end_bytes // 8),
                               dt)
            for label, dt in types.items()}


def senders_totals(stages):
    """The per-phase totals as ``Comm.isend`` used to accumulate them."""
    look = search = pack = 0.0
    for stage in stages:
        look += stage.lookahead_s
        search += stage.search_s
        pack += stage.pack_s
    return look, search, pack


@pytest.mark.parametrize("dual", (False, True))
def test_shared_engine_equals_a_fresh_walk(dual):
    cls = DualContextEngine if dual else SingleContextEngine
    for label, tb in dtype_exec_shaped().items():
        fresh = cls(tb.blocks, COST).plan()
        engine = engine_for(tb, COST, dual)
        assert engine.stages == fresh and len(fresh) > 0, label
        # == and not approx: simulated time is pinned bit for bit
        assert (engine.lookahead_s, engine.search_s, engine.pack_s) \
            == senders_totals(fresh), label
        assert engine.cpu_s == sum(s.cpu_s for s in fresh), label
        # a second send of the same structure walks nothing
        again = TypedBuffer(tb.buffer.copy(), tb.datatype)
        assert engine_for(again, COST, dual) is engine
        assert engine.plan() is engine.stages


def test_shared_engines_are_per_cost_model_and_per_kind():
    tb = dtype_exec_shaped()["transpose"]
    halved = COST.with_(pipeline_chunk=COST.pipeline_chunk // 2)
    seen = {}
    for cost in (COST, halved):
        for dual in (False, True):
            cls = DualContextEngine if dual else SingleContextEngine
            engine = seen[cost, dual] = engine_for(tb, cost, dual)
            assert isinstance(engine, cls) and engine.cost is cost
            assert engine.stages == cls(tb.blocks, cost).plan()
    assert len(set(map(id, seen.values()))) == 4
    assert len(seen[halved, True].stages) > len(seen[COST, True].stages)
    assert seen[COST, False].search_s > 0.0 == seen[COST, True].search_s
    # an equal CostModel built separately finds the same engine
    assert engine_for(tb, CostModel(cpu_noise=0.0), True) is seen[COST, True]


def test_cache_clear_drops_the_engines_with_the_plan():
    dt = sparse_type(4000)
    buf = np.zeros(dt.extent // 8)
    tb = TypedBuffer(buf, dt)
    engine = engine_for(tb, COST, False)
    assert tb.plan.engines == {(COST, False): engine}
    ir.cache_clear()
    again = TypedBuffer(buf, dt)
    assert again.plan is not tb.plan and again.plan.engines == {}
    rebuilt = engine_for(again, COST, False)
    assert rebuilt is not engine and rebuilt.stages == engine.stages


@pytest.mark.parametrize("config", [MPIConfig.baseline(), MPIConfig.optimized()],
                         ids=["baseline", "optimized"])
def test_cache_clear_between_sends_of_one_persistent_type(config):
    # engines, BlockList and copy program all live on the plan: dropping
    # the cache between two sends of one datatype object (and of the
    # TypedBuffers already bound to the old plan) must rebuild them to
    # the same bytes and the same simulated time
    def run(clear):
        ir.cache_clear()
        dt = sparse_type(3000)
        n = dt.extent // 8
        cluster = Cluster(2, config=config, cost=COST, heterogeneous=False)
        src = np.arange(2.0 * n).reshape(2, n)
        bound = TypedBuffer(src[1], dt)        # keeps the first plan alive
        got = np.zeros((3, n))
        marks, plans = [], []

        def main(comm):
            for step, payload in enumerate((src[0], bound, src[1])):
                if clear and step:
                    ir.cache_clear()
                if comm.rank == 0:
                    tb = (payload if isinstance(payload, TypedBuffer)
                          else TypedBuffer(payload, dt))
                    plans.append(tb.plan)
                    yield from comm.send(tb, dest=1, tag=step)
                else:
                    yield from comm.recv(got[step], source=0, tag=step,
                                         datatype=dt)
                yield from comm.barrier()
                marks.append(comm.engine.now)

        cluster.run(main)
        return got, marks, cluster.engine.events_fired, len(set(map(id, plans)))

    kept, cleared = run(False), run(True)
    assert np.array_equal(kept[0], cleared[0]) and kept[0].any()
    assert kept[1] == cleared[1] and kept[2] == cleared[2]
    # the sender really used a recompiled plan, and the old one for `bound`
    assert (kept[3], cleared[3]) == (1, 2)


@pytest.mark.parametrize("config, stages, researches", [
    (MPIConfig.baseline(), 46, 36), (MPIConfig.optimized(), 46, 0)],
    ids=["baseline", "optimized"])
def test_profiled_stage_counters_are_unchanged(config, stages, researches):
    # two sends of each layout: the second reads the remembered walk and
    # must count exactly what the first did (literals from the commit
    # before the walk was remembered)
    cluster = Cluster(2, config=config, cost=COST, heterogeneous=False)
    prof = Profiler.attach(cluster)
    buffers = [dtype_exec_shaped(), dtype_exec_shaped()]

    def main(comm):
        for case, tb in enumerate(buffers[comm.rank].values()):
            for _ in range(2):
                if comm.rank == 0:
                    yield from comm.send(tb, dest=1, tag=case)
                else:
                    yield from comm.recv(tb, source=0, tag=case)

    cluster.run(main)
    snap = prof.snapshot()
    assert snap["repro_pack_stages_total"] == stages
    assert snap.get("repro_research_total", 0) == researches
