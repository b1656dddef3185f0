"""Runtime verification: the deliberately-broken fixture programs, run
under a verifier, plus clean runs.  Each fixture in ``broken_runtime.py``
asserts that its finding fires exactly once; the ``broken_proto_*.py``
programs and their ``clean_proto.py`` near-misses are pinned at 2-4
ranks."""

import gc
import json
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.analyze import RuntimeVerifier, analyze_tree
from repro.analyze.__main__ import main as analyze_main
from repro.analyze.runtime import find_cycles
from repro.datatypes import DatatypeError
from repro.mpi import Cluster, MPIConfig, TruncationError
from repro.mpi.trace import MessageTrace
from repro.util import CostModel
from tests.fixtures import clean_proto
from tests.fixtures.broken_proto_coll import root_divergent_bcast
from tests.fixtures.broken_proto_deadlock import ring_shift_send_first
from tests.fixtures.broken_proto_tag import tag_disagreement
from tests.fixtures.broken_proto_trunc import (
    short_receive_buffer,
    truncating_receive,
)
from tests.fixtures.broken_runtime import (
    broken_deadlock_cycle,
    broken_leaked_request,
    broken_mismatched_collective,
    broken_signature_mismatch,
)

QUIET = CostModel(cpu_noise=0.0)
BROKEN_RUNTIME = Path(__file__).parent / "fixtures" / "broken_runtime.py"


def make_cluster(n, config=None, **kw):
    kw.setdefault("cost", QUIET)
    kw.setdefault("heterogeneous", False)
    return Cluster(n, config=config or MPIConfig.optimized(), **kw)


def run_verified(n, fn, *args, config=None):
    cluster = make_cluster(n, config=config)
    verifier = RuntimeVerifier.attach(cluster)
    results = verifier.run(fn, *args)
    return verifier, results


# -- fixture 1: send/receive signature mismatch (SIG001) ----------------------

def test_fixture_signature_mismatch_fires_sig001_once():
    verifier, results = run_verified(2, broken_signature_mismatch)
    sig = verifier.report.by_rule("SIG001")
    assert len(sig) == 1
    assert "not a prefix" in sig[0].message
    assert results is not None  # bytes still flow; only the types disagree


@pytest.mark.parametrize("count", [16, 4096])  # eager, rendezvous
def test_handled_truncation_fires_sig002_and_the_run_completes(count):
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.ones(count), 1)
            return "sent"
        try:
            yield from comm.recv(np.zeros(count // 2), 0)
        except TruncationError:
            return "truncated"

    verifier, results = run_verified(2, main)
    assert results == ["sent", "truncated"]
    assert verifier.error is None
    assert [f.rule for f in verifier.report] == ["SIG002"]


# -- fixture 2: wait-for cycle deadlock (DLK001) ------------------------------

def test_fixture_deadlock_cycle_fires_dlk001_once():
    verifier, results = run_verified(2, broken_deadlock_cycle)
    assert results is None
    assert verifier.deadlock is not None
    dlk = verifier.report.by_rule("DLK001")
    assert len(dlk) == 1
    assert "0 -> 1 -> 0" in dlk[0].message
    # the two never-satisfied receives are also reported
    assert len(verifier.report.by_rule("P2P002")) == 2


def test_rendezvous_sends_appear_in_wait_graph():
    """Head-to-head blocking *sends* above the eager threshold also
    deadlock; the rendezvous sends supply the wait-for edges."""
    config = MPIConfig.optimized()

    def main(comm):
        big = np.zeros(config.eager_threshold // 8 + 16, dtype=np.float64)
        other = 1 - comm.rank
        yield from comm.send(big, other)
        yield from comm.recv(big, other)

    verifier, results = run_verified(2, main, config=config)
    assert results is None
    assert len(verifier.report.by_rule("DLK001")) == 1
    assert "rendezvous" in verifier.report.by_rule("DLK001")[0].message


# -- fixture 3: leaked request (REQ001) ---------------------------------------

def test_fixture_leaked_request_fires_req001_once():
    verifier, results = run_verified(2, broken_leaked_request)
    assert results is not None  # the run itself completes fine
    req = verifier.report.by_rule("REQ001")
    assert len(req) == 1
    assert "rank 0" in req[0].message and "send" in req[0].message
    # nothing else is wrong with this program
    assert len(verifier.report.by_rule("DLK001")) == 0
    assert len(verifier.report.by_rule("P2P001")) == 0


def test_request_gc_warns_resourcewarning():
    """Dropping an uncompleted Request raises ResourceWarning at GC time
    (satellite: request lifecycle warning)."""
    from repro.mpi.request import Request
    from repro.simtime.engine import Engine

    engine = Engine()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        req = Request(engine.future("orphan"), "send")
        del req
        gc.collect()
    assert any(issubclass(w.category, ResourceWarning) for w in caught)

    # a waited request is silent
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fut = engine.future("done")
        fut.set_result(None)
        req = Request(fut, "send")
        done, _ = req.test()
        assert done and req.waited
        del req
        gc.collect()
    assert not any(issubclass(w.category, ResourceWarning) for w in caught)


def test_request_test_polls_without_blocking():
    from repro.mpi.request import Request
    from repro.simtime.engine import Engine

    engine = Engine()
    fut = engine.future("poll")
    req = Request(fut, "recv")
    assert req.test() == (False, None)
    assert not req.waited
    fut.set_result("payload")
    assert req.test() == (True, "payload")
    assert req.waited


# -- fixture 4: mismatched collective (COL001) --------------------------------

def test_fixture_mismatched_collective_fires_col001_once():
    verifier, results = run_verified(2, broken_mismatched_collective)
    col = verifier.report.by_rule("COL001")
    assert len(col) == 1
    assert "bcast" in col[0].message and "barrier" in col[0].message


def test_mismatched_collective_root_fires_col002():
    """Same collective, different root arguments."""
    def main(comm):
        buf = np.zeros(1, dtype=np.float64)
        yield from comm.bcast(buf, root=comm.rank)

    verifier, results = run_verified(2, main)
    col = verifier.report.by_rule("COL002")
    assert len(col) == 1
    assert len(verifier.report.by_rule("COL001")) == 0


def test_sparse_alltoall_protocol_family_fires_col002():
    """The detail of a sparse exchange is its wire protocol: a rank forcing
    ``dense`` while the others speak NBX is reported; ``nbx`` against
    ``nbx_binned`` interoperates and is not."""
    def main(comm, algorithms):
        got = yield from comm.sparse_alltoall(
            {(comm.rank + 1) % comm.size: np.arange(2.0) + comm.rank},
            algorithm=algorithms[comm.rank])
        return got

    verifier, _ = run_verified(3, main, ["dense", "nbx", "nbx"])
    col = verifier.report.by_rule("COL002")
    assert len(col) == 1 and "sparse_alltoall" in col[0].message

    verifier, results = run_verified(3, main, ["nbx_binned", "nbx", "nbx"])
    assert verifier.report.by_rule("COL002") == []
    assert [sorted(got) for got in results] == [[2], [0], [1]]


def test_allgatherv_infers_the_wire_element_type():
    """An inferred float64 element type is the one ``send``/``recv`` use,
    so the v-collective raises no signature mismatch (SIG001)."""
    counts = [1, 2, 3]

    def main(comm):
        recv = np.zeros(sum(counts))
        yield from comm.allgatherv(
            np.full(counts[comm.rank], float(comm.rank)), recv, counts)
        return recv

    verifier, results = run_verified(3, main)
    assert verifier.report.by_rule("SIG001") == []
    for got in results:
        assert got.tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 2.0]


# -- the fixture file as an analyzer input -----------------------------------

def test_fixture_script_run_exits_one_naming_dlk001(capsys):
    """The CI must-fail self-test of ``analyze --run``: the script's
    ``__main__`` block runs the head-to-head receive deadlock."""
    assert analyze_main(["--run", str(BROKEN_RUNTIME)]) == 1
    out = capsys.readouterr().out
    assert "DLK001" in out and "wait-for cycle 0 -> 1 -> 0" in out


def test_fixture_static_twins_pinned():
    """Named explicitly, the file yields the static twins the lint and
    dataflow passes find: the leaked request (REQ101) and both sides of
    the mismatched collective (SPMD101).  The signature mismatch and the
    deadlock cycle show only when run."""
    report = analyze_tree([BROKEN_RUNTIME])
    assert sorted(f.rule for f in report) == [
        "REQ101", "SPMD101", "SPMD101"]


def test_cli_run_reports_before_a_non_mpi_error_propagates(tmp_path, capsys):
    """A script that dies of a non-MPI error still gets its report, in
    the chosen format, before the exception escapes."""
    script = tmp_path / "dies.py"
    script.write_text(textwrap.dedent("""
        import numpy as np

        from repro.datatypes import DOUBLE, Vector
        from repro.mpi import Cluster


        def mismatch(comm):
            if comm.rank == 0:
                yield from comm.send(np.arange(4, dtype=np.float64), 1)
            else:
                yield from comm.recv(np.zeros(8, dtype=np.int32), 0)


        def undersized(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(4), 1)
            else:
                yield from comm.recv(np.zeros(8), 0,
                                     datatype=Vector(4, 1, 8, DOUBLE), count=1)


        Cluster(2).run(mismatch)
        Cluster(2).run(undersized)
    """))
    with pytest.raises(DatatypeError, match="buffer too small"):
        analyze_main(["--run", "--format", "json", str(script)])
    doc = json.loads(capsys.readouterr().out)
    assert "SIG001" in {f["rule"] for f in doc["findings"]}


# -- the protocol-bug corpus, executed ----------------------------------------

EAGER0 = MPIConfig.optimized().with_(eager_threshold=0)

#: fixture program -> the actionable rules one run reports at the default
#: eager threshold, at every size in 2..4
CORPUS_PINS = {
    "tag_disagreement": (tag_disagreement, ["DLK002", "P2P001", "P2P002"]),
    "root_divergent_bcast": (root_divergent_bcast,
                             ["COL002", "DLK002", "P2P001"]),
    "truncating_receive": (truncating_receive, ["SIG002"]),
    # every send is eagerly buffered, so the send-first ring completes
    "ring_shift_send_first": (ring_shift_send_first, []),
}

CLEAN_PROTO = ["ring_shift_sendrecv", "ring_shift_parity_ordered",
               "tag_agreement", "exact_receive", "sufficient_strided_buffer",
               "agreed_root_bcast", "nonblocking_exchange"]


def actionable_rules(verifier):
    return sorted({f.rule for f in verifier.report if f.severity != "info"})


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(CORPUS_PINS))
def test_fixture_program_findings_pinned(name, n):
    program, rules = CORPUS_PINS[name]
    verifier, _results = run_verified(n, program)
    assert actionable_rules(verifier) == rules


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ring_shift_deadlocks_only_without_eager_buffering(n):
    verifier, results = run_verified(n, ring_shift_send_first, config=EAGER0)
    assert results is None
    assert actionable_rules(verifier) == ["DLK001", "P2P001"]
    chain = " -> ".join(str(r) for r in [*range(n), 0])
    assert f"wait-for cycle {chain}" in verifier.report.by_rule(
        "DLK001")[0].message


@pytest.mark.parametrize("n", [2, 3, 4])
def test_truncating_receive_raises_truncation_error(n):
    verifier, results = run_verified(n, truncating_receive)
    assert results is None and isinstance(verifier.error, TruncationError)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_short_receive_buffer_raises_datatype_error(n):
    with pytest.raises(DatatypeError, match="buffer too small: "):
        run_verified(n, short_receive_buffer)


@pytest.mark.parametrize("eager", ["default", "eager0"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", CLEAN_PROTO)
def test_clean_proto_near_misses_run_clean(name, n, eager):
    config = EAGER0 if eager == "eager0" else None
    verifier, results = run_verified(n, getattr(clean_proto, name),
                                     config=config)
    assert results is not None
    assert verifier.report.ok, verifier.report.render()


def test_find_cycles_lists_each_elementary_cycle_once():
    # the one cycle routine behind DLK001: each cycle once, rotated to
    # start at its smallest rank
    edges = {2: [0], 0: [1], 1: [2, 0]}
    assert sorted(find_cycles(edges)) == [(0, 1), (0, 1, 2)]
    assert find_cycles({3: [3]}) == [(3,)]
    assert find_cycles({0: [1], 1: [2]}) == []


# -- clean programs stay clean ------------------------------------------------

def clean_exchange(comm):
    other = 1 - comm.rank
    out = np.full(16, float(comm.rank), dtype=np.float64)
    buf = np.zeros(16, dtype=np.float64)
    yield from comm.sendrecv(out, other, buf, other)
    total = yield from comm.allreduce(float(buf[0]))
    yield from comm.barrier()
    return total


def test_clean_program_produces_no_actionable_findings():
    verifier, results = run_verified(2, clean_exchange)
    assert results == [1.0, 1.0]
    assert verifier.report.ok, verifier.report.render()


def test_zero_byte_audit_is_informational():
    """Typed zero-byte sends are counted (ZBS001) but never fail a run."""
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(0, dtype=np.float64), 1)
        else:
            yield from comm.recv(np.zeros(0, dtype=np.float64), 0)

    verifier, results = run_verified(2, main)
    assert results is not None
    zbs = verifier.report.by_rule("ZBS001")
    assert len(zbs) == 1 and zbs[0].severity == "info"
    assert verifier.report.ok  # info-only report is still ok


def test_finalize_is_idempotent():
    verifier, _results = run_verified(2, broken_deadlock_cycle)
    n = len(verifier.report)
    verifier.finalize()
    verifier.finalize()
    assert len(verifier.report) == n


# -- trace satellite: signature metadata and unmatched() ----------------------

def test_trace_records_signature_hash_and_unmatched():
    from repro.simtime.engine import SimulationDeadlock

    cluster = make_cluster(2)
    trace = MessageTrace.attach(cluster)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.arange(4, dtype=np.float64), 1, tag=3)
            yield from comm.send(np.arange(4, dtype=np.float64), 1, tag=9)
        else:
            buf = np.zeros(4, dtype=np.float64)
            yield from comm.recv(buf, 0, tag=3)
            # tag=9 is never received -> unmatched send

    # the orphaned delivery process blocks the engine at end of run
    with pytest.raises(SimulationDeadlock):
        cluster.run(main)
    sigs = trace.signature_counts()
    assert len(sigs) == 1  # both sends share one typemap signature
    assert sum(sigs.values()) >= 1
    pending = trace.unmatched()
    assert pending["sends"] == [(0, 1, 9, 32)]
    assert pending["recvs"] == []


def test_trace_unmatched_reports_orphan_recv():
    cluster = make_cluster(2)
    trace = MessageTrace.attach(cluster)

    def main(comm):
        if comm.rank == 1:
            comm.irecv(np.zeros(4, dtype=np.float64), 0, tag=5)
        yield from comm.barrier()

    with pytest.warns(ResourceWarning):
        cluster.run(main)
        gc.collect()
    pending = trace.unmatched()
    assert pending["recvs"] == [(1, 0, 5)]
