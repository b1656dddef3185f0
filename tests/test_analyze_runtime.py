"""Runtime verification: the four deliberately-broken fixtures plus clean
runs.  Each fixture asserts that its finding fires exactly once."""

import gc
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.analyze import RuntimeVerifier, analyze_tree
from repro.analyze.__main__ import main as analyze_main
from repro.mpi import Cluster, MPIConfig, TruncationError
from repro.mpi.trace import MessageTrace
from repro.util import CostModel
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


def test_gatherv_scatterv_infer_the_wire_element_type():
    """An inferred float64 element type is the one ``send``/``recv`` use,
    so the v-collectives raise no signature mismatch (SIG001)."""
    counts = [1, 2, 3]

    def main(comm):
        recv = np.zeros(sum(counts)) if comm.rank == 0 else None
        got = yield from comm.gatherv(
            np.full(counts[comm.rank], float(comm.rank)), recv, counts)
        piece = yield from comm.scatterv(
            np.arange(6.0) if comm.rank == 0 else None, counts,
            recvbuf=np.zeros(counts[comm.rank]))
        return got, piece

    verifier, results = run_verified(3, main)
    assert verifier.report.by_rule("SIG001") == []
    assert results[0][0].tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert results[2][1].tolist() == [3.0, 4.0, 5.0]


# -- the fixture file as an analyzer input -----------------------------------

def test_fixture_script_run_exits_one_naming_dlk001(capsys):
    """The CI must-fail self-test of ``analyze --run``: the script's
    ``__main__`` block runs the head-to-head receive deadlock."""
    assert analyze_main(["--run", str(BROKEN_RUNTIME)]) == 1
    out = capsys.readouterr().out
    assert "DLK001" in out and "wait-for cycle 0 -> 1 -> 0" in out


def test_fixture_static_twins_pinned():
    """Named explicitly, the file yields each fixture's static twin once."""
    report = analyze_tree([BROKEN_RUNTIME])
    assert sorted(f.rule for f in report) == [
        "MTC103", "MTC104", "MTC105", "REQ101"]


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
