"""Tests for the cross-rank protocol verifier (MTC101-MTC105)."""

import ast
import contextlib
import io
import json
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analyze.__main__ import main as analyze_main
from repro.analyze.dataflow import analyze_tree
from repro.analyze.findings import Report
from repro.analyze.matchgraph import (
    ANY,
    Op,
    check_collectives,
    find_cycles,
    match_p2p,
    simulate,
    verify_world,
)
from repro.analyze.protocol import WORLD_SIZES, _bytes_needed, check_module
from repro.analyze.signatures import transfer_verdict
from repro.datatypes import DOUBLE, INT, Contiguous, HIndexed, Indexed, Vector
from tests.test_fuzz_datatypes import datatype_tree

FIXTURES = Path(__file__).parent / "fixtures"


def mtc_rules_of(source, stats=None):
    """MTC findings of one module source, via the verifier directly."""
    report = Report()
    check_module(ast.parse(textwrap.dedent(source)), "t.py", report,
                 stats=stats)
    return sorted(f.rule for f in report)


# -- match-graph core on hand-built traces ------------------------------------


def _op(rank, index, kind, **kw):
    return Op(rank=rank, index=index, kind=kind, **kw)


def test_match_p2p_pairs_send_with_recv():
    traces = {
        0: [_op(0, 0, "send", peer=1, tag=5)],
        1: [_op(1, 0, "recv", peer=0, tag=5)],
    }
    matches, unsent, unrecv = match_p2p(traces)
    assert len(matches) == 1 and not unsent and not unrecv
    assert matches[0][0].rank == 0 and matches[0][1].rank == 1


def test_match_p2p_honours_tag_and_source_wildcards():
    traces = {
        0: [_op(0, 0, "send", peer=1, tag=42)],
        1: [_op(1, 0, "recv", peer=ANY, tag=ANY)],
    }
    matches, unsent, unrecv = match_p2p(traces)
    assert len(matches) == 1 and not unsent and not unrecv


def test_match_p2p_tag_mismatch_leaves_both_sides_unmatched():
    traces = {
        0: [_op(0, 0, "send", peer=1, tag=3)],
        1: [_op(1, 0, "recv", peer=0, tag=7)],
    }
    matches, unsent, unrecv = match_p2p(traces)
    assert not matches and len(unsent) == 1 and len(unrecv) == 1


def test_match_p2p_channels_do_not_cross():
    traces = {
        0: [_op(0, 0, "send", peer=1, tag=0, channel="obj", eager=True)],
        1: [_op(1, 0, "recv", peer=0, tag=0, channel="typed")],
    }
    matches, unsent, unrecv = match_p2p(traces)
    assert not matches and len(unrecv) == 1
    # eager (control-plane) sends are never reported unmatched
    assert not unsent


def test_match_p2p_nonovertaking_same_envelope_in_order():
    traces = {
        0: [_op(0, 0, "send", peer=1, tag=0, count=1),
            _op(0, 1, "send", peer=1, tag=0, count=2)],
        1: [_op(1, 0, "recv", peer=0, tag=0),
            _op(1, 1, "recv", peer=0, tag=0)],
    }
    matches, _unsent, _unrecv = match_p2p(traces)
    got = {(r.index, s.count) for s, r in matches}
    assert got == {(0, 1), (1, 2)}


def test_check_collectives_kind_and_root_divergence():
    agree = {
        0: [_op(0, 0, "coll", coll="bcast", root=0)],
        1: [_op(1, 0, "coll", coll="bcast", root=0)],
    }
    assert check_collectives(agree) is None
    roots = {
        0: [_op(0, 0, "coll", coll="bcast", root=0)],
        1: [_op(1, 0, "coll", coll="bcast", root=1)],
    }
    div = check_collectives(roots)
    assert div is not None and not div.kind_mismatch
    kinds = {
        0: [_op(0, 0, "coll", coll="bcast", root=0)],
        1: [_op(1, 0, "coll", coll="barrier")],
    }
    div = check_collectives(kinds)
    assert div is not None and div.kind_mismatch
    missing = {
        0: [_op(0, 0, "coll", coll="barrier")],
        1: [],
    }
    assert check_collectives(missing) is not None


def test_simulate_head_to_head_blocking_sends_deadlock():
    traces = {
        0: [_op(0, 0, "send", peer=1, tag=0),
            _op(0, 1, "recv", peer=1, tag=0)],
        1: [_op(1, 0, "send", peer=0, tag=0),
            _op(1, 1, "recv", peer=0, tag=0)],
    }
    matches, _s, _r = match_p2p(traces)
    deadlock = simulate(traces, matches)
    assert deadlock is not None
    assert sorted(deadlock.cycle) == [0, 1]
    assert all(op.kind == "send" for op in deadlock.blocked)


def test_simulate_ordered_exchange_completes():
    traces = {
        0: [_op(0, 0, "send", peer=1, tag=0),
            _op(0, 1, "recv", peer=1, tag=0)],
        1: [_op(1, 0, "recv", peer=0, tag=0),
            _op(1, 1, "send", peer=0, tag=0)],
    }
    matches, _s, _r = match_p2p(traces)
    assert simulate(traces, matches) is None


def test_simulate_unmatched_ops_do_not_cascade_into_deadlock():
    # the unmatched recv is MTC102 territory; it must not also stall the
    # scheduler into a spurious MTC103
    traces = {
        0: [_op(0, 0, "recv", peer=1, tag=9)],
        1: [],
    }
    matches, _s, unrecv = match_p2p(traces)
    assert len(unrecv) == 1
    assert simulate(traces, matches) is None


def test_simulate_nonblocking_ring_with_waits_completes():
    traces = {}
    for rank, peer in ((0, 1), (1, 0)):
        traces[rank] = [
            _op(rank, 0, "irecv", peer=peer, tag=0),
            _op(rank, 1, "isend", peer=peer, tag=0),
            _op(rank, 2, "wait", waits_on=(0, 1)),
        ]
    result = verify_world(traces, 2)
    assert result.deadlock is None
    assert not result.unmatched_sends and not result.unmatched_recvs


def test_find_cycles_lists_each_elementary_cycle_once():
    # the one routine behind DLK001 (every cycle) and MTC103 (one): each
    # cycle once, rotated to start at its smallest rank
    edges = {2: [0], 0: [1], 1: [2, 0]}
    assert sorted(find_cycles(edges)) == [(0, 1), (0, 1, 2)]
    assert find_cycles({3: [3]}) == [(3,)]
    assert find_cycles({0: [1], 1: [2]}) == []


# -- extraction: true positives and near-misses per rule ----------------------


def test_mtc103_ring_send_first_deadlocks_every_size():
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(4)
            out = np.zeros(4)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield from comm.send(buf, right)
            yield from comm.recv(out, source=left)
    """) == ["MTC103"]


def test_mtc103_near_miss_sendrecv_is_clean():
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(4)
            out = np.zeros(4)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield from comm.sendrecv(buf, right, out, left)
    """) == []


def test_mtc101_mtc102_tag_disagreement():
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(4)
            if comm.rank == 0:
                yield from comm.send(buf, 1, tag=3)
            elif comm.rank == 1:
                yield from comm.recv(buf, source=0, tag=7)
    """) == ["MTC101", "MTC102"]


def test_mtc101_mtc102_near_miss_agreeing_tags_clean():
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(4)
            if comm.rank == 0:
                yield from comm.send(buf, 1, tag=3)
            elif comm.rank == 1:
                yield from comm.recv(buf, source=0, tag=3)
    """) == []


def test_mtc104_root_divergence():
    assert mtc_rules_of("""
        def main(comm):
            if comm.rank == 0:
                value = yield from comm.bcast(1, root=0)
            else:
                value = yield from comm.bcast(None, root=1)
    """) == ["MTC104"]


def test_mtc104_near_miss_agreed_root_clean():
    assert mtc_rules_of("""
        def main(comm):
            root = 0
            if comm.rank == root:
                value = yield from comm.bcast(comm.rank, root=root)
            else:
                value = yield from comm.bcast(None, root=0)
    """) == []


def test_mtc105_truncating_receive():
    rules = mtc_rules_of("""
        import numpy as np
        def main(comm):
            if comm.rank == 0:
                big = np.zeros(16)
                yield from comm.send(big, 1)
            elif comm.rank == 1:
                small = np.zeros(8)
                yield from comm.recv(small, source=0)
    """)
    assert rules == ["MTC105", "MTC105"]  # truncation + prefix violation


def test_mtc105_near_miss_exact_fit_clean():
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            if comm.rank == 0:
                buf = np.zeros(16)
                yield from comm.send(buf, 1)
            elif comm.rank == 1:
                buf = np.zeros(16)
                yield from comm.recv(buf, source=0)
    """) == []


def test_mtc105_strided_datatype_overruns_short_buffer():
    report = Report()
    check_module(ast.parse(textwrap.dedent("""
        import numpy as np
        from repro.datatypes import DOUBLE, Vector
        def main(comm):
            if comm.rank == 0:
                buf = np.zeros(4)
                yield from comm.send(buf, 1, datatype=DOUBLE, count=4)
            elif comm.rank == 1:
                buf = np.zeros(8)
                sparse = Vector(4, 1, 8, DOUBLE)
                yield from comm.recv(buf, source=0, datatype=sparse,
                                     count=1)
    """)), "t.py", report)
    assert [f.rule for f in report] == ["MTC105"]
    assert "needs 200" in report.findings[0].message


def _block_list_bytes_needed(datatype, count):
    """The formula ``_bytes_needed`` replaced: expand the block list and
    reach ``(count - 1)`` extents past its furthest byte."""
    blocks = datatype.flatten()
    if count <= 0 or blocks.num_blocks == 0:
        return 0
    one = int(np.max(blocks.offsets + blocks.lengths))
    return (count - 1) * int(datatype.extent) + one


@settings(max_examples=80, deadline=None)
@given(datatype=datatype_tree(), count=st.sampled_from([1, 3]))
@example(datatype=HIndexed([1, 2], [-16, 8], DOUBLE), count=1)
@example(datatype=HIndexed([1, 2], [-16, 8], DOUBLE), count=3)
@example(datatype=Indexed([2, 1], [-3, 4], DOUBLE), count=3)
def test_bytes_needed_is_the_block_list_formula(datatype, count):
    # the closed-form plan bound equals the expansion it replaced
    assert _bytes_needed(datatype, count) == \
        _block_list_bytes_needed(datatype, count)


# -- the rank-abstraction model -----------------------------------------------


def test_intersection_discards_size_assumed_pairwise_program():
    # `peer = 1 - rank` deadlocks head-to-head at size 2, but at sizes
    # 3/4 the mismatch shows up as different (unmatched) findings, so no
    # single finding holds at every extracted size.  The verifier stays
    # quiet rather than guessing which world the author meant.
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(4)
            out = np.zeros(4)
            peer = (comm.rank + 1) % comm.size
            yield from comm.send(buf, peer)
            yield from comm.recv(out, peer)
    """) == []


def test_rank_guarded_pair_stays_clean_at_larger_sizes():
    # idle ranks 2/3 at the larger model sizes must not turn a correct
    # two-rank exchange into unmatched-op findings
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(8)
            if comm.rank == 0:
                yield from comm.send(buf, 1)
            elif comm.rank == 1:
                yield from comm.recv(buf, source=0)
    """) == []


def test_data_dependent_tag_bails_instead_of_guessing():
    stats = []
    assert mtc_rules_of("""
        import numpy as np
        def main(comm, tag):
            buf = np.zeros(4)
            if comm.rank == 0:
                yield from comm.send(buf, 1, tag=tag)
            elif comm.rank == 1:
                yield from comm.recv(buf, source=0, tag=tag)
    """, stats=stats) == []
    assert len(stats) == 1
    assert stats[0].verified_sizes == ()
    assert all("data-dependent tag" in reason
               for _size, reason in stats[0].bailed)


def test_while_loop_around_communication_bails():
    stats = []
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(4)
            mask = 1
            while mask < comm.size:
                yield from comm.send(buf, comm.rank ^ mask)
                mask <<= 1
    """, stats=stats) == []
    assert stats[0].verified_sizes == ()


def test_helper_functions_are_inlined_not_verified_as_roots():
    stats = []
    rules = mtc_rules_of("""
        import numpy as np
        def exchange(comm, tag):
            buf = np.zeros(4)
            if comm.rank == 0:
                yield from comm.send(buf, 1, tag=tag)
            elif comm.rank == 1:
                yield from comm.recv(buf, source=0, tag=tag + 1)
        def main(comm):
            yield from exchange(comm, 5)
    """, stats=stats)
    # the tag mismatch is found through the call site, where tag=5
    assert rules == ["MTC101", "MTC102"]
    # exchange() itself is a helper: only main() is a verification root
    assert [s.func for s in stats] == ["main"]


def test_unrolled_loop_over_statically_known_range():
    assert mtc_rules_of("""
        import numpy as np
        def main(comm):
            buf = np.zeros(4)
            if comm.rank == 0:
                for peer in range(1, comm.size):
                    yield from comm.send(buf, peer, tag=peer)
            else:
                yield from comm.recv(buf, source=0, tag=comm.rank)
    """) == []


def test_worlds_are_the_documented_sizes():
    assert WORLD_SIZES == (2, 3, 4)


# -- fixtures pinned ----------------------------------------------------------

PROTO_FIXTURES = {
    "broken_proto_deadlock.py": ["MTC103"],
    "broken_proto_tag.py": ["MTC101", "MTC102"],
    "broken_proto_trunc.py": ["MTC105", "MTC105", "MTC105"],
    "broken_proto_coll.py": ["MTC104"],
    "clean_proto.py": [],
}


@pytest.mark.parametrize("name,expected", sorted(PROTO_FIXTURES.items()))
def test_proto_fixture_findings_pinned(name, expected):
    report = analyze_tree([FIXTURES / name])
    assert sorted(f.rule for f in report) == expected


# -- the tree-clean differential gate -----------------------------------------


def _mtc_findings(report):
    return [f for f in report if f.rule.startswith("MTC")]


def test_protocol_clean_over_petsc_and_examples(tree_scan):
    assert tree_scan.findings("src/repro/petsc", "examples",
                              prefix="MTC") == []


#: every library and example function the verifier proves under at least
#: one model size (test programs come and go, so they are left out)
VERIFIED_OUTSIDE_TESTS = {
    "examples/critical_path.py": {"main"},
    "examples/profile_breakdown.py": {"main"},
    "examples/quickstart.py": {"main"},
    "src/repro/mpi/algorithms/policies.py": {"select"},
    "src/repro/mpi/collectives/allgatherv.py": {"_recursive_doubling"},
    "src/repro/mpi/pack.py": {"mpi_pack", "mpi_unpack", "pack_size"},
}


def test_protocol_clean_over_full_tree(tree_scan):
    assert _mtc_findings(tree_scan.report) == []
    # the gate must actually exercise the verifier, and no library or
    # example function may silently drop out of verification
    repo = FIXTURES.parent.parent
    verified = {}
    for stat in tree_scan.stats:
        path = Path(stat.path).resolve().relative_to(repo).as_posix()
        if stat.verified_sizes and not path.startswith("tests/"):
            verified.setdefault(path, set()).add(stat.func)
    assert verified == VERIFIED_OUTSIDE_TESTS


# -- hypothesis: static MTC105 against the concrete signature path ------------

_PRIMS = [("DOUBLE", DOUBLE), ("INT", INT)]


@st.composite
def _datatype_expr(draw):
    """A datatype as (source expression, constructed object)."""
    kind = draw(st.sampled_from(["prim", "contig", "vector"]))
    name, prim = draw(st.sampled_from(_PRIMS))
    if kind == "prim":
        return name, prim
    if kind == "contig":
        n = draw(st.integers(1, 4))
        return f"Contiguous({n}, {name})", Contiguous(n, prim)
    count = draw(st.integers(1, 3))
    blocklength = draw(st.integers(1, 3))
    stride = blocklength + draw(st.integers(0, 2))
    return (f"Vector({count}, {blocklength}, {stride}, {name})",
            Vector(count, blocklength, stride, prim))


@settings(max_examples=40, deadline=None)
@given(send=_datatype_expr(), recv=_datatype_expr(),
       send_count=st.integers(1, 4), recv_count=st.integers(1, 4))
def test_static_mtc105_agrees_with_concrete_transfer_verdict(
        send, recv, send_count, recv_count):
    send_expr, send_dt = send
    recv_expr, recv_dt = recv
    source = textwrap.dedent(f"""
        import numpy as np
        from repro.datatypes import Contiguous, Vector, DOUBLE, INT
        def main(comm):
            buf = np.zeros(512, dtype=np.float64)
            if comm.rank == 0:
                yield from comm.send(buf, 1, datatype={send_expr},
                                     count={send_count})
            elif comm.rank == 1:
                yield from comm.recv(buf, source=0, datatype={recv_expr},
                                     count={recv_count})
    """)
    report = Report()
    check_module(ast.parse(source), "t.py", report)
    static_trunc = any("truncation" in f.message for f in report)
    static_prefix_bad = any("not a prefix" in f.message for f in report)
    verdict = transfer_verdict(send_dt, send_count, recv_dt, recv_count)
    assert static_trunc == verdict.truncates
    assert static_prefix_bad == (not verdict.prefix_ok)
    # nothing else may fire: the 4096-byte buffer fits every generated
    # datatype's full extent
    assert all(f.rule == "MTC105" for f in report)


# -- CLI ----------------------------------------------------------------------


def _run_cli(*argv):
    """``python -m repro.analyze *argv``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = analyze_main(list(argv))
    return SimpleNamespace(returncode=code, stdout=out.getvalue())


def test_cli_protocol_sarif_on_broken_fixture():
    proc = _run_cli("--format", "sarif",
                    str(FIXTURES / "broken_proto_tag.py"))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
    assert ids == {"MTC101", "MTC102"}
    levels = {r["level"] for r in doc["runs"][0]["results"]}
    assert levels == {"error"}


def test_cli_protocol_clean_fixture_exits_zero():
    proc = _run_cli(str(FIXTURES / "clean_proto.py"))
    assert proc.returncode == 0
    assert "no findings" in proc.stdout


def test_cli_protocol_stats_lists_candidates():
    proc = _run_cli("--protocol-stats", str(FIXTURES / "clean_proto.py"))
    assert proc.returncode == 0
    assert "candidate function(s) verified" in proc.stdout
    assert "ring_shift_sendrecv" in proc.stdout
