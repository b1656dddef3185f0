"""Tests for the CFG/fixpoint dataflow analyzer (REQ/BUF/SPMD)."""

import ast
import contextlib
import io
import json
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analyze.__main__ import main as analyze_main
from repro.analyze.dataflow import (
    analyze_source_set,
    analyze_tree,
    build_cfg,
    liveness,
    reaching_definitions,
)
from repro.analyze.emit import to_json, to_sarif

FIXTURES = Path(__file__).parent / "fixtures"

#: rule prefixes of the dataflow passes
DATAFLOW = ("REQ", "BUF", "SPMD")


def dataflow_report(source):
    """Dataflow findings of one module (the lint findings of the same
    run are left out)."""
    report = analyze_source_set([("<string>", textwrap.dedent(source))])
    return [f for f in report if f.rule.startswith(DATAFLOW)]


def rules_of(source):
    return sorted(f.rule for f in dataflow_report(source))


def spmd_rules(source):
    """Rules of the SPMD pass alone."""
    return [rule for rule in rules_of(source) if rule.startswith("SPMD")]


def _cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def _node_matching(cfg, fragment):
    for node in cfg:
        if node.stmt is None:
            continue
        # match only the header line so compound statements do not
        # swallow fragments of their own bodies
        if fragment in ast.unparse(node.stmt).splitlines()[0]:
            return node
    raise AssertionError(f"no CFG node matching {fragment!r}")


# -- CFG construction ---------------------------------------------------------

def test_cfg_if_else_joins_at_following_statement():
    cfg = _cfg_of("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
    """)
    ret = _node_matching(cfg, "return a")
    then = _node_matching(cfg, "a = 1")
    other = _node_matching(cfg, "a = 2")
    assert ret.index in then.succ
    assert ret.index in other.succ


def test_cfg_while_has_back_edge_and_exit_edge():
    cfg = _cfg_of("""
        def f(n):
            i = 0
            while i < n:
                i += 1
            return i
    """)
    head = _node_matching(cfg, "while i < n")
    body = _node_matching(cfg, "i += 1")
    assert head.index in body.succ                      # back edge
    ret = _node_matching(cfg, "return i")
    # loop exit flows (through the join anchor) to the return
    join = [cfg.nodes[s] for s in head.succ if cfg.nodes[s].kind == "join"]
    assert join and ret.index in join[0].succ


def test_cfg_break_targets_loop_join():
    cfg = _cfg_of("""
        def f(items):
            for x in items:
                if x:
                    break
            return 1
    """)
    brk = next(n for n in cfg if isinstance(n.stmt, ast.Break))
    assert len(brk.succ) == 1
    assert cfg.nodes[brk.succ[0]].kind == "join"


def test_cfg_return_routes_through_finally():
    cfg = _cfg_of("""
        def f(req):
            try:
                return 1
            finally:
                req.close()
    """)
    ret = next(n for n in cfg if isinstance(n.stmt, ast.Return))
    succ_texts = [ast.unparse(cfg.nodes[s].stmt) for s in ret.succ
                  if cfg.nodes[s].stmt is not None]
    assert any("req.close" in t for t in succ_texts)


def test_cfg_rpo_starts_at_entry_covers_all():
    cfg = _cfg_of("""
        def f(x):
            while x:
                if x > 2:
                    continue
                x -= 1
            return x
    """)
    order = cfg.rpo()
    assert order[0] == cfg.entry.index
    assert sorted(order) == list(range(len(cfg)))


# -- the fixpoint engine ------------------------------------------------------

def test_liveness_variable_dies_after_last_use():
    cfg = _cfg_of("""
        def f(a):
            b = a + 1
            c = b * 2
            return c
    """)
    use_b = _node_matching(cfg, "c = b * 2")
    ret = _node_matching(cfg, "return c")
    live = liveness(cfg)
    assert "b" in live.at_entry(use_b.index)
    assert "b" not in live.at_entry(ret.index)
    assert "c" in live.at_entry(ret.index)


def test_reaching_definitions_kill_replaces_fact():
    cfg = _cfg_of("""
        def f():
            x = 1
            x = 2
            return x
    """)
    first = _node_matching(cfg, "x = 1")
    second = _node_matching(cfg, "x = 2")
    ret = _node_matching(cfg, "return x")
    gen = {first.index: {("x", first.index)},
           second.index: {("x", second.index)}}
    sol = reaching_definitions(
        cfg, gen, lambda idx, facts:
        {f for f in facts if idx in gen and f[0] == "x"})
    assert sol.at_entry(ret.index) == {("x", second.index)}


# -- REQ1xx: request lifetime -------------------------------------------------

def test_req101_wait_missing_on_one_branch():
    assert rules_of("""
        def f(comm, data):
            req = yield from comm.isend(data, 1)
            if comm.size > 2:
                return
            yield from req.wait()
    """) == ["REQ101"]


def test_clean_when_every_path_waits():
    assert rules_of("""
        def f(comm, data):
            req = yield from comm.isend(data, 1)
            if comm.size > 2:
                yield from req.wait()
                return
            yield from req.wait()
    """) == []


def test_clean_try_finally_wait():
    assert rules_of("""
        def f(comm, data, risky):
            req = yield from comm.isend(data, 1)
            try:
                risky()
            finally:
                yield from req.wait()
    """) == []


def test_req102_loop_carried_rebinding():
    report = dataflow_report("""
        def f(comm, bufs):
            req = None
            for peer, buf in enumerate(bufs):
                req = comm.irecv(buf, peer)
            yield from req.wait()
    """)
    assert [f.rule for f in report] == ["REQ102"]
    assert "previous loop iteration" in report[0].message


def test_clean_loop_that_waits_each_iteration():
    assert rules_of("""
        def f(comm, bufs):
            for peer, buf in enumerate(bufs):
                req = comm.irecv(buf, peer)
                yield from req.wait()
    """) == []


def test_waitall_completes_collected_requests():
    assert rules_of("""
        def f(comm, bufs, Request):
            reqs = []
            for peer, buf in enumerate(bufs):
                reqs.append(comm.irecv(buf, peer))
            yield from Request.waitall(reqs)
    """) == []


def test_req103_undriven_generator():
    assert rules_of("""
        def f(comm):
            g = comm.barrier()
            yield from comm.allreduce(1.0)
    """) == ["REQ103"]


def test_yield_from_helper_that_waits_is_clean():
    assert rules_of("""
        def _finish(comm, req):
            yield from req.wait()

        def f(comm, data):
            req = yield from comm.isend(data, 1)
            yield from _finish(comm, req)
    """) == []


def test_match_statement_arms_are_branches():
    # each `case` arm is a path out of the match; without a wildcard arm
    # the match can also fall through
    assert rules_of("""
        def f(comm, data, mode):
            req = comm.irecv(data, 0)
            match mode:
                case "wait":
                    yield from req.wait()
                case _:
                    pass
    """) == ["REQ101"]
    assert rules_of("""
        def f(comm, data, mode):
            req = comm.irecv(data, 0)
            match mode:
                case "fast":
                    yield from req.wait()
                case _:
                    yield from req.wait()
    """) == []


def test_helper_that_does_not_wait_leaves_req101():
    assert rules_of("""
        def _log(comm, req):
            print(req)

        def f(comm, data):
            req = yield from comm.isend(data, 1)
            _log(comm, req)
    """) == ["REQ101"]


# -- BUF1xx: buffer aliasing --------------------------------------------------

def test_buf101_write_between_isend_and_wait():
    assert rules_of("""
        def f(comm, partner):
            import numpy as np
            payload = np.arange(8.0)
            req = yield from comm.isend(payload, partner)
            payload[:] = 0.0
            yield from req.wait()
    """) == ["BUF101"]


def test_buf102_read_before_recv_completes():
    assert rules_of("""
        def f(comm, partner):
            import numpy as np
            inbox = np.zeros(8)
            req = comm.irecv(inbox, partner)
            total = float(inbox.sum())
            yield from req.wait()
            return total
    """) == ["BUF102"]


def test_clean_read_after_recv_wait():
    assert rules_of("""
        def f(comm, partner):
            import numpy as np
            inbox = np.zeros(8)
            req = comm.irecv(inbox, partner)
            yield from req.wait()
            return float(inbox.sum())
    """) == []


# -- SPMD1xx: rank divergence -------------------------------------------------

def test_spmd101_unmatched_collective_under_rank_branch():
    assert spmd_rules("""
        def f(comm):
            if comm.rank == 0:
                yield from comm.barrier()
    """) == ["SPMD101"]


def test_spmd101_taint_flows_through_assignments():
    assert spmd_rules("""
        def f(comm):
            r = comm.rank
            is_root = r == 0
            if is_root:
                yield from comm.barrier()
    """) == ["SPMD101"]


def test_spmd101_helper_collective_summary():
    assert spmd_rules("""
        def _sync(comm):
            yield from comm.barrier()

        def f(comm):
            if comm.rank == 0:
                yield from _sync(comm)
    """) == ["SPMD101"]


def test_spmd_root_vs_nonroot_idiom_is_clean():
    # the other branch performs the same collective: all ranks enter it
    assert spmd_rules("""
        def f(comm, value, root):
            if comm.rank == root:
                got = yield from comm.gather_obj(value, root=root)
            else:
                got = yield from comm.gather_obj(None, root=root)
            return got
    """) == []


def test_spmd_root_exit_with_matching_fallthrough_is_clean():
    assert spmd_rules("""
        def f(comm, value):
            if comm.rank == 0:
                got = yield from comm.gather_obj(value)
                return got
            yield from comm.gather_obj(value)
            return None
    """) == []


def test_spmd102_early_exit_before_collective():
    assert rules_of("""
        def f(comm, data):
            if comm.rank % 2:
                return None
            total = yield from comm.allreduce(float(len(data)))
            return total
    """) == ["SPMD102"]


@pytest.mark.parametrize("cond", ["comm.rank == 0", "comm.rank == 2",
                                  "comm.rank >= 2", "comm.rank < 4",
                                  "comm.rank == 5"])
def test_spmd101_reported_wherever_it_fires(cond):
    # the divergence may show at every size, at some sizes only (rank 2
    # exists from 3 ranks up) or only past a size (every rank below 4
    # enters): the pipeline reports each
    report = analyze_source_set([("m.py", textwrap.dedent(f"""
        def f(comm):
            if {cond}:
                yield from comm.barrier()
    """))])
    assert [f.rule for f in report] == ["SPMD101"]


def test_spmd101_reported_inside_a_size_bounded_loop():
    report = analyze_source_set([("m.py", textwrap.dedent("""
        def f(comm):
            mask = 1
            while mask < comm.size:
                if comm.rank == 0:
                    yield from comm.barrier()
                mask <<= 1
    """))])
    assert [f.rule for f in report] == ["SPMD101"]


def test_spmd_split_subcommunicator_idiom_is_clean():
    assert rules_of("""
        def f(comm):
            sub = yield from comm.split(color=0 if comm.rank < 2 else None)
            if sub is None:
                return None
            s = yield from sub.allreduce(1)
            return s
    """) == []


# -- fixtures pinned ----------------------------------------------------------

FIXTURE_EXPECTATIONS = {
    "broken_req.py": ["REQ101", "REQ102", "REQ103"],
    "broken_buf.py": ["BUF101", "BUF102"],
    "broken_spmd.py": ["SPMD101", "SPMD102"],
}


@pytest.mark.parametrize("name,expected",
                         sorted(FIXTURE_EXPECTATIONS.items()))
def test_fixture_findings_pinned(name, expected):
    report = analyze_tree([FIXTURES / name])
    assert sorted(f.rule for f in report) == expected


def test_fixture_directory_excluded_from_tree_scans(tree_scan):
    assert not any("fixtures" in f.location for f in tree_scan.report)


# -- emitters -----------------------------------------------------------------

def test_json_emitter_schema_and_summary():
    report = analyze_tree([FIXTURES / "broken_req.py"])
    doc = json.loads(to_json(report))
    assert doc["schema"] == "repro-analyze/2"
    assert set(doc) == {"schema", "findings", "summary"}
    assert doc["summary"] == {"error": 3, "warning": 0, "info": 0,
                              "total": 3, "ok": False}
    assert sorted(f["rule"] for f in doc["findings"]) == [
        "REQ101", "REQ102", "REQ103"]


def test_sarif_emitter_locations_and_levels():
    report = analyze_tree([FIXTURES / "broken_req.py"])
    doc = json.loads(to_sarif(report))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == {"REQ101", "REQ102", "REQ103"}
    for result in run["results"]:
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("broken_req.py")
        assert loc["region"]["startLine"] > 0


# -- shipped tree stays clean -------------------------------------------------

def test_src_and_examples_dataflow_clean(tree_scan):
    assert tree_scan.findings("src", "examples") == []


def test_tests_tree_dataflow_clean(tree_scan):
    assert tree_scan.findings("tests") == []


# -- CLI ----------------------------------------------------------------------

def _run_cli(*argv):
    """``python -m repro.analyze *argv``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = analyze_main(list(argv))
    return SimpleNamespace(returncode=code, stdout=out.getvalue())


def test_cli_dataflow_sarif_on_broken_fixture():
    proc = _run_cli("--format", "sarif", str(FIXTURES / "broken_spmd.py"))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
    assert ids == {"SPMD101", "SPMD102"}


def test_cli_dataflow_output_file(tmp_path):
    out = tmp_path / "findings.json"
    proc = _run_cli("--format", "json", "-o", str(out),
                    str(FIXTURES / "broken_buf.py"))
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    assert {f["rule"] for f in doc["findings"]} == {"BUF101", "BUF102"}


def test_cli_dataflow_clean_file_exits_zero(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text(
        "def f(comm):\n"
        "    yield from comm.barrier()\n"
    )
    proc = _run_cli(str(clean))
    assert proc.returncode == 0


def test_cli_output_file_needs_a_document_format(tmp_path):
    out = tmp_path / "findings.json"
    with pytest.raises(SystemExit) as exc:
        _run_cli("--output", str(out), str(FIXTURES / "broken_req.py"))
    assert exc.value.code == 2
    assert not out.exists()
