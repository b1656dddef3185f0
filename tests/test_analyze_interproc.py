"""Tests for the interprocedural layer: call graph, transitive
summaries, cross-function/cross-file rule propagation and deterministic
emitters."""

import textwrap
from pathlib import Path

from repro.analyze.dataflow import (
    Project,
    analyze_source_set,
    analyze_tree,
    compute_summaries,
    module_envs,
    strongly_connected,
)
from repro.analyze.emit import report_to_dicts
from repro.analyze.findings import Report

from tests.test_analyze_dataflow import rules_of, spmd_rules

TESTS = Path(__file__).parent
FIXTURES = TESTS / "fixtures"


def tree_rules_of(named_sources):
    """(path, rule) of the lint and dataflow findings of a project."""
    report = analyze_source_set(
        sorted((p, textwrap.dedent(s)) for p, s in named_sources.items()))
    return sorted((f.location, f.rule) for f in report)


# -- call graph ---------------------------------------------------------------

def test_call_edges_and_import_resolution(tmp_path):
    (tmp_path / "helpers.py").write_text(textwrap.dedent("""
        def start(comm, data):
            req = yield from comm.isend(data, 1)
            return req
    """))
    (tmp_path / "main.py").write_text(textwrap.dedent("""
        from helpers import start

        def go(comm, data):
            req = yield from start(comm, data)
            yield from req.wait()
    """))
    sources = [(str(p), p.read_text())
               for p in sorted(tmp_path.glob("*.py"))]
    project = Project(sources)
    edges = project.call_edges()
    helper = (str(tmp_path / "helpers.py"), "start")
    caller = (str(tmp_path / "main.py"), "go")
    assert edges[caller] == [helper]
    assert caller in project.function_refs()


def test_scc_orders_callees_before_callers():
    sources = [("m.py", textwrap.dedent("""
        def a():
            return b()

        def b():
            return c()

        def c():
            return 1
    """))]
    project = Project(sources)
    sccs = strongly_connected(project.function_refs(),
                              project.call_edges())
    order = [name for scc in sccs for (_path, name) in scc]
    assert order.index("c") < order.index("b") < order.index("a")


def test_mutual_recursion_converges():
    sources = [("m.py", textwrap.dedent("""
        def ping(req, n):
            if n == 0:
                yield from req.wait()
                return
            yield from pong(req, n - 1)

        def pong(req, n):
            yield from ping(req, n)
    """))]
    project = Project(sources)
    summaries = compute_summaries(project)
    env = module_envs(project, summaries)["m.py"]
    # both members of the cycle transitively wait their first parameter
    assert 0 in env["ping"].waits_params
    assert 0 in env["pong"].waits_params


# -- cross-function rule propagation ------------------------------------------

def test_request_handed_off_to_caller_is_clean():
    assert rules_of("""
        def start(comm, data):
            req = yield from comm.isend(data, 1)
            return req

        def go(comm, data):
            req = yield from start(comm, data)
            yield from req.wait()
    """) == []


def test_caller_that_drops_handed_off_request_flags_req101():
    assert rules_of("""
        def start(comm, data):
            req = yield from comm.isend(data, 1)
            return req

        def go(comm, data):
            req = yield from start(comm, data)
    """) == ["REQ101"]


def test_two_level_transitive_wait_is_clean():
    assert rules_of("""
        def finish(req):
            yield from req.wait()

        def relay(req):
            yield from finish(req)

        def go(comm, data):
            req = yield from comm.isend(data, 1)
            yield from relay(req)
    """) == []


def test_keyword_only_wait_parameter_is_clean():
    assert rules_of("""
        def finish(*, request):
            yield from request.wait()

        def go(comm, data):
            req = yield from comm.isend(data, 1)
            yield from finish(request=req)
    """) == []


def test_rank_tainted_helper_return_flags_spmd101():
    assert spmd_rules("""
        def parity(comm):
            return comm.rank % 2

        def go(comm):
            if parity(comm) == 0:
                yield from comm.barrier()
    """) == ["SPMD101"]


def test_cross_file_summaries_resolve_through_imports(tmp_path):
    (tmp_path / "helpers.py").write_text(textwrap.dedent("""
        def start(comm, data):
            req = yield from comm.isend(data, 1)
            return req
    """))
    (tmp_path / "main.py").write_text(textwrap.dedent("""
        from helpers import start

        def go(comm, data):
            req = yield from start(comm, data)
            yield from req.wait()
    """))
    assert list(analyze_tree([str(tmp_path)])) == []


def test_cross_function_fixture_pinned():
    report = analyze_tree([FIXTURES / "cross_function.py"])
    assert sorted(f.rule for f in report) == ["REQ101", "SPMD101"]
    by_rule = {f.rule: f for f in report}
    assert "caller_drops_handed_off_request" in by_rule["REQ101"].message
    assert "caller_of_rank_tainted_helper" in by_rule["SPMD101"].message


# -- attribute-qualified calls: self.helper(...) / mod.fn(...) ----------------

def test_call_edges_include_self_and_module_qualified(tmp_path):
    (tmp_path / "helpers.py").write_text(textwrap.dedent("""
        def finish(req):
            yield from req.wait()
    """))
    (tmp_path / "main.py").write_text(textwrap.dedent("""
        import helpers

        class Worker:
            def _step(self):
                return 1

            def run(self, comm, req):
                self._step()
                yield from helpers.finish(req)
    """))
    sources = [(str(p), p.read_text())
               for p in sorted(tmp_path.glob("*.py"))]
    project = Project(sources)
    edges = project.call_edges()
    main, helpers = str(tmp_path / "main.py"), str(tmp_path / "helpers.py")
    assert (main, "Worker.run") in project.function_refs()
    assert set(edges[(main, "Worker.run")]) == {
        (main, "Worker._step"), (helpers, "finish")}


def test_self_method_wait_is_clean():
    assert rules_of("""
        class Worker:
            def _finish(self, req):
                yield from req.wait()

            def run(self, comm, data):
                req = yield from comm.isend(data, 1)
                yield from self._finish(req)
    """) == []


def test_self_method_that_does_not_wait_flags_req101():
    assert rules_of("""
        class Worker:
            def _log(self, req):
                print(req)

            def run(self, comm, data):
                req = yield from comm.isend(data, 1)
                yield from self._log(req)
    """) == ["REQ101"]


def test_ambiguous_self_method_falls_back_to_escape():
    # two classes define _finish: no "self._finish" key is published, so
    # the call is an unknown callee and the request conservatively
    # escapes -- no REQ101 false positive either way
    assert rules_of("""
        class A:
            def _finish(self, req):
                yield from req.wait()

        class B:
            def _finish(self, req):
                print(req)

            def run(self, comm, data):
                req = yield from comm.isend(data, 1)
                yield from self._finish(req)
    """) == []


def test_self_method_returning_request_hands_off_obligation():
    assert rules_of("""
        class Chan:
            def _post(self, comm, data):
                req = comm.irecv(data, 1)
                return req

            def drain(self, comm, data):
                req = self._post(comm, data)
    """) == ["REQ101"]
    assert rules_of("""
        class Chan:
            def _post(self, comm, data):
                req = comm.irecv(data, 1)
                return req

            def drain(self, comm, data):
                req = self._post(comm, data)
                yield from req.wait()
    """) == []


def test_self_collective_helper_flags_spmd101():
    assert rules_of("""
        class Solver:
            def _sync(self, comm):
                yield from comm.barrier()

            def step(self, comm):
                if comm.rank == 0:
                    yield from self._sync(comm)
    """) == ["SPMD101"]


def test_self_collective_matched_on_other_path_is_clean():
    # the matched-collectives exemption sees through self-helper calls:
    # both sides perform the same (helper) collective
    assert rules_of("""
        class Solver:
            def _sync(self, comm):
                yield from comm.barrier()

            def step(self, comm):
                if comm.rank == 0:
                    yield from self._sync(comm)
                else:
                    yield from self._sync(comm)
    """) == []


def test_module_qualified_wait_resolves_cross_file():
    assert tree_rules_of({
        "pkg/helpers.py": """
            def finish(req):
                yield from req.wait()
        """,
        "pkg/main.py": """
            from pkg import helpers

            def go(comm, data):
                req = yield from comm.isend(data, 1)
                yield from helpers.finish(req)
        """,
    }) == []


def test_import_alias_qualified_wait_resolves_cross_file():
    assert tree_rules_of({
        "pkg/helpers.py": """
            def finish(req):
                yield from req.wait()
        """,
        "pkg/main.py": """
            import pkg.helpers as h

            def go(comm, data):
                req = yield from comm.isend(data, 1)
                yield from h.finish(req)
        """,
    }) == []


def test_module_qualified_nonwaiting_helper_flags_req101():
    assert tree_rules_of({
        "pkg/helpers.py": """
            def log(req):
                print(req)
        """,
        "pkg/main.py": """
            from pkg import helpers

            def go(comm, data):
                req = yield from comm.isend(data, 1)
                yield from helpers.log(req)
        """,
    }) == [("pkg/main.py", "REQ101")]


def test_module_qualified_tainted_return_flags_spmd101():
    assert tree_rules_of({
        "pkg/util.py": """
            def is_root(comm):
                return comm.rank == 0
        """,
        "pkg/main.py": """
            from pkg import util

            def step(comm):
                if util.is_root(comm):
                    yield from comm.barrier()
        """,
    }) == [("pkg/main.py", "SPMD101")]


def test_self_wait_offset_maps_past_the_self_parameter():
    # the waited parameter of Worker._finish is index 1 (after self);
    # call-site argument 0 must land on it, not on index 0
    project = Project([("m.py", textwrap.dedent("""
        class Worker:
            def _finish(self, req):
                yield from req.wait()
    """))])
    env = module_envs(project, compute_summaries(project))["m.py"]
    assert env["self._finish"].waits_params == {1}


# -- deterministic emitters ---------------------------------------------------

def test_report_dicts_are_sorted_and_deduped():
    report = Report()
    # inserted out of order, with an exact duplicate
    report.add("SPMD101", "b", location="z.py", line=9, key=("k1",))
    report.add("LNT001", "a", location="a.py", line=5, key=("k2",))
    report.add("LNT001", "a", location="a.py", line=5, key=("k2",))
    report.add("LNT001", "a", location="a.py", line=2, key=("k3",))
    dicts = report_to_dicts(report)
    assert [(d["path"], d["line"]) for d in dicts] == \
        [("a.py", 2), ("a.py", 5), ("z.py", 9)]
