"""Project lint (repro.analyze.lint), the MPI-API table it reads
(repro.analyze.mpiapi), the rule catalogue (repro.analyze.findings) and
the ``python -m repro.analyze`` entry point."""

import inspect
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analyze import analyze_source_set, mpiapi
from repro.analyze.__main__ import main as analyze_main
from repro.analyze.findings import RULES
from repro.mpi.comm import Comm
from repro.mpi.request import Request
from repro.petsc.dmda import DMDA

REPO = Path(__file__).resolve().parent.parent


def lint(source, path="<string>"):
    """The lint findings of an analyzer run over one module."""
    report = analyze_source_set([(path, textwrap.dedent(source))])
    return [f for f in report if f.rule.startswith("LNT")]


def rules_of(source):
    return sorted(f.rule for f in lint(source))


# -- individual rules ---------------------------------------------------------

def test_lnt001_bare_except():
    assert rules_of("""
        try:
            pass
        except:
            pass
    """) == ["LNT001"]
    assert rules_of("""
        try:
            pass
        except ValueError:
            pass
    """) == []


def test_lnt002_rescan_in_loop():
    assert rules_of("""
        def f(dt, items):
            for x in items:
                blocks = dt.flatten()
    """) == ["LNT002"]
    # rebinding the receiver inside the loop is fine: not loop-invariant
    assert rules_of("""
        def f(make, items):
            for x in items:
                dt = make(x)
                blocks = dt.flatten()
    """) == []
    # hoisted out of the loop is fine
    assert rules_of("""
        def f(dt, items):
            blocks = dt.flatten()
            for x in items:
                use(blocks)
    """) == []


def test_lnt003_dropped_generator():
    assert rules_of("""
        def main(comm):
            comm.send(x, 1)
    """) == ["LNT003"]
    assert rules_of("""
        def main(comm):
            yield from comm.send(x, 1)
    """) == []
    # assigning the generator is not flagged (it may be driven later)
    assert rules_of("""
        def main(comm):
            g = comm.send(x, 1)
            yield from g
    """) == []
    # barrier/wait are blocking generators too
    assert rules_of("""
        def main(comm, req):
            comm.barrier()
            req.wait()
    """) == ["LNT003", "LNT003"]


def test_lnt003_fires_inside_async_functions():
    # regression: visit_AsyncFunctionDef used to skip the dropped-
    # generator check entirely
    assert rules_of("""
        async def main(comm):
            comm.barrier()
    """) == ["LNT003"]
    assert rules_of("""
        async def main(comm):
            yield from comm.barrier()
    """) == []


def test_lnt002_attribute_receiver():
    # loop-invariant receiver reached through an attribute chain
    assert rules_of("""
        def f(self, items):
            for x in items:
                blocks = self.dtype.flatten()
    """) == ["LNT002"]
    # rebinding the attribute root inside the loop: not loop-invariant
    assert rules_of("""
        def f(make, items):
            for x in items:
                self = make(x)
                blocks = self.dtype.flatten()
    """) == []
    # rebinding the attribute itself inside the loop is also fine
    assert rules_of("""
        def f(self, make, items):
            for x in items:
                self.dtype = make(x)
                blocks = self.dtype.flatten()
    """) == []


def test_lnt004_mutable_default():
    assert rules_of("""
        def f(x, acc=[]):
            pass
    """) == ["LNT004"]
    assert rules_of("""
        def f(x, *, acc={}):
            pass
    """) == ["LNT004"]
    assert rules_of("""
        def f(x, acc=None):
            pass
    """) == []


def test_lnt004_lambda_defaults():
    # regression: lambda default arguments were never checked
    assert rules_of("""
        f = lambda x, acc=[]: acc
    """) == ["LNT004"]
    # ... including lambdas nested inside other expressions
    assert rules_of("""
        def g(items):
            return sorted(items, key=lambda x, seen={}: seen.get(x, 0))
    """) == ["LNT004"]
    assert rules_of("""
        f = lambda x, acc=None: acc
    """) == []


def test_lnt005_time_sleep():
    assert rules_of("""
        import time
        def f():
            time.sleep(1)
    """) == ["LNT005"]


def test_lnt006_concrete_algorithm_import():
    source = """
        from repro.mpi.collectives.allgatherv import _ring
    """
    assert rules_of(source) == ["LNT006"]
    # the public entry functions stay importable
    assert rules_of("""
        from repro.mpi.collectives.allgatherv import allgatherv
    """) == []
    # infra helpers that are not algorithms stay importable
    assert rules_of("""
        from repro.mpi.collectives import instance
    """) == []


def test_lnt006_exempts_the_algorithm_subsystem():
    source = """
        from repro.mpi.collectives.alltoallw import _binned
    """
    report = lint(source, path="src/repro/mpi/algorithms/policies.py")
    assert sorted(f.rule for f in report) == []
    report = lint(source, path="src/repro/petsc/scatter.py")
    assert sorted(f.rule for f in report) == ["LNT006"]


def test_lint_syntax_error_propagates():
    with pytest.raises(SyntaxError):
        lint("def broken(:\n")


# -- LNT003 covers every generator of the API ---------------------------------

def _public_generators(cls):
    return [f"{cls.__name__}.{name}"
            for name, fn in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_") and inspect.isgeneratorfunction(fn)]


@pytest.mark.parametrize("method", _public_generators(Comm)
                         + _public_generators(Request)
                         + _public_generators(DMDA))
def test_lnt003_flags_every_public_generator_method(method):
    name = method.split(".")[1]
    assert rules_of(f"""
        def main(obj):
            obj.{name}()
    """) == ["LNT003"]


#: the method-name tables the analyzer kept by hand before they were
#: derived from the code -- a derivation must never drop one of these
HAND_KEPT_TABLES = {
    "GENERATOR_METHODS": {
        "send", "recv", "sendrecv", "recv_obj", "probe", "barrier", "bcast",
        "allreduce", "gather_obj", "split", "alltoall", "allgatherv",
        "alltoallw", "sparse_alltoall", "wait", "waitall", "waitany", "cpu",
        "global_to_local", "local_to_global"},
    "ALGORITHM_IMPLEMENTATIONS": {
        "_ring", "_recursive_doubling", "_dissemination", "_round_robin",
        "_binned", "_barrier_dissemination", "_bcast_binomial",
        "_allreduce_recursive_doubling", "_gather_obj_linear",
        "_alltoall_pairwise", "_sparse_dense", "_nbx", "_nbx_binned"},
    "COLLECTIVE_METHODS": {
        "barrier", "bcast", "allreduce", "gather_obj", "alltoall",
        "allgatherv", "alltoallw", "sparse_alltoall"},
    "BLOCKING_METHODS": {
        "send", "recv", "sendrecv", "recv_obj", "probe", "wait", "waitall",
        "waitany"},
    "WAIT_METHODS": {"wait", "test", "waitall", "waitany"},
    "COMPLETES_RECEIVER": {"wait", "test"},
    "COMPLETES_ARGUMENTS": {"waitall", "waitany"},
    "WRAPPED_REQUEST_METHODS": {("isend", "send")},
    "DIRECT_REQUEST_METHODS": {("irecv", "recv"), ("isend_obj", "send")},
}


@pytest.mark.parametrize("table", sorted(HAND_KEPT_TABLES))
def test_derived_tables_cover_the_hand_kept_ones(table):
    derived = getattr(mpiapi, table)
    if isinstance(derived, dict):
        derived = set(derived.items())
    assert HAND_KEPT_TABLES[table] <= set(derived)


def test_split_is_not_a_collective():
    # rank-dependent colors under rank-dependent control flow are the
    # intended use of split: SPMD101 must not see it as a collective
    assert "split" in mpiapi.GENERATOR_METHODS
    assert "split" not in mpiapi.COLLECTIVE_METHODS


# -- the rule catalogue -------------------------------------------------------

def test_every_rule_has_an_emitter():
    """Each ``RULES`` code is a quoted literal in some ``src/`` module
    other than the catalogue's own, so no entry outlives its pass."""
    src = REPO / "src" / "repro"
    catalogue = src / "analyze" / "findings.py"
    text = "\n".join(p.read_text() for p in sorted(src.rglob("*.py"))
                     if p != catalogue)
    orphans = [code for code in RULES
               if not re.search(rf"[\"']{code}[\"']", text)]
    assert not orphans


def test_rule_catalogue_matches_the_analyze_docs():
    """docs/ANALYZE.md has one table row per ``RULES`` code, with the
    code's severity, and no row for any other code."""
    rows = re.findall(r"^\| ([A-Z][A-Z0-9]*\d{3}) \| (\w+) \|",
                      (REPO / "docs" / "ANALYZE.md").read_text(),
                      flags=re.MULTILINE)
    codes = [code for code, _ in rows]
    assert len(codes) == len(set(codes)), "duplicate rows"
    assert dict(rows) == {code: sev for code, (sev, _) in RULES.items()}


# -- the repo lints clean -----------------------------------------------------

def test_src_tree_lints_clean(tree_scan):
    assert tree_scan.findings("src", prefix="LNT") == []


def test_all_examples_lint_clean(tree_scan):
    assert sorted((REPO / "examples").glob("*.py")), \
        "examples/ directory is missing"
    assert tree_scan.findings("examples", prefix="LNT") == []


def test_tests_tree_lints_clean(tree_scan):
    assert tree_scan.findings("tests", prefix="LNT") == []


# -- CLI ----------------------------------------------------------------------

def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    f = tmp_path / "clean.py"
    f.write_text("def f(comm):\n    yield from comm.barrier()\n")
    assert analyze_main([str(f)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_lint_broken_file_exits_one(tmp_path, capsys):
    f = tmp_path / "broken.py"
    f.write_text(
        "def f(comm):\n"
        "    try:\n"
        "        comm.barrier()\n"
        "    except:\n"
        "        pass\n"
    )
    assert analyze_main([str(f)]) == 1
    out = capsys.readouterr().out
    assert "LNT001" in out and "LNT003" in out


def test_cli_missing_path_exits_two(tmp_path):
    assert analyze_main([str(tmp_path / "nope.txt")]) == 2


def test_cli_run_mode_rejects_a_directory(capsys):
    # --run executes scripts: a directory used to run nothing and exit 0
    with pytest.raises(SystemExit) as exc:
        analyze_main(["--run", str(REPO / "examples")])
    assert exc.value.code == 2
    assert "not a .py file" in capsys.readouterr().err


def test_cli_run_mode_reports_runtime_findings(tmp_path, capsys):
    script = tmp_path / "deadlock.py"
    script.write_text(textwrap.dedent("""
        import numpy as np
        from repro.mpi import Cluster, MPIConfig
        from repro.util import CostModel

        def main(comm):
            buf = np.zeros(4, dtype=np.float64)
            other = 1 - comm.rank
            yield from comm.recv(buf, other)
            yield from comm.send(buf, other)

        cluster = Cluster(2, config=MPIConfig.optimized(),
                          cost=CostModel(cpu_noise=0.0), heterogeneous=False)
        try:
            cluster.run(main)
        except Exception:
            pass
    """))
    assert analyze_main(["--run", str(script)]) == 1
    out = capsys.readouterr().out
    assert "DLK001" in out


def test_cli_run_mode_clean_script(tmp_path, capsys):
    script = tmp_path / "clean_run.py"
    script.write_text(textwrap.dedent("""
        import numpy as np
        from repro.mpi import Cluster, MPIConfig
        from repro.util import CostModel

        def main(comm):
            other = 1 - comm.rank
            out = np.full(8, float(comm.rank))
            buf = np.zeros(8)
            yield from comm.sendrecv(out, other, buf, other)
            yield from comm.barrier()

        cluster = Cluster(2, config=MPIConfig.optimized(),
                          cost=CostModel(cpu_noise=0.0), heterogeneous=False)
        cluster.run(main)
    """))
    assert analyze_main(["--run", str(script)]) == 0


@pytest.mark.parametrize("nscripts", [1, 2])
def test_cli_run_mode_gives_each_script_its_own_argv(tmp_path, nscripts):
    # a script used to see the analyzer's argv: examples/critical_path.py
    # wrote its flamegraph over itself through sys.argv[2]
    scripts = []
    for i in range(nscripts):
        script = tmp_path / f"argv_{i}.py"
        script.write_text(textwrap.dedent("""
            import json
            import pathlib
            import sys

            pathlib.Path(__file__).with_suffix(".json").write_text(
                json.dumps(sys.argv))
        """))
        scripts.append(str(script))
    before = list(sys.argv)
    assert analyze_main(["--run", *scripts]) == 0
    assert sys.argv == before
    for script in scripts:
        seen = json.loads(Path(script).with_suffix(".json").read_text())
        assert seen == [script]
