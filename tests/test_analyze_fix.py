"""Tests for the ``--fix`` auto-rewriter (repro.analyze.fix)."""

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analyze.dataflow.driver import analyze_source_set
from repro.analyze.fix import fix_paths, fix_sources

TESTS = Path(__file__).parent
REPO = TESTS.parent
FIXTURES = TESTS / "fixtures"


def fix_one(source):
    """Run the fix loop on one dedented module; returns (new text,
    changed?)."""
    src = textwrap.dedent(source)
    result = fix_sources({"m.py": src})
    return result.changed.get("m.py", src), bool(result)


def residual_rules(text):
    report, _ = analyze_source_set([("m.py", text)])
    return sorted(f.rule for f in report)


# -- the individual codemods --------------------------------------------------

def test_inserts_yield_from_on_discarded_generator():
    fixed, changed = fix_one("""
        def f(comm, data):
            comm.send(data, 1)
            yield from comm.barrier()
    """)
    assert changed
    assert "    yield from comm.send(data, 1)" in fixed
    assert residual_rules(fixed) == []


def test_inserts_yield_from_on_undriven_assignment():
    fixed, changed = fix_one("""
        def f(comm):
            g = comm.recv(0)
            yield from comm.barrier()
    """)
    assert changed
    assert "g = yield from comm.recv(0)" in fixed
    assert residual_rules(fixed) == []


def test_never_turns_a_plain_function_into_a_generator():
    src = textwrap.dedent("""
        def f(comm, data):
            comm.send(data, 1)
    """)
    result = fix_sources({"m.py": src})
    assert not result.changed  # inserting 'yield from' here would
    # change f's calling convention; that needs a human


def test_wait_added_to_creating_if_arm():
    fixed, changed = fix_one("""
        def f(comm, data, flag):
            if flag:
                req = yield from comm.isend(data, 1)
                data = None
            yield from comm.barrier()
    """)
    assert changed
    assert "        yield from req.wait()" in fixed
    assert residual_rules(fixed) == []


def test_wait_mirrored_onto_skipping_else_arm():
    fixed, changed = fix_one("""
        def f(comm, data, flag):
            req = yield from comm.isend(data, 1)
            if flag:
                yield from req.wait()
            else:
                yield from comm.barrier()
    """)
    assert changed
    assert fixed.count("yield from req.wait()") == 2
    assert residual_rules(fixed) == []


def test_wait_creates_missing_else_arm():
    fixed, changed = fix_one("""
        def f(comm, data, flag):
            req = yield from comm.isend(data, 1)
            if flag:
                yield from req.wait()
            yield from comm.barrier()
    """)
    assert changed
    assert "    else:\n        yield from req.wait()\n" in fixed
    assert residual_rules(fixed) == []


def test_request_created_in_loop_is_not_touched():
    # hoisting a wait out of a loop iteration changes semantics: leave it
    src = textwrap.dedent("""
        def f(comm, bufs, flag):
            for peer, buf in enumerate(bufs):
                if flag:
                    req = comm.irecv(buf, peer)
    """)
    result = fix_sources({"m.py": src})
    assert "m.py" not in result.changed or \
        "wait" not in result.changed["m.py"]


def test_hoists_loop_invariant_flatten():
    fixed, changed = fix_one("""
        def f(chain, comm, peers):
            for peer in peers:
                packed = chain.flatten()
                yield from comm.send(packed, peer)
    """)
    assert changed
    lines = fixed.splitlines()
    assert lines.index("    packed = chain.flatten()") \
        < lines.index("    for peer in peers:")
    assert residual_rules(fixed) == []


def test_does_not_hoist_loop_variant_call():
    # argument depends on the loop variable: LNT002 does not fire, and
    # even if it did the zero-arg gate keeps the rewriter away
    src = textwrap.dedent("""
        def f(chain, comm, peers):
            for peer in peers:
                packed = chain.slice(peer).flatten()
                yield from comm.send(packed, peer)
    """)
    result = fix_sources({"m.py": src})
    assert not result.changed


def test_removes_stale_suppression_comment():
    fixed, changed = fix_one("""
        def f(comm, data):
            yield from comm.send(data, 1)  # analyze: ignore[LNT003]
    """)
    assert changed
    assert "analyze: ignore" not in fixed
    assert residual_rules(fixed) == []


def test_keeps_live_codes_when_dropping_stale_one():
    fixed, changed = fix_one("""
        def f(comm):
            if comm.rank == 0:
                yield from comm.barrier()  # analyze: ignore[SPMD101,LNT003]
    """)
    assert changed
    assert "# analyze: ignore[SPMD101]" in fixed
    assert residual_rules(fixed) == []


def test_comment_only_suppression_line_is_deleted():
    fixed, changed = fix_one("""
        def f(comm, data):
            # analyze: ignore[REQ102]
            yield from comm.barrier()
    """)
    assert changed
    assert "REQ102" not in fixed
    assert residual_rules(fixed) == []


# -- the loop: convergence, idempotency, safety -------------------------------

def test_fixture_repairs_to_clean_and_is_idempotent():
    src = (FIXTURES / "fixable.py").read_text(encoding="utf-8")
    assert residual_rules(src)  # the fixture is dirty by construction
    result = fix_sources({"fixable.py": src})
    fixed = result.changed["fixable.py"]
    report, _ = analyze_source_set([("fixable.py", fixed)])
    assert sorted(f.rule for f in report) == []
    # second run over the fixed text is a byte-for-byte no-op
    assert not fix_sources({"fixable.py": fixed}).changed


def test_diff_output_names_the_file():
    src = textwrap.dedent("""
        def f(comm, data):
            comm.send(data, 1)
            yield from comm.barrier()
    """)
    result = fix_sources({"pkg/mod.py": src})
    diff = result.diff()
    assert diff.startswith("--- a/pkg/mod.py")
    assert "+++ b/pkg/mod.py" in diff
    assert "+    yield from comm.send(data, 1)" in diff


def test_fix_paths_check_does_not_write(tmp_path):
    target = tmp_path / "mod.py"
    original = textwrap.dedent("""
        def f(comm, data):
            comm.send(data, 1)
            yield from comm.barrier()
    """)
    target.write_text(original, encoding="utf-8")
    result = fix_paths([str(tmp_path)], write=False)
    assert result.changed
    assert target.read_text(encoding="utf-8") == original
    # and with write=True the file is rewritten to a clean module
    result = fix_paths([str(tmp_path)], write=True)
    rewritten = target.read_text(encoding="utf-8")
    assert "yield from comm.send" in rewritten
    assert residual_rules(rewritten) == []


def test_unfixable_findings_are_left_alone():
    # REQ102 (loop-carried rebind) has no codemod: text unchanged
    src = textwrap.dedent("""
        def f(comm, bufs):
            req = None
            for peer, buf in enumerate(bufs):
                req = comm.irecv(buf, peer)
            yield from req.wait()
    """)
    result = fix_sources({"m.py": src})
    assert not result.changed


def test_cli_fix_check_exits_nonzero_and_prints_diff(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent("""
        def f(comm, data):
            comm.send(data, 1)
            yield from comm.barrier()
    """), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analyze", "--dataflow",
         "--fix", "--check", str(tmp_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "+    yield from comm.send(data, 1)" in proc.stdout
    # the file was not modified
    assert "yield from comm.send" not in target.read_text(encoding="utf-8")


def test_cli_fix_check_clean_tree_exits_zero(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent("""
        def f(comm, data):
            yield from comm.send(data, 1)
    """), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analyze", "--dataflow",
         "--fix", "--check", str(tmp_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "nothing to rewrite" in proc.stdout

