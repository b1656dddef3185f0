"""Docs are checked artifacts: every back-ticked ``repro.x.y`` dotted name
and every ``src|tests|benchmarks|examples/...py`` path a Markdown page
mentions must resolve in this tree, every keyword a back-ticked
``MPIConfig(...)`` or ``.with_(...)`` passes and every back-ticked
``MPIConfig.<name>`` must be a field or method of ``MPIConfig``, every
back-ticked ``Class.member`` whose class is defined under ``repro`` must
name a method, property, slot or annotated field of that class, and every
``python -m repro.bench`` and ``python -m repro.analyze`` command line a
page or the CI workflow spells out must parse.

ROADMAP.md, CHANGES.md and ISSUE.md are exempt: they are history (they name
what a past or future commit had), not a description of the tree.
"""

import dataclasses
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import repro
from repro.analyze.__main__ import _parse as parse_analyze
from repro.bench.__main__ import _parse as parse_bench
from repro.mpi import Comm, MPIConfig

ROOT = Path(__file__).resolve().parent.parent
HISTORY = {"ROADMAP.md", "CHANGES.md", "ISSUE.md"}
PAGES = sorted(p for p in [*ROOT.glob("*.md"), *ROOT.glob("docs/*.md")]
               if p.name not in HISTORY)

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\.\*|\(\))?`")
PATH = re.compile(r"\b((?:src|tests|benchmarks|examples)/[\w./-]+\.py)\b")
# a fenced block or an inline code span
CODE = re.compile(r"```(.*?)```|`([^`]+)`", re.S)
CONFIG_CALL = re.compile(r"(?:\bMPIConfig|\.with_)\(([^)]*)\)")
CONFIG_ATTR = re.compile(r"\bMPIConfig\.(\w+)")
KEYWORD = re.compile(r"\b(\w+)\s*=(?!=)")
CONFIG_NAMES = ({f.name for f in dataclasses.fields(MPIConfig)}
                | {n for n in vars(MPIConfig) if not n.startswith("_")})
# a whole code span naming a member of a capitalised class
MEMBER = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")

CLI_PAGES = PAGES + [p for p in (ROOT / ".github/workflows/ci.yml",
                                 ROOT / ".claude/skills/verify/SKILL.md")
                     if p.is_file()]
# the arguments after the module name, up to a code span's end, a shell
# comment or separator, a table cell's end or a closing parenthesis
ARGS = r"\b([^`#;|\n)]*)"


def resolves(dotted: str) -> bool:
    """``dotted`` is a module, or an attribute chain under one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def test_there_are_pages_to_check():
    assert {"README.md", "DESIGN.md"} <= {p.name for p in PAGES}
    assert any(p.parent.name == "docs" for p in PAGES)


@pytest.mark.parametrize("page", PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_dotted_name_and_path_resolves(page):
    text = page.read_text()
    stale = sorted({name for name in DOTTED.findall(text) if not resolves(name)}
                   | {path for path in PATH.findall(text)
                      if not (ROOT / path).is_file()})
    assert not stale, f"{page.relative_to(ROOT)} names what is not in the tree: {stale}"


def stale_config_names(text):
    """Names a back-ticked ``MPIConfig`` call, ``.with_`` call or attribute
    in ``text`` uses that ``MPIConfig`` does not have."""
    names = set()
    for fenced, inline in CODE.findall(text):
        span = fenced or inline
        for args in CONFIG_CALL.findall(span):
            names.update(KEYWORD.findall(args))
        names.update(CONFIG_ATTR.findall(span))
    return sorted(names - CONFIG_NAMES)


def _repro_classes():
    """Every class defined under ``repro``, by name (a name two modules
    define maps to both classes)."""
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == info.name:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


REPRO_CLASSES = _repro_classes()


def _has_member(cls, name):
    # methods, properties, slots and defaulted fields live in the class
    # dicts; annotated (and dataclass) fields without a default do not
    return any(name in vars(k) or name in vars(k).get("__annotations__", {})
               for k in cls.__mro__)


def stale_members(text):
    """The back-ticked ``Class.member`` spans in ``text`` whose class is
    defined under ``repro`` but has no such member."""
    return sorted({f"{cls}.{name}" for cls, name in MEMBER.findall(text)
                   if cls in REPRO_CLASSES
                   and not any(_has_member(c, name)
                               for c in REPRO_CLASSES[cls])})


def test_stale_class_members_are_caught():
    assert stale_members(
        "`Comm._deliver` `NetworkModel.transfer()` `WireFault.drop` "
        "`MPIConfig.eager_threshold` `TransferEvent.src` `Engine.timeout` "
        "`Comm._deliver_basic` `WireFault.duplicate` `np.add` "
        "`Unknown.member` `Comm.revoke() / shrink()`") == [
            "Comm._deliver_basic", "WireFault.duplicate"]


@pytest.mark.parametrize("page", PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_class_member_exists(page):
    stale = stale_members(page.read_text())
    assert not stale, f"{page.relative_to(ROOT)} names class members that do not exist: {stale}"


def test_stale_config_names_are_caught():
    assert stale_config_names(
        "`MPIConfig.with_(stale_flag=True, eager_threshold=p)` "
        "`MPIConfig(reliable_transport=True)` `MPIConfig.baseline()` "
        "`MPIConfig.stale_field`") == ["stale_field", "stale_flag"]


def stale_comm_methods(text):
    """The names in the "`Comm` method" column of the table in ``text``
    that are no public ``Comm`` method (a cell lists them slash-separated,
    each with or without its argument list)."""
    stale = set()
    rows = text.split("| `Comm` method |", 1)[1].splitlines()[2:]
    for row in rows:
        if not row.startswith("|"):
            break
        cell = row.split("|")[1].strip().strip("`")
        for name in re.sub(r"\([^)]*\)", "", cell).split("/"):
            name = name.strip()
            if name.startswith("_") or not callable(getattr(Comm, name, None)):
                stale.add(name)
    return sorted(stale)


def test_stale_comm_methods_are_caught():
    assert stale_comm_methods(
        "| `Comm` method | MPI analogue |\n|---|---|\n"
        "| `send/recv` | p2p |\n| `reduce/allgatherv` | gone |\n"
        "| `dup()/split(color, key)` | comms |\n| `_deliver` | private |\n"
        "\n| `scan` | outside the table |\n") == ["_deliver", "reduce"]


def test_every_comm_method_in_the_api_table_exists():
    stale = stale_comm_methods((ROOT / "docs/API.md").read_text())
    assert not stale, f"docs/API.md lists Comm methods that do not exist: {stale}"


@pytest.mark.parametrize("page", PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_config_name_is_a_field_or_method(page):
    stale = stale_config_names(page.read_text())
    assert not stale, f"{page.relative_to(ROOT)} names MPIConfig fields that do not exist: {stale}"


def stale_commands(page, module, parse):
    """The ``python -m repro.<module>`` command lines on ``page`` that
    ``parse`` (the module's argparse setup) rejects."""
    text = re.sub(r"\\\n\s*", " ", page.read_text())  # join continued lines
    bad = []
    for args in re.findall(rf"python -m repro\.{module}{ARGS}", text):
        if not args.strip():  # the module named in prose, not a command line
            continue
        try:
            parse(shlex.split(args))
        except SystemExit:
            bad.append(f"python -m repro.{module}{args}")
    return bad


@pytest.mark.parametrize("page", CLI_PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_bench_command_line_parses(page, capsys):
    bad = stale_commands(page, "bench", parse_bench)
    assert not bad, f"{page.relative_to(ROOT)} spells out stale bench commands: {bad}"


@pytest.mark.parametrize("page", CLI_PAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_analyze_command_line_parses(page, capsys):
    bad = stale_commands(page, "analyze", parse_analyze)
    assert not bad, f"{page.relative_to(ROOT)} spells out stale analyze commands: {bad}"


def test_examples_readme_lists_every_example():
    """examples/README.md's script table has one row per ``examples/*.py``
    and no row for a script that is gone."""
    readme = (ROOT / "examples/README.md").read_text()
    table = re.findall(r"^\| `([\w.]+\.py)` \|", readme, re.M)
    assert len(table) == len(set(table))
    assert set(table) == {p.name for p in (ROOT / "examples").glob("*.py")}
