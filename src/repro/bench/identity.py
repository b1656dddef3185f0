"""The simulated-time identity gate (``python -m repro.bench identity``).

The simulator is deterministic, so its figures are exact answers: the
artifacts of :data:`ARTIFACTS`, regenerated in one process, must equal
the committed ``IDENTITY.json``.  The manifest holds their content, not
digests, so a change meant to move simulated time (``--update``) shows
in its diff which numbers moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from typing import Any, Dict, Iterable, Iterator, Tuple

#: the committed manifest, relative to the repository root
MANIFEST = "IDENTITY.json"

#: artifact -> its command line (``python -m repro.<module> ARGV OUT``)
ARTIFACTS = {
    "figures": ("bench", "figures --quick --emit-json"),
    "assembly": ("bench", "assembly --quick --emit-json"),
    "chaos": ("faults", "chaos --seeds 1 2 3 4 5 --nprocs 8 --report"),
}


def regenerate(names: Iterable[str] = ARTIFACTS) -> Dict[str, Any]:
    """The named artifacts, produced in this process."""
    from repro.bench.__main__ import main as bench
    from repro.faults.__main__ import main as faults

    fresh = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            module, argv = ARTIFACTS[name]
            out = os.path.join(tmp, name + ".json")
            argv = argv.split() + [out]
            with contextlib.redirect_stdout(io.StringIO()) as log:
                status = (bench if module == "bench" else faults)(argv)
            if status != 0:
                raise RuntimeError(f"{name} exited {status}:\n{log.getvalue()}")
            with open(out) as fh:
                doc = json.load(fh)
            if module == "bench":
                doc = doc["figures"]
            fresh[name] = json.loads(dumps(doc))  # the manifest's key order
    return fresh


def dumps(manifest: Dict[str, Any]) -> str:
    """The canonical text of a manifest: what ``identity --update`` writes."""
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def _cells(value: Any, path: Tuple[str, ...] = ()) -> Iterator[tuple]:
    """``(path, scalar)`` for every leaf; a table row is named by its
    leading key cells (up to the first float), a cell by its column."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key != "rows" or "columns" not in value:
                yield from _cells(item, path + (key,))
                continue
            columns = value["columns"]
            for row in item:
                n = next((i for i, cell in enumerate(row)
                          if i and isinstance(cell, float)), len(row))
                keys = " ".join(f"{c}={cell}" for c, cell in zip(columns[:n], row))
                yield from _cells(
                    {f"column {c!r}": cell for c, cell in zip(columns, row)},
                    path + ("row " + keys,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            label = (f"{item['scenario']} seed={item['seed']}"
                     if isinstance(item, dict) and "scenario" in item
                     else f"[{i}]")
            yield from _cells(item, path + (label,))
    else:
        yield path, value


def first_difference(old: Any, new: Any) -> Tuple[tuple, Any, Any]:
    """``(path, old, new)`` of the first leaf, in ``old``'s order, whose
    value or type differs (``"(absent)"`` on the side that lacks it)."""
    old_cells, new_cells = dict(_cells(old)), dict(_cells(new))
    for path in [*old_cells, *(p for p in new_cells if p not in old_cells)]:
        a = old_cells.get(path, "(absent)")
        b = new_cells.get(path, "(absent)")
        if type(a) is not type(b) or a != b:
            return path, a, b
    return (), "(same cells)", "(different text)"


def compare(path: str, fresh: Dict[str, Any]) -> int:
    """0 if every fresh artifact equals its entry in the manifest at
    ``path``; 1 (an ``IDENTITY MISMATCH`` line per moved artifact and per
    manifest key outside :data:`ARTIFACTS`) if one moved or the manifest
    holds a key no artifact regenerates; 2 if the manifest is missing or
    not a JSON object."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:
        print(f"identity manifest {path}: {exc}")
        return 2
    moved = [name for name in fresh
             if dumps(manifest.get(name, {})) != dumps(fresh[name])]
    for name in moved:
        where, old, new = first_difference(manifest.get(name, {}), fresh[name])
        print(f"IDENTITY MISMATCH: {' > '.join((name,) + where)}: "
              f"{old!r:.80} -> {new!r:.80}")
    stale = [name for name in manifest if name not in ARTIFACTS]
    for name in stale:
        print(f"IDENTITY MISMATCH: {name}: no artifact regenerates it")
    if moved or stale:
        print(f"(a change meant to move them reruns with --update: {path})")
        return 1
    print(f"identity: {', '.join(fresh)} equal to {path}")
    return 0


def run(update: bool = False) -> int:
    """The ``identity`` subcommand: check, or rewrite, :data:`MANIFEST`."""
    fresh = regenerate()
    if not update:
        return compare(MANIFEST, fresh)
    with open(MANIFEST, "w") as fh:
        fh.write(dumps(fresh))
    print(f"{MANIFEST} written")
    return 0
