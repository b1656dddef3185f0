"""Perf-trajectory records for the figure benchmarks (``bench.baseline``).

:func:`append_trajectory` appends one compact entry per run to
``BENCH_trajectory.json`` so CI accumulates the figures over time; the
gate on simulated time is :mod:`repro.bench.identity`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional


def trajectory_entry(doc: Dict[str, Any],
                     label: Optional[str] = None) -> Dict[str, Any]:
    """One compact trajectory record for a ``repro-bench/1`` document."""
    return {
        "label": label,
        "quick": doc.get("quick"),
        "figures": {
            name: {"columns": fig.get("columns", []),
                   "rows": fig.get("rows", [])}
            for name, fig in sorted(doc.get("figures", {}).items())
        },
    }


def append_trajectory(path: str, doc: Dict[str, Any],
                      label: Optional[str] = None) -> int:
    """Append a :func:`trajectory_entry` to the JSON list at ``path``.

    Creates the file (as ``[]``) when absent; returns the new length.
    """
    history: List[Any] = []
    if os.path.exists(path):
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, list):
            raise ValueError(f"{path}: trajectory file is not a JSON list")
        history = loaded
    history.append(trajectory_entry(doc, label=label))
    with open(path, "w") as fh:
        json.dump(history, fh, indent=1, default=str)
        fh.write("\n")
    return len(history)


__all__ = ["append_trajectory", "trajectory_entry"]
