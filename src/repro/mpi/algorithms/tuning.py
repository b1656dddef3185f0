"""Tuning tables for the ``autotuned`` selection policy.

A tuning table maps a **bucket key** -- collective, communicator-size
bucket, total-volume bucket and volume-profile class -- to the algorithm
that won a simulator measurement sweep (:mod:`repro.mpi.algorithms.autotune`).

Schema (``repro-tuning/1``, JSON)::

    {
      "schema": "repro-tuning/1",
      "cost_model": {"alpha": ..., "beta": ..., "copy_byte": ...},
      "entries": {
        "allgatherv|p64|b15|outlier": {
          "algorithm": "recursive_doubling",
          "latency_us": {"ring": 812.4, "recursive_doubling": 96.1, ...},
          "scenarios": 2
        },
        ...
      }
    }

Bucket keys are coarse on purpose: a table trained on a handful of sweep
points generalises to every call that lands in the same bucket.  At
runtime the :class:`repro.mpi.algorithms.policies.AutotunedPolicy` keeps an
LRU cache of recent decisions so the per-call overhead is one dict hit.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Dict, Optional, Sequence

from repro.mpi.algorithms.registry import SelectionContext

SCHEMA = "repro-tuning/1"

#: max-over-mean ratio above which a volume set is classed as "outlier"
OUTLIER_PROFILE_RATIO = 4.0

#: fraction of zero-volume entries above which a set is classed "sparse"
SPARSE_ZERO_FRACTION = 0.5


def volume_profile(volumes: Sequence[int]) -> str:
    """Coarse volume-distribution class: zero / sparse / outlier / uniform.

    This is a bucketing heuristic, *not* the paper's Eq. 1 decision rule --
    it only has to route a call to the right trained table entry, so a
    cheap max/mean ratio (no k-select pass) is enough.
    """
    volumes = list(volumes)
    n = len(volumes)
    if n == 0:
        return "zero"
    total = sum(volumes)
    if total == 0:
        return "zero"
    zeros = sum(1 for v in volumes if v == 0)
    if zeros / n >= SPARSE_ZERO_FRACTION:
        return "sparse"
    if max(volumes) * n / total >= OUTLIER_PROFILE_RATIO:
        return "outlier"
    return "uniform"


def size_bucket(n: int) -> int:
    """Communicator sizes bucket to the next power of two."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def total_bucket(total_bytes: int) -> int:
    """Total volumes bucket to log2 (0 for empty)."""
    if total_bytes <= 0:
        return 0
    return int(math.log2(total_bytes))


#: collectives whose algorithm choice must be rank-uniform *without*
#: communicating: their algorithms speak incompatible wire protocols
#: (``sparse_alltoall``'s dense counts exchange vs NBX consensus), and the
#: per-rank volume set differs on every rank -- a volume-derived bucket
#: could send different ranks to different table entries and deadlock the
#: exchange.  These collectives bucket on rank-uniform features only.
UNIFORM_BUCKET_COLLECTIVES = frozenset({"sparse_alltoall"})


def bucket_key(ctx: SelectionContext) -> str:
    """The table key one collective call falls into."""
    if ctx.collective in UNIFORM_BUCKET_COLLECTIVES:
        return f"{ctx.collective}|p{size_bucket(ctx.size)}|uniform"
    return (
        f"{ctx.collective}|p{size_bucket(ctx.size)}"
        f"|b{total_bucket(ctx.total_bytes)}|{volume_profile(ctx.volumes)}"
    )


class TuningTable:
    """In-memory view of one tuning-table JSON document."""

    def __init__(self, entries: Optional[Dict[str, dict]] = None,
                 cost_model: Optional[dict] = None):
        self.entries: Dict[str, dict] = dict(entries or {})
        self.cost_model = dict(cost_model or {})

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, key: str) -> Optional[str]:
        """The winning algorithm for ``key``, or None when untrained."""
        entry = self.entries.get(key)
        return None if entry is None else entry.get("algorithm")

    def record(self, key: str, latencies: Dict[str, float]) -> None:
        """Merge one scenario's per-algorithm latencies (seconds) into the
        table; the entry's winner is the argmin of accumulated latency."""
        entry = self.entries.setdefault(
            key, {"algorithm": None, "latency_us": {}, "scenarios": 0})
        acc = entry.setdefault("latency_us", {})
        for name, seconds in latencies.items():
            acc[name] = acc.get(name, 0.0) + seconds * 1e6
        entry["scenarios"] = entry.get("scenarios", 0) + 1
        entry["algorithm"] = min(acc, key=acc.get)

    # -- (de)serialisation ---------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "cost_model": self.cost_model,
            "entries": self.entries,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "TuningTable":
        if doc.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} document (schema={doc.get('schema')!r})")
        return cls(entries=doc.get("entries"), cost_model=doc.get("cost_model"))

    @classmethod
    def load(cls, path: str) -> "TuningTable":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@lru_cache(maxsize=16)
def load_table(path: str) -> TuningTable:
    """Cached table loader used by the autotuned policy (one parse per
    path per process)."""
    return TuningTable.load(path)
