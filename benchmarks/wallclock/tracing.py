"""Spans recorded by the benchmark around its own calls, and the
layer-tagged stack sampler behind ``layer.<name>.self_frac``.

Both live in the benchmark's files: nothing under ``src/repro`` is
instrumented.  The sampler is ``setitimer(ITIMER_PROF)`` plus a SIGPROF
handler on the main thread.  A ``sys._current_frames()`` sampler thread
was tried first and is useless here: it only gets to run when numpy
releases the GIL, so it put ``simtime.engine`` at 0.1 % of ``mg_solve``
where SIGPROF finds 18 %.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import Counter
from typing import Dict, List, Optional

from schema import LAYERS


class Span:
    """One timed region; ``wall``/``cpu`` are valid after the ``with``."""

    __slots__ = ("id", "parent", "name", "start", "end", "wall", "cpu",
                 "_rec", "_cpu0")

    def __init__(self, rec: "Recorder", name: str):
        self._rec = rec
        self.name = name
        self.id = self.parent = None
        self.start = self.end = self.wall = self.cpu = 0.0

    def __enter__(self) -> "Span":
        rec = self._rec
        self.id = rec._next_id
        rec._next_id += 1
        self.parent = rec._stack[-1] if rec._stack else None
        rec._stack.append(self.id)
        self._cpu0 = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        self.cpu = time.process_time() - self._cpu0
        self.wall = self.end - self.start
        rec = self._rec
        rec._stack.pop()
        if rec.keep:
            rec.spans.append({"id": self.id, "parent": self.parent,
                              "name": self.name, "start": self.start,
                              "end": self.end})
        return False


class Recorder:
    """Times regions; with ``keep`` it also retains them as spans (name,
    start, end, parent id) in memory until :meth:`write`."""

    def __init__(self, keep: bool = False):
        self.keep = keep
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def write(self, path: str, **extra) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter", "spans": self.spans, **extra},
                      fh)


class LayerSampler:
    """Charge each SIGPROF tick to the innermost frame under
    ``src/repro/<layer>``; numpy time thus lands on the calling layer.

    Ticks arrive coarser than requested (779 at 2 ms over 2.9 s), so only
    the *shares* are meaningful, never ``samples * interval``.
    """

    def __init__(self, package_dir: str, interval: float = 0.002):
        self.root = os.path.join(os.path.abspath(package_dir), "")
        self.interval = interval
        self.counts: Counter = Counter()
        self._layer_of_file: Dict[str, Optional[str]] = {}
        self._listed = set(LAYERS)

    def _classify(self, filename: str) -> Optional[str]:
        if not filename.startswith(self.root):
            return None
        parts = filename[len(self.root):-len(".py")].split(os.sep)
        for depth in (2, 1):
            name = ".".join(parts[:depth])
            if name in self._listed:
                return name
        return "other"

    def _on_tick(self, signum, frame) -> None:
        cache = self._layer_of_file
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = cache.get(filename, 0)
            if layer == 0:
                layer = cache[filename] = self._classify(filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["driver"] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        # a tick already pending must not meet the default action (kill)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def fractions(self) -> Dict[str, float]:
        total = sum(self.counts.values())
        return {layer: (self.counts[layer] / total if total else 0.0)
                for layer in LAYERS}
