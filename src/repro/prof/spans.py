"""Span-based tracing of simulated time (``prof.spans``).

A :class:`Tracer` records *spans*: named intervals of simulated time,
stamped from the discrete-event engine's clock, organised per rank and
nestable.  Instrumented code opens spans with an ordinary ``with`` block::

    with tracer.span("collective", "allgatherv", rank, algorithm="ring"):
        yield from ...        # simulated time passes inside the block

Because user code is generator-based, the block may suspend and resume many
times; the span's duration is simply ``engine.now`` at exit minus
``engine.now`` at entry -- i.e. elapsed *simulated* seconds, including any
time the rank spent blocked.

Spans live on *tracks*.  The default track of a span is its rank (one
timeline per rank, like one row per rank in a Vampir/Chrome view);
background activity that overlaps the rank's main flow -- receiver-side
unpack performed by the delivery process, wire transfers -- goes on
auxiliary lanes (``lane="io"``, ``lane="wire"``) so that spans on any one
track never overlap and nesting stays well defined.

Span categories used by the instrumented stack (see docs/OBSERVABILITY.md):

==============  ==========================================================
``p2p``         one ``isend`` call (datatype processing + posting)
``cpu``         one CPU charge (``pack``/``search``/``lookahead``/
                ``unpack``/``compute``, the ledger categories)
``collective``  one collective invocation (``allgatherv``, ``alltoallw``,
                ``barrier``, ``bcast``, ``reduce``, ...)
``phase``       one internal round of a collective (ring hop,
                recursive-doubling step, dissemination phase, alltoallw
                bin)
``petsc``       one PETSc-level operation (``vecscatter``)
``solver``      one KSP iteration
``wait``        one blocking ``Request.wait``
==============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: ordered catalogue of span categories (documented + checked by tests)
SPAN_CATEGORIES = (
    "p2p",
    "cpu",
    "collective",
    "phase",
    "petsc",
    "solver",
    "wait",
    "marker",
)


@dataclass
class Span:
    """One interval of simulated time on one track."""

    id: int
    parent: Optional[int]
    category: str
    name: str
    rank: int
    track: Tuple[int, str]
    t_start: float
    t_end: Optional[float] = None
    depth: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.t_end is None

    @property
    def duration(self) -> float:
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def encloses(self, other: "Span") -> bool:
        """True if ``other`` lies within this span's time window."""
        if self.t_end is None or other.t_end is None:
            return False
        return self.t_start <= other.t_start and other.t_end <= self.t_end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.t_end is None else f"{self.t_end:.3g}"
        return (f"Span({self.category}:{self.name} rank={self.rank} "
                f"[{self.t_start:.3g}, {end}])")


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Records spans and instant events against a simulation engine clock.

    The tracer never advances or perturbs simulated time; it only reads
    ``engine.now``.  Attach it to a cluster through
    :class:`repro.prof.Profiler` rather than using it directly.
    """

    def __init__(self, engine):
        self.engine = engine
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self._next_id = 0
        #: per-track stacks of currently open spans
        self._stacks: Dict[Tuple[int, str], List[Span]] = {}

    # -- recording -----------------------------------------------------------

    def span(self, category: str, name: str, rank: int,
             lane: str = "main", **attrs: Any) -> _SpanContext:
        """A context manager opening a span at entry, closing it at exit.

        The ``with`` target is the :class:`Span`, so late-bound attributes
        can be added inside the block (``sp.attrs["algorithm"] = ...``).
        """
        track = (rank, lane)
        span = Span(
            id=self._next_id, parent=None, category=category, name=name,
            rank=rank, track=track, t_start=0.0, attrs=dict(attrs),
        )
        self._next_id += 1
        return _SpanContext(self, span)

    def instant(self, category: str, name: str, rank: int, **attrs: Any) -> Span:
        """Record a zero-duration marker event at the current time."""
        now = self.engine.now
        span = Span(
            id=self._next_id, parent=self._top_id((rank, "main")),
            category=category, name=name, rank=rank, track=(rank, "main"),
            t_start=now, t_end=now, attrs=dict(attrs),
        )
        self._next_id += 1
        self.instants.append(span)
        return span

    def _top_id(self, track: Tuple[int, str]) -> Optional[int]:
        stack = self._stacks.get(track)
        return stack[-1].id if stack else None

    def _open(self, span: Span) -> None:
        stack = self._stacks.setdefault(span.track, [])
        span.t_start = self.engine.now
        span.parent = stack[-1].id if stack else None
        span.depth = len(stack)
        stack.append(span)
        self.spans.append(span)

    def _close(self, span: Span) -> None:
        span.t_end = self.engine.now
        stack = self._stacks.get(span.track)
        if stack is not None:
            # removal by identity, not positional pop: background processes
            # on the same track may interleave open/close
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is span:
                    del stack[i]
                    break

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.open]

    def tracks(self) -> List[Tuple[int, str]]:
        """All tracks that carry at least one span, deterministic order."""
        seen = dict.fromkeys(s.track for s in self.spans)
        for s in self.instants:
            seen.setdefault(s.track)
        return sorted(seen)

    def walk(self) -> Iterator[Span]:
        """Spans in recording order (stable, deterministic)."""
        return iter(self.spans)
