"""The collective-algorithm registry (MPICH CVAR-table style).

Every collective of the simulated stack registers its candidate
implementations here as named :class:`Algorithm` entries carrying

- an **applicability predicate** over a :class:`SelectionContext`
  (power-of-two communicator only, contiguous element types only, ...),
- a **cost-model estimator**: a closed-form alpha-beta latency estimate
  used by the autotuner as a sanity prior and exposed for debugging,
- the implementation function itself (a per-rank generator).

Selection logic lives one layer up, in :mod:`repro.mpi.algorithms.policies`;
nothing outside this package should import a concrete implementation
function directly (lint rule LNT006 enforces it).

Implementation modules self-register on import via
:meth:`AlgorithmRegistry.register`; :data:`REGISTRY` lazily imports the
builtin collective modules on first use so the import graph stays acyclic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.mpi.config import MPIConfig
from repro.util.costmodel import CostModel


@dataclass(frozen=True)
class SelectionContext:
    """Everything a selection policy may consult for one collective call.

    ``volumes`` is the communication-volume set in **bytes**: per-rank
    contributions for allgatherv-style collectives, per-peer send sizes for
    alltoallw.  Control-plane collectives pass an empty tuple.
    """

    collective: str
    size: int
    volumes: Tuple[int, ...] = ()
    dtype_size: int = 1
    contiguous: bool = True
    config: Optional[MPIConfig] = None
    cost: Optional[CostModel] = None

    @classmethod
    def for_comm(cls, comm: Any, collective: str,
                 volumes: Sequence[int] = (), dtype_size: int = 1,
                 contiguous: bool = True) -> "SelectionContext":
        return cls(
            collective=collective,
            size=comm.size,
            volumes=tuple(map(int, volumes)),
            dtype_size=dtype_size,
            contiguous=contiguous,
            config=comm.config,
            cost=comm.cost,
        )

    @property
    def pow2(self) -> bool:
        return self.size > 0 and self.size & (self.size - 1) == 0

    @property
    def total_bytes(self) -> int:
        return sum(self.volumes)

    @property
    def max_bytes(self) -> int:
        return max(self.volumes) if self.volumes else 0

    @property
    def nonzero(self) -> int:
        return sum(1 for v in self.volumes if v > 0)


@dataclass(frozen=True)
class Algorithm:
    """One named implementation of a collective."""

    collective: str
    name: str
    fn: Callable[..., Any]
    predicate: Optional[Callable[[SelectionContext], bool]] = None
    estimator: Optional[Callable[[SelectionContext], float]] = None
    description: str = ""

    def applicable(self, ctx: SelectionContext) -> bool:
        return self.predicate is None or bool(self.predicate(ctx))

    def estimate(self, ctx: SelectionContext) -> float:
        """Closed-form latency estimate (seconds); inf when no estimator."""
        if self.estimator is None:
            return math.inf
        return float(self.estimator(ctx))


class AlgorithmRegistry:
    """Name-keyed store of collective algorithms."""

    def __init__(self) -> None:
        self._algorithms: Dict[str, Dict[str, Algorithm]] = {}
        self._loaded = False

    # -- registration --------------------------------------------------------

    def register(self, algorithm: Algorithm) -> Algorithm:
        per = self._algorithms.setdefault(algorithm.collective, {})
        existing = per.get(algorithm.name)
        if existing is not None and existing.fn is not algorithm.fn:
            raise ValueError(
                f"algorithm {algorithm.collective}/{algorithm.name} already "
                "registered with a different implementation"
            )
        per[algorithm.name] = algorithm
        return algorithm

    def register_fn(self, collective: str, name: str,
                    predicate: Optional[Callable] = None,
                    estimator: Optional[Callable] = None,
                    description: str = "") -> Callable:
        """Decorator form of :meth:`register` used by the builtin modules."""

        def deco(fn: Callable) -> Callable:
            self.register(Algorithm(
                collective=collective, name=name, fn=fn,
                predicate=predicate, estimator=estimator,
                description=description,
            ))
            return fn

        return deco

    # -- lookup --------------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self._loaded = True
            _load_builtins()

    def collectives(self) -> List[str]:
        self._ensure_loaded()
        return sorted(self._algorithms)

    def names(self, collective: str) -> List[str]:
        self._ensure_loaded()
        return sorted(self._algorithms.get(collective, {}))

    def get(self, collective: str, name: str) -> Algorithm:
        self._ensure_loaded()
        per = self._algorithms.get(collective)
        if per is None:
            from repro.mpi.comm import MPIError

            raise MPIError(f"no algorithms registered for collective "
                           f"{collective!r}")
        algorithm = per.get(name)
        if algorithm is None:
            from repro.mpi.comm import MPIError

            raise MPIError(
                f"unknown {collective} algorithm {name!r} "
                f"(registered: {sorted(per)})"
            )
        return algorithm

    def implementation(self, collective: str, name: str) -> Callable[..., Any]:
        return self.get(collective, name).fn

    def candidates(self, collective: str,
                   ctx: Optional[SelectionContext] = None) -> List[Algorithm]:
        """All algorithms of ``collective``; filtered by applicability when
        a context is given."""
        self._ensure_loaded()
        algorithms = [self._algorithms.get(collective, {})[n]
                      for n in self.names(collective)]
        if ctx is not None:
            algorithms = [a for a in algorithms if a.applicable(ctx)]
        return algorithms

    def only(self, collective: str) -> Algorithm:
        """The sole registered algorithm of a single-candidate collective."""
        candidates = self.candidates(collective)
        if len(candidates) != 1:
            raise ValueError(
                f"collective {collective!r} has {len(candidates)} candidates; "
                "use a selection policy"
            )
        return candidates[0]


#: the process-wide registry every collective self-registers into
REGISTRY = AlgorithmRegistry()


def _load_builtins() -> None:
    """Import the builtin collective modules (self-registering)."""
    import repro.mpi.collectives.allgatherv  # noqa: F401
    import repro.mpi.collectives.alltoallw  # noqa: F401
    import repro.mpi.collectives.basic  # noqa: F401
    import repro.mpi.collectives.gather  # noqa: F401
    import repro.mpi.collectives.reduce  # noqa: F401
    import repro.mpi.collectives.sparse  # noqa: F401
