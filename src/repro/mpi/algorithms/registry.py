"""The collective-algorithm registry (MPICH CVAR-table style).

Every collective of the simulated stack registers its candidate
implementations here as named :class:`Algorithm` entries carrying the
implementation function itself (a per-rank generator).  Each
implementation guards its own domain (power-of-two communicator only,
contiguous element types only, ...) with an :class:`MPIError`.

Selection logic lives one layer up, in :func:`repro.mpi.algorithms.decide`;
nothing outside this package should import a concrete implementation
function directly (lint rule LNT006 enforces it).

Implementation modules self-register on import via
:meth:`AlgorithmRegistry.register`; :data:`REGISTRY` lazily imports the
builtin collective modules on first use so the import graph stays acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.util.costmodel import CostModel


@dataclass(frozen=True)
class SelectionContext:
    """Everything the selection rule may consult for one collective call.

    ``volumes`` is the communication-volume set in **bytes**: per-rank
    contributions for allgatherv-style collectives, per-peer send sizes for
    alltoallw.  Control-plane collectives pass an empty tuple.
    """

    collective: str
    size: int
    volumes: Tuple[int, ...] = ()
    dtype_size: int = 1
    contiguous: bool = True
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
            cost=comm.cost,
        )

    @property
    def pow2(self) -> bool:
        return self.size > 0 and self.size & (self.size - 1) == 0

    @property
    def total_bytes(self) -> int:
        return sum(self.volumes)


@dataclass(frozen=True)
class Algorithm:
    """One named implementation of a collective."""

    collective: str
    name: str
    fn: Callable[..., Any]


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

    def find(self, collective: str, name: str) -> Optional[Algorithm]:
        """The named algorithm, or None when it is not registered."""
        self._ensure_loaded()
        return self._algorithms.get(collective, {}).get(name)

    def get(self, collective: str, name: str) -> Algorithm:
        algorithm = self.find(collective, name)
        if algorithm is None:
            from repro.mpi.comm import MPIError

            per = self._algorithms.get(collective)
            if per is None:
                raise MPIError(f"no algorithms registered for collective "
                               f"{collective!r}")
            raise MPIError(
                f"unknown {collective} algorithm {name!r} "
                f"(registered: {sorted(per)})"
            )
        return algorithm

    def implementation(self, collective: str, name: str) -> Callable[..., Any]:
        return self.get(collective, name).fn


#: the process-wide registry every collective self-registers into
REGISTRY = AlgorithmRegistry()


def _load_builtins() -> None:
    """Import the builtin collective modules (self-registering)."""
    import repro.mpi.collectives.allgatherv  # noqa: F401
    import repro.mpi.collectives.alltoall  # noqa: F401
    import repro.mpi.collectives.alltoallw  # noqa: F401
    import repro.mpi.collectives.basic  # noqa: F401
    import repro.mpi.collectives.sparse  # noqa: F401
