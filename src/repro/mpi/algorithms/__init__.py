"""``repro.mpi.algorithms`` -- the collective-algorithm registry and the
selection rule (the production shape of the paper's section 4.2 runtime
algorithm selection).

Two layers:

- :mod:`repro.mpi.algorithms.registry` -- :data:`REGISTRY`, an
  :class:`AlgorithmRegistry` of named implementations per collective,
- :mod:`repro.mpi.algorithms.policies` -- :func:`decide`, the one
  function that picks every collective's algorithm (the mpich or the
  adaptive rule per collective, as the config's flags say), plus
  :func:`select`, the single dispatch point every collective entry
  function calls.

:mod:`repro.mpi.algorithms.validation` additionally hosts the shared
counts/displacements normaliser the v-collectives use.
"""

from repro.mpi.algorithms.registry import (  # noqa: F401
    REGISTRY,
    Algorithm,
    AlgorithmRegistry,
    SelectionContext,
)
from repro.mpi.algorithms.policies import (  # noqa: F401
    Decision,
    decide,
    select,
)
from repro.mpi.algorithms.validation import (  # noqa: F401
    check_spec_lengths,
    normalize_counts_displs,
)

__all__ = [
    "REGISTRY",
    "Algorithm",
    "AlgorithmRegistry",
    "Decision",
    "SelectionContext",
    "check_spec_lengths",
    "decide",
    "normalize_counts_displs",
    "select",
]
