"""``repro.mpi.algorithms`` -- the collective-algorithm registry and its
selection-policy layer (the production shape of the paper's section 4.2
runtime algorithm selection).

Three layers:

- :mod:`repro.mpi.algorithms.registry` -- :data:`REGISTRY`, an
  :class:`AlgorithmRegistry` of named implementations per collective with
  applicability predicates,
- :mod:`repro.mpi.algorithms.policies` -- the flag-driven
  :class:`RulePolicy` (mpich or adaptive rule per collective) and the
  tuning-table :class:`AutotunedPolicy`, plus :func:`select`, the single
  dispatch point every collective entry function calls,
- :mod:`repro.mpi.algorithms.tuning` / ``autotune`` -- the tuning-table
  schema and the simulator sweep that fills it
  (``python -m repro.bench autotune``).

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
    AutotunedPolicy,
    Decision,
    RulePolicy,
    policy_for,
    select,
)
from repro.mpi.algorithms.tuning import (  # noqa: F401
    TuningTable,
    bucket_key,
    load_table,
    size_bucket,
    total_bucket,
    volume_profile,
)
from repro.mpi.algorithms.validation import (  # noqa: F401
    check_spec_lengths,
    normalize_counts_displs,
)

__all__ = [
    "REGISTRY",
    "Algorithm",
    "AlgorithmRegistry",
    "AutotunedPolicy",
    "Decision",
    "RulePolicy",
    "SelectionContext",
    "TuningTable",
    "bucket_key",
    "check_spec_lengths",
    "load_table",
    "normalize_counts_displs",
    "policy_for",
    "select",
    "size_bucket",
    "total_bucket",
    "volume_profile",
]
