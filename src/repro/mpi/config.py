"""MPI implementation configuration: baseline vs optimised, plus ablations.

Every optimisation the paper proposes is an independent toggle so the
benchmark suite can measure each one's contribution separately
(``benchmarks/test_ablations.py``).

Collective-algorithm selection (see :mod:`repro.mpi.algorithms`) follows
the two section 4.2 flags: each collective takes the paper's adaptive rule
when the flag governing it is on and the stock MPICH2 rule when it is off,
so ``baseline()`` is mpich everywhere, ``optimized()`` adaptive everywhere
and single-flag ablation configs mix the two.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class MPIConfig:
    """Feature flags and protocol thresholds of the simulated MPI stack."""

    name: str

    #: section 4.1 -- dual-context look-ahead datatype engine
    dual_context_engine: bool

    #: section 4.2.1 -- detect volume outliers and switch Allgatherv to
    #: recursive doubling / dissemination instead of the ring
    adaptive_allgatherv: bool

    #: section 4.2.2 -- Alltoallw bins: exempt zero-size peers, process
    #: small messages before large ones
    binned_alltoallw: bool

    #: eager/rendezvous protocol switch (bytes)
    eager_threshold: int = 12 * 1024

    #: fault tolerance (repro.faults / docs/FAULTS.md): go-back-N-style
    #: reliable delivery -- per-message acks and sender retransmit on
    #: timeout, with the injector's verdict standing in for a checksum.
    #: Required for FaultPlans that drop or corrupt messages: without it
    #: such a message is lost.  Off by default, and then a run whose plan
    #: never fires is schedule-identical to a run without one.  Both
    #: transports share one delivery routine, ``Comm._deliver``; the
    #: timing constants live beside it in repro.mpi.comm.
    reliable_transport: bool = False

    @classmethod
    def baseline(cls) -> "MPIConfig":
        """Stock MVAPICH2-0.9.5 / MPICH2 behaviour (the paper's baseline).

        With all flags off every collective takes the ``mpich`` rule.
        """
        return cls(
            name="MVAPICH2-0.9.5",
            dual_context_engine=False,
            adaptive_allgatherv=False,
            binned_alltoallw=False,
        )

    @classmethod
    def optimized(cls) -> "MPIConfig":
        """All of the paper's optimisations enabled ("MVAPICH2-New").

        With all flags on every collective takes the ``adaptive`` rule.
        """
        return cls(
            name="MVAPICH2-New",
            dual_context_engine=True,
            adaptive_allgatherv=True,
            binned_alltoallw=True,
        )

    def with_(self, **kwargs) -> "MPIConfig":
        """A copy with selected fields replaced (for ablation studies).

        When boolean feature flags change and no explicit ``name`` is
        supplied, the copy's name gains a ``+flag``/``-flag`` suffix per
        changed flag (in field-declaration order), so ablation bench rows
        derived from the same parent stay unambiguous::

            >>> MPIConfig.baseline().with_(adaptive_allgatherv=True).name
            'MVAPICH2-0.9.5+adaptive_allgatherv'
        """
        new = replace(self, **kwargs)
        if "name" not in kwargs:
            suffix = ""
            for f in fields(self):
                if f.name not in kwargs:
                    continue
                old_value = getattr(self, f.name)
                new_value = getattr(new, f.name)
                if (isinstance(old_value, bool) and isinstance(new_value, bool)
                        and old_value != new_value):
                    suffix += ("+" if new_value else "-") + f.name
            if suffix:
                new = replace(new, name=self.name + suffix)
        return new
