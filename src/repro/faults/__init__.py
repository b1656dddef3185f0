"""Deterministic fault injection and chaos testing for the simulator.

The package answers the robustness question the paper's stack raises but
cannot test on real hardware: *what happens to the optimized communication
algorithms when the network misbehaves or a rank dies mid-collective?*

Three layers:

- :mod:`repro.faults.plan` -- a declarative, seeded :class:`FaultPlan` DSL
  describing *what* goes wrong (message drop / corruption / duplication,
  delay spikes, NIC degradation, rank crashes and hangs) and *when*
  (time window, nth matching transfer, nth operation of a rank),
- :mod:`repro.faults.injector` -- the :class:`FaultInjector` that binds a
  plan to one :class:`repro.mpi.comm.Cluster`, intercepting
  :meth:`repro.simtime.network.NetworkModel.transfer` and scheduling rank
  faults on the engine without touching any call site,
- :mod:`repro.faults.chaos` -- the invariant-checking chaos harness
  (``python -m repro.faults chaos``) that runs the example applications
  under seeded fault schedules and asserts the recovery guarantees
  documented in ``docs/FAULTS.md``.

A cluster constructed without a ``fault_plan`` never imports this package's
machinery into its hot path: the fault-free build is byte- and
schedule-identical to the pre-fault simulator.
"""

from repro.faults.plan import FaultPlan, RankFault, WireRule
from repro.faults.injector import FaultInjector
from repro.faults.chaos import ChaosInvariantError, ChaosReport, ChaosRun, run_chaos

__all__ = [
    "ChaosInvariantError",
    "ChaosReport",
    "ChaosRun",
    "FaultInjector",
    "FaultPlan",
    "RankFault",
    "WireRule",
    "run_chaos",
]
