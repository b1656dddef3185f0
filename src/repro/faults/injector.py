"""The fault injector: binds one :class:`FaultPlan` to one cluster.

Interception points (no application or algorithm code changes):

- **wire faults** -- :meth:`NetworkModel.transfer` consults
  :meth:`FaultInjector.on_wire` once per wire chunk when
  ``net.fault_injector`` is set.  Timing faults (delay spike, NIC
  degradation) are applied by the network model itself; the verdicts,
  OR-ed over a message's chunks into one
  :class:`repro.simtime.network.WireFault`, are what ``transfer``
  returns, and ``Comm._deliver`` in :mod:`repro.mpi.comm` *interprets* its
  ``drop`` / ``corrupt``: the best-effort transport loses a spoiled
  message (nothing checks what arrives), the reliable transport
  retransmits it -- exactly the failure mode it exists to mask,
- **rank faults** -- crashes and hangs are driven through
  :meth:`Cluster.fail_rank` / :meth:`Cluster.hang_rank`.  Time triggers are
  scheduled directly on the engine at install time; operation-count
  triggers are detected inside :meth:`on_wire` but *fired through*
  ``engine.schedule(0.0, ...)``: killing a generator from inside its own
  ``transfer`` frame would be re-entrant, so the kill always runs as its
  own zero-delay event.

Determinism: one private :class:`random.Random` seeded from ``plan.seed``
makes every probability draw reproducible; nth-match and per-rank op
counters are plain integers advanced in simulator order.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List

from repro.faults.plan import FaultPlan, RankFault
from repro.simtime.network import NO_FAULT, WireFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Cluster

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`FaultPlan` to a :class:`Cluster` (see module doc)."""

    def __init__(self, plan: FaultPlan, cluster: "Cluster"):
        self.plan = plan
        self.cluster = cluster
        self._rng = random.Random(plan.seed)
        #: per-rule match counters (for ``nth`` triggers), rule-list order
        self._rule_matches: List[int] = [0] * len(plan.wire_rules)
        #: rank -> wire operations initiated (send side), for ``at_op``
        self._ops: Dict[int, int] = {}
        #: ``at_op`` faults not yet fired, in plan order
        self._pending_op_faults: List[RankFault] = [
            f for f in plan.rank_faults if f.at_op is not None
        ]
        #: faults injected so far, per kind (inspectable by the chaos harness
        #: without a profiler attached)
        self.counts: Dict[str, int] = {}
        self.injected = 0

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        """Attach to the cluster: hook the wire, schedule timed rank faults."""
        self.cluster.net.fault_injector = self
        engine = self.cluster.engine
        for f in self.plan.rank_faults:
            if f.at_time is None:
                continue
            engine.schedule(f.at_time, self._rank_fault_trigger(f))

    def _rank_fault_trigger(self, f: RankFault):
        def fire() -> None:
            self._count(f.kind)
            if f.kind == "crash":
                self.cluster.fail_rank(f.rank, f.reason)
            else:
                self.cluster.hang_rank(f.rank, detect_after=f.detect_after,
                                       reason=f.reason)
        return fire

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.injected += 1
        prof = self.cluster.profiler
        if prof.enabled:
            prof.count("repro_faults_injected_total",
                       labels={"kind": kind})

    # -- the wire hook -----------------------------------------------------

    def on_wire(self, src: int, dst: int, nbytes: int, tag: int,
                now: float) -> WireFault:
        """Verdict for one wire chunk (called by the network model)."""
        # operation-count rank faults: counted on the initiating side
        if self._pending_op_faults:
            n = self._ops.get(src, 0) + 1
            self._ops[src] = n
            fired = None
            for f in self._pending_op_faults:
                if f.rank == src and n >= f.at_op:
                    fired = f
                    break
            if fired is not None:
                self._pending_op_faults.remove(fired)
                # never kill from inside the transfer frame (re-entrancy)
                self.cluster.engine.schedule(
                    0.0, self._rank_fault_trigger(fired))
        drop = corrupt = False
        delay = 0.0
        scale = 1.0
        hit = False
        for i, rule in enumerate(self.plan.wire_rules):
            if not rule.matches(src, dst, nbytes, now):
                continue
            self._rule_matches[i] += 1
            if rule.nth is not None:
                fire = self._rule_matches[i] == rule.nth
            else:
                fire = (rule.probability >= 1.0
                        or self._rng.random() < rule.probability)
            if not fire:
                continue
            hit = True
            self._count(rule.kind)
            if rule.kind == "drop":
                drop = True
            elif rule.kind == "corrupt":
                corrupt = True
            elif rule.kind == "delay":
                delay += rule.delay
            elif rule.kind == "degrade":
                scale *= rule.scale
        if not hit:
            return NO_FAULT
        return WireFault(drop=drop, corrupt=corrupt, delay=delay, scale=scale)
