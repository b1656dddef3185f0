"""The fault-plan DSL: a declarative, seeded description of what goes wrong.

A :class:`FaultPlan` is a small immutable-after-build schedule with two kinds
of entries:

- :class:`WireRule` -- payload and timing faults applied per wire transfer
  (drop, corrupt, delay spike, NIC degradation), filtered by
  endpoint, time window, payload size, or "the nth matching transfer",
- :class:`RankFault` -- process faults (crash, hang) triggered at a
  simulated time or at a rank's nth wire operation.

Plans are built with a chainable API::

    plan = (FaultPlan(seed=7)
            .drop(probability=0.05, after=1e-5)
            .corrupt(probability=0.02, src=3)
            .delay_spike(delay=5e-4, nth=10)
            .crash(rank=2, at_time=2e-4))

and are *deterministic*: the same plan (including its ``seed``) against the
same application produces the same fault sequence, because all probability
draws come from one private :class:`random.Random` seeded at install time
and the simulator itself is deterministic.

A plan is pure data; it holds no cluster state and can be reused across
runs (each :class:`repro.faults.injector.FaultInjector` re-seeds its own
RNG from ``plan.seed``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["WireRule", "RankFault", "FaultPlan"]

#: wire-fault kinds understood by the injector
WIRE_KINDS = ("drop", "corrupt", "delay", "degrade")
#: rank-fault kinds understood by the injector
RANK_KINDS = ("crash", "hang")


@dataclass(frozen=True)
class WireRule:
    """One per-transfer fault rule.

    A rule *matches* a transfer when every filter accepts it: ``src``/``dst``
    (None = any rank), the half-open time window ``[after, until)``, and
    ``min_bytes`` (lets a rule target payloads while sparing zero-byte
    acks/synchronisations -- or the reverse).  A matching rule *fires*
    either on its ``nth`` match (1-based, exactly once) or, when ``nth`` is
    None, independently with ``probability`` per match.
    """

    kind: str
    probability: float = 1.0
    src: Optional[int] = None
    dst: Optional[int] = None
    after: float = 0.0
    until: float = math.inf
    nth: Optional[int] = None
    #: extra seconds the packet sits in the NIC (kind == "delay")
    delay: float = 0.0
    #: wire-time multiplier, e.g. 4.0 = quarter bandwidth (kind == "degrade")
    scale: float = 1.0
    min_bytes: int = 0

    def __post_init__(self):
        if self.kind not in WIRE_KINDS:
            raise ValueError(f"unknown wire-fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability!r} not in [0, 1]")
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth!r}")
        if self.delay < 0.0:
            raise ValueError(f"negative delay {self.delay!r}")
        if self.scale <= 0.0:
            raise ValueError(f"non-positive scale {self.scale!r}")

    def matches(self, src: int, dst: int, nbytes: int, now: float) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and nbytes >= self.min_bytes
            and self.after <= now < self.until
        )


@dataclass(frozen=True)
class RankFault:
    """One process fault: a crash (fail-stop) or a hang (silent stall).

    Exactly one trigger must be set:

    - ``at_time`` -- fire at that simulated time,
    - ``at_op``   -- fire when the rank *initiates* its ``at_op``-th wire
      transfer (1-based, counted on the send side), which places the fault
      deterministically *inside* a specific communication pattern
      regardless of timing jitter.

    For hangs, ``detect_after`` optionally models an external failure
    detector: that many seconds after the hang the rank is declared failed,
    upgrading the silent stall into normal crash propagation.
    """

    kind: str
    rank: int
    at_time: Optional[float] = None
    at_op: Optional[int] = None
    detect_after: Optional[float] = None
    reason: str = "injected fault"

    def __post_init__(self):
        if self.kind not in RANK_KINDS:
            raise ValueError(f"unknown rank-fault kind {self.kind!r}")
        if (self.at_time is None) == (self.at_op is None):
            raise ValueError("exactly one of at_time / at_op must be set")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError(f"negative at_time {self.at_time!r}")
        if self.at_op is not None and self.at_op < 1:
            raise ValueError(f"at_op must be >= 1, got {self.at_op!r}")
        if self.detect_after is not None and self.kind != "hang":
            raise ValueError("detect_after only applies to hangs")


@dataclass
class FaultPlan:
    """A seeded schedule of wire and rank faults (see module docstring)."""

    seed: int = 0
    wire_rules: List[WireRule] = field(default_factory=list)
    rank_faults: List[RankFault] = field(default_factory=list)

    # -- chainable builders ------------------------------------------------

    def _wire(self, kind: str, **kw) -> "FaultPlan":
        self.wire_rules.append(WireRule(kind=kind, **kw))
        return self

    def drop(self, probability: float = 1.0, **kw) -> "FaultPlan":
        """Lose matching transfers (payload never arrives)."""
        return self._wire("drop", probability=probability, **kw)

    def corrupt(self, probability: float = 1.0, **kw) -> "FaultPlan":
        """Flip bits in matching transfers (CRC mismatch at the receiver)."""
        return self._wire("corrupt", probability=probability, **kw)

    def delay_spike(self, delay: float, probability: float = 1.0,
                    **kw) -> "FaultPlan":
        """Hold matching packets in the NIC for ``delay`` extra seconds."""
        return self._wire("delay", delay=delay, probability=probability, **kw)

    def degrade(self, scale: float, probability: float = 1.0,
                **kw) -> "FaultPlan":
        """Multiply matching transfers' wire time by ``scale``."""
        return self._wire("degrade", scale=scale, probability=probability,
                          **kw)

    def crash(self, rank: int, at_time: Optional[float] = None,
              at_op: Optional[int] = None,
              reason: str = "injected crash") -> "FaultPlan":
        """Fail-stop ``rank`` at a time or at its nth wire operation."""
        self.rank_faults.append(RankFault(
            "crash", rank, at_time=at_time, at_op=at_op, reason=reason))
        return self

    def hang(self, rank: int, at_time: Optional[float] = None,
             at_op: Optional[int] = None,
             detect_after: Optional[float] = None,
             reason: str = "injected hang") -> "FaultPlan":
        """Silently stall ``rank``; optionally declare it failed later."""
        self.rank_faults.append(RankFault(
            "hang", rank, at_time=at_time, at_op=at_op,
            detect_after=detect_after, reason=reason))
        return self

    # -- canned schedules --------------------------------------------------

    @classmethod
    def random(cls, seed: int, nranks: int,
               drop_p: float = 0.02, corrupt_p: float = 0.01,
               delay_p: float = 0.01,
               delay: float = 2e-4, crash: bool = False) -> "FaultPlan":
        """A seeded random chaos schedule over ``nranks`` processes.

        Background probabilistic wire faults everywhere, plus (when
        ``crash``) one crash of a uniformly chosen non-root rank at a
        uniformly chosen early operation index.  Two calls with the same
        arguments build the identical plan.
        """
        rng = random.Random(seed)
        plan = cls(seed=seed)
        if drop_p > 0:
            plan.drop(probability=drop_p)
        if corrupt_p > 0:
            plan.corrupt(probability=corrupt_p)
        if delay_p > 0:
            plan.delay_spike(delay=delay, probability=delay_p)
        if crash and nranks > 1:
            victim = rng.randrange(1, nranks)
            plan.crash(victim, at_op=rng.randrange(2, 12),
                       reason=f"chaos crash (seed {seed})")
        return plan

    # -- reporting ---------------------------------------------------------

    def describe(self) -> str:
        """One human-readable line per scheduled fault."""
        lines = []
        for r in self.wire_rules:
            where = f"{'*' if r.src is None else r.src}->" \
                    f"{'*' if r.dst is None else r.dst}"
            trig = f"nth={r.nth}" if r.nth is not None \
                else f"p={r.probability:g}"
            extra = ""
            if r.kind == "delay":
                extra = f" delay={r.delay:g}s"
            elif r.kind == "degrade":
                extra = f" scale={r.scale:g}x"
            lines.append(f"wire {r.kind} {where} {trig}{extra}")
        for f in self.rank_faults:
            trig = f"t={f.at_time:g}" if f.at_time is not None \
                else f"op={f.at_op}"
            lines.append(f"rank {f.kind} rank={f.rank} {trig}")
        return "\n".join(lines) if lines else "(empty plan)"

    def __bool__(self) -> bool:
        return bool(self.wire_rules or self.rank_faults)
