"""Findings and reports -- the common currency of the analyzer.

Every check (runtime verification, lint, dataflow, protocol verification)
emits :class:`Finding` objects identified by a stable rule ID from
:data:`RULES`; a :class:`Report` collects them, de-duplicates, renders, and
maps to a process exit code.  The full rule catalogue with remediation
advice lives in ``docs/ANALYZE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional

#: severity ordering, most serious first
SEVERITIES = ("error", "warning", "info")

#: rule id -> (severity, one-line summary)
RULES = {
    # -- signature matching on the wire (repro.analyze.runtime) -------------
    "SIG001": ("error", "send/receive datatype signatures are incompatible"),
    "SIG002": ("error", "message truncation: send larger than receive capacity"),
    # -- runtime verification (repro.analyze.runtime) -----------------------
    "DLK001": ("error", "deadlock: cycle in the wait-for graph"),
    "DLK002": ("error", "deadlock: ranks blocked forever without a wait cycle"),
    "REQ001": ("warning", "leaked Request: never completed with wait()/test()"),
    "P2P001": ("warning", "unmatched send: message was never received"),
    "P2P002": ("warning", "unmatched receive: no message ever arrived"),
    "COL001": ("error", "collective call-order mismatch across ranks"),
    "COL002": ("error", "collective argument mismatch across ranks"),
    "ZBS001": ("info", "zero-byte synchronisation messages on the wire "
                       "(the binned Alltoallw of section 4.2.2 removes these)"),
    # -- dataflow: request lifetime (repro.analyze.dataflow.requests) -------
    "REQ101": ("error", "nonblocking request may reach function exit "
                        "without wait()/test() on some path"),
    "REQ102": ("error", "request rebound while a completion was still "
                        "pending (classic loop-carried isend bug)"),
    "REQ103": ("error", "blocking-communication generator assigned but "
                        "never driven with 'yield from' on some path "
                        "(dataflow-complete LNT003)"),
    # -- dataflow: buffer aliasing (repro.analyze.dataflow.requests) --------
    "BUF101": ("error", "buffer written between a nonblocking send and the "
                        "wait that completes it"),
    "BUF102": ("warning", "receive buffer read before the nonblocking "
                          "receive completes"),
    # -- dataflow: SPMD rank divergence (repro.analyze.dataflow.spmd) -------
    "SPMD101": ("error", "collective call dominated by a rank-dependent "
                         "branch (static twin of runtime COL001/COL002)"),
    "SPMD102": ("warning", "rank-dependent early exit ahead of a collective "
                           "entered by the remaining ranks"),
    # -- cross-rank protocol verification (repro.analyze.protocol) ----------
    "MTC101": ("error", "unmatched send: no feasible receive on any rank "
                        "under the model worlds"),
    "MTC102": ("error", "unmatched receive: no feasible send on any rank "
                        "under the model worlds"),
    "MTC103": ("error", "deterministic deadlock: blocking cycle in the "
                        "static wait-for graph (static twin of DLK001)"),
    "MTC104": ("error", "collective sequence divergence across ranks "
                        "(static twin of COL001/COL002, cross-rank "
                        "strengthening of SPMD101)"),
    "MTC105": ("error", "matched send/receive have incompatible signatures "
                        "or the receive buffer is too small (static "
                        "prefix-rule + truncation check)"),
    # -- project lint (repro.analyze.lint) ----------------------------------
    "LNT001": ("error", "bare 'except:' swallows SystemExit/KeyboardInterrupt"),
    "LNT002": ("warning", "datatype re-flattened/re-packed inside a loop "
                          "(O(N^2) rescan of the block list)"),
    "LNT003": ("error", "blocking communication generator called but not "
                        "driven ('yield from' missing)"),
    "LNT004": ("warning", "mutable default argument"),
    "LNT005": ("warning", "time.sleep in simulated code (yield Delay/cpu instead)"),
    "LNT006": ("error", "concrete collective-algorithm implementation imported "
                        "outside the registry (go through "
                        "repro.mpi.algorithms.REGISTRY)"),
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a location."""

    rule: str
    message: str
    #: file path or logical location ("rank 3", "ctx (0, 1) seq 4", ...)
    location: str = ""
    line: Optional[int] = None
    #: hashable de-duplication key; findings with equal (rule, key) collapse
    key: Any = None

    @property
    def severity(self) -> str:
        return RULES[self.rule][0]

    def render(self) -> str:
        loc = self.location
        if self.line is not None:
            loc = f"{loc}:{self.line}"
        prefix = f"{loc}: " if loc else ""
        return f"{prefix}{self.rule} [{self.severity}] {self.message}"


@dataclass
class Report:
    """An ordered, de-duplicated collection of findings."""

    findings: List[Finding] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)

    def add(self, rule: str, message: str, location: str = "",
            line: Optional[int] = None, key: Any = None) -> Optional[Finding]:
        """Record a finding; returns it, or None if it was a duplicate."""
        if rule not in RULES:
            raise ValueError(f"unknown rule id {rule!r}")
        dedup = (rule, key if key is not None else (location, line, message))
        if dedup in self._seen:
            return None
        self._seen.add(dedup)
        finding = Finding(rule, message, location, line, key)
        self.findings.append(finding)
        return finding

    def extend(self, other: "Report") -> None:
        for f in other.findings:
            self.add(f.rule, f.message, f.location, f.line, f.key)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def by_rule(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def count(self, *severities: str) -> int:
        wanted = severities or SEVERITIES
        return sum(1 for f in self.findings if f.severity in wanted)

    @property
    def ok(self) -> bool:
        """True when nothing actionable was found (info-only is ok)."""
        return self.count("error", "warning") == 0

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self, show: Iterable[str] = SEVERITIES) -> str:
        """Human-readable listing, most serious findings first."""
        show = tuple(show)
        order = {s: i for i, s in enumerate(SEVERITIES)}
        chosen = sorted(
            (f for f in self.findings if f.severity in show),
            key=lambda f: (order[f.severity], f.rule, f.location, f.line or 0),
        )
        if not chosen:
            return "analyze: no findings"
        lines = [f.render() for f in chosen]
        counts = ", ".join(
            f"{self.count(s)} {s}(s)" for s in SEVERITIES if self.count(s)
        )
        lines.append(f"analyze: {counts}")
        return "\n".join(lines)
