"""Static match graph over per-rank abstract communication traces.

This is the cross-rank half of the protocol verifier
(:mod:`repro.analyze.protocol`): the AST side abstractly executes one
function under a small concrete world (every rank of a model size), and
this module joins the resulting per-rank :class:`Op` traces into a
**match graph** -- which send pairs with which receive, whether every
rank's collective sequence agrees, and whether the blocking structure
can make progress.

The algorithms mirror what the runtime verifier observes dynamically
(P2P001/P2P002, COL001/COL002, DLK001), but they run on *symbolic*
traces produced without executing the program:

:func:`match_p2p`
    In-order matching per receiver.  A receive takes the earliest
    posted, signature-eligible send whose envelope (src, tag, channel)
    it accepts, honouring MPI's non-overtaking rule for a fixed
    (source, tag) pair.  Unmatched sends/receives feed MTC101/MTC102.

:func:`check_collectives`
    Compares the collective *sequence* (operation kind, then root
    argument where statically known) of every rank against rank 0.
    Any divergence feeds MTC104 -- the cross-rank generalisation of
    SPMD101, which only sees one rank's control flow.

:func:`simulate`
    A deterministic abstract scheduler over the matched traces: every
    rank advances while its next operation *can* complete (rendezvous
    semantics for blocking sends -- a correct MPI program must not rely
    on eager buffering), collectives act as barriers, and waits block
    on the posting of their matched peer.  If no rank can advance and
    some rank is not done, the blocked ops and the rank wait-for cycle
    feed MTC103.

Everything here is deliberately independent of the AST layer so the
matching/deadlock semantics can be unit- and property-tested on
hand-built traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ANY",
    "Op",
    "CollectiveDivergence",
    "Deadlock",
    "WorldResult",
    "match_p2p",
    "check_collectives",
    "find_cycles",
    "simulate",
    "verify_world",
]

#: wildcard source/tag (mirrors ``ANY_SOURCE`` / ``ANY_TAG``)
ANY = -1


@dataclass
class Op:
    """One abstract communication operation in a rank's trace.

    ``peer`` is the destination rank for sends and the source rank for
    receives (:data:`ANY` for a wildcard receive); ``waits_on`` holds
    trace indices (same rank) of the requests a ``wait`` completes.
    ``count`` / ``datatype`` / ``buf_bytes`` carry the statically
    evaluated payload shape for the MTC105 signature check and are
    ``None`` when unknown.
    """

    rank: int
    index: int
    kind: str                      # send | isend | recv | irecv | coll | wait
    line: int = 0
    func: str = ""
    peer: Optional[int] = None
    tag: Optional[int] = None
    channel: str = "typed"         # typed | obj
    coll: str = ""                 # collective method name (kind == "coll")
    root: Optional[int] = None     # statically known root argument
    waits_on: Tuple[int, ...] = ()
    eager: bool = False            # completes without a matching peer
    count: Optional[int] = None
    datatype: Any = None
    buf_bytes: Optional[int] = None

    @property
    def is_send(self) -> bool:
        return self.kind in ("send", "isend")

    @property
    def is_recv(self) -> bool:
        return self.kind in ("recv", "irecv")

    @property
    def blocking(self) -> bool:
        return self.kind in ("send", "recv", "coll", "wait")

    def describe(self) -> str:
        if self.kind == "coll":
            root = f", root={self.root}" if self.root is not None else ""
            return f"{self.coll}(...{root}) on rank {self.rank}"
        if self.kind == "wait":
            return f"wait on rank {self.rank}"
        peer = "ANY" if self.peer == ANY else self.peer
        tag = "ANY" if self.tag == ANY else self.tag
        arrow = "->" if self.is_send else "<-"
        return (f"{self.kind}({arrow} rank {peer}, tag={tag}) "
                f"on rank {self.rank}")


@dataclass
class CollectiveDivergence:
    """Ranks disagree on the collective sequence at instance ``index``."""

    index: int
    #: rank -> (collective kind or None when the rank has no such
    #: instance, root or None, source line or 0)
    per_rank: Dict[int, Tuple[Optional[str], Optional[int], int]]
    kind_mismatch: bool            # False: kinds agree, roots differ

    def describe(self) -> str:
        parts = []
        for rank in sorted(self.per_rank):
            kind, root, _line = self.per_rank[rank]
            if kind is None:
                parts.append(f"rank {rank}: <none>")
            elif root is not None:
                parts.append(f"rank {rank}: {kind}(root={root})")
            else:
                parts.append(f"rank {rank}: {kind}")
        return "; ".join(parts)


@dataclass
class Deadlock:
    """The abstract scheduler stopped with unfinished ranks."""

    #: the operation each blocked rank is stuck at
    blocked: List[Op]
    #: a wait-for cycle among the blocked ranks (empty when the
    #: dependency is a chain into a finished rank -- orphaned ordering)
    cycle: List[int] = field(default_factory=list)

    def describe(self) -> str:
        ops = "; ".join(op.describe() for op in self.blocked)
        if self.cycle:
            ring = " -> ".join(str(r) for r in self.cycle + self.cycle[:1])
            return f"wait-for cycle {ring}: {ops}"
        return f"no progress possible: {ops}"


@dataclass
class WorldResult:
    """Everything the verifier learned about one model world size."""

    size: int
    traces: Dict[int, List[Op]]
    matches: List[Tuple[Op, Op]]
    unmatched_sends: List[Op]
    unmatched_recvs: List[Op]
    divergence: Optional[CollectiveDivergence]
    deadlock: Optional[Deadlock]

    @property
    def num_ops(self) -> int:
        return sum(len(t) for t in self.traces.values())


def match_p2p(traces: Dict[int, List[Op]],
              ) -> Tuple[List[Tuple[Op, Op]], List[Op], List[Op]]:
    """Pair sends with receives across the world.

    Receives are processed in per-rank program order; each takes the
    earliest-posted eligible send (matching destination, channel, source
    and tag envelope).  "Earliest" orders by (sender trace position,
    sender rank) -- deterministic, and exact for the deterministic
    programs the extractor admits (it bails on wildcard *sends* and
    data-dependent envelopes).
    """
    matches: List[Tuple[Op, Op]] = []
    taken: set = set()
    sends_to: Dict[int, List[Op]] = {}
    for rank in sorted(traces):
        for op in traces[rank]:
            if op.is_send and op.peer is not None and op.peer != ANY:
                sends_to.setdefault(op.peer, []).append(op)
    for dst in sends_to:
        sends_to[dst].sort(key=lambda s: (s.index, s.rank))

    for rank in sorted(traces):
        for op in traces[rank]:
            if not op.is_recv:
                continue
            for send in sends_to.get(rank, ()):
                key = (send.rank, send.index)
                if key in taken:
                    continue
                if send.channel != op.channel:
                    continue
                if op.peer not in (ANY, send.rank):
                    continue
                if op.tag != ANY and send.tag != op.tag:
                    continue
                taken.add(key)
                matches.append((send, op))
                break

    matched_recvs = {(r.rank, r.index) for _s, r in matches}
    unmatched_sends = [
        op for rank in sorted(traces) for op in traces[rank]
        if op.is_send and not op.eager
        and (op.rank, op.index) not in taken
    ]
    unmatched_recvs = [
        op for rank in sorted(traces) for op in traces[rank]
        if op.is_recv and (op.rank, op.index) not in matched_recvs
    ]
    return matches, unmatched_sends, unmatched_recvs


def check_collectives(traces: Dict[int, List[Op]],
                      ) -> Optional[CollectiveDivergence]:
    """First divergence in the per-rank collective sequences, or None."""
    seqs = {rank: [op for op in trace if op.kind == "coll"]
            for rank, trace in traces.items()}
    depth = max((len(s) for s in seqs.values()), default=0)
    for i in range(depth):
        kinds = set()
        roots = set()
        for seq in seqs.values():
            if i < len(seq):
                kinds.add(seq[i].coll)
                if seq[i].root is not None:
                    roots.add(seq[i].root)
            else:
                kinds.add(None)
        if len(kinds) > 1 or (len(kinds) == 1 and len(roots) > 1):
            per_rank = {}
            for rank, seq in seqs.items():
                if i < len(seq):
                    per_rank[rank] = (seq[i].coll, seq[i].root, seq[i].line)
                else:
                    per_rank[rank] = (None, None, 0)
            return CollectiveDivergence(i, per_rank,
                                        kind_mismatch=len(kinds) > 1)
    return None


def simulate(traces: Dict[int, List[Op]],
             matches: Sequence[Tuple[Op, Op]]) -> Optional[Deadlock]:
    """Run the abstract scheduler; returns the deadlock, if any.

    Completion rules (rendezvous semantics):

    - ``isend`` / ``irecv`` post and complete immediately;
    - a blocking ``send`` completes once its matched receive is posted,
      a blocking ``recv`` once its matched send is posted (unmatched
      ops complete immediately -- they are MTC101/102 territory and
      must not cascade into a spurious deadlock);
    - ``wait`` completes once every request it waits on has a posted
      match;
    - the *i*-th collective completes once every rank has posted its
      own *i*-th collective (the caller guarantees the sequences agree
      before simulating).
    """
    match_of: Dict[Tuple[int, int], Op] = {}
    for send, recv in matches:
        match_of[(send.rank, send.index)] = recv
        match_of[(recv.rank, recv.index)] = send

    pcs = {rank: 0 for rank in traces}
    posted: set = set()
    coll_posted = {rank: 0 for rank in traces}
    coll_occurrence: Dict[Tuple[int, int], int] = {}
    for rank, trace in traces.items():
        seen = 0
        for op in trace:
            if op.kind == "coll":
                coll_occurrence[(rank, op.index)] = seen
                seen += 1

    def peer_posted(op: Op) -> bool:
        peer = match_of.get((op.rank, op.index))
        if peer is None:
            return True  # unmatched: reported separately, never blocks
        return (peer.rank, peer.index) in posted

    def can_complete(op: Op) -> bool:
        if op.kind in ("isend", "irecv") or op.eager:
            return True
        if op.kind in ("send", "recv"):
            return peer_posted(op)
        if op.kind == "wait":
            return all(peer_posted(traces[op.rank][i]) for i in op.waits_on)
        if op.kind == "coll":
            occ = coll_occurrence[(op.rank, op.index)]
            return all(coll_posted[r] > occ for r in traces)
        return True

    progressed = True
    while progressed:
        progressed = False
        for rank in sorted(traces):
            trace = traces[rank]
            while pcs[rank] < len(trace):
                op = trace[pcs[rank]]
                if (rank, op.index) not in posted:
                    posted.add((rank, op.index))
                    if op.kind == "coll":
                        coll_posted[rank] += 1
                    progressed = True
                if not can_complete(op):
                    break
                pcs[rank] += 1
                progressed = True

    blocked = [traces[rank][pcs[rank]] for rank in sorted(traces)
               if pcs[rank] < len(traces[rank])]
    if not blocked:
        return None

    # rank wait-for edges: who must post before the blocked op completes?
    waits_for: Dict[int, set] = {}
    for op in blocked:
        needs: set = set()
        if op.kind in ("send", "recv"):
            peer = match_of.get((op.rank, op.index))
            if peer is not None and (peer.rank, peer.index) not in posted:
                needs.add(peer.rank)
        elif op.kind == "wait":
            for i in op.waits_on:
                peer = match_of.get((op.rank, i))
                if peer is not None and (peer.rank, peer.index) not in posted:
                    needs.add(peer.rank)
        elif op.kind == "coll":
            occ = coll_occurrence[(op.rank, op.index)]
            needs |= {r for r in traces if coll_posted[r] <= occ
                      and r != op.rank}
        waits_for[op.rank] = needs

    # name the shortest cycle through the lowest rank on any cycle
    cycles = find_cycles({r: sorted(n) for r, n in waits_for.items()})
    cycle = min(cycles, key=lambda c: (c[0], len(c)), default=())
    return Deadlock(blocked=blocked, cycle=list(cycle))


def find_cycles(edges: Dict[int, Sequence[int]]) -> List[Tuple[int, ...]]:
    """Distinct elementary cycles of a rank wait-for digraph (``rank ->
    ranks it waits on``), each rotated to start at its smallest rank, in
    discovery order: starts ascending, successors in the order given.

    The one cycle routine of the analyzer: the static scheduler above
    names one cycle (MTC103), the runtime verifier every cycle (DLK001).  Iterative DFS over simple paths; graphs here have at most
    nranks nodes, so simplicity beats asymptotics.
    """
    cycles: List[Tuple[int, ...]] = []
    seen: set = set()
    for start in sorted(edges):
        stack: List[Tuple[int, Tuple[int, ...]]] = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in edges.get(node, ()):
                if nxt == path[0]:
                    k = path.index(min(path))
                    canon = path[k:] + path[:k]
                    if canon not in seen:
                        seen.add(canon)
                        cycles.append(canon)
                elif nxt not in path and len(path) < 64:
                    stack.append((nxt, path + (nxt,)))
    return cycles


def verify_world(traces: Dict[int, List[Op]], size: int) -> WorldResult:
    """Full verification of one model world: match, collectives, then
    (only when the collective sequences agree -- a divergence already
    explains any stall) the deadlock simulation."""
    matches, unmatched_sends, unmatched_recvs = match_p2p(traces)
    divergence = check_collectives(traces)
    deadlock = None
    if divergence is None:
        deadlock = simulate(traces, matches)
    return WorldResult(size=size, traces=traces, matches=matches,
                       unmatched_sends=unmatched_sends,
                       unmatched_recvs=unmatched_recvs,
                       divergence=divergence, deadlock=deadlock)
