"""Runtime verification of simulated MPI programs (DLK/REQ/P2P/COL/ZBS rules).

A :class:`RuntimeVerifier` subscribes to a cluster's observer events (see
:meth:`repro.mpi.comm.Cluster.add_observer`) and checks, while the program
runs and once it finishes:

- **signature matching on the wire** -- every send/receive bind compares
  flattened typemap signatures (SIG001) and capacities (SIG002),
- **deadlock analysis** -- when the engine reports that live processes are
  blocked forever, the pending receives and unmatched rendezvous sends are
  assembled into a *wait-for graph*; a cycle is the classic
  send-blocks-send deadlock (DLK001), an acyclic blockage is an orphaned
  wait (DLK002),
- **request lifecycle** -- nonblocking requests that were never completed
  with ``wait()``/``test()`` (REQ001),
- **unmatched traffic** -- sends nobody received (P2P001) and receives
  nobody satisfied (P2P002),
- **collective consistency** -- every rank of a communicator must enter
  the same collectives in the same order (COL001) with consistent
  root/count arguments (COL002),
- **zero-byte synchronisation audit** -- counts the pure-synchronisation
  messages that the paper's binned Alltoallw (section 4.2.2) eliminates
  (ZBS001, informational).

>>> cluster = Cluster(2)
>>> verifier = RuntimeVerifier.attach(cluster)
>>> results = verifier.run(main)         # like cluster.run, but survives
>>> print(verifier.report.render())      # deadlocks and reports them
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analyze.findings import Report
from repro.analyze.signatures import render_signature, signature_prefix
from repro.mpi.comm import ANY_SOURCE, MPIError
from repro.mpi.request import Request
from repro.simtime.engine import SimulationDeadlock


def find_cycles(edges: Dict[int, Sequence[int]]) -> List[Tuple[int, ...]]:
    """Distinct elementary cycles of a rank wait-for digraph (``rank ->
    ranks it waits on``), each rotated to start at its smallest rank, in
    discovery order: starts ascending, successors in the order given.

    Iterative DFS over simple paths; graphs here have at most nranks
    nodes, so simplicity beats asymptotics.
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


class RuntimeVerifier:
    """Observer that turns cluster events into correctness findings."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.report = Report()
        self._requests: List[Tuple[int, Request]] = []
        #: (ctx, seq) -> list of (grank, op, detail)
        self._collectives: Dict[Tuple[Any, int], List[Tuple[int, str, Any]]] = {}
        self._zero_byte_sends = 0
        self._sends_posted = 0
        self._recvs_posted = 0
        self._finalized = False
        self.deadlock: Optional[SimulationDeadlock] = None
        self.error: Optional[BaseException] = None

    @classmethod
    def attach(cls, cluster) -> "RuntimeVerifier":
        """Instrument ``cluster``; call before running it."""
        verifier = cls(cluster)
        cluster.add_observer(verifier)
        return verifier

    # -- observer callbacks (invoked by Cluster._notify) ---------------------

    def on_send_posted(self, rec) -> None:
        self._sends_posted += 1
        if not rec.is_obj and rec.nbytes == 0:
            # typed zero-byte messages are pure synchronisation -- exactly
            # the traffic the optimised Alltoallw's zero bin exempts
            self._zero_byte_sends += 1

    def on_recv_posted(self, grank, rrec) -> None:
        self._recvs_posted += 1

    def on_match(self, rec, rrec) -> None:
        if rec.sig is None or rrec.sig is None:
            return  # control-plane object message
        if not signature_prefix(rec.sig, rrec.sig):
            self.report.add(
                "SIG001",
                f"message {rec.src}->{rec.dst} tag={rec.tag}: send signature "
                f"[{render_signature(rec.sig)}] is not a prefix of receive "
                f"signature [{render_signature(rrec.sig)}]",
                location=f"rank {rec.dst}",
                key=("match", rec.src, rec.dst, rec.tag,
                     rec.sig, rrec.sig),
            )

    def on_truncation(self, rec, rrec) -> None:
        capacity = rrec.tb.nbytes if rrec.tb is not None else 0
        self.report.add(
            "SIG002",
            f"message {rec.src}->{rec.dst} tag={rec.tag} is {rec.nbytes} "
            f"bytes but the posted receive holds {capacity}",
            location=f"rank {rec.dst}",
            key=("trunc", rec.src, rec.dst, rec.tag),
        )

    def on_request(self, grank, req) -> None:
        self._requests.append((grank, req))

    def on_collective(self, grank, ctx, seq, op, detail) -> None:
        self._collectives.setdefault((ctx, seq), []).append((grank, op, detail))

    # -- driving -------------------------------------------------------------

    def run(self, fn, *args) -> Optional[list]:
        """Like ``cluster.run(fn, *args)`` but survives deadlocks and MPI
        errors, converting them into findings.  Returns the rank results,
        or ``None`` when the run aborted.  Always finalizes the report."""
        try:
            results = self.cluster.run(fn, *args)
        except SimulationDeadlock as exc:
            self.deadlock = exc
            results = None
        except MPIError as exc:
            self.error = exc
            results = None
        self.finalize()
        return results

    # -- post-run analysis ---------------------------------------------------

    def finalize(self) -> Report:
        """Run the end-of-job checks; idempotent.  Returns the report."""
        if self._finalized:
            return self.report
        self._finalized = True
        if self.deadlock is not None:
            self._analyze_deadlock()
        self._check_requests()
        self._check_unmatched()
        self._check_collectives()
        if self._zero_byte_sends:
            self.report.add(
                "ZBS001",
                f"{self._zero_byte_sends} zero-byte synchronisation "
                "message(s) sent; MPIConfig.optimized()'s binned Alltoallw "
                "exempts the zero bin entirely",
                key="zbs",
            )
        return self.report

    # the wait-for graph: an edge (a, b, why) means rank a cannot make
    # progress until rank b acts
    def _wait_edges(self) -> List[Tuple[int, int, str]]:
        cluster = self.cluster
        sends, recvs = cluster.pending()
        edges: List[Tuple[int, int, str]] = []
        for rank, rrec in recvs:
            if rrec.source == ANY_SOURCE:
                continue  # wildcard: no single culprit to point at
            edges.append((
                rank, rrec.source,
                f"rank {rank} awaits a message from rank {rrec.source} "
                f"(tag={rrec.tag})",
            ))
        threshold = cluster.config.eager_threshold
        for rec in sends:
            if not rec.is_obj and rec.nbytes > threshold:
                edges.append((
                    rec.src, rec.dst,
                    f"rank {rec.src} blocks in a rendezvous send of "
                    f"{rec.nbytes} bytes to rank {rec.dst} (tag={rec.tag})",
                ))
        return edges

    def _analyze_deadlock(self) -> None:
        edges = self._wait_edges()
        adj: Dict[int, List[int]] = {}
        for a, b, _w in edges:
            adj.setdefault(a, []).append(b)
        cycles = find_cycles(adj)
        if cycles:
            by_pair = {(a, b): w for a, b, w in edges}
            for cycle in cycles:
                hops = list(zip(cycle, cycle[1:] + cycle[:1]))
                why = "; ".join(by_pair.get(h, f"{h[0]} waits on {h[1]}")
                                for h in hops)
                chain = " -> ".join(str(r) for r in cycle + (cycle[0],))
                self.report.add(
                    "DLK001",
                    f"wait-for cycle {chain}: {why}",
                    key=("cycle", cycle),
                )
        else:
            detail = "; ".join(w for _a, _b, w in edges) or \
                "no pending point-to-point state (processes wait on futures " \
                "that nothing resolves)"
            self.report.add(
                "DLK002",
                f"{self.deadlock}: {detail}",
                key="orphan-deadlock",
            )

    def _check_requests(self) -> None:
        for idx, (grank, req) in enumerate(self._requests):
            if req.kind in ("send", "recv") and not req.waited:
                self.report.add(
                    "REQ001",
                    f"rank {grank}: nonblocking {req.kind} request was never "
                    "completed with wait()/test()",
                    location=f"rank {grank}",
                    key=("req", idx),
                )

    def _check_unmatched(self) -> None:
        sends, recvs = self.cluster.pending()
        for rec in sends:
            self.report.add(
                "P2P001",
                f"message {rec.src}->{rec.dst} tag={rec.tag} "
                f"({rec.nbytes} bytes) was never received",
                location=f"rank {rec.src}",
                key=("usend", rec.src, rec.dst, rec.tag, id(rec)),
            )
        for rank, rrec in recvs:
            src = "ANY" if rrec.source == ANY_SOURCE else rrec.source
            self.report.add(
                "P2P002",
                f"receive posted on rank {rank} (source={src}, "
                f"tag={rrec.tag}) was never satisfied",
                location=f"rank {rank}",
                key=("urecv", rank, rrec.source, rrec.tag, id(rrec)),
            )

    def _check_collectives(self) -> None:
        for (ctx, seq), entries in sorted(
            self._collectives.items(), key=lambda kv: repr(kv[0])
        ):
            ops = {op for _g, op, _d in entries}
            if len(ops) > 1:
                listing = ", ".join(
                    f"rank {g}: {op}" for g, op, _d in sorted(entries)
                )
                self.report.add(
                    "COL001",
                    f"collective #{seq} on communicator ctx={ctx!r} differs "
                    f"across ranks: {listing}",
                    key=("colop", repr(ctx), seq),
                )
                continue
            details = {repr(d) for _g, _op, d in entries}
            if len(details) > 1:
                op = next(iter(ops))
                listing = ", ".join(
                    f"rank {g}: {d!r}" for g, _op, d in sorted(entries)
                )
                self.report.add(
                    "COL002",
                    f"collective #{seq} ({op}) on communicator ctx={ctx!r} "
                    f"called with mismatched arguments: {listing}",
                    key=("coldetail", repr(ctx), seq),
                )
