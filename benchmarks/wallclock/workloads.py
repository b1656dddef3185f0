"""The five workloads: inputs from a seed, a set-up rank program, a
measured rank program, and a check of every output against numpy.

Each workload drives only the public API (``Cluster``, ``Comm``,
``repro.datatypes``, ``repro.petsc``) from rank programs defined here.
Sizes are fixed per workload (``FULL``; ``SMOKE`` runs the same code paths
at tiny sizes); the seed reaches the program only through the generated
inputs and ``Cluster(seed=)``.

One *rep* is ``generate -> cluster_init -> run_setup -> run_measured ->
verify`` on fresh clusters; :func:`run_rep` times each stage.
"""

from __future__ import annotations

import time
import zlib
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import datatypes as dt
from repro.datatypes import TypedBuffer, ir
from repro.mpi import Cluster, MPIConfig
from repro.petsc import DMDA, GeneralIS, Layout, MGSolver, Vec, VecScatter

from tracing import LayerSampler, Recorder


class Check(NamedTuple):
    """One output check: ``got`` must equal ``expected`` (exactly when
    ``rtol`` is 0).  Every check is one op in ``ops_total``."""

    label: str
    got: Any
    expected: Any
    rtol: float = 0.0

    def passed(self) -> bool:
        if self.rtol:
            return bool(np.allclose(self.got, self.expected,
                                    rtol=self.rtol, atol=0.0))
        return bool(np.array_equal(self.got, self.expected))


class Counters(NamedTuple):
    """Cumulative exact counters of a rep's clusters."""

    sim_time_s: float
    events: int
    messages: int
    nbytes: int

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(*(a - b for a, b in zip(self, other)))


class Workload:
    name: str
    FULL: Dict[str, int]
    SMOKE: Dict[str, int]

    def __init__(self, smoke: bool = False):
        self.sizes = dict(self.SMOKE if smoke else self.FULL)

    def generate(self, seed: int) -> Any:
        raise NotImplementedError

    def cluster_init(self, inputs: Any, seed: int) -> Any:
        """Build the rep's clusters; returns the rep context."""
        raise NotImplementedError

    def run_setup(self, ctx: Any) -> None:
        raise NotImplementedError

    def run_measured(self, ctx: Any) -> None:
        raise NotImplementedError

    def verify(self, ctx: Any) -> Tuple[List[Check], Any]:
        """(output checks, a fingerprint that must repeat across reps)."""
        raise NotImplementedError

    def counters(self, ctx: Any) -> Counters:
        cls = ctx.clusters
        return Counters(
            sum(c.elapsed for c in cls),
            sum(c.engine.events_fired for c in cls),
            sum(c.net.messages_on_wire for c in cls),
            sum(c.net.bytes_on_wire for c in cls),
        )


class _Ctx:
    """Per-rep state: the clusters, the inputs and what ranks stashed."""

    def __init__(self, inputs: Any, clusters: List[Cluster]):
        self.inputs = inputs
        self.clusters = clusters
        self.state: Dict[Any, Any] = {}
        self.out: Dict[Any, Any] = {}


# -- mg_solve -----------------------------------------------------------------


class MgSolve(Workload):
    """The paper's application (Fig. 17): 3-level multigrid on a 100^3
    grid over 32 ranks, datatype backend, optimised MPI."""

    name = "mg_solve"
    FULL = dict(ranks=32, grid=100, levels=3, cycles=3)
    SMOKE = dict(ranks=8, grid=16, levels=2, cycles=1)
    #: residual reduction ||r_end|| / ||r_0||, pinned per size
    PINNED = {
        (32, 100, 3, 3): 0.28650214717746,
        (8, 16, 2, 1): 0.59781133952914,
    }

    def generate(self, seed: int) -> np.ndarray:
        g = self.sizes["grid"]
        s = np.sin(np.pi * (np.arange(g) + 0.5) / g)
        return 3.0 * np.pi ** 2 * (
            s[:, None, None] * s[None, :, None] * s[None, None, :])

    def cluster_init(self, inputs, seed):
        return _Ctx(inputs, [Cluster(self.sizes["ranks"],
                                     config=MPIConfig.optimized(), seed=seed)])

    def run_setup(self, ctx):
        g, levels = self.sizes["grid"], self.sizes["levels"]
        b_nat = ctx.inputs

        def setup(comm):
            da = DMDA(comm, (g, g, g), dof=1, stencil="star", stencil_width=1)
            mg = MGSolver(da, nlevels=levels, backend="datatype")
            lo, hi = da.owned_box()
            b = da.create_global_vec()
            b.local[:] = b_nat[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].reshape(-1)
            x = da.create_global_vec()
            r = da.create_global_vec()
            ctx.state[comm.rank] = (da, mg, b, x, r)
            yield from comm.barrier()

        ctx.clusters[0].run(setup)

    def run_measured(self, ctx):
        cycles = self.sizes["cycles"]

        def measured(comm):
            _, mg, b, x, r = ctx.state[comm.rank]
            op = mg.ops[0]
            yield from op.residual(b, x, r)
            norm0 = yield from r.norm()
            for _ in range(cycles):
                yield from mg.vcycle(0, b, x)
            yield from op.residual(b, x, r)
            norm1 = yield from r.norm()
            return norm0, norm1

        ctx.out["norms"] = ctx.clusters[0].run(measured)

    def verify(self, ctx):
        g = self.sizes["grid"]
        b_nat = ctx.inputs
        x_nat = np.empty((g, g, g))
        for da, _, _, x, _ in ctx.state.values():
            lo, hi = da.owned_box()
            x_nat[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = da.global_array(x)
        # numpy reference: r = b - A x with reflective Dirichlet ghosts
        u = np.pad(x_nat, 1)
        u[0], u[-1] = -u[1], -u[-2]
        u[:, 0], u[:, -1] = -u[:, 1], -u[:, -2]
        u[:, :, 0], u[:, :, -1] = -u[:, :, 1], -u[:, :, -2]
        c = u[1:-1, 1:-1, 1:-1]
        ax = float(g) ** 2 * (
            6.0 * c - u[:-2, 1:-1, 1:-1] - u[2:, 1:-1, 1:-1]
            - u[1:-1, :-2, 1:-1] - u[1:-1, 2:, 1:-1]
            - u[1:-1, 1:-1, :-2] - u[1:-1, 1:-1, 2:])
        norm0, norm1 = ctx.out["norms"][0]
        key = tuple(self.sizes[k] for k in ("ranks", "grid", "levels", "cycles"))
        checks = [
            Check("initial residual norm", norm0,
                  float(np.linalg.norm(b_nat)), 1e-10),
            Check("final residual norm", norm1,
                  float(np.linalg.norm(b_nat - ax)), 1e-8),
            Check("pinned residual reduction", norm1 / norm0,
                  self.PINNED[key], 1e-9),
            Check("norms agree on every rank",
                  np.array(ctx.out["norms"]),
                  np.tile((norm0, norm1), (len(ctx.out["norms"]), 1))),
        ]
        return checks, zlib.crc32(x_nat.tobytes())


# -- coll_scale ---------------------------------------------------------------


class CollScale(Workload):
    """Nonuniform collectives at rank scale (Figs. 14-15 and the sparse
    exchange): optimised MPI at 512 ranks, then the baseline's ring
    allgatherv and round-robin alltoallw at 96."""

    name = "coll_scale"
    FULL = dict(opt_ranks=512, base_ranks=96, big=4096, matrix=100,
                peers=3, payload=16)
    SMOKE = dict(opt_ranks=24, base_ranks=10, big=256, matrix=100,
                 peers=3, payload=16)

    def generate(self, seed: int) -> List[np.ndarray]:
        n, k = self.sizes["opt_ranks"], self.sizes["peers"]
        rng = np.random.default_rng(seed)
        # k distinct peers != r per rank
        return [np.sort((r + 1 + rng.choice(n - 1, size=k, replace=False)) % n)
                for r in range(n)]

    def cluster_init(self, inputs, seed):
        return _Ctx(inputs, [
            Cluster(self.sizes["opt_ranks"], config=MPIConfig.optimized(),
                    seed=seed),
            Cluster(self.sizes["base_ranks"], config=MPIConfig.baseline(),
                    seed=seed),
        ])

    def _counts(self, n: int) -> List[int]:
        return [self.sizes["big"]] + [1] * (n - 1)

    def run_setup(self, ctx):
        m, plen = self.sizes["matrix"], self.sizes["payload"]

        def setup(comm, tag):
            n, rank = comm.size, comm.rank
            counts = self._counts(n)
            send = np.full(counts[rank], float(rank + 1))
            recv = np.zeros(sum(counts))
            # ring neighbours only: slot 0 <-> successor, slot 1 <-> predecessor
            sendbuf = np.full((2, m), float(rank))
            recvbuf = np.zeros((2, m))
            sendspecs: List[Optional[TypedBuffer]] = [None] * n
            recvspecs: List[Optional[TypedBuffer]] = [None] * n
            for slot, peer in enumerate(((rank + 1) % n, (rank - 1) % n)):
                off = slot * m * 8
                sendspecs[peer] = TypedBuffer(sendbuf, dt.DOUBLE, m, off)
                recvspecs[peer] = TypedBuffer(recvbuf, dt.DOUBLE, m, off)
            payloads = {}
            if tag == "opt":
                payloads = {int(p): np.full(plen, float(rank * n + p))
                            for p in ctx.inputs[rank]}
            ctx.state[tag, rank] = (send, recv, counts, sendspecs, recvspecs,
                                    recvbuf, payloads)
            yield from comm.barrier()

        ctx.clusters[0].run(setup, "opt")
        ctx.clusters[1].run(setup, "base")

    def run_measured(self, ctx):
        def measured(comm, tag):
            send, recv, counts, sendspecs, recvspecs, _, payloads = \
                ctx.state[tag, comm.rank]
            yield from comm.allgatherv(send, recv, counts)
            yield from comm.alltoallw(sendspecs, recvspecs)
            if tag == "base":
                return None
            got = yield from comm.sparse_alltoall(payloads)
            total = yield from comm.allreduce(comm.rank)
            top = yield from comm.allreduce(comm.rank, op=max)
            return got, total, top

        ctx.out["opt"] = ctx.clusters[0].run(measured, "opt")
        ctx.clusters[1].run(measured, "base")

    def verify(self, ctx):
        checks = []
        m, plen = self.sizes["matrix"], self.sizes["payload"]
        for tag, cluster in zip(("opt", "base"), ctx.clusters):
            n = cluster.nranks
            gathered = np.repeat(np.arange(1.0, n + 1), self._counts(n))
            ranks = np.arange(n)
            ring = np.stack([np.repeat((ranks + 1) % n, m).reshape(n, m),
                             np.repeat((ranks - 1) % n, m).reshape(n, m)],
                            axis=1).astype(float)
            checks += [
                Check(f"{tag} allgatherv",
                      np.stack([ctx.state[tag, r][1] for r in range(n)]),
                      np.tile(gathered, (n, 1))),
                Check(f"{tag} alltoallw",
                      np.stack([ctx.state[tag, r][5] for r in range(n)]), ring),
            ]
        n = ctx.clusters[0].nranks
        expected = [{} for _ in range(n)]
        for src, peers in enumerate(ctx.inputs):
            for p in peers:
                expected[int(p)][src] = float(src * n + p)
        got = [{s: (float(a[0]) if a.size == plen and np.all(a == a[0])
                    else None) for s, a in out[0].items()}
               for out in ctx.out["opt"]]
        checks += [
            Check("sparse_alltoall sources and payloads",
                  np.array([g == e for g, e in zip(got, expected)]),
                  np.ones(n, dtype=bool)),
            Check("allreduce", np.array([o[1:] for o in ctx.out["opt"]]),
                  np.tile((n * (n - 1) // 2, n - 1), (n, 1))),
        ]
        return checks, None


# -- dtype_exec ---------------------------------------------------------------


class DtypeExec(Workload):
    """Few datatypes, warm plans, many large transfers between two ranks,
    under the single-context then the dual-context engine."""

    name = "dtype_exec"
    FULL = dict(n=768, cube=96, face=2, indexed_blocks=200_000,
                vector=500_000, sends=50)
    SMOKE = dict(n=96, cube=24, face=2, indexed_blocks=6000,
                 vector=20_000, sends=8)

    def generate(self, seed: int) -> List[Tuple[str, np.ndarray, tuple, np.ndarray]]:
        """``[(label, source array, datatype spec, element index)]``; the
        element index is the numpy-side statement of what the type selects."""
        z = self.sizes
        rng = np.random.default_rng(seed)
        n, cube, face = z["n"], z["cube"], z["face"]
        cases = [("transpose", rng.random((n, n)), ("transpose", n),
                  np.arange(n * n).reshape(n, n).T.reshape(-1))]
        cells = np.arange(cube ** 3).reshape((cube,) * 3)
        for d in range(3):
            sub = [cube] * 3
            start = [0] * 3
            sub[d], start[d] = face, cube - face - 1
            sl = tuple(slice(s, s + w) for s, w in zip(start, sub))
            cases.append((f"face{d}", rng.random((cube,) * 3),
                          ("subarray", (cube,) * 3, tuple(sub), tuple(start)),
                          cells[sl].reshape(-1)))
        nb = z["indexed_blocks"]
        lens = rng.integers(1, 4, size=nb)
        disps = np.cumsum(rng.integers(0, 4, size=nb) + np.r_[0, lens[:-1]])
        elems = np.repeat(disps - (np.cumsum(lens) - lens), lens) \
            + np.arange(int(lens.sum()))
        cases.append(("indexed", rng.random(int(disps[-1] + lens[-1])),
                      ("indexed", lens, disps), elems))
        v = z["vector"]
        cases.append(("vector", rng.random(4 * v), ("vector", v, 1, 4),
                      np.arange(v) * 4))
        return cases

    @staticmethod
    def datatype_of(spec: tuple) -> dt.Datatype:
        kind = spec[0]
        if kind == "transpose":
            column = dt.Vector(spec[1], 1, spec[1], dt.DOUBLE)
            return dt.Contiguous(spec[1], dt.Resized(column, dt.DOUBLE.extent))
        if kind == "subarray":
            return dt.Subarray(spec[1], spec[2], spec[3], dt.DOUBLE)
        if kind == "indexed":
            return dt.Indexed(spec[1], spec[2], dt.DOUBLE)
        return dt.Vector(spec[1], spec[2], spec[3], dt.DOUBLE)

    def cluster_init(self, inputs, seed):
        return _Ctx(inputs, [
            Cluster(2, config=config, seed=seed, heterogeneous=False)
            for config in (MPIConfig.baseline(), MPIConfig.optimized())
        ])

    def run_setup(self, ctx):
        def setup(comm, tag):
            bufs = []
            for _, src, spec, _ in ctx.inputs:
                arr = src if comm.rank == 0 else np.zeros_like(src)
                bufs.append(TypedBuffer(arr, self.datatype_of(spec)))
            ctx.state[tag, comm.rank] = bufs
            yield from comm.barrier()

        for tag, cluster in enumerate(ctx.clusters):
            cluster.run(setup, tag)

    def run_measured(self, ctx):
        sends = self.sizes["sends"]

        def measured(comm, tag):
            for case, tb in enumerate(ctx.state[tag, comm.rank]):
                for _ in range(sends):
                    if comm.rank == 0:
                        yield from comm.send(tb, dest=1, tag=case)
                    else:
                        yield from comm.recv(tb, source=0, tag=case)

        for tag, cluster in enumerate(ctx.clusters):
            cluster.run(measured, tag)

    def verify(self, ctx):
        checks = []
        for tag, cluster in enumerate(ctx.clusters):
            for (label, src, _, elems), tb in zip(ctx.inputs, ctx.state[tag, 1]):
                expected = np.zeros(src.size)
                expected[elems] = src.reshape(-1)[elems]
                checks.append(Check(f"{cluster.config.name} {label}",
                                    tb.buffer.reshape(-1), expected))
        return checks, None


# -- dtype_compile ------------------------------------------------------------

_PRIMS = {"DOUBLE": dt.DOUBLE, "FLOAT": dt.FLOAT, "INT": dt.INT,
          "LONG": dt.LONG, "CHAR": dt.CHAR, "BYTE": dt.BYTE}


def build_datatype(spec: tuple) -> dt.Datatype:
    """Call the constructor tree a corpus spec describes."""
    kind = spec[0]
    if kind == "prim":
        return _PRIMS[spec[1]]
    if kind == "struct":
        return dt.Struct(spec[1], spec[2], [build_datatype(s) for s in spec[3]])
    base = build_datatype(spec[-1])
    if kind == "contig":
        return dt.Contiguous(spec[1], base)
    if kind == "vector":
        return dt.Vector(spec[1], spec[2], spec[3], base)
    if kind == "hvector":
        return dt.HVector(spec[1], spec[2], spec[3], base)
    if kind == "indexed":
        return dt.Indexed(spec[1], spec[2], base)
    if kind == "hindexed":
        return dt.HIndexed(spec[1], spec[2], base)
    if kind == "iblock":
        return dt.IndexedBlock(spec[1], spec[2], base)
    if kind == "subarray":
        return dt.Subarray(spec[1], spec[2], spec[3], base, order=spec[4])
    if kind == "resized":
        return dt.Resized(base, spec[1])
    raise ValueError(f"unknown datatype spec {kind!r}")


def spec_extent(spec: tuple) -> int:
    """Extent in bytes of a corpus spec, from the MPI definitions."""
    kind = spec[0]
    if kind == "prim":
        return _PRIMS[spec[1]].size
    if kind == "struct":
        return max(disp + bl * spec_extent(sub)
                   for bl, disp, sub in zip(spec[1], spec[2], spec[3]))
    if kind == "resized":
        return spec[1]
    ext = spec_extent(spec[-1])
    if kind == "contig":
        return spec[1] * ext
    if kind in ("vector", "hvector"):
        count, bl, stride = spec[1:4]
        return (count - 1) * stride * (ext if kind == "vector" else 1) + bl * ext
    if kind == "subarray":
        return int(np.prod(spec[1])) * ext
    lens = [spec[1]] * len(spec[2]) if kind == "iblock" else spec[1]
    unit = 1 if kind == "hindexed" else ext
    return max(d * unit + n * ext for n, d in zip(lens, spec[2]))


def reference_offsets(spec: tuple) -> np.ndarray:
    """Byte offset of every payload byte of a corpus spec, in pack order,
    from the MPI definitions -- independent of ``repro``'s flatten/IR."""
    kind = spec[0]
    if kind == "prim":
        return np.arange(_PRIMS[spec[1]].size, dtype=np.int64)
    if kind == "struct":
        return np.concatenate([
            _tile(reference_offsets(sub),
                  disp + np.arange(bl) * spec_extent(sub))
            for bl, disp, sub in zip(spec[1], spec[2], spec[3])
        ])
    offs, ext = reference_offsets(spec[-1]), spec_extent(spec[-1])
    if kind == "resized":
        return offs
    if kind == "contig":
        return _tile(offs, np.arange(spec[1]) * ext)
    if kind in ("vector", "hvector"):
        count, bl, stride = spec[1:4]
        step = stride * ext if kind == "vector" else stride
        return _tile(offs, (np.arange(count)[:, None] * step
                            + np.arange(bl)[None, :] * ext).reshape(-1))
    if kind == "subarray":
        sizes, subsizes, begins, order = spec[1:5]
        cells = np.arange(int(np.prod(sizes))).reshape(sizes, order=order)
        sl = tuple(slice(b, b + w) for b, w in zip(begins, subsizes))
        # either order packs in ascending memory order
        return _tile(offs, np.sort(cells[sl].reshape(-1)) * ext)
    lens = [spec[1]] * len(spec[2]) if kind == "iblock" else spec[1]
    unit = 1 if kind == "hindexed" else ext
    return _tile(offs, np.concatenate(
        [d * unit + np.arange(n) * ext for n, d in zip(lens, spec[2])]))


def _tile(offs: np.ndarray, starts) -> np.ndarray:
    return (np.asarray(starts, dtype=np.int64)[:, None]
            + offs[None, :]).reshape(-1)


def _gapped(rng, lens, unit: int) -> tuple:
    """Ascending non-overlapping displacements for blocks of ``lens``
    units, with seeded gaps, in multiples of ``unit``."""
    pos, out = 0, []
    for n in lens:
        pos += int(rng.integers(0, 4))
        out.append(pos * unit)
        pos += int(n)
    return tuple(out)


def random_spec(rng, depth: int) -> tuple:
    """A seeded constructor tree of at most ``depth`` constructors over a
    primitive, non-overlapping, using all ten constructors."""
    if depth == 0:
        return ("prim", str(rng.choice(list(_PRIMS))))
    kind = str(rng.choice(["contig", "vector", "hvector", "indexed",
                           "hindexed", "iblock", "struct", "subarray",
                           "resized"]))
    big = depth == 2  # the outer constructor carries the large counts
    count = int(rng.integers(1, 40 if big else 6))
    if kind == "struct":
        subs = tuple(random_spec(rng, depth - 1)
                     for _ in range(int(rng.integers(1, 4))))
        bls = tuple(int(rng.integers(1, 4)) for _ in subs)
        pos, disps = 0, []
        for bl, sub in zip(bls, subs):
            pos += 8 * int(rng.integers(0, 3))
            disps.append(pos)
            pos += bl * spec_extent(sub)
        return ("struct", bls, tuple(disps), subs)
    # HIndexed accepts only a contiguous base
    base = random_spec(rng, 0 if kind == "hindexed" else depth - 1)
    ext = spec_extent(base)
    if kind == "contig":
        return ("contig", count, base)
    if kind == "vector":
        bl = int(rng.integers(1, 4))
        return ("vector", count, bl, bl + int(rng.integers(0, 4)), base)
    if kind == "hvector":
        bl = int(rng.integers(1, 3))
        return ("hvector", count, bl, bl * ext + 8 * int(rng.integers(0, 4)),
                base)
    if kind == "indexed":
        lens = tuple(int(v) for v in rng.integers(1, 4, size=count))
        return ("indexed", lens, _gapped(rng, lens, 1), base)
    if kind == "hindexed":
        lens = tuple(int(v) for v in rng.integers(1, 4, size=count))
        return ("hindexed", lens, _gapped(rng, lens, ext), base)
    if kind == "iblock":
        bl = int(rng.integers(1, 4))
        return ("iblock", bl, _gapped(rng, [bl] * count, 1), base)
    if kind == "subarray":
        sizes = tuple(int(v) for v in
                      rng.integers(2, 9, size=int(rng.integers(2, 4))))
        subsizes = tuple(int(rng.integers(1, s + 1)) for s in sizes)
        begins = tuple(int(rng.integers(0, s - w + 1))
                       for s, w in zip(sizes, subsizes))
        return ("subarray", sizes, subsizes, begins,
                str(rng.choice(["C", "F"])), base)
    return ("resized", ext + 8 * int(rng.integers(0, 3)), base)


class DtypeCompile(Workload):
    """The datatype layer used the other way: thousands of distinct cold
    constructor trees, each compiled, packed and unpacked once."""

    name = "dtype_compile"
    FULL = dict(trees=4000, max_extent=65536)
    SMOKE = dict(trees=120, max_extent=16384)
    #: CRC32 of every packed byte, pinned for seed 0 per size
    PINNED_CRC = {(4000, 65536): 3860046375, (120, 16384): 1243355617}

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        #: (seed, reference CRC, byte offsets per tree) of the last corpus
        self._reference: Optional[Tuple[int, int, List[np.ndarray]]] = None

    def generate(self, seed: int):
        z = self.sizes
        rng = np.random.default_rng(seed)
        specs, seen = [], set()
        while len(specs) < z["trees"]:
            spec = random_spec(rng, 2)
            if spec in seen or spec_extent(spec) > z["max_extent"]:
                continue
            seen.add(spec)
            specs.append(spec)
        src = rng.integers(1, 256, size=z["max_extent"], dtype=np.uint8)
        return seed, specs, src

    def cluster_init(self, inputs, seed):
        return _Ctx(inputs, [])

    def run_setup(self, ctx):
        ctx.state["dst"] = np.zeros_like(ctx.inputs[2])

    def run_measured(self, ctx):
        _, specs, src = ctx.inputs
        dst = ctx.state["dst"]
        ir.cache_clear()
        done = []
        for spec in specs:
            datatype = build_datatype(spec)
            packed = TypedBuffer(src, datatype).pack()
            target = TypedBuffer(dst, datatype)
            target.unpack(packed)
            done.append((target, packed))
        ctx.out["done"] = done
        ctx.out["cache"] = ir.cache_stats()

    def _reference_for(self, inputs) -> Tuple[int, List[np.ndarray]]:
        seed, specs, src = inputs
        if self._reference is None or self._reference[0] != seed:
            layouts = [reference_offsets(spec) for spec in specs]
            crc = 0
            for offs in layouts:
                crc = zlib.crc32(src[offs].tobytes(), crc)
            self._reference = (seed, crc, layouts)
        return self._reference[1:]

    def verify(self, ctx):
        seed, specs, src = ctx.inputs
        ref_crc, layouts = self._reference_for(ctx.inputs)
        dst = ctx.state["dst"]
        crc, restored = 0, 0
        expected = np.zeros_like(dst)
        for (target, packed), offs in zip(ctx.out["done"], layouts):
            crc = zlib.crc32(packed.tobytes(), crc)
            # unpack again into a clean buffer: what it wrote, and only that
            dst[:] = 0
            target.unpack(packed)
            expected[:] = 0
            expected[offs] = src[offs]
            restored += bool(np.array_equal(dst, expected))
        checks = [
            Check("CRC of packed bytes vs definition-based reference",
                  crc, ref_crc),
            Check("unpack(pack(x)) restores x", restored, len(specs)),
        ]
        if seed == 0:
            key = (self.sizes["trees"], self.sizes["max_extent"])
            checks.append(Check("pinned CRC", crc, self.PINNED_CRC[key]))
        return checks, (crc, ctx.out["cache"]["misses"])


# -- scatter_assembly -----------------------------------------------------------


class ScatterAssembly(Workload):
    """PETSc remote reads (VecScatter on the Fig. 16 ring-successor
    block-transpose) beside remote writes (repeated Vec assembly, cached
    plan and rediscovery) at 64 ranks."""

    name = "scatter_assembly"
    FULL = dict(ranks=64, per=2048, asm_per=256, asm_peers=2, per_peer=8,
                scatters=60, rounds=20)
    SMOKE = dict(ranks=8, per=128, asm_per=32, asm_peers=2, per_peer=4,
                 scatters=6, rounds=4)

    def generate(self, seed: int):
        z = self.sizes
        n, per = z["ranks"], z["per"]
        stride = max(s for s in range(1, min(n, per) + 1) if per % s == 0)
        k = np.arange(per, dtype=np.int64)
        sigma = (k % (per // stride)) * stride + k // (per // stride)
        src_idx = np.concatenate([p * per + k for p in range(n)])
        dst_idx = np.concatenate([((p + 1) % n) * per + sigma
                                  for p in range(n)])
        xvals = np.random.default_rng(seed).random(n * per)
        step = z["asm_per"] // z["per_peer"]
        targets = [
            np.concatenate([((r + j) % n) * z["asm_per"]
                            + np.arange(z["per_peer"]) * step
                            for j in range(1, z["asm_peers"] + 1)])
            for r in range(n)
        ]
        return src_idx, dst_idx, xvals, targets

    def cluster_init(self, inputs, seed):
        return _Ctx(inputs, [Cluster(self.sizes["ranks"],
                                     config=MPIConfig.optimized(), seed=seed)])

    def run_setup(self, ctx):
        z = self.sizes
        src_idx, dst_idx, xvals, targets = ctx.inputs

        def setup(comm):
            lay = Layout(comm.size, comm.size * z["per"])
            x, y = Vec(comm, lay), Vec(comm, lay)
            start, end = x.owned_range
            x.local[:] = xvals[start:end]
            sc = VecScatter.from_index_sets(
                comm, lay, GeneralIS(src_idx), lay, GeneralIS(dst_idx))
            asm_lay = Layout(comm.size, comm.size * z["asm_per"])
            cached, discover = Vec(comm, asm_lay), Vec(comm, asm_lay)
            cached.set_option("subset_off_proc_entries")
            ctx.state[comm.rank] = (x, y, sc, cached, discover)
            yield from comm.barrier()

        ctx.clusters[0].run(setup)

    def run_measured(self, ctx):
        z = self.sizes
        targets = ctx.inputs[3]

        def measured(comm):
            x, y, sc, cached, discover = ctx.state[comm.rank]
            for _ in range(z["scatters"]):
                yield from sc.scatter(x, y, backend="datatype")
            idx = targets[comm.rank]
            for vec in (cached, discover):
                for rnd in range(z["rounds"]):
                    vals = np.full(idx.size, float((comm.rank + 1) * (rnd + 1)))
                    vec.set_values(idx, vals, mode="add")
                    yield from vec.assemble()

        ctx.clusters[0].run(measured)

    def verify(self, ctx):
        z = self.sizes
        src_idx, dst_idx, xvals, targets = ctx.inputs
        n = z["ranks"]
        y_expected = np.zeros(n * z["per"])
        y_expected[dst_idx] = xvals[src_idx]
        asm_expected = np.zeros(n * z["asm_per"])
        weight = z["rounds"] * (z["rounds"] + 1) // 2
        for r, idx in enumerate(targets):
            np.add.at(asm_expected, idx, float((r + 1) * weight))
        parts = [ctx.state[r] for r in range(n)]
        cached = np.concatenate([p[3].local for p in parts])
        discover = np.concatenate([p[4].local for p in parts])
        checks = [
            Check("scatter y", np.concatenate([p[1].local for p in parts]),
                  y_expected),
            Check("cached-plan assembly", cached, asm_expected),
            Check("rediscovering assembly", discover, asm_expected),
            Check("assemblies agree", cached, discover),
        ]
        return checks, None


REGISTRY: Dict[str, type] = {
    w.name: w for w in (MgSolve, CollScale, DtypeExec, DtypeCompile,
                        ScatterAssembly)
}


# -- one rep --------------------------------------------------------------------


class Rep(NamedTuple):
    wall_s: float
    cpu_s: float
    setup_s: float
    counters: Counters
    plans: int
    checks: List[Tuple[str, bool]]
    fingerprint: Any


def run_rep(wl: Workload, seed: int, rec: Recorder,
            sampler: Optional[LayerSampler] = None,
            slowdown: float = 0.0, corrupt: bool = False) -> Rep:
    """One closed-loop rep on fresh clusters.  ``slowdown`` busy-waits
    that share of the measured region inside it and ``corrupt`` spoils one
    expected output: the two must-fail self-tests."""
    with rec.span("rep"):
        with rec.span("generate") as s_gen:
            inputs = wl.generate(seed)
        with rec.span("cluster_init") as s_init:
            ctx = wl.cluster_init(inputs, seed)
        with rec.span("run_setup") as s_setup:
            wl.run_setup(ctx)
        before = wl.counters(ctx)
        with rec.span("run_measured") as s_run:
            if sampler is not None:
                sampler.start()
            wl.run_measured(ctx)
            if sampler is not None:
                sampler.stop()
            if slowdown:
                until = time.perf_counter() + slowdown * (
                    time.perf_counter() - s_run.start)
                while time.perf_counter() < until:
                    pass
        used = wl.counters(ctx) - before
        with rec.span("verify"):
            checks, fingerprint = wl.verify(ctx)
            if corrupt:
                first = checks[0]
                spoiled = np.array(first.expected, dtype=float)
                spoiled.flat[0] += 1.0
                checks[0] = first._replace(expected=spoiled)
            results = [(c.label, c.passed()) for c in checks]
    return Rep(s_run.wall, s_run.cpu,
               s_gen.wall + s_init.wall + s_setup.wall, used,
               ir.cache_stats()["entries"], results, fingerprint)
