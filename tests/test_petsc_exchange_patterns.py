"""Every exchange pattern the PETSc layer builds is pinned.

A :class:`VecScatter` is fully described by its ``send_map``, its
``recv_map`` (peer order included: the hand-tuned backend posts messages in
that order) and its local pairs.  ``PINNED`` holds one digest per pattern
and rank count, combining every rank's maps; a refactor of how a pattern is
*derived* must leave all of them unchanged.  Run this file as a script to
print the current tree's table.
"""

import collections
import hashlib

import numpy as np
import pytest

from repro.apps.fem_poisson import solve_poisson_fem
from repro.mpi import Cluster, MPIConfig
from repro.petsc import DMDA, AIJMat, GeneralIS, Layout, MGSolver, VecScatter

NPROCS = (1, 2, 3, 4, 8, 9, 12)


def _digest(scatter: VecScatter) -> str:
    h = hashlib.sha256()
    for name, pattern in (("send", scatter.send_map), ("recv", scatter.recv_map)):
        for peer, offsets in pattern.items():
            h.update(f"{name}{peer}:".encode())
            h.update(offsets.astype(np.int64).tobytes())
    h.update(b"local")
    h.update(scatter.local_src.astype(np.int64).tobytes())
    h.update(b"|")
    h.update(scatter.local_dst.astype(np.int64).tobytes())
    return h.hexdigest()


def _combine(per_rank) -> str:
    return hashlib.sha256("/".join(per_rank).encode()).hexdigest()[:16]


def _per_rank(nprocs, build):
    """Run ``build(comm) -> {name: scatter}`` on every rank; return
    ``{name: combined digest}``."""
    def main(comm):
        scatters = build(comm)
        yield from comm.barrier()
        return {name: _digest(sc) for name, sc in scatters.items()}

    results = Cluster(nprocs, config=MPIConfig.optimized()).run(main)
    return {name: _combine([r[name] for r in results]) for name in results[0]}


def _dmda(comm):
    return {
        "dmda_star_3d": DMDA(comm, (8, 8, 8)).ghost_scatter(),
        "dmda_box_2d": DMDA(comm, (16, 12), dof=2, stencil="box",
                            stencil_width=2).ghost_scatter(),
    }


def _mg(comm):
    mg = MGSolver(DMDA(comm, (16, 16, 16)), nlevels=3)
    out = {}
    for level, transfer in enumerate(mg.transfers):
        out[f"mg_restrict_{level}"] = transfer.restrict_scatter
        out[f"mg_prolong_{level}"] = transfer.prolong_scatter
    return out


def _index_sets(comm):
    rng = np.random.default_rng(7)
    src = rng.permutation(50)[:40]
    dst = rng.permutation(50)[:40]
    lay = Layout(comm.size, 50)
    return {"from_index_sets": VecScatter.from_index_sets(
        comm, lay, GeneralIS(src), lay, GeneralIS(dst))}


def _aij_fem(nprocs, monkeypatch):
    """The ghost-column gather AIJMat builds while assembling the FEM
    stiffness matrix (``solve_poisson_fem(n=12)``)."""
    seen = {}
    assemble = AIJMat.assemble

    def spy(self, backend="datatype"):
        yield from assemble(self, backend)
        seen[self.comm.rank] = _digest(self._gather)

    monkeypatch.setattr(AIJMat, "assemble", spy)
    solve_poisson_fem(nprocs, n=12)
    return {"aij_fem_gather": _combine([seen[r] for r in range(nprocs)])}


def _all(nprocs, monkeypatch):
    got = {}
    for build in (_dmda, _mg, _index_sets):
        got.update(_per_rank(nprocs, build))
    got.update(_aij_fem(nprocs, monkeypatch))
    return got


PINNED = {
    1: {
        "dmda_star_3d": "347f63862f47a344",
        "dmda_box_2d": "39dbf8a23368366d",
        "mg_restrict_0": "bb1a4cb0aea8e2ed",
        "mg_prolong_0": "5cb20f26bf0bb334",
        "mg_restrict_1": "5cb20f26bf0bb334",
        "mg_prolong_1": "711bf7be0253971b",
        "from_index_sets": "19b6b1ab092d1884",
        "aij_fem_gather": "822619a8628000dc",
    },
    2: {
        "dmda_star_3d": "8fe4c8f6896c2aa0",
        "dmda_box_2d": "3d72a2932b1b4894",
        "mg_restrict_0": "ff4b8b1e38c844b0",
        "mg_prolong_0": "296129f1c84134d6",
        "mg_restrict_1": "30fd18324578fa1c",
        "mg_prolong_1": "6a40330f15f63518",
        "from_index_sets": "3ce127aaf224f062",
        "aij_fem_gather": "cc1a67d22232d56f",
    },
    3: {
        "dmda_star_3d": "ce54b0e77903423d",
        "dmda_box_2d": "c64bf4003f11baad",
        "mg_restrict_0": "d5a614e565bb34fa",
        "mg_prolong_0": "350ca797a0c2f579",
        "mg_restrict_1": "467d49301c1079d4",
        "mg_prolong_1": "101f5995cad0e622",
        "from_index_sets": "3fd3f953c145c4bf",
        "aij_fem_gather": "0b99442a4e6d6cfe",
    },
    4: {
        "dmda_star_3d": "38a04ec96ff65f71",
        "dmda_box_2d": "9e57d8f04a97f5b9",
        "mg_restrict_0": "3df86e509a8d5dc7",
        "mg_prolong_0": "0310093ae34a201c",
        "mg_restrict_1": "4631807d9431f4ab",
        "mg_prolong_1": "5e7b5ff5ea8fa209",
        "from_index_sets": "0de7d6217b7e7c35",
        "aij_fem_gather": "56c25ec074c04f81",
    },
    8: {
        "dmda_star_3d": "9fea83d0d2029ab0",
        "dmda_box_2d": "359ba1f71fc20a46",
        "mg_restrict_0": "5b4a351537018f8f",
        "mg_prolong_0": "c59e66b84aeb0ca3",
        "mg_restrict_1": "8d9fded12112500b",
        "mg_prolong_1": "a02e1a4355733dd6",
        "from_index_sets": "a49a28b605475c36",
        "aij_fem_gather": "c188b028d686a7a8",
    },
    9: {
        "dmda_star_3d": "a3e9c03b41dff568",
        "dmda_box_2d": "3148420ebab88a6b",
        "mg_restrict_0": "4f621bdb51abafa6",
        "mg_prolong_0": "1b29b120cc90d04d",
        "mg_restrict_1": "476004a134a011b1",
        "mg_prolong_1": "2e0da85c3aa49e04",
        "from_index_sets": "f7987210c9a1d2f5",
        "aij_fem_gather": "c96031ef175f3d3c",
    },
    12: {
        "dmda_star_3d": "664b7576eae4f235",
        "dmda_box_2d": "bfc03f6fdcad6a38",
        "mg_restrict_0": "f79177cb3422a61f",
        "mg_prolong_0": "5d3daaf949bc4204",
        "mg_restrict_1": "7081d10dedd94548",
        "mg_prolong_1": "66372aaae1d6b798",
        "from_index_sets": "23585b6531d8e846",
        "aij_fem_gather": "5a2b585a33f3aa08",
    },
}


@pytest.mark.parametrize("nprocs", NPROCS)
def test_exchange_patterns_pinned(nprocs, monkeypatch):
    assert _all(nprocs, monkeypatch) == PINNED[nprocs]


def _setup_work(nprocs, per, monkeypatch):
    """Per rank: ``DMDA._region_toward`` calls while a 3-level
    ``MGSolver`` on 32^3 is built, and entries ``Layout.owners`` looks up
    while ``from_index_sets`` builds a ring shift of ``per`` entries per
    rank."""
    calls = collections.Counter()
    current = [0]
    region_toward, owners = DMDA._region_toward, Layout.owners

    def counted_region(self, owned, box):
        calls["region", self.comm.rank] += 1
        return region_toward(self, owned, box)

    def counted_owners(self, idx):
        calls["owners", current[0]] += np.size(idx)
        return owners(self, idx)

    monkeypatch.setattr(DMDA, "_region_toward", counted_region)
    monkeypatch.setattr(Layout, "owners", counted_owners)
    src = np.arange(nprocs * per)
    dst = (src + per) % src.size

    def main(comm):
        MGSolver(DMDA(comm, (32, 32, 32)), nlevels=3)
        lay = Layout(comm.size, src.size)
        current[0] = comm.rank  # from_index_sets does not yield
        VecScatter.from_index_sets(comm, lay, GeneralIS(src), lay, GeneralIS(dst))
        yield from comm.barrier()

    Cluster(nprocs, config=MPIConfig.optimized()).run(main)
    monkeypatch.undo()
    return {kind: [calls[kind, r] for r in range(nprocs)]
            for kind in ("region", "owners")}


@pytest.mark.parametrize("nprocs", (8, 64))
def test_per_rank_setup_work_does_not_grow_with_nprocs(nprocs, monkeypatch):
    """A rank derives only the part of a pattern it takes part in.  Each of
    the three levels' star ghost exchanges meets at most 6 peers each way,
    and each of the four MG box gathers at most the 27 process-grid
    neighbourhood each way, whatever the rank count; and from_index_sets
    looks up owners only for the entries a rank sends or receives."""
    per = 64
    work = _setup_work(nprocs, per, monkeypatch)
    assert max(work["region"]) <= 3 * 2 * 6 + 4 * 2 * 27
    assert work["owners"] == [2 * per] * nprocs


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    for p in NPROCS:
        print(f"    {p}: {{")
        for name, digest in _all(p, mp).items():
            print(f"        {name!r}: {digest!r},")
        print("    },")
    mp.undo()
