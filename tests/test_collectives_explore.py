"""Executed small-world sweep of every registered collective algorithm.

One cell per registry entry (the algorithm forced by name), world size
N in 1..9, volume profile and eager threshold (the default, or 0: every
typed message rendezvous).  Each cell runs the collective on
``MPIConfig.optimized()`` with a :class:`RuntimeVerifier` attached and
checks two oracles:

- every rank received exactly the bytes a sequential numpy reference
  computes;
- the verifier's report holds no error or warning (deadlock, leaked
  request, unmatched traffic, signature or collective mismatch).

Recursive doubling off a power of two must instead raise its own
:class:`MPIError`.  The pytest node id of a failing cell is its repro::

    python -m pytest "tests/test_collectives_explore.py::test_cell[allgatherv/ring-N5-outlier-eager0]"

The multi-algorithm collectives (allgatherv, alltoallw, sparse_alltoall)
take every volume profile; the five single-algorithm ones take one input
shape each and reach their sole registered algorithm through
:func:`repro.mpi.algorithms.decide`.  A registry entry without a driver
fails :func:`test_every_registered_algorithm_is_explored`.
"""

import numpy as np
import pytest

from repro.analyze import RuntimeVerifier
from repro.datatypes import DOUBLE, TypedBuffer
from repro.mpi import Cluster, MPIConfig, MPIError
from repro.mpi.algorithms import REGISTRY
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)

SIZES = range(1, 10)

#: per-rank volume profiles, in doubles
PROFILES = {
    "uniform": lambda n: [3] * n,
    "zero": lambda n: [0] * n,
    "outlier": lambda n: [2000] + [1] * (n - 1),
    # PETSc ex49's assembly shape: ln[0] = 2, 10 elsewhere
    "ex49": lambda n: [2] + [10] * (n - 1),
}

EAGER = {"eagerdefault": MPIConfig.optimized().eager_threshold, "eager0": 0}


def _stamp(src, dst, count):
    """The doubles ``src`` sends ``dst``: unique per (src, dst, index)."""
    return src * 1e7 + dst * 1e4 + np.arange(count, dtype=np.float64)


def _pair_count(vols, src, dst):
    """Doubles ``src`` sends ``dst`` in the pairwise collectives: the
    profile read at ``src + dst``, so each rank sends a different mix."""
    return vols[(src + dst) % len(vols)]


# -- drivers: (rank program, reference results) per collective ---------------

def _allgatherv(algorithm, vols):
    n = len(vols)

    def main(comm):
        recv = np.zeros(sum(vols))
        send = _stamp(comm.rank, 0, vols[comm.rank])
        yield from comm.allgatherv(send, recv, vols, algorithm=algorithm)
        return recv

    full = np.concatenate([_stamp(r, 0, c) for r, c in enumerate(vols)])
    return main, [full] * n


def _alltoallw(algorithm, vols):
    n = len(vols)

    def specs(buf, counts):
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return [TypedBuffer(buf, DOUBLE, c, offset_bytes=8 * int(o))
                if c else None for c, o in zip(counts, offsets)]

    def main(comm):
        out = [_pair_count(vols, comm.rank, p) for p in range(n)]
        into = [_pair_count(vols, p, comm.rank) for p in range(n)]
        send = np.concatenate([_stamp(comm.rank, p, c)
                               for p, c in enumerate(out)])
        recv = np.zeros(sum(into))
        yield from comm.alltoallw(specs(send, out), specs(recv, into),
                                  algorithm=algorithm)
        return recv

    expected = [np.concatenate([_stamp(p, r, _pair_count(vols, p, r))
                                for p in range(n)]) for r in range(n)]
    return main, expected


def _sparse_alltoall(algorithm, vols):
    n = len(vols)

    def main(comm):
        payloads = {p: _stamp(comm.rank, p, _pair_count(vols, comm.rank, p))
                    for p in range(n)}
        got = yield from comm.sparse_alltoall(payloads, algorithm=algorithm)
        return {src: np.asarray(arr).copy() for src, arr in got.items()}

    expected = [{p: _stamp(p, r, _pair_count(vols, p, r)) for p in range(n)
                 if _pair_count(vols, p, r)} for r in range(n)]
    return main, expected


def _barrier(n):
    def main(comm):
        yield from comm.barrier()
        return comm.rank

    return main, list(range(n))


def _bcast(n):
    root = n - 1
    value = _stamp(root, 0, 5)

    def main(comm):
        got = yield from comm.bcast(value if comm.rank == root else None,
                                    root=root)
        return got

    return main, [value] * n


def _allreduce(n):
    def main(comm):
        total = yield from comm.allreduce(float(comm.rank + 1))
        return total

    return main, [n * (n + 1) / 2] * n


def _gather_obj(n):
    root = n - 1

    def main(comm):
        got = yield from comm.gather_obj(10 * comm.rank, root=root)
        return got

    return main, [list(range(0, 10 * n, 10)) if r == root else None
                  for r in range(n)]


def _alltoall(n):
    count = 3

    def main(comm):
        send = np.concatenate([_stamp(comm.rank, p, count) for p in range(n)])
        recv = np.zeros(n * count)
        yield from comm.alltoall(send, recv, count)
        return recv

    return main, [np.concatenate([_stamp(p, r, count) for p in range(n)])
                  for r in range(n)]


#: collective -> driver taking (algorithm, volume profile)
PROFILED = {
    "allgatherv": _allgatherv,
    "alltoallw": _alltoallw,
    "sparse_alltoall": _sparse_alltoall,
}

#: single-algorithm collective -> (its algorithm, driver taking N)
SINGLE = {
    "barrier": ("dissemination", _barrier),
    "bcast": ("binomial", _bcast),
    "allreduce": ("recursive_doubling", _allreduce),
    "gather_obj": ("linear", _gather_obj),
    "alltoall": ("pairwise", _alltoall),
}

#: (collective, algorithm) pairs the drivers above run
DRIVEN = ({(c, a) for c in PROFILED for a in REGISTRY.names(c)}
          | {(c, a) for c, (a, _d) in SINGLE.items()})


def _cells():
    for collective, algorithm in sorted(DRIVEN):
        for n in SIZES:
            profiles = PROFILES if collective in PROFILED else {"fixed": None}
            for profile in profiles:
                for eager in EAGER:
                    yield pytest.param(
                        collective, algorithm, n, profile, eager,
                        id=f"{collective}/{algorithm}-N{n}-{profile}-{eager}")


def _same(got, want):
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want)
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    return got == want


def test_every_registered_algorithm_is_explored():
    registered = {(c, a) for c in REGISTRY.collectives()
                  for a in REGISTRY.names(c)}
    assert DRIVEN == registered
    assert len(registered) == 13


@pytest.mark.parametrize("collective,algorithm,n,profile,eager", _cells())
def test_cell(collective, algorithm, n, profile, eager):
    if collective in PROFILED:
        main, expected = PROFILED[collective](algorithm, PROFILES[profile](n))
    else:
        assert REGISTRY.names(collective) == [algorithm]
        main, expected = SINGLE[collective][1](n)
    config = MPIConfig.optimized().with_(eager_threshold=EAGER[eager])
    cluster = Cluster(n, config=config, cost=QUIET, heterogeneous=False)
    verifier = RuntimeVerifier.attach(cluster)
    results = verifier.run(main)
    if algorithm == "recursive_doubling" and collective == "allgatherv" \
            and n & (n - 1):
        assert isinstance(verifier.error, MPIError)
        assert "power-of-two" in str(verifier.error)
        return
    assert verifier.error is None and verifier.deadlock is None
    assert verifier.report.ok, verifier.report.render()
    assert len(results) == n
    assert all(_same(got, want) for got, want in zip(results, expected))
