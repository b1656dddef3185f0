"""FLASH-style adaptive-mesh workload (the paper's future work, section 7).

The paper closes by pointing at FLASH: block-structured adaptive meshes
whose "area of interest is dynamically discovered", with work load-balanced
between processors -- creating exactly the skewed, nonuniform-volume,
sparse communication the proposed MPI designs target.

This module implements a compact version of that workload:

- the domain is a 2-D grid of **blocks**; each block refines to a level set
  by its distance to a moving feature (a circular front), with work and
  data growing 4x per level,
- blocks are **load-balanced** along a Morton (Z-order) curve by prefix
  sums of their work, so ownership shifts every rebalance step,
- each timestep performs: local compute (charged per-rank; the
  heterogeneous halves of the machine introduce natural skew), a **halo
  exchange** between adjacent blocks (volumes depend on both blocks'
  levels: highly nonuniform, zero to most ranks) through ``Alltoallw``,
  and periodically a **migration** of blocks to their new owners, also
  through ``Alltoallw``,
- block payloads are stamped and verified after every migration, so the
  workload is also a correctness test of the communication stack.

Baseline vs optimised MPI configurations can then be compared on a workload
whose *communication pattern changes every step* -- the regime the paper's
binned Alltoallw is built for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.datatypes import DOUBLE, TypedBuffer
from repro.mpi import Cluster, MPIConfig
from repro.util.costmodel import CostModel

#: flops charged per cell per timestep
FLOPS_PER_CELL = 12.0


def morton_order(nblocks_per_dim: int) -> np.ndarray:
    """Block ids (row-major) sorted along the Z-order curve."""
    n = nblocks_per_dim
    ids = np.arange(n * n, dtype=np.int64)
    bx, by = ids % n, ids // n
    codes = np.zeros_like(ids)
    for bit in range(max(1, n).bit_length()):
        codes |= ((bx >> bit) & 1) << (2 * bit)
        codes |= ((by >> bit) & 1) << (2 * bit + 1)
    return ids[np.argsort(codes, kind="stable")]


@dataclass
class AMRConfig:
    """Workload parameters."""

    blocks_per_dim: int = 8
    base_cells: int = 8        # cells per block side at level 0
    max_level: int = 2
    feature_radius: float = 0.18   # fully-refined zone around the feature
    halo_radius: float = 0.38      # level-1 zone
    steps: int = 6
    rebalance_every: int = 2


class AMRDriver:
    """Per-rank state of the adaptive mesh (instantiated inside a rank)."""

    def __init__(self, comm, params: AMRConfig):
        self.comm = comm
        self.p = params
        n = params.blocks_per_dim
        self.nblocks = n * n
        self.order = morton_order(n)
        centers = (np.stack([self.order % n, self.order // n], axis=1) + 0.5) / n
        self.centers = centers  # in Morton order
        self.levels = np.zeros(self.nblocks, dtype=np.int64)
        self.owners = np.zeros(self.nblocks, dtype=np.int64)
        #: per-block payload (only blocks this rank owns); id -> array
        self.data: Dict[int, np.ndarray] = {}
        self.migrated_cells = 0
        self.halo_bytes = 0

    # -- refinement & balance (deterministic, computed by every rank) ------------

    def feature_position(self, t: int) -> np.ndarray:
        angle = 2.0 * np.pi * t / max(1, self.p.steps)
        return np.array([0.5 + 0.3 * np.cos(angle), 0.5 + 0.3 * np.sin(angle)])

    def compute_levels(self, t: int) -> np.ndarray:
        dist = np.linalg.norm(self.centers - self.feature_position(t), axis=1)
        levels = np.zeros(self.nblocks, dtype=np.int64)
        levels[dist < self.p.halo_radius] = max(0, self.p.max_level - 1)
        levels[dist < self.p.feature_radius] = self.p.max_level
        return levels

    def block_cells(self, levels: np.ndarray) -> np.ndarray:
        return (self.p.base_cells ** 2) * 4 ** levels

    def balanced_owners(self, levels: np.ndarray) -> np.ndarray:
        """Contiguous Morton-order chunks with ~equal total work."""
        work = self.block_cells(levels).astype(np.float64)
        csum = np.cumsum(work)
        total = csum[-1]
        nranks = self.comm.size
        owners = np.minimum(
            (csum - work / 2) / total * nranks, nranks - 1
        ).astype(np.int64)
        return owners

    # -- data management -----------------------------------------------------------

    def block_id(self, k: int) -> int:
        """Global (row-major) id of the k-th block in Morton order."""
        return int(self.order[k])

    def init_data(self, t: int = 0) -> None:
        self.levels = self.compute_levels(t)
        self.owners = self.balanced_owners(self.levels)
        cells = self.block_cells(self.levels)
        for k in range(self.nblocks):
            if self.owners[k] == self.comm.rank:
                self.data[k] = np.full(int(cells[k]), float(self.block_id(k)))

    def migrate(self, new_levels: np.ndarray, new_owners: np.ndarray) -> Generator:
        """Ship blocks to their new owners (resampling changed levels)."""
        comm = self.comm
        new_cells = self.block_cells(new_levels)
        send_blocks: Dict[int, List[int]] = {}
        recv_blocks: Dict[int, List[int]] = {}
        for k in range(self.nblocks):
            src, dst = int(self.owners[k]), int(new_owners[k])
            if src == comm.rank:
                # resample to the new level before shipping/keeping
                value = float(self.block_id(k))
                self.data[k] = np.full(int(new_cells[k]), value)
                if dst != comm.rank:
                    send_blocks.setdefault(dst, []).append(k)
            elif dst == comm.rank:
                recv_blocks.setdefault(src, []).append(k)

        sendspecs: List[Optional[TypedBuffer]] = [None] * comm.size
        recvspecs: List[Optional[TypedBuffer]] = [None] * comm.size
        send_payloads = {}
        recv_payloads = {}
        for peer, blocks in send_blocks.items():
            payload = np.concatenate([self.data[k] for k in blocks])
            send_payloads[peer] = payload
            sendspecs[peer] = TypedBuffer(payload, DOUBLE, payload.size)
        for peer, blocks in recv_blocks.items():
            total = int(sum(new_cells[k] for k in blocks))
            buf = np.empty(total)
            recv_payloads[peer] = (buf, blocks)
            recvspecs[peer] = TypedBuffer(buf, DOUBLE, total)
        yield from comm.alltoallw(sendspecs, recvspecs)
        for peer, (buf, blocks) in recv_payloads.items():
            pos = 0
            for k in blocks:
                n = int(new_cells[k])
                self.data[k] = buf[pos:pos + n].copy()
                self.migrated_cells += n
                pos += n
        for peer, blocks in send_blocks.items():
            for k in blocks:
                del self.data[k]
        self.levels = new_levels
        self.owners = new_owners

    # -- per-step phases ----------------------------------------------------------

    def neighbours(self, k: int) -> List[int]:
        """Morton-order indices of the 4-adjacent blocks of block k."""
        n = self.p.blocks_per_dim
        gid = self.block_id(k)
        bx, by = gid % n, gid // n
        out = []
        inv = np.empty(self.nblocks, dtype=np.int64)
        inv[self.order] = np.arange(self.nblocks)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = bx + dx, by + dy
            if 0 <= nx < n and 0 <= ny < n:
                out.append(int(inv[ny * n + nx]))
        return out

    def halo_exchange(self) -> Generator:
        """Exchange one block-face worth of data per adjacent block pair;
        the face size follows the finer of the two blocks."""
        comm = self.comm
        volumes = np.zeros(comm.size, dtype=np.int64)
        for k in range(self.nblocks):
            if self.owners[k] != comm.rank:
                continue
            for j in self.neighbours(k):
                peer = int(self.owners[j])
                if peer == comm.rank:
                    continue
                face = self.p.base_cells * 2 ** max(self.levels[k], self.levels[j])
                volumes[peer] += int(face)
        sendspecs: List[Optional[TypedBuffer]] = [None] * comm.size
        recvspecs: List[Optional[TypedBuffer]] = [None] * comm.size
        recv_volumes = np.zeros(comm.size, dtype=np.int64)
        for k in range(self.nblocks):
            if self.owners[k] == comm.rank:
                continue
            for j in self.neighbours(k):
                if int(self.owners[j]) == comm.rank:
                    face = self.p.base_cells * 2 ** max(self.levels[k], self.levels[j])
                    recv_volumes[self.owners[k]] += int(face)
        for peer in range(comm.size):
            if volumes[peer]:
                buf = np.zeros(int(volumes[peer]))
                sendspecs[peer] = TypedBuffer(buf, DOUBLE, buf.size)
                self.halo_bytes += buf.nbytes
            if recv_volumes[peer]:
                buf = np.zeros(int(recv_volumes[peer]))
                recvspecs[peer] = TypedBuffer(buf, DOUBLE, buf.size)
        yield from comm.alltoallw(sendspecs, recvspecs)

    def compute_phase(self) -> Generator:
        cells = sum(arr.size for arr in self.data.values())
        yield from self.comm.cpu(cells * self.comm.cost.flop * FLOPS_PER_CELL)

    def verify(self) -> bool:
        """Every owned block's payload carries its own id."""
        for k, arr in self.data.items():
            if arr.size == 0 or not np.all(arr == float(self.block_id(k))):
                return False
        return True

    # -- the driver loop ----------------------------------------------------------

    def run(self) -> Generator:
        self.init_data(0)
        yield from self.comm.barrier()
        t0 = self.comm.engine.now
        for t in range(1, self.p.steps + 1):
            if t % self.p.rebalance_every == 0:
                new_levels = self.compute_levels(t)
                new_owners = self.balanced_owners(new_levels)
                yield from self.migrate(new_levels, new_owners)
            yield from self.halo_exchange()
            yield from self.compute_phase()
        elapsed = self.comm.engine.now - t0
        return elapsed, self.verify(), self.migrated_cells


@dataclass
class AMRResult:
    nprocs: int
    time_per_step: float
    correct: bool
    migrated_cells: int


def amr_skew_benchmark(
    nprocs: int,
    config: MPIConfig,
    params: Optional[AMRConfig] = None,
    cost: Optional[CostModel] = None,
    seed: int = 0,
) -> AMRResult:
    """Run the AMR workload under one MPI configuration."""
    params = params or AMRConfig()
    cluster = Cluster(nprocs, config=config, cost=cost, seed=seed)

    def main(comm):
        driver = AMRDriver(comm, params)
        result = yield from driver.run()
        return result

    outcomes = cluster.run(main)
    elapsed = max(t for t, _ok, _m in outcomes)
    correct = all(ok for _t, ok, _m in outcomes)
    migrated = sum(m for _t, _ok, m in outcomes)
    return AMRResult(nprocs, elapsed / params.steps, correct, migrated)
