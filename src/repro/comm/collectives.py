"""Baseline bulk-synchronous collective library (RCCL-like).

This is the comparison point for every fused operator in the paper: separate
computation and communication *kernels* executing at kernel boundaries.
The library holds only the hardware-facing helpers (route, blit copy,
reduction, kernel launch) and two timing entry points.  The step schedules
themselves live once each in :mod:`repro.collectives` — a pluggable menu
of ring/tree/direct/hierarchical AllReduce and flat/pairwise/hierarchical
All-to-All variants selected with the ``algorithm`` argument (``None``
keeps the legacy defaults the paper evaluates against; ``"auto"`` picks by
message size and topology).  Simulated time advances the way RCCL does on
this hardware — a collective kernel launch per rank, blit-kernel copies
over the intra-node fabric, or GPU-direct RDMA transfers between nodes.

Payloads are not moved: operators compute their functional outputs in
NumPy on the side.  Both entry points are generators meant to run inside
a simulation process::

    def scenario(sim):
        yield from lib.all_to_all_bytes(chunk_bytes, algorithm="pairwise")
"""

from __future__ import annotations

from typing import Optional

from ..collectives import CommTopology, resolve_allreduce, resolve_alltoall
from ..hw.topology import Cluster
from ..sim import Simulator

__all__ = ["CollectiveLibrary"]


#: Fraction of raw fabric-link bandwidth a blit-kernel copy achieves.
#:
#: RCCL's intra-node collectives move data with copy ("blit") kernels that
#: stage payloads through intermediate buffers using a handful of CUs per
#: channel; measured bus bandwidths sit well below the link peak.  The
#: paper's zero-copy fused kernels bypass this entirely — GPU threads store
#: compute results straight into the peer's destination buffer — which is
#: the "zero-copy" benefit of Section III-B.
BLIT_EFFICIENCY = 0.55


class CollectiveLibrary:
    """Bulk-synchronous collectives over a :class:`~repro.hw.Cluster`."""

    def __init__(self, cluster: Cluster, launch_overhead: bool = True,
                 blit_efficiency: float = BLIT_EFFICIENCY):
        if not (0.0 < blit_efficiency <= 1.0):
            raise ValueError(
                f"blit_efficiency must be in (0, 1], got {blit_efficiency}")
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.launch_overhead = launch_overhead
        self.blit_efficiency = blit_efficiency

    # -- helpers ---------------------------------------------------------------
    def _launch_delay(self) -> float:
        if not self.launch_overhead:
            return 0.0
        return self.cluster.gpus[0].spec.kernel_launch_overhead

    def _local_copy_time(self, rank: int, nbytes: float) -> float:
        """Blit-kernel local copy: read + write through HBM at full occupancy."""
        gpu = self.cluster.gpu(rank)
        return 2.0 * nbytes / gpu.hbm.achieved_bandwidth(1.0)

    def _reduce_time(self, rank: int, n_elems: int, n_sources: int,
                     itemsize: int) -> float:
        """Element-wise reduction of ``n_sources`` buffers on ``rank``."""
        if n_sources <= 1:
            return 0.0
        gpu = self.cluster.gpu(rank)
        flops = float(n_elems) * (n_sources - 1)
        read_bytes = float(n_elems) * itemsize * n_sources
        flop_t = flops / gpu.spec.flop_rate("fp32")
        mem_t = read_bytes / gpu.hbm.achieved_bandwidth(1.0)
        return max(flop_t, mem_t)

    def _route(self, src_rank: int, dst_rank: int, nbytes: float):
        src = self.cluster.gpu(src_rank)
        dst = self.cluster.gpu(dst_rank)
        if src_rank == dst_rank:
            ev = self.sim.event()
            ev.succeed()
            return ev
        if src.node_id == dst.node_id:
            # Blit-kernel staging: the copy engine sustains only a fraction
            # of the link's peak, modelled as inflated on-the-wire time.
            return src.store_remote(dst, nbytes / self.blit_efficiency)
        return src.rdma_put(dst, nbytes)

    def _run_ranks(self, rank_gens):
        """Run one generator per rank concurrently; wait for all."""
        procs = [self.sim.process(g) for g in rank_gens]
        yield self.sim.all_of(procs)

    def topology(self) -> CommTopology:
        """This cluster's shape, for algorithm resolution/selection."""
        return CommTopology.from_cluster(self.cluster)

    # -- timing entry points ---------------------------------------------------
    def all_to_all_bytes(self, chunk_bytes: float,
                         algorithm: Optional[str] = None) -> "Generator":
        """Timing-only All-to-All where every (src, dst) chunk is
        ``chunk_bytes``; no functional payload (paper-scale benchmarks).

        ``algorithm`` names a schedule from :mod:`repro.collectives`
        (``"flat"``, ``"pairwise"``, ``"hier"``, or ``"auto"`` for the
        size/topology selector); ``None`` is the legacy flat schedule.
        """
        if chunk_bytes < 0:
            raise ValueError("chunk_bytes must be >= 0")
        algo = resolve_alltoall(algorithm, self.topology(), chunk_bytes)
        yield from algo.des_run(self, self.topology(), chunk_bytes)
        return None

    def all_reduce_bytes(self, nbytes: float, n_elems: int, itemsize: int = 4,
                         algorithm: Optional[str] = None) -> "Generator":
        """Timing-only AllReduce of an ``nbytes`` buffer (``n_elems``
        elements of ``itemsize`` bytes each).

        ``algorithm`` names a schedule from :mod:`repro.collectives`
        (``"direct"``, ``"ring"``, ``"tree"``, ``"hier"``, or ``"auto"``
        for the size/topology selector); ``None`` keeps the legacy
        default — direct inside a node, ring across nodes.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        topo = self.topology()
        algo = resolve_allreduce(algorithm, topo, nbytes)
        if topo.world == 1:
            yield self.sim.timeout(self._launch_delay())
            return None
        yield from algo.des_run(self, topo, nbytes, n_elems, itemsize)
        return None
