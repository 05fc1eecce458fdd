"""GPU device model: occupancy, workgroup timing, and peer stores.

The model is deliberately at the granularity the paper operates at — the
workgroup (WG).  A kernel is a set of logical WGs, each described by a
:class:`WgCost` (FLOPs + HBM bytes).  A WG's duration follows a roofline:
``max(flop_time, mem_time)``, where the memory side uses the
occupancy-dependent achievable bandwidth of :class:`~repro.hw.memory.HbmModel`
shared equally among resident WGs, and the compute side shares CU ALUs.

Occupancy itself is computed from kernel resource usage (registers / LDS /
wave slots) with the same allocation rules real GCN/CDNA hardware uses —
this is how the fused kernels "pay" the paper's reported 12.5% occupancy
loss for their extra communication registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..sim import NULL_TRACE, Simulator, TraceRecorder
from .specs import GpuSpec

__all__ = ["WgCost", "KernelResources", "OccupancyInfo", "Gpu",
           "occupancy_for"]


@dataclass(frozen=True)
class WgCost:
    """Work performed by one logical workgroup.

    Attributes:
        flops: floating-point operations executed.
        bytes: HBM traffic (reads + writes) in bytes.
        dtype: datatype for the FLOP rate ("fp32" or "fp16").
        fixed: additional fixed time (API calls, bookkeeping), seconds.
        access: HBM access pattern — "stream" for coalesced sequential
            traffic (GEMM/GEMV/copies), "gather" for data-dependent lookups
            (embedding pooling).  Gather traffic pays the high-occupancy
            contention knee (row-buffer/TLB thrashing); streams do not.
    """

    flops: float = 0.0
    bytes: float = 0.0
    dtype: str = "fp32"
    fixed: float = 0.0
    access: str = "stream"

    def __post_init__(self):
        if self.flops < 0 or self.bytes < 0 or self.fixed < 0:
            raise ValueError("WgCost components must be non-negative")
        if self.access not in ("stream", "gather"):
            raise ValueError(f"unknown access pattern {self.access!r}")

    def plus(self, flops: float = 0.0, bytes: float = 0.0,
             fixed: float = 0.0) -> "WgCost":
        return WgCost(self.flops + flops, self.bytes + bytes,
                      self.dtype, self.fixed + fixed, self.access)

    def with_bytes(self, bytes: float) -> "WgCost":
        return WgCost(self.flops, bytes, self.dtype, self.fixed, self.access)


@dataclass(frozen=True)
class KernelResources:
    """Per-WG resource usage that determines occupancy."""

    threads_per_wg: int = 256
    vgprs_per_thread: int = 64
    lds_per_wg: int = 0

    def __post_init__(self):
        if self.threads_per_wg < 1:
            raise ValueError("threads_per_wg must be >= 1")
        if self.vgprs_per_thread < 1:
            raise ValueError("vgprs_per_thread must be >= 1")
        if self.lds_per_wg < 0:
            raise ValueError("lds_per_wg must be >= 0")


@dataclass(frozen=True)
class OccupancyInfo:
    """Result of the occupancy calculation for a kernel on a device."""

    waves_per_wg: int
    wgs_per_cu: int
    resident_wgs: int       #: device-wide resident workgroups
    fraction: float         #: resident waves / device wave slots

    def limited_to(self, max_resident: int) -> "OccupancyInfo":
        """Clamp resident WGs (persistent kernels choose their grid size)."""
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        if max_resident >= self.resident_wgs:
            return self
        wgs_per_cu = max(1, self.wgs_per_cu * max_resident // self.resident_wgs)
        frac = self.fraction * max_resident / self.resident_wgs
        return OccupancyInfo(self.waves_per_wg, wgs_per_cu,
                             max_resident, frac)


def occupancy_for(spec: GpuSpec, res: KernelResources) -> OccupancyInfo:
    """Hardware allocation rules applied to kernel resource usage.

    Pure function of two frozen dataclasses; :meth:`Gpu.occupancy` is the
    memoized per-device view of it.
    """
    s = spec
    waves_per_wg = math.ceil(res.threads_per_wg / s.wave_size)
    vgpr_alloc = math.ceil(res.vgprs_per_thread / s.vgpr_granule) * s.vgpr_granule
    waves_per_simd = min(s.max_waves_per_simd, s.vgprs_per_simd // vgpr_alloc)
    if waves_per_simd < 1:
        raise ValueError(
            f"kernel uses {res.vgprs_per_thread} VGPRs/thread; cannot fit "
            f"a single wave on {s.name}")
    waves_per_cu = waves_per_simd * s.simds_per_cu
    wgs_per_cu = waves_per_cu // waves_per_wg
    if res.lds_per_wg > 0:
        wgs_per_cu = min(wgs_per_cu, s.lds_per_cu // res.lds_per_wg)
    wgs_per_cu = min(wgs_per_cu, s.max_wgs_per_cu)
    if wgs_per_cu < 1:
        raise ValueError("kernel resources exceed a single CU")
    resident = wgs_per_cu * s.num_cus
    fraction = (wgs_per_cu * waves_per_wg) / s.max_waves_per_cu
    return OccupancyInfo(waves_per_wg, wgs_per_cu, resident, fraction)


class Gpu:
    """One simulated GPU.

    Fabric ports and the NIC are attached by :mod:`repro.hw.topology`.
    """

    def __init__(self, sim: Simulator, spec: GpuSpec, gpu_id: int,
                 node_id: int = 0, local_id: int = 0,
                 trace: Optional[TraceRecorder] = None):
        self.sim = sim
        self.gpu_id = gpu_id
        self.node_id = node_id
        self.local_id = local_id
        self.trace = trace if trace is not None else NULL_TRACE
        self.fabric = None   # set by topology: repro.hw.fabric.Fabric
        self.nic = None      # set by topology: repro.hw.nic.Nic
        self.spec = spec     # property: also builds the HBM model + caches

    @property
    def spec(self) -> GpuSpec:
        return self._spec

    @spec.setter
    def spec(self, spec: GpuSpec) -> None:
        """Swap the device spec (ablations), dropping every derived cache.

        The occupancy/duration memos and the HBM model are functions of the
        spec's *content*; rebuilding them here guarantees an overridden or
        replaced spec can never read another spec's cached entries.
        """
        # Imported here, not at module scope: the platform catalog needs
        # this module's occupancy model, but not the numpy-backed HBM model.
        from .memory import HbmModel
        self._spec = spec
        self.hbm = HbmModel(spec)
        # Kernels ask for the same handful of (resources, cost, occupancy)
        # combinations thousands of times per launch; both calculations are
        # pure functions of frozen dataclasses, so memoize per device.
        self._occupancy_cache: dict = {}
        self._duration_cache: dict = {}

    def __repr__(self) -> str:
        return f"<Gpu {self.gpu_id} ({self.spec.name}) node={self.node_id}>"

    @property
    def name(self) -> str:
        return f"gpu{self.gpu_id}"

    # -- occupancy ----------------------------------------------------------
    def occupancy(self, res: KernelResources) -> OccupancyInfo:
        """Apply the hardware allocation rules to kernel resource usage."""
        cached = self._occupancy_cache.get(res)
        if cached is not None:
            return cached
        info = occupancy_for(self._spec, res)
        self._occupancy_cache[res] = info
        return info

    # -- timing ---------------------------------------------------------------
    def wg_duration(self, cost: WgCost, occ: OccupancyInfo) -> float:
        """Roofline duration of one WG given the kernel's occupancy."""
        key = (cost, occ)
        cached = self._duration_cache.get(key)
        if cached is not None:
            return cached
        resident = max(occ.resident_wgs, 1)
        mem_time = 0.0
        if cost.bytes > 0:
            bw = self.hbm.achieved_bandwidth(occ.fraction,
                                             access=cost.access) / resident
            mem_time = cost.bytes / bw
        flop_time = 0.0
        if cost.flops > 0:
            # A WG can at most use one CU; beyond num_cus resident WGs they
            # share ALUs evenly.
            per_wg = self.spec.flop_rate(cost.dtype) / max(resident,
                                                           self.spec.num_cus)
            flop_time = cost.flops / per_wg
        out = max(mem_time, flop_time) + cost.fixed
        self._duration_cache[key] = out
        return out

    def kernel_span_estimate(self, n_wgs: int, cost: WgCost,
                             occ: OccupancyInfo) -> float:
        """Closed-form kernel time estimate (rounds of resident WGs)."""
        rounds = math.ceil(n_wgs / max(occ.resident_wgs, 1))
        return (self.spec.kernel_launch_overhead
                + rounds * self.wg_duration(cost, occ))

    # -- data movement -----------------------------------------------------------
    def store_remote(self, peer: "Gpu", nbytes: float, value=None):
        """Direct store of ``nbytes`` into a peer GPU over the fabric.

        Returns the completion event (bytes visible at the peer).  This is
        the zero-copy path: no intermediate local buffer is written.
        """
        if self.fabric is None:
            raise RuntimeError(f"{self!r} has no fabric attached")
        return self.fabric.transfer(self, peer, nbytes, value=value)

    def rdma_put(self, dst_gpu: "Gpu", nbytes: float, value=None):
        """GPU-initiated RDMA put to a GPU on another node (via the NIC)."""
        if self.nic is None:
            raise RuntimeError(f"{self!r} has no NIC attached")
        return self.nic.rdma_put(dst_gpu, nbytes, value=value)
