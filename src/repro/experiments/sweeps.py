"""The built-in sweeps: grids, factories and declarations.

Every paper figure/table, ablation and design-space grid of
:mod:`repro.experiments.figures` is built by a factory here
(``fig8_sweep(grid=...)`` etc.; the factories accept the same grid
parameters as the direct ``repro.bench.figures`` functions, so tests and
users can build reduced or enlarged variants).  Module import *declares*
the paper-default instance of each under its canonical name (``fig8`` …
``fig15``, ``table1/2``, ``ablation-*``, ``ext-embedding-backward``, the
``xhw``/``xalgo``/``dse`` grids and the CI ``*smoke`` sweeps) with the
title, size and assembler ``repro list`` prints; the registry builds a
sweep only when it is asked for by name.

This module imports only the spec layer and the platform catalog, so
declaring, listing and building sweeps never loads the simulator, the
fused operators or numpy.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Sequence, Tuple

from ..hw.platform import PlatformLike, get_platform, \
    max_occupancy_of_baseline
from ..utils.units import size_label
from .registry import SweepDecl, declare_sweep
from .specs import (
    BACKENDS,
    DEFAULT_BACKEND,
    ScenarioSpec,
    SweepSpec,
    scenario,
)

__all__ = [
    "fig8_sweep", "fig9_sweep", "fig10_sweep", "fig11_sweep", "fig12_sweep",
    "fig13_sweep", "fig14_sweep", "fig15_sweep", "table1_sweep",
    "table2_sweep", "ablation_slice_size_sweep", "ablation_scheduling_sweep",
    "ablation_zero_copy_sweep", "ablation_cpu_proxy_sweep",
    "ext_embedding_backward_sweep", "smoke_sweep", "xhw_embedding_a2a_sweep",
    "xhw_gemv_allreduce_sweep", "xhw_gemm_a2a_sweep", "xhw_scaleout_sweep",
    "xhw_smoke_sweep", "XHW_PLATFORMS", "xalgo_allreduce_sweep",
    "xalgo_alltoall_sweep", "xalgo_smoke_sweep", "XALGO_ALLREDUCE",
    "XALGO_ALLTOALL", "dse_fused_frontier_sweep", "dse_smoke_sweep",
    "DSE_PLATFORMS", "DSE_ALGOS", "trace_smoke_sweep", "FIG8_GRID",
    "FIG9_GRID", "FIG10_GRID", "FIG12_GRID", "FIG13_FRACTIONS",
    "occupancy_fractions_for", "BUILTIN_SWEEPS",
]

#: Default sweep grids (paper configuration labels: {batch | tables/GPU}).
FIG8_GRID: Sequence[Tuple[int, int]] = (
    (512, 64), (512, 256), (1024, 64), (1024, 256),
    (2048, 64), (2048, 256), (4096, 64), (4096, 256),
)
FIG12_GRID: Sequence[Tuple[int, int]] = (
    (256, 64), (256, 256), (512, 256), (1024, 64), (1024, 256),
    (2048, 256), (4096, 64), (4096, 256),
)
FIG9_GRID: Sequence[Tuple[int, int]] = (
    (8192, 8192), (8192, 16384), (16384, 8192), (16384, 16384),
    (32768, 8192), (32768, 16384), (65536, 8192), (65536, 16384),
)
FIG10_GRID: Sequence[Tuple[int, int, int]] = (
    (2048, 4096, 8192), (4096, 4096, 8192), (8192, 4096, 8192),
    (4096, 4096, 14336), (8192, 4096, 14336),
)

#: The paper's Fig. 13 x-axis (fractions of *baseline* occupancy; the
#: last point is the MI210 fused kernel's register-pressure maximum).
FIG13_FRACTIONS: Sequence[float] = (0.25, 0.375, 0.5, 0.625, 0.75, 0.875)


def occupancy_fractions_for(platform: PlatformLike,
                            fractions: Optional[Sequence[float]] = None
                            ) -> Sequence[float]:
    """Resolve a Fig. 13 fraction grid against a platform's fused maximum.

    ``None`` means the paper's default grid clipped to what the
    platform's derived fused footprint can actually reach (on the MI210
    the grid passes through unchanged).  Explicit fractions are the
    caller's responsibility and pass through untouched.
    """
    if fractions is not None:
        return fractions
    max_frac = max_occupancy_of_baseline(get_platform(platform).gpu)
    return tuple(f for f in FIG13_FRACTIONS if f <= max_frac + 1e-9)


def _platform_param(platform: PlatformLike):
    """Canonical ``platform`` scenario parameter (hashed into store keys).

    Resolving first normalizes every accepted spelling (``None``, name,
    :class:`~repro.hw.platform.Platform`, params mapping) to one stable
    JSON value: the catalog name when the platform is registered, else its
    full params mapping.
    """
    return get_platform(platform).param()


#: Hidden-scenario convention: labels starting with this prefix feed a
#: figure's ``extra`` statistics but do not appear as rows.
HIDDEN = "_"


def _platform_display(value) -> str:
    """Display name of a canonical ``platform`` scenario parameter."""
    return value if isinstance(value, str) else value.get("name", "custom")


# ----------------------------------------------------------------------
# Sweep factories (parameterizable grids).
# ----------------------------------------------------------------------

def _embedding_pair_scenarios(grid, num_nodes: int, gpus_per_node: int,
                              platform: PlatformLike = None
                              ) -> List[ScenarioSpec]:
    return [
        scenario("embedding_a2a_pair", label=f"{batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                 platform=_platform_param(platform))
        for batch, tables in grid
    ]


def fig8_sweep(grid=FIG8_GRID, name: str = "fig8",
               platform: PlatformLike = None) -> SweepSpec:
    return SweepSpec.make(
        name, "Fig. 8",
        _embedding_pair_scenarios(grid, num_nodes=1, gpus_per_node=4,
                                  platform=platform),
        assembler="rows", figure="Fig. 8",
        description="Normalized execution time, intra-node embedding+A2A",
        paper_mean=0.80, paper_best=0.68)


def fig12_sweep(grid=FIG12_GRID, name: str = "fig12",
                platform: PlatformLike = None) -> SweepSpec:
    return SweepSpec.make(
        name, "Fig. 12",
        _embedding_pair_scenarios(grid, num_nodes=2, gpus_per_node=1,
                                  platform=platform),
        assembler="rows", figure="Fig. 12",
        description="Normalized execution time, inter-node embedding+A2A",
        paper_mean=0.69, paper_best=0.42)


def fig9_sweep(grid=FIG9_GRID, world: int = 4, name: str = "fig9",
               platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("gemv_allreduce_pair",
                 label=size_label(m, n_total // world),
                 m=m, n_per_gpu=n_total // world, world=world,
                 platform=_platform_param(platform))
        for m, n_total in grid
    ]
    return SweepSpec.make(
        name, "Fig. 9", scenarios, assembler="rows", figure="Fig. 9",
        description="Normalized execution time, GEMV+AllReduce",
        paper_mean=0.87, paper_best=0.78)


def fig10_sweep(grid=FIG10_GRID, world: int = 4, name: str = "fig10",
                platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("gemm_a2a_pair",
                 label=size_label(tokens, model_dim, ffn),
                 tokens=tokens, model_dim=model_dim, ffn_dim=ffn, world=world,
                 platform=_platform_param(platform))
        for tokens, model_dim, ffn in grid
    ]
    return SweepSpec.make(
        name, "Fig. 10", scenarios, assembler="rows", figure="Fig. 10",
        description="Normalized execution time, GEMM+All-to-All",
        paper_mean=0.88, paper_best=0.80)


def fig11_sweep(batch: int = 512, tables: int = 32, wgs_per_slice: int = 16,
                timeline_width: int = 100, name: str = "fig11",
                platform: PlatformLike = None) -> SweepSpec:
    return SweepSpec.make(
        name, "Fig. 11",
        [scenario("wg_timeline", label=f"{batch}|{tables}",
                  batch=batch, tables=tables, wgs_per_slice=wgs_per_slice,
                  timeline_width=timeline_width,
                  platform=_platform_param(platform))],
        assembler="timeline", figure="Fig. 11",
        description="Profiled timeline of persistent WGs (node 0)")


def fig13_sweep(batch: int = 1024, tables: int = 256,
                fractions: Optional[Sequence[float]] = None,
                name: str = "fig13",
                platform: PlatformLike = None) -> SweepSpec:
    fractions = occupancy_fractions_for(platform, fractions)
    scenarios = [
        scenario("embedding_fused", label=f"{100 * frac:.1f}%",
                 global_batch=batch, tables_per_gpu=tables,
                 occupancy_of_baseline=frac, num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for frac in fractions
    ]
    return SweepSpec.make(
        name, "Fig. 13", scenarios, assembler="occupancy", figure="Fig. 13",
        description="Impact of WG occupancy on execution time")


def fig14_sweep(grid: Sequence[Tuple[int, int]] = (
        (1024, 64), (2048, 32), (2048, 64)),
        name: str = "fig14",
        platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_fused", label=f"{sched} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables, scheduler=sched,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for sched in ("comm_aware", "oblivious")
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Fig. 14", scenarios, assembler="sched_skew", figure="Fig. 14",
        description="Node execution-time skew by scheduling policy")


def fig15_sweep(node_counts: Sequence[int] = (16, 32, 64, 128),
                name: str = "fig15",
                platform: PlatformLike = None) -> SweepSpec:
    plat = _platform_param(platform)
    scenarios = [
        scenario("dlrm_scaleout", label=f"{n} nodes", num_nodes=n,
                 platform=plat)
        for n in node_counts
    ]
    if 128 not in node_counts:
        scenarios.append(
            scenario("dlrm_scaleout", label=f"{HIDDEN}128 nodes",
                     num_nodes=128, platform=plat))
    return SweepSpec.make(
        name, "Fig. 15", scenarios, assembler="scaleout", figure="Fig. 15",
        description="Scale-out DLRM training, fused vs baseline",
        paper_mean=0.79)


def table1_sweep(name: str = "table1",
                 platform: PlatformLike = None) -> SweepSpec:
    return SweepSpec.make(
        name, "Table I",
        [scenario("table_setup", label="setup", which="table1",
                  platform=_platform_param(platform))],
        assembler="table", figure="Table I",
        description="System setup (simulated substrate)")


def table2_sweep(name: str = "table2") -> SweepSpec:
    return SweepSpec.make(
        name, "Table II",
        [scenario("table_setup", label="setup", which="table2")],
        assembler="table", figure="Table II",
        description="Scale-out simulation setup")


#: Slice sizes swept by the granularity ablation.
ABLATION_SLICES: Tuple[int, ...] = (8, 16, 32, 64, 128)


def ablation_slice_size_sweep(batch: int = 1024, tables: int = 64,
                              slices: Sequence[int] = ABLATION_SLICES,
                              name: str = "ablation-slice-size",
                              platform: PlatformLike = None) -> SweepSpec:
    max_frac = max_occupancy_of_baseline(get_platform(platform).gpu)
    scenarios = [
        # Occupancy pinned to the fused kernel's (platform-derived)
        # maximum so the sweep isolates communication granularity from
        # grid-size effects.
        scenario("embedding_fused", label=f"slice={sv}",
                 global_batch=batch, tables_per_gpu=tables, slice_vectors=sv,
                 occupancy_of_baseline=max_frac, num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for sv in slices
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="slice_ablation",
        figure="Ablation",
        description=f"slice-size sweep, inter-node {batch}|{tables}")


def ablation_scheduling_sweep(grid: Sequence[Tuple[int, int]] = (
        (1024, 64), (2048, 64)),
        name: str = "ablation-scheduling",
        platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_fused", label=f"{sched} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables, scheduler=sched,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for batch, tables in grid
        for sched in ("comm_aware", "oblivious")
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="sched_ablation",
        figure="Ablation", description="scheduling policy, end-to-end time")


def ablation_zero_copy_sweep(grid: Sequence[Tuple[int, int]] = (
        (1024, 64), (2048, 128)),
        name: str = "ablation-zero-copy",
        platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_a2a_pair",
                 label=f"{batch}|{tables} zc={'on' if zc else 'off'}",
                 global_batch=batch, tables_per_gpu=tables, zero_copy=zc,
                 num_nodes=1, gpus_per_node=4,
                 platform=_platform_param(platform),
                 baseline={"global_batch": batch, "tables_per_gpu": tables})
        for batch, tables in grid
        for zc in (True, False)
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="rows", figure="Ablation",
        description="zero-copy contribution (intra-node)")


def ablation_cpu_proxy_sweep(batch: int = 1024, tables: int = 64,
                             name: str = "ablation-cpu-proxy",
                             platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_fused",
                 label="cpu-proxy" if proxy else "gpu-initiated",
                 global_batch=batch, tables_per_gpu=tables, cpu_proxy=proxy,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for proxy in (False, True)
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="proxy_ablation",
        figure="Ablation",
        description="GPU-initiated vs CPU-proxy networking")


def ext_embedding_backward_sweep(grid: Sequence[Tuple[int, int]] = (
        (256, 64), (1024, 64), (1024, 256), (4096, 64)),
        name: str = "ext-embedding-backward",
        platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_grad_pair", label=f"{batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Extension", scenarios, assembler="rows", figure="Extension",
        description="fused gradient A2A + scatter-add (inter-node)")


# ----------------------------------------------------------------------
# Cross-hardware sweeps: the platform catalog as a sweep axis.
# ----------------------------------------------------------------------

#: Catalog entries the cross-hardware sweeps grid over by default.
XHW_PLATFORMS: Tuple[str, ...] = ("mi210", "mi250x", "mi300x", "h100")

#: Default workload points per cross-hardware sweep (kept small: the
#: platform axis multiplies them).
XHW_EMB_GRID: Tuple[Tuple[int, int], ...] = ((1024, 64), (4096, 256))
XHW_GEMV_GRID: Tuple[Tuple[int, int], ...] = ((8192, 8192), (32768, 16384))
XHW_GEMM_GRID: Tuple[Tuple[int, int, int], ...] = (
    (2048, 4096, 8192), (8192, 4096, 14336))
XHW_NODE_COUNTS: Tuple[int, ...] = (16, 64)


def xhw_embedding_a2a_sweep(grid=XHW_EMB_GRID,
                            platforms: Sequence[PlatformLike] = XHW_PLATFORMS,
                            name: str = "xhw_embedding_a2a") -> SweepSpec:
    """Fused embedding+A2A (Fig. 8 operator) across hardware platforms."""
    scenarios = [
        scenario("embedding_a2a_pair",
                 label=f"{_platform_display(pp)} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=1, gpus_per_node=4, platform=pp)
        for pp in map(_platform_param, platforms)
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW embedding+A2A",
        description="fused vs baseline embedding+A2A across platforms")


def xhw_gemv_allreduce_sweep(grid=XHW_GEMV_GRID, world: int = 4,
                             platforms: Sequence[PlatformLike]
                             = XHW_PLATFORMS,
                             name: str = "xhw_gemv_allreduce") -> SweepSpec:
    """Fused GEMV+AllReduce (Fig. 9 operator) across hardware platforms."""
    scenarios = [
        scenario("gemv_allreduce_pair",
                 label=f"{_platform_display(pp)} "
                       f"{size_label(m, n // world)}",
                 m=m, n_per_gpu=n // world, world=world, platform=pp)
        for pp in map(_platform_param, platforms)
        for m, n in grid
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW GEMV+AllReduce",
        description="fused vs baseline GEMV+AllReduce across platforms")


def xhw_gemm_a2a_sweep(grid=XHW_GEMM_GRID, world: int = 4,
                       platforms: Sequence[PlatformLike] = XHW_PLATFORMS,
                       name: str = "xhw_gemm_a2a") -> SweepSpec:
    """Fused GEMM+A2A (Fig. 10 operator) across hardware platforms."""
    scenarios = [
        scenario("gemm_a2a_pair",
                 label=f"{_platform_display(pp)} "
                       f"{tokens}x{model_dim}x{ffn}",
                 tokens=tokens, model_dim=model_dim, ffn_dim=ffn,
                 world=world, platform=pp)
        for pp in map(_platform_param, platforms)
        for tokens, model_dim, ffn in grid
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW GEMM+All-to-All",
        description="fused vs baseline GEMM+A2A across platforms")


def xhw_scaleout_sweep(node_counts: Sequence[int] = XHW_NODE_COUNTS,
                       platforms: Sequence[PlatformLike] = XHW_PLATFORMS,
                       name: str = "xhw_scaleout") -> SweepSpec:
    """Scale-out DLRM training (Fig. 15 workload) across platforms."""
    scenarios = [
        scenario("dlrm_scaleout",
                 label=f"{_platform_display(pp)} {n} nodes",
                 num_nodes=n, platform=pp)
        for pp in map(_platform_param, platforms)
        for n in node_counts
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW DLRM scale-out",
        description="fused vs baseline DLRM iteration across platforms")


def xhw_smoke_sweep(name: str = "xhw-smoke") -> SweepSpec:
    """Two-platform cross-hardware slice for CI cache-behaviour checks."""
    return xhw_gemv_allreduce_sweep(grid=((8192, 8192),),
                                    platforms=("mi210", "h100"), name=name)


# ----------------------------------------------------------------------
# Collective-algorithm sweeps: the schedule menu as a sweep axis.
# ----------------------------------------------------------------------

#: AllReduce schedules the algorithm sweeps grid over (single node, so
#: ``hier`` would just collapse onto ``direct`` — exercised by the
#: multi-node equivalence tests instead).
XALGO_ALLREDUCE: Tuple[str, ...] = ("direct", "ring", "tree")
#: All-to-All schedules on the 2x2 shape, where all three differ.
XALGO_ALLTOALL: Tuple[str, ...] = ("flat", "pairwise", "hier")
XALGO_GEMV_GRID: Tuple[Tuple[int, int], ...] = ((8192, 8192),
                                                (65536, 8192))
XALGO_EMB_GRID: Tuple[Tuple[int, int], ...] = ((1024, 64), (4096, 256))


def xalgo_allreduce_sweep(grid=XALGO_GEMV_GRID, world: int = 4,
                          algos: Sequence[str] = XALGO_ALLREDUCE,
                          platform: PlatformLike = None,
                          name: str = "xalgo_allreduce") -> SweepSpec:
    """GEMV+AllReduce (Fig. 9 operator) across baseline AllReduce
    schedules: the fused operator vs each :mod:`repro.collectives`
    algorithm's bulk collective."""
    scenarios = [
        scenario("gemv_allreduce_pair",
                 label=f"{algo} {size_label(m, n // world)}",
                 m=m, n_per_gpu=n // world, world=world,
                 platform=_platform_param(platform)).with_algo(algo)
        for algo in algos
        for m, n in grid
    ]
    return SweepSpec.make(
        name, "Algorithms", scenarios, assembler="xalgo",
        figure="Collective algorithms: AllReduce",
        description="fused GEMV+AllReduce vs per-schedule baselines")


def xalgo_alltoall_sweep(grid=XALGO_EMB_GRID, num_nodes: int = 2,
                         gpus_per_node: int = 2,
                         algos: Sequence[str] = XALGO_ALLTOALL,
                         platform: PlatformLike = None,
                         name: str = "xalgo_alltoall") -> SweepSpec:
    """Embedding+A2A (Fig. 8/12 operator) on a 2-node x 2-GPU cluster
    across baseline All-to-All schedules (the shape where flat, pairwise
    and hierarchical genuinely differ)."""
    scenarios = [
        scenario("embedding_a2a_pair", label=f"{algo} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                 platform=_platform_param(platform)).with_algo(algo)
        for algo in algos
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Algorithms", scenarios, assembler="xalgo",
        figure="Collective algorithms: All-to-All",
        description="fused embedding+A2A vs per-schedule baselines")


def xalgo_smoke_sweep(name: str = "xalgo-smoke") -> SweepSpec:
    """One workload x three AllReduce schedules for CI cache checks."""
    return xalgo_allreduce_sweep(grid=((8192, 8192),), name=name)


# ----------------------------------------------------------------------
# Design-space exploration: large analytic grids + Pareto frontiers.
# ----------------------------------------------------------------------

#: Platform axis of the design-space sweeps (the full catalog).
DSE_PLATFORMS: Tuple[str, ...] = ("mi210", "mi250x", "mi300x", "h100")
#: Workload axes: global batch x tables (message volume), slice size
#: (message granularity), occupancy split, and cluster topology.
DSE_BATCHES: Tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192)
DSE_TABLES: Tuple[int, ...] = (16, 64, 256)
DSE_SLICES: Tuple[int, ...] = (16, 32, 64)
DSE_OCCUPANCIES: Tuple[float, ...] = (0.25, 0.5, 0.75)
DSE_TOPOLOGIES: Tuple[Tuple[int, int], ...] = ((1, 4), (2, 1))
#: Baseline collective-schedule axis.  ``None`` is the legacy flat
#: schedule (keeping those scenarios' store keys identical to the
#: pre-algo grid); ``"pairwise"`` genuinely differs on both default
#: topologies.  Hierarchical schedules collapse to flat on 1-GPU or
#: 1-node shapes, so they live in ``xalgo_alltoall``'s 2x2 sweep.
DSE_ALGOS: Tuple[Optional[str], ...] = (None, "pairwise")
_DSE_DESCRIPTION = ("fused embedding+A2A design-space frontier "
                    "(latency vs speedup)")


def dse_fused_frontier_sweep(name: str = "dse_fused_frontier",
                             platforms: Sequence[PlatformLike]
                             = DSE_PLATFORMS,
                             batches: Sequence[int] = DSE_BATCHES,
                             tables: Sequence[int] = DSE_TABLES,
                             slices: Sequence[int] = DSE_SLICES,
                             occupancies: Sequence[float] = DSE_OCCUPANCIES,
                             topologies: Sequence[Tuple[int, int]]
                             = DSE_TOPOLOGIES,
                             algos: Sequence[Optional[str]] = DSE_ALGOS,
                             backend: str = "analytic") -> SweepSpec:
    """Fused embedding+A2A design space: platform x batch x tables x
    slice size x occupancy split x topology x collective schedule,
    Pareto-assembled.

    The default grid is ~2,600 scenarios — minutes-per-point under the
    DES, a handful of seconds end to end under the analytic backend.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    # Each scenario's params are built, then encoded, once.  The backend
    # and algo axes follow ScenarioSpec.with_backend/with_algo: the
    # default engine and the legacy schedule are represented by absence.
    pinned = {} if backend == DEFAULT_BACKEND else {"backend": backend}
    scenarios = []
    for pp in map(_platform_param, platforms):
        pname = _platform_display(pp)
        for (num_nodes, gpus_per_node), batch, tb, sv, occ, algo in product(
                topologies, batches, tables, slices, occupancies, algos):
            suffix = f" {algo}" if algo else ""
            axes = pinned if algo is None else {**pinned, "algo": algo}
            scenarios.append(scenario(
                "embedding_a2a_pair",
                label=(f"{pname} {num_nodes}x{gpus_per_node}"
                       f" {batch}|{tb} sv{sv} occ{occ}{suffix}"),
                global_batch=batch, tables_per_gpu=tb, slice_vectors=sv,
                occupancy_of_baseline=occ, num_nodes=num_nodes,
                gpus_per_node=gpus_per_node, platform=pp, **axes))
    return SweepSpec.make(
        name, "DSE", scenarios, assembler="dse_frontier", figure="DSE",
        description=_DSE_DESCRIPTION)


def dse_smoke_sweep(name: str = "dse-smoke") -> SweepSpec:
    """Small analytic slice for CI cache-behaviour checks (16 scenarios)."""
    return dse_fused_frontier_sweep(
        name=name, platforms=("mi210", "h100"), batches=(512, 2048),
        tables=(64,), slices=(32,), occupancies=(0.25, 0.75),
        topologies=((2, 1),))


def trace_smoke_sweep(name: str = "trace-smoke") -> SweepSpec:
    """One tiny pinned traced scenario for the CI golden-trace byte-compare.

    The parameters are frozen: the exported Chrome trace is committed as a
    golden file and compared byte-for-byte, so any change here (or any
    nondeterminism in the simulator/exporter) fails the gate.
    """
    scenarios = [
        scenario("wg_timeline", label="trace 64|4", batch=64, tables=4,
                 wgs_per_slice=8, timeline_width=60,
                 platform=_platform_param(None)),
    ]
    return SweepSpec.make(
        name, "Trace smoke", scenarios, assembler="rows", figure="Trace",
        description="pinned traced scenario for the golden Chrome-trace "
                    "export check")


def smoke_sweep(name: str = "smoke") -> SweepSpec:
    """Small, fast sweep for CI cache-behaviour checks (~2 s serial)."""
    plat = _platform_param(None)
    scenarios = [
        scenario("gemv_allreduce_pair", label="8k|2k",
                 m=8192, n_per_gpu=2048, world=4, platform=plat),
        scenario("embedding_a2a_pair", label="256|16",
                 global_batch=256, tables_per_gpu=16,
                 num_nodes=2, gpus_per_node=1, platform=plat),
        scenario("dlrm_scaleout", label="16 nodes", num_nodes=16,
                 platform=plat),
    ]
    return SweepSpec.make(
        name, "Smoke", scenarios, assembler="rows", figure="Smoke",
        description="CI smoke sweep (mixed runners, small configs)")



# ----------------------------------------------------------------------
# The paper-default declarations.
# ----------------------------------------------------------------------

#: Every built-in sweep as ``repro list`` shows it: (name, title, figure,
#: description, assembler, scenario count, factory).  Module import
#: declares them; ``tests/experiments/test_declarations.py`` checks each
#: field against the sweep its factory builds.
BUILTIN_SWEEPS: Tuple[SweepDecl, ...] = tuple(declare_sweep(d) for d in (
    SweepDecl("table1", "Table I", "Table I",
              "System setup (simulated substrate)", "table", 1,
              table1_sweep),
    SweepDecl("table2", "Table II", "Table II",
              "Scale-out simulation setup", "table", 1, table2_sweep),
    SweepDecl("fig8", "Fig. 8", "Fig. 8",
              "Normalized execution time, intra-node embedding+A2A",
              "rows", 8, fig8_sweep),
    SweepDecl("fig9", "Fig. 9", "Fig. 9",
              "Normalized execution time, GEMV+AllReduce", "rows", 8,
              fig9_sweep),
    SweepDecl("fig10", "Fig. 10", "Fig. 10",
              "Normalized execution time, GEMM+All-to-All", "rows", 5,
              fig10_sweep),
    SweepDecl("fig11", "Fig. 11", "Fig. 11",
              "Profiled timeline of persistent WGs (node 0)", "timeline",
              1, fig11_sweep),
    SweepDecl("fig12", "Fig. 12", "Fig. 12",
              "Normalized execution time, inter-node embedding+A2A",
              "rows", 8, fig12_sweep),
    SweepDecl("fig13", "Fig. 13", "Fig. 13",
              "Impact of WG occupancy on execution time", "occupancy", 6,
              fig13_sweep),
    SweepDecl("fig14", "Fig. 14", "Fig. 14",
              "Node execution-time skew by scheduling policy",
              "sched_skew", 6, fig14_sweep),
    SweepDecl("fig15", "Fig. 15", "Fig. 15",
              "Scale-out DLRM training, fused vs baseline", "scaleout", 4,
              fig15_sweep),
    SweepDecl("ablation-slice-size", "Ablation", "Ablation",
              "slice-size sweep, inter-node 1024|64", "slice_ablation", 5,
              ablation_slice_size_sweep),
    SweepDecl("ablation-scheduling", "Ablation", "Ablation",
              "scheduling policy, end-to-end time", "sched_ablation", 4,
              ablation_scheduling_sweep),
    SweepDecl("ablation-zero-copy", "Ablation", "Ablation",
              "zero-copy contribution (intra-node)", "rows", 4,
              ablation_zero_copy_sweep),
    SweepDecl("ablation-cpu-proxy", "Ablation", "Ablation",
              "GPU-initiated vs CPU-proxy networking", "proxy_ablation", 2,
              ablation_cpu_proxy_sweep),
    SweepDecl("ext-embedding-backward", "Extension", "Extension",
              "fused gradient A2A + scatter-add (inter-node)", "rows", 4,
              ext_embedding_backward_sweep),
    SweepDecl("xhw_embedding_a2a", "Cross-HW", "Cross-HW embedding+A2A",
              "fused vs baseline embedding+A2A across platforms", "xhw", 8,
              xhw_embedding_a2a_sweep),
    SweepDecl("xhw_gemv_allreduce", "Cross-HW", "Cross-HW GEMV+AllReduce",
              "fused vs baseline GEMV+AllReduce across platforms", "xhw", 8,
              xhw_gemv_allreduce_sweep),
    SweepDecl("xhw_gemm_a2a", "Cross-HW", "Cross-HW GEMM+All-to-All",
              "fused vs baseline GEMM+A2A across platforms", "xhw", 8,
              xhw_gemm_a2a_sweep),
    SweepDecl("xhw_scaleout", "Cross-HW", "Cross-HW DLRM scale-out",
              "fused vs baseline DLRM iteration across platforms", "xhw", 8,
              xhw_scaleout_sweep),
    SweepDecl("xhw-smoke", "Cross-HW", "Cross-HW GEMV+AllReduce",
              "fused vs baseline GEMV+AllReduce across platforms", "xhw", 2,
              xhw_smoke_sweep),
    SweepDecl("xalgo_allreduce", "Algorithms",
              "Collective algorithms: AllReduce",
              "fused GEMV+AllReduce vs per-schedule baselines", "xalgo", 6,
              xalgo_allreduce_sweep),
    SweepDecl("xalgo_alltoall", "Algorithms",
              "Collective algorithms: All-to-All",
              "fused embedding+A2A vs per-schedule baselines", "xalgo", 6,
              xalgo_alltoall_sweep),
    SweepDecl("xalgo-smoke", "Algorithms",
              "Collective algorithms: AllReduce",
              "fused GEMV+AllReduce vs per-schedule baselines", "xalgo", 3,
              xalgo_smoke_sweep),
    SweepDecl("dse_fused_frontier", "DSE", "DSE", _DSE_DESCRIPTION,
              "dse_frontier", 2592, dse_fused_frontier_sweep),
    SweepDecl("dse-smoke", "DSE", "DSE", _DSE_DESCRIPTION, "dse_frontier",
              16, dse_smoke_sweep),
    SweepDecl("smoke", "Smoke", "Smoke",
              "CI smoke sweep (mixed runners, small configs)", "rows", 3,
              smoke_sweep),
    SweepDecl("trace-smoke", "Trace smoke", "Trace",
              "pinned traced scenario for the golden Chrome-trace export "
              "check", "rows", 1, trace_smoke_sweep),
))
