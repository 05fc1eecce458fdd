"""The paper's evaluation, ported onto the orchestrator: runners and
assemblers.

Every figure/table of ``repro.bench.figures`` and every ablation that used
to live inline in ``benchmarks/`` is re-expressed as a
:class:`~repro.experiments.specs.SweepSpec` (built by the factories of
:mod:`repro.experiments.sweeps`): a list of independent scenarios (one
simulation — or one fused/baseline pair — each) plus an assembler that
rebuilds the exact :class:`FigureResult` the direct path produces.  This
module holds the other half: the scenario runners and the assemblers.
Each runner dispatches on the ``backend`` scenario parameter: the default
discrete-event engine, or the closed-form analytic engine
(:mod:`repro.analytic`) that evaluates the same workload thousands of
times faster — the axis behind the large ``dse_*`` design-space sweeps.
Scenario independence is what buys parallel sharding and
content-addressed caching; the assemblers replicate the direct path's
aggregation (worst-point normalization, skew statistics, paper-comparison
strings) bit for bit, which
``tests/experiments/test_figure_equivalence.py`` enforces.

Importing this module registers the runners and assemblers and loads the
whole simulation stack they run on, so a runner's first call pays no
import.  The registry imports it on the first runner or assembler lookup
that misses; listing sweeps, reporting them and fully cached runs never
do.  The sweep factories are re-exported here
(``from repro.experiments.figures import fig9_sweep`` keeps working).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..astra import run_dlrm_scaleout
from ..bench.figures import table1_setup, table2_setup
from ..bench.harness import FigureResult, Row, compare
from ..fused.base import OpHarness
from ..fused.embedding_alltoall import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
)
from ..fused.embedding_grad_alltoall import (
    BaselineEmbeddingGradAllToAll,
    FusedEmbeddingGradAllToAll,
)
from ..fused.gemm_alltoall import (
    BaselineGemmAllToAll,
    FusedGemmAllToAll,
    GemmA2AConfig,
)
from ..fused.gemv_allreduce import (
    BaselineGemvAllReduce,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
)
# hw.gpu imports the HBM model only when a Gpu is built; load it here with
# the rest of the stack so the first runner call imports nothing.
from ..hw import memory  # noqa: F401
from ..sim import TraceRecorder
from .registry import assembler, runner
from .specs import BACKENDS, DEFAULT_BACKEND, ScenarioSpec, SweepSpec
from .sweeps import (
    DSE_ALGOS,
    DSE_PLATFORMS,
    HIDDEN,
    XALGO_ALLREDUCE,
    XALGO_ALLTOALL,
    XHW_PLATFORMS,
    _platform_display,
    ablation_cpu_proxy_sweep,
    ablation_scheduling_sweep,
    ablation_slice_size_sweep,
    ablation_zero_copy_sweep,
    dse_fused_frontier_sweep,
    dse_smoke_sweep,
    ext_embedding_backward_sweep,
    fig8_sweep,
    fig9_sweep,
    fig10_sweep,
    fig11_sweep,
    fig12_sweep,
    fig13_sweep,
    fig14_sweep,
    fig15_sweep,
    smoke_sweep,
    table1_sweep,
    table2_sweep,
    trace_smoke_sweep,
    xalgo_allreduce_sweep,
    xalgo_alltoall_sweep,
    xalgo_smoke_sweep,
    xhw_embedding_a2a_sweep,
    xhw_gemm_a2a_sweep,
    xhw_gemv_allreduce_sweep,
    xhw_scaleout_sweep,
    xhw_smoke_sweep,
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
    "DSE_PLATFORMS", "DSE_ALGOS", "trace_smoke_sweep",
]


def _scenario_backend(p: Dict[str, Any]) -> str:
    """Pop and validate a scenario's evaluation engine.

    Runners branch on the result: ``"sim"`` (the default, represented by
    the parameter's *absence* so pre-backend store keys are unchanged)
    runs the discrete-event simulator, ``"analytic"`` the closed-form
    backend (:mod:`repro.analytic`).
    """
    backend = p.pop("backend", DEFAULT_BACKEND)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    return backend


def _reject_algo(p: Dict[str, Any], runner: str) -> None:
    """Fail fast when an ``algo`` parameter reaches a runner with no
    baseline collective to schedule.

    Without this, a sweep-wide ``--algo`` (or a typo'd param) would
    either crash deep inside an analytic twin or — worse — run the
    scenario unchanged and cache an identical result under a new key.
    """
    if "algo" in p:
        raise ValueError(
            f"runner {runner!r} has no baseline collective; the 'algo' "
            f"parameter does not apply (drop --algo / the algo param, "
            f"or use a collective-bearing sweep — see "
            f"`python -m repro algos`)")


# ----------------------------------------------------------------------
# Scenario runners: one simulation (or fused/baseline pair) per call.
# ----------------------------------------------------------------------

@runner("embedding_a2a_pair")
def _embedding_a2a_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    """Fused vs baseline embedding+A2A on fresh clusters.

    ``params`` holds ``num_nodes``/``gpus_per_node`` plus any
    :class:`EmbeddingA2AConfig` fields; an optional ``baseline`` mapping
    gives the baseline operator its own config fields (the zero-copy
    ablation compares against an unmodified baseline).
    """
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_embedding_a2a
        return predict_embedding_a2a(**p)
    num_nodes = p.pop("num_nodes")
    gpus_per_node = p.pop("gpus_per_node")
    platform = p.pop("platform", None)
    baseline = p.pop("baseline", None)
    cfg = EmbeddingA2AConfig(functional=False, **p)
    # The baseline override inherits the collective schedule unless it
    # names its own (the algo axis compares like against like).
    base_cfg = (cfg if baseline is None
                else EmbeddingA2AConfig(functional=False,
                                        **{"algo": cfg.algo, **baseline}))
    row = compare(cfg.label,
                  lambda h: FusedEmbeddingAllToAll(h, cfg),
                  lambda h: BaselineEmbeddingAllToAll(h, base_cfg),
                  num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                  platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("embedding_fused")
def _embedding_fused(params: Dict[str, Any]) -> Dict[str, Any]:
    """A single fused embedding+A2A run (occupancy/scheduling/proxy knobs)."""
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_embedding_fused
        return predict_embedding_fused(**p)
    num_nodes = p.pop("num_nodes", 2)
    gpus_per_node = p.pop("gpus_per_node", 1)
    cpu_proxy = p.pop("cpu_proxy", False)
    platform = p.pop("platform", None)
    cfg = EmbeddingA2AConfig(functional=False, **p)
    h = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                  cpu_proxy=cpu_proxy, platform=platform)
    out = h.run(FusedEmbeddingAllToAll(h, cfg))
    return {
        "elapsed": out.elapsed,
        "rank_end_times": {str(r): t
                           for r, t in out.stats["rank_end_times"].items()},
    }


@runner("gemv_allreduce_pair")
def _gemv_allreduce_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_gemv_allreduce
        return predict_gemv_allreduce(**p)
    world = p.pop("world", 4)
    platform = p.pop("platform", None)
    cfg = GemvAllReduceConfig(functional=False, **p)
    row = compare(cfg.label,
                  lambda h: FusedGemvAllReduce(h, cfg),
                  lambda h: BaselineGemvAllReduce(h, cfg),
                  num_nodes=1, gpus_per_node=world, platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("gemm_a2a_pair")
def _gemm_a2a_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_gemm_a2a
        return predict_gemm_a2a(**p)
    world = p.pop("world", 4)
    platform = p.pop("platform", None)
    cfg = GemmA2AConfig(functional=False, **p)
    row = compare(cfg.label,
                  lambda h: FusedGemmAllToAll(h, cfg),
                  lambda h: BaselineGemmAllToAll(h, cfg),
                  num_nodes=1, gpus_per_node=world, platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("embedding_grad_pair")
def _embedding_grad_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_embedding_grad_a2a
        return predict_embedding_grad_a2a(**p)
    num_nodes = p.pop("num_nodes", 2)
    gpus_per_node = p.pop("gpus_per_node", 1)
    platform = p.pop("platform", None)
    cfg = EmbeddingA2AConfig(functional=False, **p)
    row = compare(cfg.label,
                  lambda h: FusedEmbeddingGradAllToAll(h, cfg),
                  lambda h: BaselineEmbeddingGradAllToAll(h, cfg),
                  num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                  platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("wg_timeline")
def _wg_timeline(params: Dict[str, Any]) -> Dict[str, Any]:
    """Fig. 11's traced run; mirrors ``bench.figures.fig11_wg_timeline``."""
    p = dict(params)
    _reject_algo(p, "wg_timeline")
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_wg_timeline
        return predict_wg_timeline(**p)
    batch = params.get("batch", 512)
    tables = params.get("tables", 32)
    wgs_per_slice = params.get("wgs_per_slice", 16)
    timeline_width = params.get("timeline_width", 100)
    trace = TraceRecorder()
    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                             functional=False, slice_vectors=wgs_per_slice,
                             tasks_per_slice=wgs_per_slice)
    h = OpHarness(num_nodes=2, gpus_per_node=1, trace=trace,
                  platform=params.get("platform"))
    result = h.run(FusedEmbeddingAllToAll(h, cfg))

    puts = trace.filter(kind="put_issue",
                        predicate=lambda e: e.actor.startswith("gpu0"))
    [kernel_span] = [s for s in trace.spans("kernel")
                     if s.detail.get("kernel") == "fused_emb_a2a[0]"]
    kspan = kernel_span.end - kernel_span.start
    first_put = min(p.time for p in puts) - kernel_span.start
    last_put = max(p.time for p in puts) - kernel_span.start
    actors = [f"gpu0/wg{i}" for i in range(0, 32)]
    return {
        "kernel_time": f"{kspan * 1e3:.3f} ms",
        "puts_issued_node0": len(puts),
        "first_put_at": f"{100 * first_put / kspan:.1f}% of kernel",
        "last_put_at": f"{100 * last_put / kspan:.1f}% of kernel",
        "elapsed": f"{result.elapsed * 1e3:.3f} ms",
        "timeline": "\n" + trace.render_timeline(actors=actors,
                                                 width=timeline_width),
        # Raw numeric metrics (underscore keys are dropped from the
        # figure's extra) so ``repro diff`` catches timing regressions
        # that the pre-formatted display strings would hide.
        "_kernel_time_s": kspan,
        "_first_put_frac": first_put / kspan,
        "_last_put_frac": last_put / kspan,
        "_elapsed_s": result.elapsed,
    }


@runner("dlrm_scaleout")
def _dlrm_scaleout(params: Dict[str, Any]) -> Dict[str, Any]:
    # The scale-out pipeline (repro.astra) is closed-form already, so both
    # backends share it and agree exactly; the backend parameter only
    # distinguishes the store keys.
    p = dict(params)
    _reject_algo(p, "dlrm_scaleout")
    _scenario_backend(p)
    r = run_dlrm_scaleout(p["num_nodes"], platform=p.get("platform"))
    return {
        "fused_time": r.fused_time,
        "baseline_time": r.baseline_time,
        "reduction_pct": r.reduction_pct,
        "exposed_a2a_fraction": r.exposed_a2a_fraction(),
    }


@runner("table_setup")
def _table_setup(params: Dict[str, Any]) -> Dict[str, Any]:
    p = dict(params)
    _reject_algo(p, "table_setup")
    _scenario_backend(p)  # table rendering is closed-form on either engine
    which = p["which"]
    if which == "table1":
        fig = table1_setup(platform=p.get("platform"))
    else:
        fig = table2_setup()
    return {"extra": dict(fig.extra)}


# ----------------------------------------------------------------------
# Assemblers: scenario results -> the direct path's FigureResult.
# ----------------------------------------------------------------------

def _visible(specs: Sequence[ScenarioSpec], results: Sequence[Dict]):
    return [(s, r) for s, r in zip(specs, results)
            if not s.label.startswith(HIDDEN)]


@assembler("rows")
def _assemble_rows(sweep: SweepSpec, specs, results, figure: str = "",
                   description: str = "", paper_mean=None, paper_best=None
                   ) -> FigureResult:
    """Plain paired rows: one fused/baseline scenario per row."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description,
                       paper_mean=paper_mean, paper_best=paper_best)
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
    return res


@assembler("table")
def _assemble_table(sweep: SweepSpec, specs, results, figure: str = "",
                    description: str = "") -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    res.extra.update(results[0]["extra"])
    return res


@assembler("timeline")
def _assemble_timeline(sweep: SweepSpec, specs, results, figure: str = "",
                       description: str = "") -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    # Underscore keys are raw metrics for the diff layer, not part of the
    # figure (whose extra must match the direct path exactly).
    res.extra.update({k: v for k, v in results[0].items()
                      if not k.startswith("_")})
    return res


@assembler("occupancy")
def _assemble_occupancy(sweep: SweepSpec, specs, results, figure: str = "",
                        description: str = "") -> FigureResult:
    """Fig. 13 semantics: each point normalized against the worst point."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times = {spec.params["occupancy_of_baseline"]: result["elapsed"]
             for spec, result in zip(specs, results)}
    t_max = max(times.values())
    for frac in times:
        res.add(Row(label=f"{100 * frac:.1f}%", fused_time=times[frac],
                    baseline_time=t_max))
    if 0.25 in times and 0.75 in times and 0.875 in times:
        res.extra["reduction_25_to_75"] = (
            f"{100 * (1 - times[0.75] / times[0.25]):.1f}% "
            f"(paper: 46%)")
        res.extra["increase_75_to_875"] = (
            f"{100 * (times[0.875] / times[0.75] - 1):.1f}% "
            f"(paper: 25%)")
    return res


@assembler("sched_skew")
def _assemble_sched_skew(sweep: SweepSpec, specs, results, figure: str = "",
                         description: str = "") -> FigureResult:
    """Fig. 14 semantics: per-node completion skew by scheduling policy."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    skews: Dict[str, List[float]] = {"comm_aware": [], "oblivious": []}
    for spec, result in zip(specs, results):
        p = spec.params
        ends = result["rank_end_times"]
        skew = abs(ends["0"] - ends["1"]) / max(ends.values())
        skews[p["scheduler"]].append(skew)
        res.add(Row(label=spec.label, fused_time=ends["0"],
                    baseline_time=ends["1"]))
    res.extra["avg_skew_comm_aware"] = (
        f"{100 * sum(skews['comm_aware']) / len(skews['comm_aware']):.2f}% "
        f"(paper: ~1%)")
    res.extra["avg_skew_oblivious"] = (
        f"{100 * sum(skews['oblivious']) / len(skews['oblivious']):.2f}% "
        f"(paper: ~7%)")
    res.extra["skews"] = skews
    return res


@assembler("xalgo")
def _assemble_xalgo(sweep: SweepSpec, specs, results, figure: str = "",
                    description: str = "") -> FigureResult:
    """Algorithm-axis semantics: one fused/baseline row per (schedule,
    workload) point, plus the cross-schedule aggregates.

    ``baseline_us_by_algo`` reports the mean baseline collective+compute
    time per schedule; ``best_algo_by_point`` names the winning schedule
    per workload point — the "which schedule wins where" answer the
    sweep exists for.
    """
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    by_algo: Dict[str, List[float]] = {}
    by_point: Dict[str, Dict[str, float]] = {}
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
        algo = spec.params.get("algo", "default")
        point = spec.label.split(" ", 1)[-1]
        by_algo.setdefault(algo, []).append(result["baseline_time"])
        by_point.setdefault(point, {})[algo] = result["baseline_time"]
    res.extra["baseline_us_by_algo"] = {
        algo: round(1e6 * sum(v) / len(v), 3)
        for algo, v in sorted(by_algo.items())}
    res.extra["best_algo_by_point"] = {
        point: min(times, key=times.get)
        for point, times in sorted(by_point.items())}
    return res


@assembler("xhw")
def _assemble_xhw(sweep: SweepSpec, specs, results, figure: str = "",
                  description: str = "") -> FigureResult:
    """Cross-hardware semantics: fused/baseline rows per (platform,
    workload) point plus per-platform speedup aggregates.

    ``speedup_by_platform`` reports mean baseline/fused time per platform
    (>1 = the fused operator wins), the headline number of the
    cross-hardware what-if sweeps.
    """
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    by_platform: Dict[str, List[float]] = {}
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
        name = _platform_display(spec.params["platform"])
        by_platform.setdefault(name, []).append(
            result["baseline_time"] / result["fused_time"])
    res.extra["speedup_by_platform"] = {
        name: round(sum(v) / len(v), 4)
        for name, v in by_platform.items()}
    return res


@assembler("dse_frontier")
def _assemble_dse_frontier(sweep: SweepSpec, specs, results, figure: str = "",
                           description: str = "") -> FigureResult:
    """Design-space semantics: per-platform Pareto frontiers of
    (fused latency, fused-over-baseline speedup).

    A global frontier would collapse onto the fastest device; per platform
    is the design question the sweep answers — *on this hardware*, which
    configurations are undominated (no other config is both faster and a
    bigger win)?  Rows are the union of the per-platform frontiers
    (minimize fused time, maximize baseline/fused speedup); the full grid
    stays in the scenario records.  ``extra`` carries the grid size, the
    frontier as raw data, and the globally undominated subset.
    """
    from ..analytic import pareto_frontier
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    grouped: Dict[str, list] = {}
    points = []
    for spec, result in _visible(specs, results):
        point = (spec, result, result["baseline_time"] / result["fused_time"])
        points.append(point)
        grouped.setdefault(_platform_display(spec.params["platform"]),
                           []).append(point)
    objectives = lambda p: (p[1]["fused_time"], -p[2])  # noqa: E731
    by_platform: Dict[str, int] = {}
    frontier_data = []
    for name in sorted(grouped):
        frontier = pareto_frontier(grouped[name], objectives)
        by_platform[name] = len(frontier)
        for spec, result, speedup in frontier:
            res.add(Row(label=spec.label, fused_time=result["fused_time"],
                        baseline_time=result["baseline_time"]))
            frontier_data.append({
                "label": spec.label,
                "fused_us": round(result["fused_time"] * 1e6, 3),
                "speedup": round(speedup, 4),
            })
    global_frontier = pareto_frontier(points, objectives)
    best = max(points, key=lambda p: p[2])
    res.extra["n_scenarios"] = len(points)
    res.extra["n_frontier"] = len(frontier_data)
    res.extra["best_speedup"] = f"{best[2]:.2f}x at {best[0].label}"
    res.extra["frontier_by_platform"] = by_platform
    res.extra["global_frontier"] = sorted(s.label
                                          for s, _r, _x in global_frontier)
    res.extra["frontier"] = frontier_data
    return res


@assembler("scaleout")
def _assemble_scaleout(sweep: SweepSpec, specs, results, figure: str = "",
                       description: str = "", paper_mean=None) -> FigureResult:
    """Fig. 15: node-count rows + the 128-node headline statistics."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description,
                       paper_mean=paper_mean)
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
    r128 = next(r for s, r in zip(specs, results)
                if s.params["num_nodes"] == 128)
    res.extra["reduction_128_nodes"] = (
        f"{r128['reduction_pct']:.1f}% (paper: ~21%)")
    res.extra["baseline_exposed_a2a_128"] = (
        f"{100 * r128['exposed_a2a_fraction']:.0f}% "
        f"(motivation claim: >35%)")
    return res


@assembler("slice_ablation")
def _assemble_slice_ablation(sweep: SweepSpec, specs, results,
                             figure: str = "", description: str = ""
                             ) -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times = {spec.params["slice_vectors"]: result["elapsed"]
             for spec, result in zip(specs, results)}
    worst = max(times.values())
    for sv in times:
        res.add(Row(label=f"slice={sv}", fused_time=times[sv],
                    baseline_time=worst))
    # String keys: JSON object keys are strings, so an int-keyed dict
    # would serialize in a different order fresh (numeric sort) vs from
    # the cache (lexicographic), breaking byte-identical reports.
    res.extra["times_us"] = {str(sv): round(t * 1e6, 1)
                             for sv, t in times.items()}
    return res


@assembler("sched_ablation")
def _assemble_sched_ablation(sweep: SweepSpec, specs, results,
                             figure: str = "", description: str = ""
                             ) -> FigureResult:
    """End-to-end time pairs: fused=comm_aware, baseline=oblivious."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times: Dict[Tuple[int, int], Dict[str, float]] = {}
    for spec, result in zip(specs, results):
        p = spec.params
        point = (p["global_batch"], p["tables_per_gpu"])
        times.setdefault(point, {})[p["scheduler"]] = result["elapsed"]
    for (batch, tables), by_sched in times.items():
        res.add(Row(label=f"{batch}|{tables}",
                    fused_time=by_sched["comm_aware"],
                    baseline_time=by_sched["oblivious"]))
    return res


@assembler("proxy_ablation")
def _assemble_proxy_ablation(sweep: SweepSpec, specs, results,
                             figure: str = "", description: str = ""
                             ) -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times = {spec.params.get("cpu_proxy", False): result["elapsed"]
             for spec, result in zip(specs, results)}
    res.add(Row(label="gpu-initiated", fused_time=times[False],
                baseline_time=times[True]))
    res.add(Row(label="cpu-proxy", fused_time=times[True],
                baseline_time=times[True]))
    res.extra["proxy_penalty"] = (
        f"{100 * (times[True] / times[False] - 1):.2f}% slower through "
        f"the proxy")
    return res
