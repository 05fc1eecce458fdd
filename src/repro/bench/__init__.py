"""Benchmark harness: regenerates every table and figure of the paper.

Names resolve on first access (:mod:`repro.utils.lazy`): report readers
need only :class:`~repro.bench.harness.FigureResult`, and must not pay
for the figure functions, which load the fused operators and numpy.
"""

from ..utils.lazy import lazy_exports

_EXPORTS = {
    "FigureResult": "harness",
    "Row": "harness",
    "compare": "harness",
    "fig8_embedding_a2a_intranode": "figures",
    "fig9_gemv_allreduce": "figures",
    "fig10_gemm_a2a": "figures",
    "fig11_wg_timeline": "figures",
    "fig12_embedding_a2a_internode": "figures",
    "fig13_occupancy_sweep": "figures",
    "fig14_scheduling_skew": "figures",
    "fig15_scaleout": "figures",
    "table1_setup": "figures",
    "table2_setup": "figures",
    "time_call": "perf",
    "write_bench_report": "perf",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
