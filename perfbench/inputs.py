"""Seeded workload inputs: plain JSON data, no ``repro`` import.

The benchmark hands the program only what this module generates from the
seed.  A seed selects one of :data:`VARIANTS` input variants
(``seed % VARIANTS``); the committed reference digests cover every
variant, so any integer seed is checkable.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

WORKLOADS = ("des-cold", "analytic-cold", "warm-cli")

#: Distinct input variants per workload; ``references.json`` holds the
#: report digests of each.  Seed 31 (variant 31) is kept out of tuning, for
#: checking later claims.
VARIANTS = 32

# -- des-cold ---------------------------------------------------------------
#
# Per DES runner, pools of (registered sweep, scenario label) points taken
# from the registered figure grids.  Members of one pool simulate the same
# number of events to within 1%, so every seed does the same simulated work
# while feeding the program different scenarios.  Each runner contributes
# two points: embedding_a2a_pair one intra-node and one inter-node,
# gemv_allreduce_pair one default-schedule and one explicit-``algo`` point.
DES_POOLS: Dict[str, List[Dict[str, Any]]] = {
    "embedding_a2a_pair": [
        {"pick": 1, "points": [           # intra-node (1x4), ~78k events
            ["fig8", "1024|64"],
            ["ablation-zero-copy", "1024|64 zc=on"],
            ["ablation-zero-copy", "1024|64 zc=off"],
            ["xhw_embedding_a2a", "mi250x 1024|64"],
            ["xhw_embedding_a2a", "h100 1024|64"],
        ]},
        {"pick": 1, "points": [           # inter-node (2x1), ~38k events
            ["fig12", "256|256"],
            ["fig12", "1024|64"],
        ]},
    ],
    "gemv_allreduce_pair": [
        {"pick": 1, "points": [           # default schedule, 21,683 events
            ["fig9", "8k|2k"],
            ["fig9", "8k|4k"],
            ["xhw_gemv_allreduce", "mi250x 8k|2k"],
            ["xhw_gemv_allreduce", "mi300x 8k|2k"],
            ["xhw_gemv_allreduce", "h100 8k|2k"],
        ]},
        {"pick": 1, "points": [           # non-default algo, ~21.7k events
            ["xalgo_allreduce", "direct 8k|2k"],
            ["xalgo_allreduce", "ring 8k|2k"],
            ["xalgo_allreduce", "tree 8k|2k"],
        ]},
    ],
    "gemm_a2a_pair": [
        {"pick": 2, "points": [           # 47,235 events each
            ["fig10", "2k|4k|8k"],
            ["xhw_gemm_a2a", "mi250x 2048x4096x8192"],
            ["xhw_gemm_a2a", "h100 2048x4096x8192"],
        ]},
    ],
    "embedding_grad_pair": [
        {"pick": 2, "points": [
            ["ext-embedding-backward", "256|64"],
            ["ext-embedding-backward", "1024|64"],
        ]},
    ],
    "wg_timeline": [
        {"pick": 2, "points": [
            ["fig11", "512|32"],
            ["trace-smoke", "trace 64|4"],
        ]},
    ],
}

#: Assembler per DES runner sweep (``rows`` needs fused/baseline times,
#: which ``wg_timeline`` results do not carry).
DES_ASSEMBLERS = {"wg_timeline": "timeline"}

#: One fixed DES scenario per runner for the ``fused.<runner>.*`` probes
#: (seed-independent, so their event counts repeat exactly).
FUSED_PROBES: Dict[str, List[str]] = {
    "embedding_a2a_pair": ["fig12", "256|64"],
    "gemv_allreduce_pair": ["fig9", "8k|2k"],
    "gemm_a2a_pair": ["fig10", "2k|4k|8k"],
    "embedding_grad_pair": ["ext-embedding-backward", "256|64"],
    "wg_timeline": ["trace-smoke", "trace 64|4"],
}

# -- analytic-cold ----------------------------------------------------------

PLATFORMS = ["h100", "mi210", "mi250x", "mi300x"]
#: Candidate axis values.  Every batch is a multiple of 512, the largest
#: ``world * slice_vectors`` in these grids, so every point validates.
BATCH_CANDIDATES = [512 * k for k in range(1, 37)]
TABLE_CANDIDATES = [4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 192, 256,
                    320, 384, 512]
SLICE_CANDIDATES = [8, 16, 32, 64]
OCCUPANCIES = [0.25, 0.5, 0.75]
TOPOLOGY_CANDIDATES = [[1, 2], [1, 4], [2, 1], [2, 2], [2, 4]]
ALGOS = [None, "pairwise"]

#: Every registered sweep outside the design-space grids, re-keyed to the
#: analytic backend.  ``trace-smoke`` raises in the ``rows`` assembler
#: (``KeyError: 'fused_time'``) and is counted as a failed operation.
REKEYED_SWEEPS = [
    "ablation-cpu-proxy", "ablation-scheduling", "ablation-slice-size",
    "ablation-zero-copy", "ext-embedding-backward", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig8", "fig9", "smoke", "table1",
    "table2", "trace-smoke", "xalgo-smoke", "xalgo_allreduce",
    "xalgo_alltoall", "xhw-smoke", "xhw_embedding_a2a", "xhw_gemm_a2a",
    "xhw_gemv_allreduce", "xhw_scaleout",
]
KNOWN_FAILURES = {"analytic-cold": {"trace-smoke": "KeyError: 'fused_time'"}}

# -- warm-cli ----------------------------------------------------------------

#: Registered figure sweeps whose untimed cold fill stays under ~5 s.
WARM_FIGURE_POOL = ["fig9", "fig11", "fig15", "table1", "table2"]
WARM_FRONTIER = "dse_fused_frontier"


def _sorted_sample(rng: random.Random, values: List[Any], k: int) -> List[Any]:
    picked = set(rng.sample(range(len(values)), k))
    return [v for i, v in enumerate(values) if i in picked]


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The workload's inputs for ``seed`` (same seed, same inputs)."""
    variant = seed % VARIANTS
    rng = random.Random(f"{workload}/{variant}")
    inputs: Dict[str, Any] = {"workload": workload, "variant": variant}
    if workload == "des-cold":
        inputs["sweeps"] = [
            {"name": f"des-{runner}",
             "assembler": DES_ASSEMBLERS.get(runner, "rows"),
             "points": [p for pool in pools
                        for p in _sorted_sample(rng, pool["points"],
                                                pool["pick"])]}
            for runner, pools in DES_POOLS.items()
        ]
    elif workload == "analytic-cold":
        platforms = list(PLATFORMS)
        rng.shuffle(platforms)
        inputs["frontier"] = {
            "name": "bench-dse-frontier",
            "platforms": platforms,
            "batches": _sorted_sample(rng, BATCH_CANDIDATES, 6),
            "tables": _sorted_sample(rng, TABLE_CANDIDATES, 3),
            "slices": _sorted_sample(rng, SLICE_CANDIDATES, 3),
            "occupancies": OCCUPANCIES,
            "topologies": _sorted_sample(rng, TOPOLOGY_CANDIDATES, 2),
            "algos": ALGOS,
        }
        mega_platforms = list(PLATFORMS)
        rng.shuffle(mega_platforms)
        inputs["mega"] = {
            "name": "bench-dse-mega",
            "axes": {
                "platform": mega_platforms,
                "num_nodes": [1, 2],
                "gpus_per_node": [1, 2, 4],
                "global_batch": _sorted_sample(rng, BATCH_CANDIDATES, 18),
                "tables_per_gpu": _sorted_sample(rng, TABLE_CANDIDATES, 10),
                "slice_vectors": SLICE_CANDIDATES,
                "occupancy_of_baseline": OCCUPANCIES,
                "algo": ALGOS,
            },
        }
        inputs["rekeyed"] = list(REKEYED_SWEEPS)
    elif workload == "warm-cli":
        inputs["figures"] = _sorted_sample(rng, WARM_FIGURE_POOL, 2)
        inputs["frontier"] = WARM_FRONTIER
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    return inputs
