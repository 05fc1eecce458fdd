"""Experiment orchestration: declarative sweeps, parallel sharded
execution, and a content-addressed result store.

The subsystem has four layers:

* **specs** — frozen, hashable scenario/sweep descriptions with parameter
  grid helpers (:func:`grid_params`, :func:`zip_params`) and stable
  content hashes;
* **runner** — cache-aware execution, sharding uncached scenarios across
  spawn-safe worker processes with a serial fallback;
* **store** — ``.repro-cache/records.sqlite``: JSON records keyed by
  spec hash, so no scenario is ever simulated twice, plus diffable sweep
  reports and a baseline-comparison API (:func:`diff_reports`);
* **cli** — ``python -m repro`` with ``list`` / ``run`` / ``report`` /
  ``diff`` / ``validate`` / ``cache stats`` subcommands.

Every scenario runs under either of two engines — the discrete-event
simulator (default) or the closed-form analytic backend
(:mod:`repro.analytic`), selected per scenario by the ``backend``
parameter (hashed into the store key; absent for the default path, so
pre-existing records stay addressable).

All of the paper's figures/tables, the ablations, and the analytic
design-space grids are registered as sweeps (see
:mod:`repro.experiments.figures`); :func:`regenerate` is the one-call
bridge used by the benchmark suite.
"""

from __future__ import annotations

import os
from typing import Optional

from .registry import (
    assembler,
    ensure_registered,
    get_sweep,
    list_sweeps,
    register_sweep,
    runner,
)
from .report import (
    build_report,
    compare_to_baseline,
    diff_reports,
    load_report,
    render_report,
    report_json,
)
from .execution import (
    ScenarioOutcome,
    SweepRun,
    batch_enabled,
    default_workers,
    run_scenario,
    run_sweep,
)
from .mega import (
    MegaRun,
    MegaSweepSpec,
    get_mega,
    list_megas,
    register_mega,
    run_mega,
)
from .specs import (
    BACKENDS,
    DEFAULT_BACKEND,
    SCHEMA_VERSION,
    ScenarioSpec,
    SweepSpec,
    grid_params,
    scenario,
    sweep_with_backend,
    zip_params,
)
from .store import DEFAULT_CACHE_DIR, ResultStore

__all__ = [
    "SCHEMA_VERSION",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_DIR",
    "sweep_with_backend",
    "ScenarioSpec",
    "SweepSpec",
    "ScenarioOutcome",
    "SweepRun",
    "ResultStore",
    "scenario",
    "grid_params",
    "zip_params",
    "runner",
    "assembler",
    "register_sweep",
    "get_sweep",
    "list_sweeps",
    "ensure_registered",
    "run_scenario",
    "run_sweep",
    "batch_enabled",
    "default_workers",
    "MegaRun",
    "MegaSweepSpec",
    "register_mega",
    "get_mega",
    "list_megas",
    "run_mega",
    "build_report",
    "report_json",
    "render_report",
    "load_report",
    "diff_reports",
    "compare_to_baseline",
    "regenerate",
]


def regenerate(name: str, workers: Optional[int] = None,
               store: Optional[ResultStore] = None):
    """Run the registered sweep ``name``; return its ``FigureResult``.

    This is the benchmark suite's path into the orchestrator.  Caching is
    off unless ``store`` is given or ``REPRO_CACHE_DIR`` is set (tests
    must measure fresh simulations by default; opt in to reuse); worker
    count comes from ``REPRO_WORKERS`` unless given.
    """
    if store is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        if cache_dir:
            store = ResultStore(cache_dir)
    if workers is None:
        workers = default_workers()
    return run_sweep(get_sweep(name), store=store, workers=workers).figure()
