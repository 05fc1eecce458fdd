"""Integration tests for the profiling hooks and their two guarantees:

* disabled path: NULL_METRICS / NULL_TRACE record nothing and allocate
  nothing measurable — observability off means off;
* enabled path: metrics never change simulated results, report bytes, or
  cache records — they read the run, they never feed back into it.
"""

import tracemalloc

from repro.experiments.execution import run_scenario, run_sweep
from repro.experiments.registry import ensure_registered, get_sweep
from repro.experiments.report import report_json
from repro.experiments.store import ResultStore
from repro.obs.metrics import (
    NULL_METRICS,
    enable_metrics,
    reset_metrics,
)
from repro.sim import NULL_TRACE, Simulator


def _ticker(sim, n=50):
    for _ in range(n):
        yield sim.timeout(0.5)
    return "ok"


# -- engine hooks ------------------------------------------------------------

def test_engine_counts_events_and_heap_peak():
    m = enable_metrics()
    sim = Simulator()
    assert sim.run_process(_ticker(sim)) == "ok"
    assert m.counters["sim.events_processed"] >= 50
    assert m.gauges["sim.heap_peak"] >= 1


def test_engine_instrumented_run_times_match():
    sim_off = Simulator()
    assert sim_off.run_process(_ticker(sim_off)) == "ok"
    enable_metrics()
    sim_on = Simulator()
    assert sim_on.run_process(_ticker(sim_on)) == "ok"
    assert sim_on.now == sim_off.now  # bit-identical clock


def test_kernel_and_sweep_hooks_fire():
    ensure_registered()
    m = enable_metrics()
    run_scenario(get_sweep("smoke").scenarios[0])
    assert m.counters["kernel.launches"] >= 1
    assert m.counters["kernel.tasks"] >= 1
    assert m.counters["sim.events_processed"] > 0


def test_batch_and_cache_hooks_fire(tmp_path):
    ensure_registered()
    m = enable_metrics()
    store = ResultStore(tmp_path / "cache")
    n = len(get_sweep("dse-smoke").scenarios)
    run_sweep("dse-smoke", store=store)
    assert m.counters["sweep.cache_misses"] == n
    assert m.counters["sweep.batch_fastpath_scenarios"] > 0
    assert m.counters["batch.rows"] > 0
    assert m.counters["batch.groups"] >= 1
    assert m.counters["store.writes"] > 0
    assert m.counters["store.write_bytes"] > 0
    m.clear()
    run_sweep("dse-smoke", store=store)
    assert m.counters["sweep.cache_hits"] == n
    assert m.counters["store.reads"] > 0
    assert m.counters["store.read_bytes"] > 0


def test_collectives_auto_selection_counted():
    from repro.collectives import CommTopology, resolve_allreduce
    m = enable_metrics()
    topo = CommTopology(num_nodes=4, gpus_per_node=1)
    algo = resolve_allreduce("auto", topo, nbytes=1 << 20)
    assert m.counters == {f"collectives.auto.allreduce.{algo.name}": 1}
    resolve_allreduce(None, topo, nbytes=1 << 20)  # defaults are not "auto"
    assert sum(m.counters.values()) == 1


# -- disabled-path guarantees ------------------------------------------------

def test_null_paths_allocate_nothing_measurable():
    # Warm every code path first so caches (method wrappers, small ints)
    # are populated, then assert the steady-state loop does not allocate.
    NULL_METRICS.inc("warm")
    with NULL_METRICS.timer("warm"):
        pass
    NULL_TRACE.record(0.0, "warm", "a")
    tracemalloc.start()
    try:
        tracemalloc.clear_traces()
        for _ in range(10_000):
            NULL_METRICS.inc("sim.events_processed", 17)
            NULL_METRICS.gauge_max("sim.heap_peak", 3)
            with NULL_METRICS.timer("sweep.serial_wall_s"):
                pass
            NULL_TRACE.record(1.5, "wg_start", "gpu0/wg0", task=1)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2048  # no per-call allocation survives the loop


def test_null_metrics_state_untouched_after_use():
    NULL_METRICS.inc("x", 100)
    NULL_METRICS.gauge("y", 5)
    assert NULL_METRICS.snapshot() == {
        "counters": {}, "gauges": {}, "timers": {}}


# -- byte-identity with metrics enabled --------------------------------------

def _run_smoke(cache_dir, metrics_on):
    reset_metrics()
    if metrics_on:
        enable_metrics()
    store = ResultStore(cache_dir)
    run = run_sweep("smoke", store=store)
    report = report_json(run.report())
    records = dict(store.items())
    return report, records


def test_metrics_enabled_run_is_byte_identical(tmp_path):
    ensure_registered()
    report_off, records_off = _run_smoke(tmp_path / "off", metrics_on=False)
    report_on, records_on = _run_smoke(tmp_path / "on", metrics_on=True)
    assert report_on == report_off
    assert records_on == records_off
    assert records_on  # the comparison actually covered cache records
