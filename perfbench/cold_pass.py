"""One timed pass of a cold workload, in a fresh interpreter.

    python perfbench/cold_pass.py OUT.json INPUTS.json STORE_DIR MODE

MODE is ``plain`` (the measured pass), ``trace`` (same work under
:mod:`tracer` spans and the ``repro.obs.metrics`` registry), ``profile``
(same work under cProfile, self time grouped by package) or ``probe`` (the
fixed one-scenario-per-runner DES probes; INPUTS is ignored); ``warmup``
only imports every module, to fill the bytecode cache.  STORE_DIR must be
empty: every pass starts from an empty result store and, being a fresh
process, with every in-process memo empty.  The pass writes its
measurements to OUT.json.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from typing import Any, Callable, Dict, List, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: (name, scenario count, callable returning (report JSON, scenarios done))
Op = Tuple[str, int, Callable[[], Tuple[str, int]]]


def _startup() -> Dict[str, Any]:
    before = len(sys.modules)
    t0 = time.perf_counter()
    import repro.experiments.cli  # noqa: F401
    t1 = time.perf_counter()
    from repro.experiments.registry import ensure_registered
    ensure_registered()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "registry_s": t2 - t1,
            "modules_loaded": len(sys.modules) - before,
            "numpy_loaded": int("numpy" in sys.modules)}


def _lookup(sweep: str, label: str):
    from repro.experiments import get_sweep
    for spec in get_sweep(sweep).scenarios:
        if spec.label == label:
            return replace(spec, label=f"{sweep} {label}")
    raise KeyError(f"{sweep!r} has no scenario labelled {label!r}")


# Operations look ``run_sweep`` & co. up at call time, so the trace
# pass's wrappers (installed after the inputs are built) see the calls.

def _sweep_op(sweep, store) -> Op:
    import repro.experiments as ex

    def op() -> Tuple[str, int]:
        run = ex.run_sweep(sweep, store=store, workers=1)
        return ex.report_json(run.report()), len(run.outcomes)

    return sweep.name, len(sweep), op


def _mega_op(spec, store) -> Op:
    import repro.experiments as ex

    def op() -> Tuple[str, int]:
        run = ex.run_mega(spec, store=store)
        return ex.report_json(run.report()), len(spec)

    return spec.name, len(spec), op


def build_ops(inputs: Dict[str, Any], store_dir: str) -> List[Op]:
    from repro.experiments import (
        MegaSweepSpec,
        ResultStore,
        SweepSpec,
        get_sweep,
        sweep_with_backend,
    )
    from repro.experiments.figures import dse_fused_frontier_sweep
    store = ResultStore(store_dir)
    workload = inputs["workload"]
    if workload == "des-cold":
        return [_sweep_op(SweepSpec.make(
            s["name"], s["name"], [_lookup(*p) for p in s["points"]],
            assembler=s["assembler"], figure=s["name"]), store)
            for s in inputs["sweeps"]]
    if workload == "analytic-cold":
        f = dict(inputs["frontier"])
        f["topologies"] = [tuple(t) for t in f["topologies"]]
        m = inputs["mega"]
        mega = MegaSweepSpec.make(m["name"], "DSE mega (bench)",
                                  "embedding_a2a_pair", m["axes"],
                                  figure="DSE mega (bench)")
        return ([_sweep_op(dse_fused_frontier_sweep(**f), store),
                 _mega_op(mega, store)]
                + [_sweep_op(sweep_with_backend(get_sweep(n), "analytic"),
                             store) for n in inputs["rekeyed"]])
    raise ValueError(f"{workload!r} is not a cold workload")


def run_ops(ops: List[Op]) -> List[Dict[str, Any]]:
    """Closed loop: each operation starts when the previous one ends."""
    results = []
    clock = time.perf_counter
    for name, size, op in ops:
        t0 = clock()
        try:
            text, done = op()
        except Exception as exc:  # one failing sweep must not end the pass
            results.append({"op": name, "wall_s": clock() - t0,
                            "size": size, "scenarios": 0, "sha256": None,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        t1 = clock()
        results.append({"op": name, "wall_s": t1 - t0, "size": size,
                        "scenarios": done,
                        "sha256": hashlib.sha256(
                            text.encode("utf-8")).hexdigest(),
                        "error": None})
    return results


def _profile_by_package(profiler) -> Dict[str, float]:
    import pstats
    marker = os.sep + "repro" + os.sep
    out: Dict[str, float] = {}
    for (path, _line, _fn), row in pstats.Stats(profiler).stats.items():
        if marker not in path:
            continue
        package = path.rsplit(marker, 1)[1].split(os.sep)[0]
        out[package] = out.get(package, 0.0) + row[2]      # tottime
    return out


def run_probes() -> Dict[str, Any]:
    """``fused.<runner>.*``: events from one metered run, host time as the
    median of three unmetered runs (metering switches the DES loop to its
    instrumented twin)."""
    from inputs import FUSED_PROBES
    from repro.experiments import run_scenario
    from repro.obs.metrics import (
        MetricsRegistry,
        disable_metrics,
        enable_metrics,
    )
    out: Dict[str, Any] = {}
    for runner, (sweep, label) in FUSED_PROBES.items():
        spec = _lookup(sweep, label)
        registry = enable_metrics(MetricsRegistry())
        run_scenario(spec)
        disable_metrics()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            run_scenario(spec)
            times.append(time.perf_counter() - t0)
        out[runner] = {
            "events": registry.counters.get("sim.events_processed", 0),
            "scenario_s": sorted(times)[1]}
    return out


def warm_up() -> None:
    import cProfile  # noqa: F401
    import importlib
    import pkgutil
    import pstats  # noqa: F401

    import repro
    import tracer  # noqa: F401
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def main(argv: List[str]) -> int:
    out_path, inputs_path, store_dir, mode = argv
    if mode == "warmup":
        warm_up()
        return 0
    inputs: Dict[str, Any] = {}
    if mode != "probe":
        with open(inputs_path, encoding="utf-8") as f:
            inputs = json.load(f)
    startup = _startup()
    ops = build_ops(inputs, store_dir) if inputs else []
    tracer = registry = None
    if mode == "trace":
        from tracer import install_tracing
        tracer, registry = install_tracing()
    t_ready = time.perf_counter()
    result: Dict[str, Any] = {"t_start": T_START, "t_ready": t_ready,
                              "startup": startup}
    if mode == "probe":
        result["probes"] = run_probes()
    elif mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
        result["ops"] = run_ops(ops)
        profiler.disable()
        result["self_s"] = _profile_by_package(profiler)
    else:
        result["ops"] = run_ops(ops)
    result["t_end"] = time.perf_counter()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        from tracer import traced_result
        result["trace"] = traced_result(tracer, registry)
        result["trace"]["scenarios"] = sum(
            o["size"] for o in result["ops"] if o["op"] != inputs.get(
                "mega", {}).get("name"))
        tracer.write_spans(out_path + ".spans.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
