"""Per-layer metrics from one traced pass's span and counter summary.

The input is :meth:`tracer.Tracer.summary` plus the ``repro.obs.metrics``
registry snapshot (``registry``) and the pass's scenario count
(``scenarios``: scenario specs run through ``run_sweep``; mega-grid rows
are not specs and are left out).  A layer a workload does not exercise
reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge_traces(traces: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the summaries of several processes (one warm-cli round)."""
    out: Dict[str, Any] = {"spans": {}, "counts": {}, "hits": {},
                           "registry": {}, "report_bytes": 0,
                           "scalar_predict": [0, 0.0], "scenarios": 0}
    for t in traces:
        for name, agg in t["spans"].items():
            cur = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                cur[i] += agg[i]
        for key in ("counts", "hits", "registry"):
            for name, v in t[key].items():
                if name == "sim.heap_peak":
                    out[key][name] = max(out[key].get(name, 0), v)
                else:
                    out[key][name] = out[key].get(name, 0) + v
        out["report_bytes"] += t["report_bytes"]
        out["scalar_predict"][0] += t["scalar_predict"][0]
        out["scalar_predict"][1] += t["scalar_predict"][1]
        out["scenarios"] += t["scenarios"]
    return out


def layer_metrics(t: Dict[str, Any]) -> Dict[str, float]:
    spans = t["spans"]
    reg = t["registry"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    scenarios = t["scenarios"]
    lookups = calls("store.get") + calls("store.get_sweep")
    batch_s = total("analytic.batch") + total("analytic.batch_grid")
    rows = reg.get("batch.rows", 0)
    events = reg.get("sim.events_processed", 0)
    tasks = reg.get("kernel.tasks", 0)
    fast_tasks = (reg.get("kernel.fastpath_uniform_tasks", 0)
                  + reg.get("kernel.fastpath_batched_tasks", 0))
    return {
        "specs.key_calls_per_scenario": _ratio(calls("specs.key"), scenarios),
        "specs.key_self_s": own("specs.key"),
        "specs.params_calls_per_scenario": _ratio(calls("specs.params"),
                                                  scenarios),
        "specs.params_self_s": own("specs.params"),
        "store.get_calls": calls("store.get"),
        "store.get_self_s": own("store.get"),
        "store.hit_ratio": _ratio(sum(t["hits"].values()), lookups),
        "store.read_bytes": reg.get("store.read_bytes", 0),
        "store.put_calls": calls("store.put"),
        "store.put_self_s": own("store.put"),
        "store.write_bytes": reg.get("store.write_bytes", 0),
        "store.sweep_record_s": total("store.get_sweep")
        + total("store.put_sweep"),
        "execution.run_sweep_self_s": own("execution.run_sweep"),
        "execution.batch_scenarios": reg.get("sweep.batch_fastpath_scenarios",
                                             0),
        "execution.serial_scenarios": calls("execution.run_scenario"),
        "analytic.scalar_calls": t["scalar_predict"][0],
        "analytic.scalar_s": t["scalar_predict"][1],
        "analytic.batch_calls": calls("analytic.batch"),
        "analytic.batch_rows": rows,
        "analytic.batch_s": batch_s,
        "analytic.batch_us_per_row": _ratio(batch_s * 1e6, rows),
        "analytic.batch_fallback_ratio": _ratio(
            reg.get("batch.scalar_fallback_rows", 0), rows),
        "mega.run_s": total("mega.run"),
        "mega.assemble_s": own("mega.run"),
        "sim.run_s": total("sim.run"),
        "sim.events": events,
        "sim.us_per_event": _ratio(total("sim.run") * 1e6, events),
        "sim.heap_peak": reg.get("sim.heap_peak", 0),
        "kernels.launches": reg.get("kernel.launches", 0),
        "kernels.tasks": tasks,
        "kernels.fastpath_task_ratio": _ratio(fast_tasks, tasks),
        "comm.wait_until_calls": t["counts"].get("comm.wait_until_calls", 0),
        "comm.put_calls": t["counts"].get("comm.put_calls", 0),
        "comm.link_transfers": t["counts"].get("comm.link_transfers", 0),
        "report.assemble_s": total("report.figure"),
        "report.build_s": own("report.build") + total("report.json"),
        "report.bytes": t["report_bytes"],
    }
