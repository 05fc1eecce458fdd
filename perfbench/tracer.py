"""Layer spans and call counts, recorded around ``repro``'s public functions.

Nothing under ``src/`` changes: :meth:`Tracer.install` swaps each named
function or method for a wrapper that records a span (name, start, end,
parent span) or bumps a counter, then calls the original.  Spans stay in
memory; :meth:`Tracer.summary` reduces them once, at the end of the pass.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, span name) for every span-recording wrapper.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.specs", "ScenarioSpec.key", "specs.key"),
    ("repro.experiments.specs", "ScenarioSpec.params", "specs.params"),
    ("repro.experiments.store", "ResultStore.get", "store.get"),
    ("repro.experiments.store", "ResultStore.put", "store.put"),
    ("repro.experiments.store", "ResultStore.get_sweep", "store.get_sweep"),
    ("repro.experiments.store", "ResultStore.put_sweep", "store.put_sweep"),
    ("repro.experiments.execution", "run_sweep", "execution.run_sweep"),
    ("repro.experiments.execution", "run_scenario", "execution.run_scenario"),
    ("repro.experiments.execution", "SweepRun.figure", "report.figure"),
    ("repro.experiments.report", "build_report", "report.build"),
    ("repro.experiments.report", "report_json", "report.json"),
    ("repro.experiments.mega", "run_mega", "mega.run"),
    ("repro.analytic.batch", "evaluate_batch_records", "analytic.batch"),
    ("repro.analytic.batch", "ScenarioBatch.from_grid", "analytic.batch_grid"),
    ("repro.analytic.batch", "ScenarioBatch.evaluate", "analytic.batch"),
    ("repro.analytic.ops", "predict_dlrm_scaleout", "analytic.predict"),
    ("repro.analytic.ops", "predict_embedding_a2a", "analytic.predict"),
    ("repro.analytic.ops", "predict_embedding_fused", "analytic.predict"),
    ("repro.analytic.ops", "predict_embedding_grad_a2a", "analytic.predict"),
    ("repro.analytic.ops", "predict_gemm_a2a", "analytic.predict"),
    ("repro.analytic.ops", "predict_gemv_allreduce", "analytic.predict"),
    ("repro.analytic.ops", "predict_wg_timeline", "analytic.predict"),
    ("repro.sim.engine", "Simulator.run", "sim.run"),
)

#: Hot DES entry points get a call counter, not a span.  The composite
#: ``put_signal*`` idioms issue their data through ``put_nbi``/``put_bytes``,
#: so counting those two counts every put once.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.comm.shmem", "FlagArray.wait_until", "comm.wait_until_calls"),
    ("repro.comm.shmem", "ShmemContext.put_nbi", "comm.put_calls"),
    ("repro.comm.shmem", "ShmemContext.put_bytes", "comm.put_calls"),
    ("repro.sim.resources", "FairShareLink.transfer", "comm.link_transfers"),
)

#: Spans whose result is ``None`` on a store miss.
_LOOKUPS = ("store.get", "store.get_sweep")
_BATCH = ("analytic.batch", "analytic.batch_grid")


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, int] = {name: 0 for _m, _a, name in COUNTS}
        self.hits: Dict[str, int] = {name: 0 for name in _LOOKUPS}
        self.report_bytes = 0
        self._stack: List[int] = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hits = self.hits if name in _LOOKUPS else None
        sized = name == "report.json"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hits is not None and out is not None:
                hits[name] += 1
            if sized:
                self.report_bytes += len(out.encode("utf-8"))
            return out

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target.  Call after ``repro`` is imported and its
        registry is populated, so aliases held by other modules are found."""
        for module, path, name in SPANS:
            _patch(module, path, lambda fn, n=name: self._span(n, fn))
        for module, path, name in COUNTS:
            _patch(module, path, lambda fn, n=name: self._count(n, fn))

    # -- reduction ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-name [calls, total_s, self_s] plus the self-check inputs."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: Dict[str, List[float]] = {}
        min_self = float("inf") if spans else 0.0
        sum_self = 0.0
        scalar = [0, 0.0]
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[i]
            min_self = min(min_self, own)
            sum_self += own
            agg = by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
            if name == "analytic.predict" and not _under_batch(spans, i):
                scalar[0] += 1
                scalar[1] += dur
        return {"spans": by_name, "counts": dict(self.counts),
                "hits": dict(self.hits), "report_bytes": self.report_bytes,
                "scalar_predict": scalar, "min_self_s": min_self,
                "sum_self_s": sum_self}

    def write_spans(self, path: str) -> None:
        """All spans, once, as ``[name, start, end, parent]`` rows."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f, separators=(",", ":"))


def _under_batch(spans: List[List[Any]], i: int) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in _BATCH:
            return True
        parent = spans[parent][3]
    return False


def _patch(module: str, path: str, make: Callable[[Callable], Callable]
           ) -> None:
    mod = importlib.import_module(module)
    if "." not in path:
        original = getattr(mod, path)
        wrapped = make(original)
        # Replace every alias (``from .x import f``) held by loaded modules.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "repro":
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapped)
        return
    cls_name, attr = path.split(".")
    cls = getattr(mod, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, property):
        setattr(cls, attr, property(make(raw.fget)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install_tracing() -> Tuple[Tracer, Any]:
    """Install span wrappers and a live ``repro.obs.metrics`` registry."""
    from repro.obs.metrics import MetricsRegistry, enable_metrics
    tracer = Tracer()
    tracer.install()
    return tracer, enable_metrics(MetricsRegistry())


def traced_result(tracer: Tracer, registry: Any) -> Dict[str, Any]:
    """The span summary plus the registry's counters and gauges."""
    out = tracer.summary()
    snap = registry.snapshot()
    out["registry"] = {**snap.get("counters", {}), **snap.get("gauges", {})}
    return out
