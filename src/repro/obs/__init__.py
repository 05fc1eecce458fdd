"""Unified observability layer: metrics, trace export, run capture.

The repro's evaluation layers run deterministic simulations whose *results*
are content-addressed and byte-stable — so observability must ride alongside
without ever touching them.  This package provides the three pieces:

* :mod:`repro.obs.metrics` — a process-wide run-metrics registry (counters,
  gauges, host wall-clock timers) following the ``NULL_TRACE`` pattern: a
  no-op :data:`~repro.obs.metrics.NULL_METRICS` singleton when disabled,
  opt-in via ``REPRO_METRICS`` or :func:`~repro.obs.metrics.enable_metrics`.
  Hot layers (engine event loop, kernel fast path, sweep execution, result
  store, batch engine, collective auto-selector) are instrumented against
  it; none of its data feeds cache keys or report bytes.
* :mod:`repro.obs.chrome` — deterministic export of
  :class:`~repro.sim.trace.TraceRecorder` events/spans (plus host-side
  wall-clock spans) to Chrome trace-event JSON, loadable in Perfetto or
  ``chrome://tracing`` — the paper's Fig. 11 profiler view, but in a real
  trace viewer instead of an 80-column ASCII strip.
* :mod:`repro.obs.capture` — a context manager that transparently hands a
  live :class:`TraceRecorder` to every :class:`~repro.fused.base.OpHarness`
  built inside it, so ``python -m repro trace`` can profile any registered
  sweep without the runners knowing.

Names resolve on first access (:mod:`repro.utils.lazy`): the result store
and sweep execution use only the metrics registry, and must not load the
simulator through ``capture``/``chrome``.
"""

from ..utils.lazy import lazy_exports

_EXPORTS = {
    "TraceCapture": "capture",
    "active_capture": "capture",
    "harness_trace": "capture",
    "EXPORT_SCHEMA": "chrome",
    "chrome_trace_dict": "chrome",
    "chrome_trace_json": "chrome",
    "validate_chrome_trace": "chrome",
    "write_chrome_trace": "chrome",
    "NULL_METRICS": "metrics",
    "MetricsRegistry": "metrics",
    "disable_metrics": "metrics",
    "enable_metrics": "metrics",
    "get_metrics": "metrics",
    "metrics_env_enabled": "metrics",
    "reset_metrics": "metrics",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
