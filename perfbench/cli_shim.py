"""``python -m repro ARGS`` with a timestamp at registry-ready.

    python perfbench/cli_shim.py OUT.json plain|trace ARGS...

Runs exactly what ``repro/__main__.py`` runs, in this fresh interpreter,
after importing ``repro.experiments.cli`` and running
``ensure_registered()`` itself so it can note when the registry was ready.
``trace`` also installs the :mod:`tracer` wrappers for the command.  The
measurements go to OUT.json; the exit status is the command's.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    out_path, mode, args = argv[0], argv[1], argv[2:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    from repro.experiments import cli
    t1 = time.perf_counter()
    from repro.experiments.registry import ensure_registered
    ensure_registered()
    t2 = time.perf_counter()
    result = {"t_start": T_START, "t_ready": t2,
              "startup": {"import_s": t1 - t0, "registry_s": t2 - t1,
                          "modules_loaded": len(sys.modules) - before,
                          "numpy_loaded": int("numpy" in sys.modules)}}
    tracer = registry = None
    if mode == "trace":
        from tracer import install_tracing
        tracer, registry = install_tracing()
    status = 1
    try:
        status = cli.main(args)
    finally:
        result["status"] = status
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            from tracer import traced_result
            result["trace"] = traced_result(tracer, registry)
            tracer.write_spans(out_path + ".spans.json")
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(result, f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
