"""The repo benchmark: host-time cost of the sweep orchestrator and its engines.

    python3 perfbench/run.py --workload des-cold --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``des-cold``: a seeded DES scenario mix over every DES runner, empty store;
* ``analytic-cold``: a seeded design-space grid, a seeded mega grid and every
  registered non-DSE sweep under the analytic backend, empty store;
* ``warm-cli``: fully cached ``python -m repro`` re-renders.

Each is a closed loop from one process at a time with ``workers=1``.  A
pass is a fresh interpreter; passes repeat until ``--seconds`` have gone.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every report is checked against the
committed sha256 digests in ``perfbench/references.json``.  All stores,
caches and bytecode live in a temporary directory under the checkout,
removed on exit.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import KNOWN_FAILURES, WORKLOADS, make_inputs  # noqa: E402
from layers import layer_metrics, merge_traces  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
TMP_PARENT = os.path.join(ROOT, ".perfbench-tmp")
CHILD_TIMEOUT_S = 150

#: Environment knobs of the program that would change what is measured.
_PROGRAM_ENV = ("REPRO_BATCH", "REPRO_CACHE_DIR", "REPRO_METRICS",
                "REPRO_METRICS_JSONL", "REPRO_SIM_FASTPATH", "REPRO_WORKERS")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to an operation failing)."""


class Bench:
    """One benchmark run's scratch space and child-process plumbing."""

    def __init__(self) -> None:
        os.makedirs(TMP_PARENT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in _PROGRAM_ENV}
        # Bytecode is cached, as for any user, but inside the scratch space.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(self.tmp, "pycache")
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, f"{stem}-{self._n}")

    def child(self, script: str, args: List[str]
              ) -> Tuple[float, float, int, Optional[Dict[str, Any]]]:
        """Run a perfbench script; (spawn time, exit time, status, output)."""
        out = self.path("out") + ".json"
        log = out + ".log"
        cmd = [sys.executable, os.path.join(HERE, script), out] + args
        with open(log, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            t1 = time.perf_counter()
        result = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as f:
                result = json.load(f)
        elif proc.returncode != 0:
            with open(log, encoding="utf-8") as f:
                tail = f.read()[-2000:]
            raise BenchError(f"{script} {' '.join(args)} exited "
                             f"{proc.returncode}:\n{tail}")
        return t0, t1, proc.returncode, result

    def warm_up(self) -> None:
        """Compile every module once into the scratch bytecode cache."""
        _, _, status, _ = self.child("cold_pass.py", ["-", "-", "warmup"])
        if status != 0:
            raise BenchError("warm-up import failed")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

class Checker:
    """Counts operations and compares every report with its reference."""

    def __init__(self, workload: str, variant: int) -> None:
        with open(REFERENCES, encoding="utf-8") as f:
            refs = json.load(f)
        self.refs: Dict[str, str] = refs["digests"][workload][str(variant)]
        self.known = KNOWN_FAILURES.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.correct = True

    def mismatch(self, name: str, digest: str) -> Optional[str]:
        ref = self.refs.get(name)
        if digest == ref:
            return None
        return f"report sha256 {digest} differs from the reference {ref}"

    def record(self, name: str, error: Optional[str] = None,
               wrong: Optional[str] = None) -> bool:
        """Count one operation; True when it succeeded.  ``error``: it raised
        or exited non-zero; ``wrong``: its output is incorrect."""
        self.attempted += 1
        if error is None and wrong is None:
            return True
        self.failed += 1
        if wrong is not None:
            self.fail(f"{name}: {wrong}")
        elif self.known.get(name) == error:
            self.note(f"{name}: {error} (known defect, counted as failed)")
        else:
            self.note(f"{name}: {error}")
        return False

    def fail(self, message: str) -> None:
        self.correct = False
        self.note(message)

    def note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float], better: str) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; a tail needs 11 samples"
    ordered = sorted(values, reverse=(better == "higher"))
    return (f"n={n}; p{100 * (n - 10) // n} (10 samples worse) "
            f"{ordered[n - 11]:.6g}")


# ----------------------------------------------------------------------
# Cold workloads: one pass = one fresh interpreter over the whole input
# ----------------------------------------------------------------------

def cold_pass(bench: Bench, inputs_path: str, mode: str) -> Dict[str, Any]:
    store = bench.path("store")
    os.makedirs(store)
    t_spawn, _t_exit, status, out = bench.child(
        "cold_pass.py", [inputs_path, store, mode])
    shutil.rmtree(store, ignore_errors=True)
    if status != 0 or out is None:
        raise BenchError(f"{mode} pass exited {status}")
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


def check_cold(out: Dict[str, Any], checker: Checker
               ) -> Tuple[float, int]:
    """Check one pass's reports; (timed wall, scenarios completed)."""
    wall = 0.0
    done = 0
    for o in out["ops"]:
        wall += o["wall_s"]
        wrong = None if o["error"] else checker.mismatch(o["op"], o["sha256"])
        if checker.record(o["op"], o["error"], wrong):
            done += o["scenarios"]
    return wall, done


def run_cold(bench: Bench, workload: str, inputs: Dict[str, Any],
             seconds: float, trace: bool, checker: Checker
             ) -> Dict[str, Any]:
    inputs_path = bench.path("inputs") + ".json"
    with open(inputs_path, "w", encoding="utf-8") as f:
        json.dump(inputs, f)
    bench.warm_up()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        plain.append(cold_pass(bench, inputs_path, "plain"))
        if trace:
            traced.append(cold_pass(bench, inputs_path, "trace"))
        if time.perf_counter() - start >= seconds:
            break
    rates, walls = [], []
    for out in plain:
        wall, done = check_cold(out, checker)
        rates.append(done / wall)
        walls.append(wall)
    samples = {"setup_s": [o["setup_s"] for o in plain],
               "scenarios_per_s": rates,
               "peak_rss_mb": [o["peak_rss_mb"] for o in plain]}
    if not trace:
        return {"samples": samples}
    reference = [o["sha256"] for o in plain[0]["ops"]]
    per_pass, traced_walls = [], []
    for out in traced:
        wall, _ = check_cold(out, checker)
        traced_walls.append(wall)
        if [o["sha256"] for o in out["ops"]] != reference:
            checker.fail("traced pass reports differ from the untraced pass")
        check_self_times(out["trace"], wall, checker)
        per_pass.append(layer_metrics(out["trace"]))
    check_repeats(per_pass, checker)
    extra = {"profile": None}
    if workload == "des-cold":
        extra["profile"] = cold_pass(bench, inputs_path, "profile")
        check_cold(extra["profile"], checker)
    extra["probe"] = cold_pass(bench, inputs_path, "probe")
    return {"samples": samples, "per_pass": per_pass,
            "startup": [o["startup"] for o in plain],
            "overhead": median(traced_walls) / median(walls), **extra}


def check_repeats(per_pass: List[Dict[str, float]], checker: Checker
                  ) -> None:
    """Counts are deterministic: every traced pass must read the same."""
    for name, value in per_pass[0].items():
        if isinstance(value, int) and any(p[name] != value
                                          for p in per_pass):
            checker.fail(f"{name} differs between traced passes: "
                         f"{[p[name] for p in per_pass]}")


def check_self_times(trace: Dict[str, Any], wall: float,
                     checker: Checker) -> None:
    if trace["min_self_s"] < -1e-9:         # float rounding only
        checker.fail(f"negative self time {trace['min_self_s']}")
    if trace["sum_self_s"] > wall * (1 + 1e-9):
        checker.fail(f"self times {trace['sum_self_s']} s exceed the traced "
                     f"wall {wall} s")


# ----------------------------------------------------------------------
# warm-cli: fresh `python -m repro` processes against a filled store
# ----------------------------------------------------------------------

def cli(bench: Bench, args: List[str], mode: str = "plain"
        ) -> Tuple[float, int, Dict[str, Any], str]:
    """Run one command; (wall, status, shim output, report dir)."""
    report_dir = bench.path("reports")
    os.makedirs(report_dir)
    full = list(args)
    if args[0] in ("run", "report"):
        full += ["--report-dir", report_dir]
    t_spawn, t_exit, status, out = bench.child("cli_shim.py", [mode] + full)
    if out is None:
        raise BenchError(f"repro {' '.join(args)} wrote no measurements")
    out["setup_s"] = out["t_ready"] - t_spawn
    return t_exit - t_spawn, status, out, report_dir


def read_reports(report_dir: str) -> Dict[str, bytes]:
    reports = {}
    for name in sorted(os.listdir(report_dir)):
        with open(os.path.join(report_dir, name), "rb") as f:
            reports[name[:-len(".json")]] = f.read()
    shutil.rmtree(report_dir, ignore_errors=True)
    return reports


def run_warm(bench: Bench, inputs: Dict[str, Any], seconds: float,
             trace: bool, checker: Checker) -> Dict[str, Any]:
    figures, frontier = inputs["figures"], inputs["frontier"]
    store = bench.path("store")
    cache = ["--cache", store]
    bench.warm_up()
    # Untimed cold fill; its reports are what every warm report must equal.
    _, status, _, cold_dir = cli(
        bench, ["run", *figures, frontier, *cache, "--quiet"])
    cold = read_reports(cold_dir)
    if status != 0 or sorted(cold) != sorted(figures + [frontier]):
        raise BenchError(f"cold fill failed (exit {status})")
    sizes = {}
    for name, data in cold.items():
        wrong = checker.mismatch(name, hashlib.sha256(data).hexdigest())
        if wrong:
            checker.fail(f"cold fill {name}: {wrong}")
        sizes[name] = len(json.loads(data)["scenarios"])
    commands = [
        ["run", *figures, "--expect-cached", *cache],
        ["run", frontier, "--expect-cached", *cache],
        ["report", *figures, *cache],
        ["list"],
    ]

    def round_(mode: str) -> Dict[str, Any]:
        walls, rss, setups, startups, traces, done = [], [], [], [], [], 0
        for args in commands:
            wall, status, out, report_dir = cli(bench, args, mode)
            reports = read_reports(report_dir)
            expected = [n for n in args[1:] if n in sizes]
            walls.append(wall)
            rss.append(out["peak_rss_mb"])
            setups.append(out["setup_s"])
            startups.append(out["startup"])
            error = wrong = None
            if status != 0:
                error = f"exit status {status}"
            elif sorted(reports) != sorted(expected):
                error = f"wrote reports {sorted(reports)}, not {expected}"
            else:
                differ = [n for n in expected if reports[n] != cold[n]]
                if differ:
                    wrong = f"cached reports {differ} differ from cold ones"
            if not checker.record(" ".join(args[:1] + expected), error,
                                  wrong):
                continue
            n = sum(sizes[name] for name in expected)
            done += n
            if mode == "trace":
                out["trace"]["scenarios"] = n
                check_self_times(out["trace"], wall, checker)
                traces.append(out["trace"])
        return {"wall": sum(walls), "rate": done / sum(walls),
                "rss": max(rss), "setups": setups, "startups": startups,
                "traces": traces}

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(round_("plain"))
        if trace:
            traced.append(round_("trace"))
        if time.perf_counter() - start >= seconds:
            break
    shutil.rmtree(store, ignore_errors=True)
    samples = {"setup_s": [s for r in plain for s in r["setups"]],
               "scenarios_per_s": [r["rate"] for r in plain],
               "peak_rss_mb": [r["rss"] for r in plain]}
    if not trace:
        return {"samples": samples}
    per_pass = [layer_metrics(merge_traces(r["traces"])) for r in traced]
    check_repeats(per_pass, checker)
    return {"samples": samples, "per_pass": per_pass,
            "startup": [s for r in plain for s in r["startups"]],
            "overhead": (median([r["wall"] for r in traced])
                         / median([r["wall"] for r in plain])),
            "profile": None,
            "probe": cold_pass(bench, "-", "probe")}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def load_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def end_to_end(samples: Dict[str, List[float]], checker: Checker,
               declared: List[Dict[str, Any]]) -> Dict[str, float]:
    values = {name: median(v) for name, v in samples.items()}
    for m in declared:
        name = m["name"]
        print(f"  {name:<16} {values[name]:>12.6g} {m['unit']:<5} median; "
              f"{tail(samples[name], m['better'])}")
    frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'failed_frac':<16} {frac:>12.6g} ratio {checker.failed} of "
          f"{checker.attempted} operations failed")
    return values


def per_layer(result: Dict[str, Any]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    names = result["per_pass"][0].keys()
    for name in names:
        values[name] = median([p[name] for p in result["per_pass"]])
    for key in ("import_s", "registry_s", "modules_loaded", "numpy_loaded"):
        values[f"startup.{key}"] = median([s[key] for s in result["startup"]])
    for runner, probe in result["probe"]["probes"].items():
        values[f"fused.{runner}.scenario_s"] = probe["scenario_s"]
        values[f"fused.{runner}.events"] = probe["events"]
    self_s = result["profile"]["self_s"] if result["profile"] else {}
    for package in ("sim", "kernels", "comm", "collectives", "fused", "hw"):
        values[f"self_s.{package}"] = self_s.get(package, 0.0)
    values["trace.overhead_ratio"] = result["overhead"]
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    declaration = load_declaration()
    inputs = make_inputs(args.workload, args.seed)
    checker = Checker(args.workload, inputs["variant"])
    bench = Bench()
    try:
        if args.workload == "warm-cli":
            result = run_warm(bench, inputs, args.seconds, bool(args.trace),
                              checker)
        else:
            result = run_cold(bench, args.workload, inputs, args.seconds,
                              bool(args.trace), checker)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    print(f"{args.workload} seed {args.seed} (input variant "
          f"{inputs['variant']}), {len(result['samples']['scenarios_per_s'])}"
          f" passes, trace={args.trace}")
    values = end_to_end(result["samples"], checker,
                        declaration["end_to_end"])
    declared = declaration["end_to_end"]
    if args.trace:
        declared = declaration["per_layer"]
        values = per_layer(result)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    if args.trace:
        for m in declared:
            print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    for note in checker.notes:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
