"""Capture the reference report digests in ``perfbench/references.json``.

    python3 perfbench/refs.py

Runs every input variant of every workload once, untimed, and records the
sha256 of each sweep report.  Operations that raise (the known defects in
``inputs.KNOWN_FAILURES``) get no digest.  Re-capture only in a change that
deliberately alters report bytes, and say so in that change.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

from inputs import (  # noqa: E402
    VARIANTS,
    WARM_FIGURE_POOL,
    WARM_FRONTIER,
    make_inputs,
)
from run import REFERENCES, Bench, cli, cold_pass, read_reports  # noqa: E402


def capture_cold(bench: Bench, workload: str) -> dict:
    digests = {}
    for variant in range(VARIANTS):
        path = bench.path("inputs") + ".json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(make_inputs(workload, variant), f)
        out = cold_pass(bench, path, "plain")
        digests[str(variant)] = {o["op"]: o["sha256"] for o in out["ops"]
                                 if o["error"] is None}
        print(f"{workload} variant {variant}: {len(digests[str(variant)])}"
              f" reports", file=sys.stderr)
    return digests


def capture_warm(bench: Bench) -> dict:
    names = WARM_FIGURE_POOL + [WARM_FRONTIER]
    _, status, _, report_dir = cli(
        bench, ["run", *names, "--cache", bench.path("store"), "--quiet"])
    if status != 0:
        raise SystemExit(f"cold fill of {names} exited {status}")
    by_name = {name: hashlib.sha256(data).hexdigest()
               for name, data in read_reports(report_dir).items()}
    return {str(v): {n: by_name[n]
                     for n in make_inputs("warm-cli", v)["figures"]
                     + [WARM_FRONTIER]}
            for v in range(VARIANTS)}


def main() -> int:
    bench = Bench()
    try:
        bench.warm_up()
        digests = {"des-cold": capture_cold(bench, "des-cold"),
                   "analytic-cold": capture_cold(bench, "analytic-cold"),
                   "warm-cli": capture_warm(bench)}
    finally:
        bench.close()
    with open(REFERENCES, "w", encoding="utf-8") as f:
        json.dump({"variants": VARIANTS, "digests": digests}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.relpath(REFERENCES)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
