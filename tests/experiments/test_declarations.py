"""Sweep declarations: ``repro list`` without building, sweeps built on
demand, and a warm CLI that never loads the simulation stack.

The ``list`` goldens were captured from the tree that still built every
sweep at import, so they pin the listing *and* every sweep/mega key.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import registry
from repro.experiments.cli import main
from repro.experiments.sweeps import BUILTIN_SWEEPS

DATA = Path(__file__).parent / "data"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a warm command must leave unloaded.
HEAVY = ("numpy", "repro.fused", "repro.experiments.figures")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this tree (empty in-process registry)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, check=False)


@pytest.mark.parametrize("args, golden", [
    ((), "golden_list.txt"),
    (("--json",), "golden_list.json"),
])
def test_list_output_byte_identical_to_golden(args, golden):
    proc = _python("-m", "repro", "list", *args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / golden).read_bytes()


@pytest.mark.parametrize("decl", BUILTIN_SWEEPS, ids=lambda d: d.name)
def test_declaration_matches_built_sweep(decl):
    built = registry.get_sweep(decl.name)
    assert registry.DECLARED[decl.name] is decl
    assert (decl.name, decl.title, decl.description, decl.assembler,
            decl.scenarios) == (built.name, built.title, built.description,
                                built.assembler, len(built))
    assert decl.figure == built.assembler_params["figure"]


def test_get_sweep_builds_only_the_requested_sweep():
    code = ("from repro.experiments import registry;"
            "registry.get_sweep('fig9');"
            "print(sorted(registry.SWEEPS), len(registry.DECLARED))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == [
        "['fig9']", str(len(BUILTIN_SWEEPS))]


def test_user_sweep_is_declared_on_registration():
    from repro.experiments import SweepSpec, register_sweep, scenario
    spec = SweepSpec.make(
        "test-declared", "T", [scenario("gemv_allreduce_pair", label="a",
                                        m=8192, n_per_gpu=2048)],
        assembler="rows", figure="Fig", description="d")
    try:
        register_sweep(spec)
        decl = registry.DECLARED["test-declared"]
        assert (decl.title, decl.figure, decl.assembler, len(decl)) == (
            "T", "Fig", "rows", 1)
        assert registry.get_sweep("test-declared") is spec
        assert decl in registry.list_declarations()
        with pytest.raises(ValueError, match="already registered"):
            register_sweep(spec)
        with pytest.raises(ValueError, match="already registered"):
            register_sweep(registry.get_sweep("fig9"))
    finally:
        registry.DECLARED.pop("test-declared", None)
        registry.SWEEPS.pop("test-declared", None)


def test_warm_commands_load_no_simulation_stack(tmp_path):
    cache = str(tmp_path / "cache")
    sweeps = ["dse-smoke", "table2", "dse-mega-smoke"]
    assert main(["run", *sweeps, "--cache", cache, "--quiet"]) == 0
    code = f"""
import json, sys
from repro.experiments.cli import main
cache = {cache!r}
status = [main(["list"]),
          main(["report", *{sweeps!r}, "--cache", cache, "--quiet"]),
          main(["run", *{sweeps!r}, "--cache", cache, "--quiet",
                "--expect-cached"])]
print(json.dumps([status, [m for m in {HEAVY!r} if m in sys.modules]]))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    status, loaded = json.loads(proc.stdout.decode().splitlines()[-1])
    assert status == [0, 0, 0]
    assert loaded == []
