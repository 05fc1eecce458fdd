"""Spec-layer tests: grids, canonicalization, and hash stability.

The content-addressed store only works if a spec's key is *stable* —
identical across param orderings, processes, and machines — and
*sensitive* — any changed field yields a new key.  Both properties are
pinned here, including a subprocess check for cross-process stability.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import (
    SCHEMA_VERSION,
    ScenarioSpec,
    SweepSpec,
    ensure_registered,
    grid_params,
    list_sweeps,
    scenario,
    zip_params,
)


def test_grid_params_cartesian_order():
    combos = grid_params(batch=(1, 2), tables=(64, 256))
    assert combos == [
        {"batch": 1, "tables": 64}, {"batch": 1, "tables": 256},
        {"batch": 2, "tables": 64}, {"batch": 2, "tables": 256},
    ]


def test_grid_params_scalar_broadcast():
    assert grid_params(batch=(1, 2), world=4) == [
        {"batch": 1, "world": 4}, {"batch": 2, "world": 4}]


def test_zip_params():
    assert zip_params(batch=(512, 1024), tables=(64, 256)) == [
        {"batch": 512, "tables": 64}, {"batch": 1024, "tables": 256}]
    with pytest.raises(ValueError):
        zip_params(a=(1, 2), b=(1, 2, 3))


def test_params_canonical_under_ordering():
    a = scenario("r", x=1, y=2)
    b = scenario("r", y=2, x=1)
    assert a == b
    assert a.key() == b.key()
    assert hash(a) == hash(b)


def test_params_must_be_jsonable():
    with pytest.raises(TypeError):
        scenario("r", bad=object())


def test_key_sensitivity():
    base = scenario("r", x=1, y=2)
    assert base.key() != scenario("r", x=1, y=3).key()        # value change
    assert base.key() != scenario("r", x=1).key()             # field removed
    assert base.key() != scenario("r2", x=1, y=2).key()       # runner change
    assert base.key() != scenario("r", x=1, y=2, z=0).key()   # field added


def test_label_excluded_from_key():
    assert (scenario("r", label="a", x=1).key()
            == scenario("r", label="b", x=1).key())


def test_with_params_overrides():
    spec = scenario("r", x=1, y=2)
    bumped = spec.with_params(y=3)
    assert bumped.params == {"x": 1, "y": 3}
    assert bumped.key() != spec.key()
    assert spec.params == {"x": 1, "y": 2}      # original untouched


def test_stable_seed_deterministic_and_distinct():
    a = scenario("r", x=1)
    assert a.stable_seed() == scenario("r", x=1).stable_seed()
    assert a.stable_seed() != scenario("r", x=2).stable_seed()
    assert 0 <= a.stable_seed() < 2 ** 64


def test_key_stable_across_processes():
    """Same spec hashed in a fresh interpreter yields the same key."""
    spec = scenario("embedding_a2a_pair", label="x",
                    global_batch=1024, tables_per_gpu=64,
                    num_nodes=2, gpus_per_node=1)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    code = (
        "from repro.experiments import scenario;"
        "print(scenario('embedding_a2a_pair', label='other',"
        " global_batch=1024, tables_per_gpu=64, num_nodes=2,"
        " gpus_per_node=1).key())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == spec.key()


def test_sweep_key_covers_scenarios_and_assembly():
    def make(**kw):
        defaults = dict(name="s", title="T",
                        scenarios=[scenario("r", label="a", x=1)],
                        assembler="rows")
        defaults.update(kw)
        return SweepSpec.make(**defaults)

    base = make()
    assert base.key() == make().key()
    assert base.key() != make(scenarios=[scenario("r", label="a", x=2)]).key()
    assert base.key() != make(assembler="table").key()
    assert base.key() != make(figure="Fig. 1").key()   # assembler params


def test_schema_version_feeds_key(monkeypatch):
    spec = scenario("r", x=1)
    before = spec.key()
    monkeypatch.setattr("repro.experiments.specs.SCHEMA_VERSION",
                        SCHEMA_VERSION + 1)
    assert spec.key() != before


def _record_hash(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_keys_equal_the_canonical_record_hash():
    """``key()`` splices ``params_json`` into the hashed text; every
    registered scenario and sweep must still hash exactly the canonical
    JSON of its key record."""
    ensure_registered()
    mismatches = []
    for sweep in list_sweeps():
        scenario_keys = []
        for spec in sweep.scenarios:
            expected = _record_hash({"schema": SCHEMA_VERSION,
                                     "runner": spec.runner,
                                     "params": json.loads(spec.params_json)})
            scenario_keys.append(expected)
            if spec.key() != expected:
                mismatches.append((sweep.name, spec.label))
        expected = _record_hash({
            "schema": SCHEMA_VERSION,
            "name": sweep.name,
            "assembler": sweep.assembler,
            "assembler_params": json.loads(sweep.assembler_params_json),
            "scenarios": scenario_keys,
        })
        if sweep.key() != expected:
            mismatches.append((sweep.name, None))
    assert not mismatches
