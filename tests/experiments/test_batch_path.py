"""The vectorized batch fast path inside ``run_sweep``: byte-identical
reports, unchanged cache records, and the ``REPRO_BATCH`` opt-out."""

import pytest

from repro.experiments import execution
from repro.experiments.execution import batch_enabled, run_sweep
from repro.experiments.figures import dse_smoke_sweep, smoke_sweep
from repro.experiments.report import report_json
from repro.experiments.specs import sweep_with_backend
from repro.experiments.store import ResultStore


def test_batch_enabled_env_toggle(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    assert batch_enabled()
    monkeypatch.setenv("REPRO_BATCH", "0")
    assert not batch_enabled()
    monkeypatch.setenv("REPRO_BATCH", "1")
    assert batch_enabled()


def test_batch_and_scalar_sweep_reports_are_byte_identical(tmp_path,
                                                           monkeypatch):
    sweep = dse_smoke_sweep()

    monkeypatch.setenv("REPRO_BATCH", "0")
    scalar_store = ResultStore(tmp_path / "scalar")
    scalar = run_sweep(sweep, store=scalar_store)

    monkeypatch.setenv("REPRO_BATCH", "1")
    batch_store = ResultStore(tmp_path / "batch")
    batch = run_sweep(sweep, store=batch_store)

    assert report_json(scalar.report()) == report_json(batch.report())
    # The store records themselves are byte-identical too: same keys,
    # same payload bytes.
    scalar_records = dict(scalar_store.items())
    batch_records = dict(batch_store.items())
    for spec in sweep.scenarios:
        assert scalar_records[spec.key()] == batch_records[spec.key()]
    assert scalar_records == batch_records


def test_batch_path_actually_covers_analytic_misses(monkeypatch):
    # With the scalar executor disabled, an analytic sweep must still
    # complete — proof the batch engine served every miss.
    def boom(spec):
        raise AssertionError(f"scalar path reached for {spec.runner}")

    monkeypatch.setattr(execution, "run_scenario", boom)
    run = run_sweep(dse_smoke_sweep(), store=None)
    assert run.executed == len(run.sweep)
    assert all(o.result["fused_time"] > 0 for o in run.outcomes)


def test_sim_scenarios_never_take_the_batch_path(monkeypatch):
    # The default-backend smoke sweep must keep using the scalar path
    # even with batching on (its scenarios are DES scenarios).
    called = []
    original = execution._run_batch_misses

    def spy(sweep, misses):
        called.append(list(misses))
        return original(sweep, misses)

    monkeypatch.setattr(execution, "_run_batch_misses", spy)
    run = run_sweep(smoke_sweep(), store=None)
    assert run.executed == len(run.sweep)
    assert called and called[0]          # invoked, but covered nothing:
    # every miss fell through to the scalar executor.


def test_opt_out_matches_batch_results(monkeypatch):
    sweep = sweep_with_backend(smoke_sweep(), "analytic")
    monkeypatch.setenv("REPRO_BATCH", "1")
    a = run_sweep(sweep, store=None)
    monkeypatch.setenv("REPRO_BATCH", "0")
    b = run_sweep(sweep, store=None)
    assert [o.result for o in a.outcomes] == [o.result for o in b.outcomes]


def test_batch_path_preserves_validation_errors():
    from repro.experiments.specs import scenario, SweepSpec
    bad = scenario("embedding_a2a_pair", label="bad",
                   global_batch=100, tables_per_gpu=16, num_nodes=2,
                   gpus_per_node=1, slice_vectors=32).with_backend("analytic")
    ok = scenario("embedding_a2a_pair", label="ok",
                  global_batch=256, tables_per_gpu=16, num_nodes=2,
                  gpus_per_node=1).with_backend("analytic")
    sweep = SweepSpec.make("bad-batch", "Bad", [ok, bad], assembler="rows")
    with pytest.raises(ValueError):
        run_sweep(sweep, store=None)
