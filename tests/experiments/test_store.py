"""Content-addressed store tests: round-trips, misses, robustness."""

import json
import multiprocessing

import pytest

from repro.bench.harness import FigureResult, Row
from repro.experiments import ResultStore, scenario
from repro.experiments.figures import table1_sweep
from repro.obs.metrics import MetricsRegistry, enable_metrics, reset_metrics


def test_put_get_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = scenario("r", label="a", x=1)
    assert store.get(spec) is None
    record = store.put(spec, {"elapsed": 0.25})
    assert store.get(spec) == {"elapsed": 0.25}
    assert record["key"] == spec.key()
    assert record["params"] == {"x": 1}
    assert len(store) == 1


def test_layout_is_one_sqlite_file(tmp_path):
    store = ResultStore(tmp_path)
    spec = scenario("r", x=1)
    store.put(spec, {"v": 1})
    assert store.path == tmp_path / "records.sqlite"
    assert store.path.is_file()
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]
    [(key, text)] = store.items()
    assert key == spec.key()
    # Record text is canonical JSON: sorted keys, no whitespace.
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"))
    assert json.loads(text)["result"] == {"v": 1}


def test_reading_a_missing_store_creates_nothing(tmp_path):
    root = tmp_path / "absent"
    store = ResultStore(root)
    assert store.get(scenario("r", x=1)) is None
    assert store.get_sweep(table1_sweep(name="t1-absent")) is None
    assert len(store) == 0
    assert list(store.keys()) == []
    assert list(store.items()) == []
    assert store.clear() == 0
    assert not root.exists()


def test_put_overwrites(tmp_path):
    store = ResultStore(tmp_path)
    spec = scenario("r", x=1)
    store.put(spec, {"v": 1})
    store.put(spec, {"v": 2})
    store.put_many([(spec, {"v": 3})])
    assert store.get(spec) == {"v": 3}
    assert len(store) == 1


def test_put_many_matches_put_byte_for_byte(tmp_path):
    specs = [scenario("r", label=f"p{i}", x=i) for i in range(5)]
    one, many = ResultStore(tmp_path / "one"), ResultStore(tmp_path / "many")
    for i, spec in enumerate(specs):
        one.put(spec, {"v": i})
    many.put_many((spec, {"v": i}) for i, spec in enumerate(specs))
    assert list(many.items()) == list(one.items())
    assert [many.get(s) for s in specs] == [{"v": i} for i in range(5)]


def test_different_specs_do_not_collide(tmp_path):
    store = ResultStore(tmp_path)
    a, b = scenario("r", x=1), scenario("r", x=2)
    store.put(a, {"v": "a"})
    store.put(b, {"v": "b"})
    assert store.get(a) == {"v": "a"}
    assert store.get(b) == {"v": "b"}


# -- fault injection: every bad row is a miss and counts as corrupt --------

@pytest.fixture
def metrics():
    registry = enable_metrics(MetricsRegistry())
    try:
        yield registry
    finally:
        reset_metrics()


def _tamper(store, key, text):
    store._write_rows([(key, text)])


def test_clean_reads_count_no_corruption(tmp_path, metrics):
    store = ResultStore(tmp_path)
    spec = scenario("r", x=1)
    store.put(spec, {"v": 1})
    assert store.get(spec) == {"v": 1}
    assert store.get(scenario("r", x=2)) is None
    assert "store.corrupt" not in metrics.counters


def test_corrupted_record_is_a_miss(tmp_path, metrics):
    store = ResultStore(tmp_path)
    spec = scenario("r", x=1)
    store.put(spec, {"v": 1})
    [(key, text)] = store.items()
    _tamper(store, key, text[:len(text) // 2])
    assert store.get(spec) is None
    assert metrics.counters["store.corrupt"] == 1


def test_wrong_key_record_is_a_miss(tmp_path, metrics):
    store = ResultStore(tmp_path)
    spec, other = scenario("r", x=1), scenario("r", x=2)
    record = store.put(other, {"v": 2})
    _tamper(store, spec.key(), json.dumps(record))
    assert store.get(spec) is None
    assert store.get(other) == {"v": 2}
    assert metrics.counters["store.corrupt"] == 1


def test_wrong_schema_record_is_a_miss(tmp_path, metrics):
    store = ResultStore(tmp_path)
    spec = scenario("r", x=1)
    record = store.put(spec, {"v": 1})
    record["schema"] = "repro.experiments.record/v0"
    _tamper(store, spec.key(), json.dumps(record))
    assert store.get(spec) is None
    assert metrics.counters["store.corrupt"] == 1


def test_runner_mismatch_is_a_miss(tmp_path, metrics):
    """A hash collision across runners (or a tampered row) never serves
    the wrong runner's payload."""
    store = ResultStore(tmp_path)
    spec = scenario("r", x=1)
    record = store.put(spec, {"v": 1})
    record["runner"] = "other"
    _tamper(store, spec.key(), json.dumps(record))
    assert store.get(spec) is None
    assert metrics.counters["store.corrupt"] == 1


def test_wrong_sweep_record_is_a_miss(tmp_path, metrics):
    store = ResultStore(tmp_path)
    sweep = table1_sweep(name="t1-tamper")
    record = store.put_sweep(sweep, {"title": "Table I"})
    record["sweep"] = "another-sweep"
    _tamper(store, sweep.key(), json.dumps(record))
    assert store.get_sweep(sweep) is None
    assert metrics.counters["store.corrupt"] == 1


# -- concurrent writers ------------------------------------------------------

_ROUNDS = 5


def _racing_writer(root, tag, lo, hi, barrier):
    store = ResultStore(root)
    barrier.wait(timeout=60)
    for _ in range(_ROUNDS):
        store.put_many((scenario("r", x=i), {"writer": tag})
                       for i in range(lo, hi))
    store.close()


def test_racing_writers_keep_every_row_whole(tmp_path):
    root = tmp_path / "cache"
    ranges = {"a": (0, 400), "b": (200, 600)}
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(len(ranges))
    procs = [ctx.Process(target=_racing_writer,
                         args=(str(root), tag, lo, hi, barrier))
             for tag, (lo, hi) in ranges.items()]
    for p in procs:
        p.start()
    try:
        for p in procs:
            p.join(timeout=120)
        assert not any(p.is_alive() for p in procs)
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
    assert [p.exitcode for p in procs] == [0, 0]

    store = ResultStore(root)
    for key, text in store.items():
        record = json.loads(text)
        assert record["key"] == key
    assert len(store) == 600
    for x in range(600):
        writers = {tag for tag, (lo, hi) in ranges.items() if lo <= x < hi}
        assert store.get(scenario("r", x=x))["writer"] in writers


def test_clear_and_keys(tmp_path):
    store = ResultStore(tmp_path)
    specs = [scenario("r", x=i) for i in range(3)]
    for s in specs:
        store.put(s, {"v": 1})
    assert sorted(store.keys()) == sorted(s.key() for s in specs)
    assert store.clear() == 3
    assert len(store) == 0


def test_sweep_record_payload_is_figure_json(tmp_path):
    """The sweep-level record stores the FigureResult JSON export."""
    store = ResultStore(tmp_path)
    sweep = table1_sweep(name="t1-store-test")
    fig = FigureResult("Table I", "demo")
    fig.add(Row("a", 1.0, 2.0))
    fig.extra["k"] = "v"
    store.put_sweep(sweep, fig.to_json_dict())
    payload = store.get_sweep(sweep)
    restored = FigureResult.from_json_dict(payload)
    assert restored.to_json_dict() == fig.to_json_dict()
    assert restored.rows[0].normalized == 0.5
