"""Unit tests for the trace recorder."""

import pytest

from repro.sim import NULL_TRACE, TraceRecorder


def make_trace():
    tr = TraceRecorder()
    tr.record(0.0, "kernel_launch", "gpu0")
    tr.record(0.0, "wg_start", "gpu0/wg0", task=0)
    tr.record(1.0, "wg_end", "gpu0/wg0", task=0)
    tr.record(1.0, "put_issue", "gpu0/wg0", nbytes=128, dest=1)
    tr.record(1.0, "wg_start", "gpu0/wg0", task=1)
    tr.record(2.5, "wg_end", "gpu0/wg0", task=1)
    tr.record(0.0, "wg_start", "gpu0/wg1", task=2)
    tr.record(3.0, "wg_end", "gpu0/wg1", task=2)
    tr.record(3.0, "kernel_end", "gpu0")
    return tr


def test_record_and_len():
    tr = make_trace()
    assert len(tr) == 9


def test_disabled_recorder_drops_events():
    tr = TraceRecorder(enabled=False)
    tr.record(0.0, "wg_start", "x")
    assert len(tr) == 0


def test_filter_by_kind():
    tr = make_trace()
    puts = tr.filter(kind="put_issue")
    assert len(puts) == 1
    assert puts[0].detail["nbytes"] == 128


def test_filter_by_actor():
    tr = make_trace()
    assert len(tr.filter(actor="gpu0/wg1")) == 2


def test_filter_by_predicate():
    tr = make_trace()
    late = tr.filter(predicate=lambda ev: ev.time >= 2.5)
    assert {ev.kind for ev in late} == {"wg_end", "kernel_end"}


def test_actors_in_first_seen_order():
    tr = make_trace()
    assert tr.actors() == ["gpu0", "gpu0/wg0", "gpu0/wg1"]


def test_spans_stitching():
    tr = make_trace()
    spans = tr.spans("wg", actor="gpu0/wg0")
    assert [(s.start, s.end) for s in spans] == [(0.0, 1.0), (1.0, 2.5)]
    assert spans[0].duration == 1.0
    assert spans[0].detail["task"] == 0


def test_spans_kernel():
    tr = make_trace()
    [k] = tr.spans("kernel")
    assert (k.start, k.end) == (0.0, 3.0)


def test_spans_unknown_kind_raises():
    tr = make_trace()
    with pytest.raises(KeyError):
        tr.spans("nope")


def test_unmatched_open_span_dropped():
    tr = TraceRecorder()
    tr.record(0.0, "wg_start", "a")
    assert tr.spans("wg") == []


def test_unmatched_trailing_start_after_closed_spans():
    """A start with no end (sim ended mid-span) is dropped, but every
    previously closed span of the same actor is still returned."""
    tr = TraceRecorder()
    tr.record(0.0, "wg_start", "a", task=0)
    tr.record(1.0, "wg_end", "a", task=0)
    tr.record(1.0, "wg_start", "a", task=1)  # trailing, never closed
    spans = tr.spans("wg")
    assert [(s.start, s.end) for s in spans] == [(0.0, 1.0)]
    assert spans[0].detail["task"] == 0
    # Other actors' spans are unaffected by a's dangling start.
    tr.record(2.0, "wg_start", "b")
    tr.record(3.0, "wg_end", "b")
    assert [(s.start, s.end) for s in tr.spans("wg")] == [(0.0, 1.0),
                                                          (2.0, 3.0)]


def test_reentrant_starts_nest_lifo():
    """Regression: a second start before the first end used to clobber the
    outer open span — LIFO matching must return both."""
    tr = TraceRecorder()
    tr.record(0.0, "wg_start", "a", task=0)
    tr.record(1.0, "wg_start", "a", task=1)   # re-entrant inner span
    tr.record(2.0, "wg_end", "a")
    tr.record(3.0, "wg_end", "a")
    spans = tr.spans("wg")
    assert [(s.start, s.end) for s in spans] == [(1.0, 2.0), (0.0, 3.0)]
    assert spans[0].detail["task"] == 1
    assert spans[1].detail["task"] == 0


def test_reentrant_starts_isolated_per_actor():
    tr = TraceRecorder()
    tr.record(0.0, "wg_start", "a", task=0)
    tr.record(0.5, "wg_start", "b", task=9)
    tr.record(1.0, "wg_start", "a", task=1)
    tr.record(2.0, "wg_end", "a")
    tr.record(2.5, "wg_end", "b")
    tr.record(3.0, "wg_end", "a")
    assert [(s.actor, s.start, s.end) for s in tr.spans("wg")] == [
        ("a", 1.0, 2.0), ("b", 0.5, 2.5), ("a", 0.0, 3.0)]


def test_null_trace_is_disabled_and_inert():
    assert not NULL_TRACE.enabled
    NULL_TRACE.record(0.0, "wg_start", "x", task=1)
    assert len(NULL_TRACE) == 0


def test_null_trace_cannot_be_enabled():
    with pytest.raises(ValueError):
        NULL_TRACE.enabled = True
    assert not NULL_TRACE.enabled


def test_render_timeline_contains_rows_and_markers():
    tr = make_trace()
    out = tr.render_timeline(actors=["gpu0/wg0", "gpu0/wg1"], width=40)
    lines = out.splitlines()
    assert lines[0].startswith("gpu0/wg0")
    assert "#" in lines[0]
    assert "P" in lines[0]  # the put marker
    assert "#" in lines[1]


def test_render_empty_trace():
    tr = TraceRecorder()
    assert tr.render_timeline() == "(empty trace)"


def test_render_single_event_clamps_to_one_column():
    """A single event gives the timeline zero extent: everything lands in
    column 0 instead of dividing by a fake epsilon."""
    tr = TraceRecorder()
    tr.record(1.5, "put_issue", "a")
    out = tr.render_timeline(width=40)
    row = out.splitlines()[0]
    body = row[row.index("|") + 1:row.rindex("|")]
    assert body[0] == "P"
    assert set(body[1:]) <= {" "}


def test_render_zero_duration_span_single_column():
    """All events at one timestamp (zero-extent trace): the span renders
    as a single '#' column, not a misleading full-width bar."""
    tr = TraceRecorder()
    tr.record(2.0, "wg_start", "a", task=0)
    tr.record(2.0, "wg_end", "a")
    out = tr.render_timeline(width=40)
    row = out.splitlines()[0]
    body = row[row.index("|") + 1:row.rindex("|")]
    assert body[0] == "#"
    assert set(body[1:]) <= {" "}


def test_render_zero_duration_span_in_nonzero_trace():
    """A zero-duration span inside a trace with real extent still paints
    exactly one column at its position."""
    tr = TraceRecorder()
    tr.record(0.0, "kernel_launch", "gpu")
    tr.record(5.0, "wg_start", "a")
    tr.record(5.0, "wg_end", "a")
    tr.record(10.0, "kernel_end", "gpu")
    out = tr.render_timeline(actors=["a"], width=41)
    row = out.splitlines()[0]
    body = row[row.index("|") + 1:row.rindex("|")]
    assert body.count("#") == 1
    assert body[20] == "#"  # t=5 of [0, 10] at width 41 -> column 20


def test_render_timeline_matches_span_and_marker_queries():
    """The one-pass renderer draws exactly what stitching ``spans()`` and
    ``filter()`` per actor draws: nested and unmatched spans, markers on
    top of spans, duplicate and absent actors."""
    import random

    rng = random.Random(11)
    tr = TraceRecorder()
    actors = ["a", "b", "c"]
    for _ in range(300):
        kind = rng.choice(["wg_start", "wg_end", "put_issue", "flag_set"])
        tr.record(rng.uniform(0.0, 10.0), kind, rng.choice(actors))
    chosen = ["b", "a", "b", "zz"]
    width = 57
    t0 = min(ev.time for ev in tr.events)
    extent = max(ev.time for ev in tr.events) - t0

    def col(t):
        return min(width - 1, int((t - t0) / extent * (width - 1)))

    expected = []
    for a in chosen:
        row = [" "] * width
        for sp in tr.spans("wg", actor=a):
            for c in range(col(sp.start), col(sp.end) + 1):
                row[c] = "#"
        for ev in tr.filter(kind="put_issue", actor=a):
            row[col(ev.time)] = "P"
        expected.append(f"{a:<3}|{''.join(row)}|")
    out = tr.render_timeline(actors=chosen, width=width).splitlines()
    assert out[:len(chosen)] == expected


def test_render_timeline_unknown_span_kind():
    with pytest.raises(KeyError, match="unknown span kind"):
        make_trace().render_timeline(span_kind="nope")


def test_clear():
    tr = make_trace()
    tr.clear()
    assert len(tr) == 0
