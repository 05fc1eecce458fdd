"""Structured trace recording for simulated executions.

The paper's Fig. 11 profiles the persistent-workgroup timeline of the fused
embedding + All-to-All kernel — when each logical WG starts/finishes, when
the non-blocking remote PUTs are issued, and when WGs wait on ``sliceRdy``
flags.  :class:`TraceRecorder` captures exactly those record types and can
render them as a text timeline or export series for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["TraceEvent", "TraceRecorder", "Span", "NULL_TRACE"]


@dataclass(frozen=True)
class TraceEvent:
    """A single timestamped record.

    Attributes:
        time: simulation time in seconds.
        kind: record type, e.g. ``"wg_start"``, ``"wg_end"``, ``"put_issue"``,
            ``"flag_set"``, ``"wait_start"``, ``"wait_end"``,
            ``"kernel_launch"``, ``"kernel_end"``.
        actor: who produced it (e.g. ``"gpu0/wg3"``).
        detail: free-form payload (slice id, byte counts, destinations...).
    """

    time: float
    kind: str
    actor: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Span:
    """A closed interval reconstructed from start/end trace events."""

    start: float
    end: float
    actor: str
    kind: str
    detail: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Append-only store of :class:`TraceEvent` with simple queries."""

    #: Pairs of (start-kind, end-kind) that `spans()` knows how to stitch.
    SPAN_KINDS = {
        "wg": ("wg_start", "wg_end"),
        "wait": ("wait_start", "wait_end"),
        "kernel": ("kernel_launch", "kernel_end"),
        "comm": ("comm_start", "comm_end"),
    }

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(self, time: float, kind: str, actor: str, **detail: Any) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(time, kind, actor, detail))

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -- queries ------------------------------------------------------------
    def filter(self, kind: Optional[str] = None, actor: Optional[str] = None,
               predicate: Optional[Callable[[TraceEvent], bool]] = None,
               ) -> list[TraceEvent]:
        out = []
        for ev in self.events:
            if kind is not None and ev.kind != kind:
                continue
            if actor is not None and ev.actor != actor:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def actors(self) -> list[str]:
        seen: dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.actor, None)
        return list(seen)

    def _span_kinds(self, which: str) -> tuple[str, str]:
        if which not in self.SPAN_KINDS:
            raise KeyError(f"unknown span kind {which!r}; "
                           f"choose from {sorted(self.SPAN_KINDS)}")
        return self.SPAN_KINDS[which]

    def spans(self, which: str, actor: Optional[str] = None) -> list[Span]:
        """Stitch start/end event pairs into :class:`Span` objects.

        Events are matched per-actor with a stack, so re-entrant starts
        nest: a second ``wg_start`` before the first's ``wg_end`` opens an
        inner span and the outer one still closes against its own end
        (LIFO matching).  Unmatched trailing starts are dropped (the
        simulation ended mid-span).
        """
        start_kind, end_kind = self._span_kinds(which)
        open_by_actor: dict[str, list[TraceEvent]] = {}
        out: list[Span] = []
        for ev in self.events:
            if actor is not None and ev.actor != actor:
                continue
            if ev.kind == start_kind:
                open_by_actor.setdefault(ev.actor, []).append(ev)
            elif ev.kind == end_kind:
                stack = open_by_actor.get(ev.actor)
                if stack:
                    st = stack.pop()
                    detail = dict(st.detail)
                    detail.update(ev.detail)
                    out.append(Span(st.time, ev.time, ev.actor, which, detail))
        return out

    # -- rendering ------------------------------------------------------------
    def render_timeline(self, actors: Optional[Iterable[str]] = None,
                        width: int = 80, span_kind: str = "wg",
                        marker_kind: str = "put_issue") -> str:
        """ASCII timeline: one row per actor, ``#`` spans, ``P`` markers.

        This is the textual analogue of the paper's Fig. 11.
        """
        actor_list = list(actors) if actors is not None else self.actors()
        if not self.events or not actor_list:
            return "(empty trace)"
        t0 = min(ev.time for ev in self.events)
        t1 = max(ev.time for ev in self.events)
        extent = t1 - t0

        def col(t: float) -> int:
            # A zero-extent trace (single event, or every event sharing one
            # timestamp) has no scale: clamp everything to a single column
            # instead of dividing by a fake epsilon extent.
            if extent <= 0.0:
                return 0
            return min(width - 1, int((t - t0) / extent * (width - 1)))

        start_kind, end_kind = self._span_kinds(span_kind)
        # One pass over the records, for the requested actors only: spans
        # are stitched per actor with a stack of open start times (LIFO, as
        # in :meth:`spans`); markers are drawn after every span.
        rows = {a: [" "] * width for a in actor_list}
        open_starts: dict[str, list[float]] = {a: [] for a in rows}
        markers: list[tuple[list[str], float]] = []
        for ev in self.events:
            row = rows.get(ev.actor)
            if row is None:
                continue
            kind = ev.kind
            if kind == start_kind:
                open_starts[ev.actor].append(ev.time)
            elif kind == end_kind:
                stack = open_starts[ev.actor]
                if stack:
                    for c in range(col(stack.pop()), col(ev.time) + 1):
                        row[c] = "#"
            if kind == marker_kind:
                markers.append((row, ev.time))
        for row, t in markers:
            row[col(t)] = "P"
        lines = []
        label_w = max(len(a) for a in actor_list) + 1
        for a in actor_list:
            lines.append(f"{a:<{label_w}}|{''.join(rows[a])}|")
        lines.append(f"{'':<{label_w}}|{'-' * width}|")
        lines.append(f"{'':<{label_w}} t0={t0:.3e}s  t1={t1:.3e}s")
        return "\n".join(lines)


class _NullTraceRecorder(TraceRecorder):
    """A permanently-disabled recorder whose ``record`` is a true no-op.

    Shared as the module-level :data:`NULL_TRACE` singleton by every
    component that is constructed without an explicit trace — one object for
    the whole process instead of a fresh disabled ``TraceRecorder`` per GPU,
    and zero per-record work on the hot path.  Do not enable it; pass a real
    :class:`TraceRecorder` where tracing is wanted.
    """

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        if value:
            raise ValueError(
                "NULL_TRACE cannot be enabled; pass a TraceRecorder() "
                "instance where tracing is wanted")

    def record(self, time: float, kind: str, actor: str,
               **detail: Any) -> None:
        return None


#: Process-wide disabled trace recorder (see :class:`_NullTraceRecorder`).
NULL_TRACE = _NullTraceRecorder(enabled=False)
