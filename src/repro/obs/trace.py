"""Span-based tracing with a ring buffer and JSONL / Chrome exporters.

A :class:`TraceRecorder` collects *events* — plain JSON-safe dicts — into
a bounded ``collections.deque``.  Spans are recorded with context
managers (``with recorder.span("compile_ball", center=3): ...``) and
point occurrences with :meth:`TraceRecorder.instant`.  Every event
carries a ``trace`` id shared by the whole run plus ``span``/``parent``
ids, so events gathered on other processes or other machines (shipped
back as dicts and merged with :meth:`TraceRecorder.absorb`) stitch into
one timeline.

Determinism contract: ids come from :func:`os.urandom` and timestamps
from :func:`time.time`/:func:`time.perf_counter` — tracing never touches
NumPy RNG state, so traced runs are bit-identical to untraced runs.

Wall-clock timestamps (``ts``) are epoch seconds, comparable across
processes on one host; durations (``dur``) come from the monotonic
performance counter.  The Chrome exporter emits ``trace_event`` JSON
loadable in ``chrome://tracing`` / Perfetto, with one process row per
originating pid.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "TraceContext",
    "TraceRecorder",
    "new_id",
    "validate_event",
    "validate_events",
    "chrome_trace",
    "summarize",
    "EVENT_FIELDS",
]

#: Event schema: required field name -> accepted types.  ``parent`` may be
#: ``None`` (a root span); everything else is mandatory and typed.  The CI
#: trace smoke validates exported traces against exactly this table.
EVENT_FIELDS = {
    "name": str,
    "cat": str,
    "trace": str,
    "span": str,
    "parent": (str, type(None)),
    "ts": float,
    "dur": float,
    "pid": int,
    "tid": int,
    "proc": str,
    "attrs": dict,
}

#: Wire-format version for trace contexts shipped across process/cluster
#: boundaries.  Receivers ignore contexts with an unknown version, so the
#: field can evolve without breaking old peers.
WIRE_VERSION = 1


def new_id() -> str:
    """A 16-hex-digit random id (os.urandom — never the sampling RNG)."""
    return os.urandom(8).hex()


class TraceContext:
    """A ``(trace_id, span_id)`` pair identifying a position in a trace.

    Instances cross process and cluster boundaries as small versioned
    dicts (:meth:`to_wire` / :meth:`from_wire`); remote recorders adopt
    the trace id and parent their spans under ``span_id`` so the pieces
    reassemble into one timeline.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def to_wire(self) -> Dict[str, object]:
        """A pickle/JSON-safe dict shipped on TASK frames and traced pool chunks."""
        return {"v": WIRE_VERSION, "trace": self.trace_id, "span": self.span_id}

    @staticmethod
    def from_wire(payload: object) -> Optional["TraceContext"]:
        """Decode a wire dict; ``None`` for anything malformed or from the future."""
        if not isinstance(payload, dict) or payload.get("v") != WIRE_VERSION:
            return None
        trace_id = payload.get("trace")
        span_id = payload.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return TraceContext(trace_id, span_id)


class _Span:
    """Context manager recording one ``ph:X``-style duration event."""

    __slots__ = ("_recorder", "name", "cat", "attrs", "span_id", "parent_id", "_ts", "_t0")

    def __init__(self, recorder: "TraceRecorder", name: str, cat: str, attrs: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id = new_id()
        self.parent_id: Optional[str] = None
        self._ts = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        self.parent_id = recorder._current_span_id()
        recorder._push(self.span_id)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        recorder = self._recorder
        recorder._pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        recorder._append(
            {
                "name": self.name,
                "cat": self.cat,
                "trace": recorder.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "ts": self._ts,
                "dur": duration,
                "pid": recorder.pid,
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "proc": recorder.proc,
                "attrs": self.attrs,
            }
        )


class _NullSpan:
    """The shared no-op returned by ``obs.span`` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Bounded in-memory event buffer with span bookkeeping.

    Parameters
    ----------
    ring:
        Maximum events retained; older events are dropped FIFO.
    parent:
        Optional :class:`TraceContext` this recorder continues (used by
        worker processes): the trace id is adopted and spans with no
        local parent attach under ``parent.span_id``.
    proc:
        Human-readable label for the originating process ("coordinator",
        "cluster-worker", "pool-worker", ...), shown as the Chrome
        process name.
    """

    __slots__ = ("trace_id", "root_span_id", "proc", "pid", "_events", "_stack", "_dropped")

    def __init__(
        self,
        ring: int = 65536,
        parent: Optional[TraceContext] = None,
        proc: str = "main",
    ) -> None:
        if parent is not None:
            self.trace_id = parent.trace_id
            self.root_span_id = parent.span_id
        else:
            self.trace_id = new_id()
            self.root_span_id = new_id()
        self.proc = proc
        self.pid = os.getpid()
        self._events: deque = deque(maxlen=ring)
        self._stack = threading.local()
        self._dropped = 0

    # -- span stack ---------------------------------------------------

    def _push(self, span_id: str) -> None:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        stack.append(span_id)

    def _pop(self) -> None:
        stack = getattr(self._stack, "ids", None)
        if stack:
            stack.pop()

    def _current_span_id(self) -> str:
        stack = getattr(self._stack, "ids", None)
        if stack:
            return stack[-1]
        return self.root_span_id

    def current_context(self) -> TraceContext:
        """The context a child process/worker should continue under."""
        return TraceContext(self.trace_id, self._current_span_id())

    # -- recording ----------------------------------------------------

    def _append(self, event: dict) -> None:
        if len(self._events) == self._events.maxlen:
            self._dropped += 1
        self._events.append(event)

    def span(self, name: str, cat: str = "span", **attrs) -> _Span:
        """A context manager recording a duration event on exit."""
        return _Span(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "event", **attrs) -> None:
        """Record a zero-duration point event (dispatch, evict, ...)."""
        self._append(
            {
                "name": name,
                "cat": cat,
                "trace": self.trace_id,
                "span": new_id(),
                "parent": self._current_span_id(),
                "ts": time.time(),
                "dur": 0.0,
                "pid": self.pid,
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "proc": self.proc,
                "attrs": attrs,
            }
        )

    def absorb(self, events: Iterable[dict]) -> int:
        """Merge events recorded elsewhere (worker processes/machines).

        Non-dict entries are skipped defensively — remote peers may be
        older or newer.  Returns the number of events absorbed.
        """
        absorbed = 0
        for event in events:
            if isinstance(event, dict) and "name" in event:
                self._append(event)
                absorbed += 1
        return absorbed

    def events(self) -> List[dict]:
        """A list copy of the buffered events (oldest first)."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted because the ring buffer was full."""
        return self._dropped

    def clear(self) -> None:
        self._events.clear()
        self._dropped = 0

    # -- export -------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the event count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)

    def chrome_trace(self) -> Dict[str, object]:
        """The Chrome ``trace_event`` view of the buffer."""
        return chrome_trace(self.events())

    def export_chrome(self, path: str) -> int:
        """Write a ``chrome://tracing`` / Perfetto JSON file."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(events), handle, sort_keys=True)
        return len(events)


# -- module-level helpers (also used on already-exported event lists) ---


def validate_event(event: object) -> None:
    """Raise ``ValueError`` unless ``event`` matches :data:`EVENT_FIELDS`."""
    if not isinstance(event, dict):
        raise ValueError(f"trace event is not a dict: {type(event).__name__}")
    for field, types in EVENT_FIELDS.items():
        if field not in event:
            raise ValueError(f"trace event missing field {field!r}: {sorted(event)}")
        value = event[field]
        if field in ("ts", "dur") and isinstance(value, int):
            value = float(value)
        if not isinstance(value, types):
            raise ValueError(
                f"trace event field {field!r} has type {type(event[field]).__name__}"
            )
    if event["dur"] < 0:
        raise ValueError("trace event has negative duration")


def validate_events(events: Sequence[object]) -> int:
    """Validate a batch; returns the count so callers can assert non-empty."""
    for event in events:
        validate_event(event)
    return len(events)


def chrome_trace(events: Sequence[dict]) -> Dict[str, object]:
    """Convert event dicts to the Chrome ``trace_event`` JSON format."""
    trace_events: List[dict] = []
    seen_procs: Dict[int, str] = {}
    for event in events:
        pid = event["pid"]
        if pid not in seen_procs:
            seen_procs[pid] = event.get("proc", str(pid))
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{seen_procs[pid]} (pid {pid})"},
                }
            )
        record = {
            "name": event["name"],
            "cat": event.get("cat", "span"),
            "pid": pid,
            "tid": event.get("tid", 0),
            "ts": event["ts"] * 1e6,
            "args": dict(event.get("attrs", {})),
        }
        record["args"]["trace"] = event["trace"]
        record["args"]["span"] = event["span"]
        if event.get("parent"):
            record["args"]["parent"] = event["parent"]
        if event.get("dur", 0.0) > 0.0:
            record["ph"] = "X"
            record["dur"] = event["dur"] * 1e6
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def summarize(events: Sequence[dict]) -> Dict[str, object]:
    """Aggregate events per span name (the ``repro-trace`` CLI view)."""
    by_name: Dict[str, Dict[str, float]] = {}
    traces = set()
    pids = set()
    for event in events:
        traces.add(event.get("trace"))
        pids.add(event.get("pid"))
        row = by_name.setdefault(
            event["name"], {"count": 0, "total": 0.0, "max": 0.0}
        )
        row["count"] += 1
        duration = float(event.get("dur", 0.0))
        row["total"] += duration
        if duration > row["max"]:
            row["max"] = duration
    for row in by_name.values():
        row["mean"] = row["total"] / row["count"] if row["count"] else 0.0
    return {
        "events": len(events),
        "traces": sorted(t for t in traces if t),
        "pids": sorted(p for p in pids if p is not None),
        "spans": dict(sorted(by_name.items())),
    }
