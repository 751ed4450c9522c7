"""repro.obs — metrics, span tracing, and structured logging.

One module-global :class:`Observability` handle gates everything.  When
no handle is installed (the default), the subsystem is inert: hot paths
pay one module-attribute read plus a ``None`` check, ``obs.span`` hands
back a shared no-op context manager, no metric objects exist, and the
only logging side effect anywhere is a ``NullHandler`` on the ``repro``
root logger.

Usage::

    from repro import obs

    handle = obs.enable()                 # metrics + tracing on
    with obs.span("compile_ball", center=3):
        ...
    handle.metrics.counter("engine.ball_cache.compiles").inc()
    obs.export_chrome("trace.json")       # chrome://tracing / Perfetto
    obs.disable()

Instrumented call sites in the engine/runtime/cluster follow the
guarded pattern::

    _o = obs.active()
    if _o is not None:
        _o.metrics.counter("...").inc()

Trace contexts propagate across process pools (shipped with every chunk
of a traced call) and across the cluster wire (an ``_obs`` field inside
the pickled, HMAC-covered TASK payload; results return worker events the
coordinator absorbs), so spans from every process stitch into one
timeline under one trace id.  Tracing never touches NumPy RNG state:
results are bit-identical with tracing on or off.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import logs
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_SPAN,
    TraceContext,
    TraceRecorder,
    chrome_trace,
    summarize,
    validate_event,
    validate_events,
)

__all__ = [
    "Observability",
    "enable",
    "install",
    "disable",
    "active",
    "span",
    "instant",
    "events",
    "snapshot",
    "wire_context",
    "absorb_events",
    "drain_events",
    "record_remote",
    "export_jsonl",
    "export_chrome",
    "get_logger",
    "log_event",
    "TraceContext",
    "TraceRecorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace",
    "summarize",
    "validate_event",
    "validate_events",
]


class Observability:
    """A bundle of one metrics registry and (optionally) one tracer."""

    __slots__ = ("metrics", "tracer", "log_handler")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[TraceRecorder] = None,
        log_handler=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.log_handler = log_handler

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {"metrics": self.metrics.snapshot()}
        if self.tracer is not None:
            out["trace"] = {
                "trace_id": self.tracer.trace_id,
                "events": len(self.tracer.events()),
                "dropped": self.tracer.dropped,
            }
        return out


#: The installed handle; ``None`` means observability is off everywhere.
_ACTIVE: Optional[Observability] = None


def enable(
    tracing: bool = True,
    ring: int = 65536,
    log_level: Optional[int] = None,
    proc: str = "main",
) -> Observability:
    """Install (replacing any previous) the process-wide handle.

    Parameters
    ----------
    tracing:
        Record spans/events into a ring buffer of ``ring`` entries.
        Metrics are always on for an enabled handle.
    log_level:
        When given, also install the structured log handler at this
        level (see :func:`repro.obs.logs.configure`).  Left ``None``,
        logging configuration is untouched.
    proc:
        Process label stamped on trace events ("main", "cluster-worker",
        ...).
    """
    global _ACTIVE
    tracer = TraceRecorder(ring=ring, proc=proc) if tracing else None
    handler = logs.configure(log_level) if log_level is not None else None
    _ACTIVE = Observability(tracer=tracer, log_handler=handler)
    return _ACTIVE


def install(handle: Observability) -> Observability:
    """Install an existing handle as the process-wide one."""
    global _ACTIVE
    _ACTIVE = handle
    return handle


def disable() -> None:
    """Remove the handle; obs goes back to fully inert."""
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE.log_handler is not None:
        logs.reset()
    _ACTIVE = None


def active() -> Optional[Observability]:
    """The installed handle, or ``None`` when observability is off."""
    return _ACTIVE


# -- convenience wrappers (all no-ops when off) -------------------------


def span(name: str, **attrs):
    """A span context manager; the shared no-op when tracing is off."""
    handle = _ACTIVE
    if handle is None or handle.tracer is None:
        return NULL_SPAN
    return handle.tracer.span(name, **attrs)


def instant(name: str, **attrs) -> None:
    """Record a point event; silently dropped when tracing is off."""
    handle = _ACTIVE
    if handle is not None and handle.tracer is not None:
        handle.tracer.instant(name, **attrs)


def events() -> List[dict]:
    """Buffered trace events (empty when tracing is off)."""
    handle = _ACTIVE
    if handle is None or handle.tracer is None:
        return []
    return handle.tracer.events()


def snapshot() -> Dict[str, object]:
    """Metrics + trace summary for the active handle (``{}`` when off)."""
    handle = _ACTIVE
    if handle is None:
        return {}
    return handle.snapshot()


def wire_context() -> Optional[Dict[str, object]]:
    """The current trace context as a wire dict, or ``None`` (tracing off).

    This is what rides on TASK frames and traced process-pool chunks.  It is
    a plain versioned dict so old peers that don't know the field ignore
    it, and it travels inside the pickled payload, so when cluster
    authentication is on it is covered by the frame HMAC.
    """
    handle = _ACTIVE
    if handle is None or handle.tracer is None:
        return None
    return handle.tracer.current_context().to_wire()


def absorb_events(remote_events) -> int:
    """Merge events recorded by another process into the active tracer."""
    handle = _ACTIVE
    if handle is None or handle.tracer is None or not remote_events:
        return 0
    return handle.tracer.absorb(remote_events)


def drain_events() -> List[dict]:
    """Pop all buffered events."""
    handle = _ACTIVE
    if handle is None or handle.tracer is None:
        return []
    out = handle.tracer.events()
    handle.tracer.clear()
    return out


def record_remote(
    wire_ctx: object,
    thunk: Callable[[], object],
    name: str = "worker.task",
    proc: str = "cluster-worker",
    **attrs,
) -> Tuple[object, Optional[List[dict]]]:
    """Run ``thunk`` under a span continuing ``wire_ctx``; ship the events.

    Returns ``(result, events)`` where ``events`` is ``None`` when the
    context is absent/unknown (the thunk then runs untraced).  The
    temporary handle is installed as the
    process-wide one for the duration, so nested instrumentation (ball
    compiles, chain advances) lands in the shipped events too.
    """
    global _ACTIVE
    ctx = TraceContext.from_wire(wire_ctx)
    if ctx is None:
        return thunk(), None
    saved = _ACTIVE
    handle = Observability(tracer=TraceRecorder(parent=ctx, proc=proc))
    _ACTIVE = handle
    try:
        with handle.tracer.span(name, **attrs):
            result = thunk()
    finally:
        _ACTIVE = saved
    return result, handle.tracer.events()


def export_jsonl(path: str) -> int:
    """Write the active tracer's events as JSON lines."""
    handle = _ACTIVE
    if handle is None or handle.tracer is None:
        raise RuntimeError("observability is not enabled; nothing to export")
    return handle.tracer.export_jsonl(path)


def export_chrome(path: str) -> int:
    """Write the active tracer's events as Chrome trace_event JSON."""
    handle = _ACTIVE
    if handle is None or handle.tracer is None:
        raise RuntimeError("observability is not enabled; nothing to export")
    return handle.tracer.export_chrome(path)
