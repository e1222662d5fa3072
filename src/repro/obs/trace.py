"""Hierarchical spans: wall-clock trees with exception tagging and events.

A *span* measures one named section of work; spans opened while another
span is active on the same thread become its children, so one query
produces a tree::

    client.query
    └─ client.attempt            (one per wire attempt, tagged ``endpoint``)
       └─ server.handle_frame
          └─ sp.handle
             └─ sp.query
                ├─ engine.traverse
                └─ engine.materialize

Every span belongs to a *trace*, identified by a 16-hex-char id minted
when a root span starts.  The id travels across the wire inside the
frame request-id scheme (:mod:`repro.net.transport`), so a remote SP's
spans carry the client's trace id even when they are not in-process
children.  Finished root spans are retained in a bounded ring; dump one
as a JSON tree with :meth:`Span.to_dict` or pretty-print it via
:mod:`repro.obs.render`.

Spans are thread-correct, not thread-spanning: each thread has its own
stack, and a span opened on a bare thread roots a new trace.  The hot
relax workers therefore record histograms (:mod:`repro.parallel`), not
per-job spans.  When the gate is off, :func:`span` returns a shared
no-op and records nothing.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from collections import deque
from typing import Callable, Iterator, Optional

from repro.obs import gate

#: Trace ids are 8 bytes (16 hex chars) — they ride in the first half of
#: the 16-byte frame request id (see ``repro.net.transport``).
TRACE_ID_BYTES = 8


def new_trace_id() -> str:
    """A fresh random trace id (hex, never all-zero).

    ``os.urandom`` keeps obs out of the seeded ``random.Random`` streams
    the protocol code draws from — tracing must never perturb test or
    benchmark determinism.
    """
    while True:
        raw = os.urandom(TRACE_ID_BYTES)
        if any(raw):
            return raw.hex()


class Span:
    """One timed, attributed section of work within a trace."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attributes", "events",
        "children", "status", "error", "start_unix", "duration_ms", "_t0",
    )

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: dict = {}
        self.events: list[dict] = []
        self.children: list[Span] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self.start_unix = time.time()
        self.duration_ms: Optional[float] = None
        self._t0 = time.perf_counter()

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attrs) -> None:
        self.attributes.update(attrs)

    def add_event(self, name: str, **fields) -> None:
        """Record a point-in-time event at the current span offset."""
        event = {"name": name, "offset_ms": (time.perf_counter() - self._t0) * 1000.0}
        if fields:
            event.update(fields)
        self.events.append(event)

    def _finish(self, exc: Optional[BaseException]) -> None:
        self.duration_ms = (time.perf_counter() - self._t0) * 1000.0
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"

    # -- introspection -------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON-serializable trace (sub)tree rooted at this span."""
        out = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_ms": self.duration_ms,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.events:
            out["events"] = [dict(e) for e in self.events]
        out["children"] = [child.to_dict() for child in self.children]
        return out

    def iter_spans(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def span_names(self) -> list[str]:
        return [s.name for s in self.iter_spans()]

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in depth-first order, or None."""
        for candidate in self.iter_spans():
            if candidate.name == name:
                return candidate
        return None

    def __repr__(self):
        ms = f"{self.duration_ms:.2f}ms" if self.duration_ms is not None else "open"
        return f"<Span {self.name} [{self.trace_id}] {ms} {self.status}>"


def span_from_dict(data: dict) -> Span:
    """Rebuild a :class:`Span` tree from its :meth:`Span.to_dict` form.

    The inverse direction of the relay wire format: a dispatcher turns a
    process worker's (or a remote SP's) serialized spans back into live
    objects it can graft under a local parent.  Timing fields are copied
    verbatim — a reconstructed span is a record, not a running timer.
    """
    span = Span(
        str(data["name"]), str(data["trace_id"]), str(data["span_id"]),
        data.get("parent_id"),
    )
    span.start_unix = float(data.get("start_unix") or 0.0)
    duration = data.get("duration_ms")
    span.duration_ms = float(duration) if duration is not None else None
    span.status = str(data.get("status", "ok"))
    span.error = data.get("error")
    span.attributes = dict(data.get("attributes") or {})
    span.events = [dict(e) for e in data.get("events") or []]
    span.children = [span_from_dict(c) for c in data.get("children") or []]
    return span


class _NoopSpan:
    """Shared do-nothing span: what :func:`span` yields when disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def set_attribute(self, key, value):
        pass

    def set_attributes(self, **attrs):
        pass

    def add_event(self, name, **fields):
        pass


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager pairing a started span with its tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self._span, exc)
        return False  # never swallow


class Tracer:
    """Per-thread span stacks plus a bounded ring of finished traces."""

    def __init__(self, max_traces: int = 64):
        self._local = threading.local()
        self._finished: deque[Span] = deque(maxlen=max_traces)
        self._lock = threading.Lock()
        # Start the span-id counter at a random 32-bit offset so ids from
        # different processes (pool workers, a remote SP) virtually never
        # collide — the relay dedups grafted spans by span id.
        self._ids = itertools.count(int.from_bytes(os.urandom(4), "big") or 1)
        self._listeners: list[Callable[[Span], None]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- span lifecycle ------------------------------------------------------
    def start_span(self, name: str, trace_id: Optional[str] = None, **attrs) -> _SpanContext:
        """Open a span; nest under the current one when present.

        ``trace_id`` adopts a propagated id when starting a *root* span
        (e.g. a server handling a framed request); under an active parent
        the parent's trace id always wins — one trace per tree.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            tid, parent_id = parent.trace_id, parent.span_id
        else:
            tid, parent_id = trace_id or new_trace_id(), None
        span = Span(name, tid, f"{next(self._ids):08x}", parent_id)
        if attrs:
            span.attributes.update(attrs)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span, exc: Optional[BaseException]) -> None:
        span._finish(exc)
        stack = self._stack()
        # Pop through any spans abandoned by a non-local exit.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if span.parent_id is None:
            with self._lock:
                self._finished.append(span)
                listeners = list(self._listeners)
            for listener in listeners:
                # Listener bugs must never break the workload being traced.
                try:
                    listener(span)
                except Exception:
                    pass

    # -- export hooks --------------------------------------------------------
    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Call ``listener(root_span)`` whenever a root span finishes.

        This is the exporter hook: :class:`~repro.obs.relay.SpanRelay`
        registers itself here so finished server/worker traces become
        scrapeable by trace id.  Registration is idempotent by identity.
        """
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[Span], None]) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    @contextlib.contextmanager
    def detached(self):
        """Run a block with an empty span stack on this thread.

        Simulates a process/network boundary inside one process: spans
        opened in the block root their own traces (adopting a propagated
        trace id if one is passed) instead of nesting under the caller's
        active span.  ``LoopbackTransport(detach=True)`` uses this so an
        in-process server exercises the same relay path a remote one
        would.
        """
        stack = getattr(self._local, "stack", None)
        self._local.stack = []
        try:
            yield
        finally:
            self._local.stack = stack if stack is not None else []

    # -- read side -----------------------------------------------------------
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_trace_id(self) -> Optional[str]:
        current = self.current_span()
        return current.trace_id if current is not None else None

    def traces(self) -> list[Span]:
        """Finished root spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def last_trace(self) -> Optional[Span]:
        with self._lock:
            return self._finished[-1] if self._finished else None

    def find_trace(self, trace_id: str) -> Optional[Span]:
        with self._lock:
            for root in reversed(self._finished):
                if root.trace_id == trace_id:
                    return root
        return None

    def reset(self) -> None:
        """Drop finished traces and this thread's stack (tests)."""
        with self._lock:
            self._finished.clear()
        self._local.stack = []


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, trace_id: Optional[str] = None, **attrs):
    """Open an (auto-nesting) span on the global tracer; no-op when disabled.

    Usage::

        with span("engine.traverse", kind="range") as sp:
            ...
            sp.set_attribute("tasks", len(tasks))
    """
    if not gate.enabled():
        return NOOP_SPAN
    return _TRACER.start_span(name, trace_id=trace_id, **attrs)


def current_span() -> Optional[Span]:
    """The innermost active span on this thread (None when disabled/idle)."""
    if not gate.enabled():
        return None
    return _TRACER.current_span()


def current_trace_id() -> Optional[str]:
    if not gate.enabled():
        return None
    return _TRACER.current_trace_id()


def add_event(name: str, **fields) -> None:
    """Attach an event to the innermost active span, if any."""
    if not gate.enabled():
        return
    current = _TRACER.current_span()
    if current is not None:
        current.add_event(name, **fields)


class Stopwatch:
    """Tiny elapsed-seconds context manager — always on.

    The index builders' fine-grained accumulators (sign vs. structure
    seconds) use this instead of hand-rolled ``perf_counter`` pairs; it
    measures regardless of the obs gate because
    :class:`~repro.index.gridtree.TreeStats` must stay populated even
    with observability off.
    """

    __slots__ = ("elapsed", "_t0")

    def __enter__(self) -> "Stopwatch":
        self.elapsed = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        return False


def stopwatch() -> Stopwatch:
    return Stopwatch()
