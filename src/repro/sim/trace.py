"""Tracing and measurement utilities for simulation runs.

A :class:`Tracer` records *how long each stage took* as structured
spans, exportable to Chrome's ``trace_event`` format (see
:mod:`repro.sim.export`); spans are its only record.  A
:class:`Stopwatch` measures one interval of simulated time.

Span model
----------

A :class:`Span` is a begin/end interval on a *track*.  A track names
one serially-executing timeline — one CPU process, one NIC pipeline
stage, the mesh backplane — written as ``"<pid>.<tid>"`` (split at the
first dot for the Chrome exporter; e.g. ``"n0.cpu.p1"`` is thread
``cpu.p1`` of process ``n0``).  Spans opened on the same track by the
same simulation process nest: :meth:`Tracer.begin` records the
innermost span still open there as the new span's parent, which is how
a library call's span contains the VMMC call's span contains the
CPU-store spans.  Two simulation processes can share a track (an NX
receive loop and the sender co-process of one KV replication rank run
on one CPU process), so each keeps its own open-span stack there
(keyed by :attr:`Simulator.active_process`; spans opened outside any
process share the track's stack) and never parents the other's spans.

Overhead guarantee
------------------

Tracing is off by default.  Every producer call site is guarded by a
single attribute check (``if tracer.enabled:``), so the cost of a
disabled tracer on the hot paths is one attribute lookup and one
branch per site (``tests/test_span_guards.py`` audits every site).
An enabled tracer records at most ``limit`` spans; it counts each span
it refuses past that in :attr:`Tracer.dropped`.

Causal trace context
--------------------

A *trace context* is ``(trace_id, parent_sid)``.  ``trace_id`` comes
from :meth:`Tracer.new_trace_id`, once per top-level request (ids start
at 1, so zero means "untraced" wherever an id is stored).  Every span
of the request's causal tree carries it in its data under ``"tid"``.
``parent_sid`` is the span id of the causal parent: within one process
the link is recorded as ``"cparent"`` (from ``proc.trace_ctx`` at span
creation); across a wire hop the receiver records the sender-side span
id as ``"xparent"``.  The root of a tree is the span tagged with a
``tid`` but neither parent key; :mod:`repro.obs.assemble` rebuilds the
trees from these keys plus the same-track ``parent`` links.

The context crosses a wire hop beside the message, not in its bytes,
so a traced run sends exactly the bytes of the untraced run.  The
sender posts it (:meth:`Tracer.post`) under a key both ends already
name — SHRIMP RPC: the server buffer and the call seq; NX: the
receiver's control buffer and the descriptor seq; sockets: the
receiver's ring and the request's stream offset; VRPC: the xid — and
the receiver claims it (:meth:`Tracer.claim`) when it accepts the
message.  A retransmission reuses its key, so a replay finds the same
parent.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from .core import Simulator

__all__ = ["Span", "Tracer", "Stopwatch"]


class Span:
    """One begin/end interval on a track, with a parent link.

    ``end`` is ``None`` while the span is still open; :attr:`duration`
    is then measured up to the tracer's current simulated time.
    """

    __slots__ = ("sid", "parent", "category", "name", "track", "start", "end", "data")

    def __init__(self, sid: int, parent: Optional[int], category: str, name: str,
                 track: str, start: float, end: Optional[float] = None,
                 data: Any = None):
        self.sid = sid
        self.parent = parent
        self.category = category
        self.name = name
        self.track = track
        self.start = start
        self.end = end
        self.data = data

    @property
    def closed(self) -> bool:
        """True once :meth:`Tracer.end` (or a complete event) set the end."""
        return self.end is not None

    def duration(self, now: Optional[float] = None) -> float:
        """Elapsed microseconds (open spans measure up to ``now``)."""
        if self.end is not None:
            return self.end - self.start
        return (now if now is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "%.3f..%.3f" % (self.start, self.end) if self.closed else (
            "%.3f.." % self.start)
        return "<Span #%d %s %r on %s %s>" % (
            self.sid, self.category, self.name, self.track, state)


class Tracer:
    """Recorder of the spans of one simulation run.

    :meth:`begin`/:meth:`end`/:meth:`complete`/:meth:`instant` produce
    spans, the structured begin/end intervals the Chrome exporter, the
    trace assembler and the latency-budget cross-check consume.
    :meth:`post`/:meth:`claim` carry a trace context across a wire hop
    (see "Causal trace context" above).

    Tracing is off by default (``enabled=False``): hot-path call sites
    guard with one attribute check, keeping the disabled cost to a
    lookup and a branch per site.  Once ``limit`` spans are recorded,
    further spans are refused and counted in :attr:`dropped`.
    """

    def __init__(self, sim: Simulator, enabled: bool = False, limit: int = 100_000):
        self.sim = sim
        self.enabled = enabled
        self.limit = limit
        self.spans: List[Span] = []
        #: Spans refused because ``limit`` were already recorded.
        self.dropped = 0
        self._next_sid = 0
        self._next_tid = 0
        # Open-span stacks per (track, running process), and the stack
        # each open span was pushed on, by span id.
        self._stacks: Dict[Tuple[str, Any], List[Span]] = {}
        self._open: Dict[int, List[Span]] = {}
        # Cross-wire hand-off: message key -> the sender's context.
        self._handoff: Dict[Hashable, Tuple[int, int]] = {}

    def begin(self, category: str, name: str, track: str = "sim",
              data: Any = None, start: Optional[float] = None) -> Optional[Span]:
        """Open a span now on ``track``; returns it (None when disabled).

        The innermost span the running simulation process still has
        open on the same track becomes the new span's parent, so nested
        library/VMMC/CPU work links up without any caller bookkeeping.
        Call sites may pass the result straight to :meth:`end`, which
        accepts None.

        ``start`` overrides the recorded start instant: an operation
        whose first sleep folds in a deferred charge opens its span at
        call time but starts it where the charge ends.
        """
        if not self.enabled:
            return None
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return None
        stack = self._stacks.setdefault((track, self.sim.active_process),
                                        [])
        parent = stack[-1].sid if stack else None
        self._next_sid += 1
        span = Span(self._next_sid, parent, category, name, track,
                    self.sim.now if start is None else start, data=data)
        self.spans.append(span)
        stack.append(span)
        self._open[span.sid] = stack
        return span

    def end(self, span: Optional[Span], data: Any = None) -> None:
        """Close ``span`` at the current time (no-op when span is None)."""
        if span is None:
            return
        span.end = self.sim.now
        if data is not None:
            span.data = data if span.data is None else {**_as_dict(span.data),
                                                        **_as_dict(data)}
        stack = self._open.pop(span.sid, None)
        if stack is not None:
            # Pop it and anything its process opened after it that was
            # left dangling.
            while stack:
                top = stack.pop()
                if top is span:
                    break
                del self._open[top.sid]

    def complete(self, category: str, name: str, start: float,
                 end: Optional[float] = None, track: str = "sim",
                 data: Any = None, sid: Optional[int] = None) -> Optional[Span]:
        """Record a span whose start and end are both already known.

        Used where one call site computes the whole interval (a bus
        transfer's occupancy, a packet's mesh transit).  Does not touch
        the open-span stacks, but does adopt as parent the innermost
        span the running process still has open on the track.

        ``sid`` lets a call site that announced a span id before the
        interval closed (via :meth:`reserve_sid`, so the id could be
        posted to a receiver) record the span under that id.
        """
        if not self.enabled:
            return None
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return None
        stack = self._stacks.get((track, self.sim.active_process))
        parent = stack[-1].sid if stack else None
        if sid is None:
            self._next_sid += 1
            sid = self._next_sid
        span = Span(sid, parent, category, name, track, start,
                    end=self.sim.now if end is None else end, data=data)
        self.spans.append(span)
        return span

    def reserve_sid(self) -> int:
        """Allocate a span id now for a span recorded later.

        Causal-context propagation needs a request's root span id at
        *send* time (it is posted so remote spans can point back), but
        the root span itself is recorded via :meth:`complete` only once
        the request finishes.  Pass the reserved id back through
        ``complete(..., sid=...)``.
        """
        self._next_sid += 1
        return self._next_sid

    def new_trace_id(self) -> int:
        """Allocate a fresh causal-trace id (one per top-level request)."""
        self._next_tid += 1
        return self._next_tid

    def post(self, key: Hashable,
             ctx: Optional[Tuple[int, int]]) -> None:
        """Hand ``ctx`` to the receiver of the message named ``key``.

        Called by the sender before the message leaves.  ``ctx`` is
        ``(trace_id, parent_sid)`` with the sender-side span as parent;
        None withdraws an earlier post under a reused key.  Entries
        live until :meth:`clear`.
        """
        if ctx is None:
            self._handoff.pop(key, None)
        else:
            self._handoff[key] = ctx

    def claim(self, key: Hashable,
              span: Optional[Span]) -> Optional[Tuple[int, int]]:
        """Link the receive side of message ``key`` to its sender.

        Tags ``span`` (the receiver's span, or None if refused) with the
        posted ``tid`` and the sender's span as ``xparent``, and returns
        the context the receiver adopts for work it starts: the same
        trace, parented under ``span``.  None when nothing was posted.
        """
        ctx = self._handoff.get(key)
        if ctx is None:
            return None
        if span is None:
            return ctx
        if span.data is None:
            span.data = {}
        span.data["tid"], span.data["xparent"] = ctx
        return (ctx[0], span.sid)

    def instant(self, category: str, name: str, track: str = "sim",
                data: Any = None) -> Optional[Span]:
        """Record a zero-duration marker at the current time."""
        return self.complete(category, name, self.sim.now, self.sim.now,
                             track=track, data=data)

    def clear(self) -> None:
        """Drop all recorded spans, the refusal count and the posted
        contexts (keeps settings)."""
        self.spans.clear()
        self.dropped = 0
        self._stacks.clear()
        self._open.clear()
        self._handoff.clear()


def _as_dict(value: Any) -> dict:
    return value if isinstance(value, dict) else {"value": value}


class Stopwatch:
    """Measures spans of simulated time.

    ``with Stopwatch(sim) as sw: ...`` is not possible inside a generator
    process (the body would need yields), so the API is explicit
    start()/stop() returning the elapsed span.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._started_at: Optional[float] = None
        self.elapsed = 0.0

    def start(self) -> None:
        """Begin a span at the current simulated time."""
        self._started_at = self.sim.now

    def stop(self) -> float:
        """End the span; returns (and stores) the elapsed time."""
        if self._started_at is None:
            raise ValueError("stopwatch was never started")
        self.elapsed = self.sim.now - self._started_at
        self._started_at = None
        return self.elapsed
