"""Trace exporters: Chrome ``trace_event`` JSON and text summaries.

Converts a :class:`~repro.sim.trace.Tracer`'s spans into the Trace
Event Format consumed by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev).  Simulated time is microseconds
throughout the project, which is exactly the ``ts``/``dur`` unit the
format specifies, so timestamps pass through unscaled.

Track naming: a span's ``track`` string splits at its first dot into
(process, thread) — ``"n0.cpu.p1"`` renders as thread ``cpu.p1`` of
process ``n0``.  Process/thread names are emitted as ``M`` (metadata)
events, as the format requires, with small integer pids/tids.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

from .trace import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "chrome_trace_dict",
    "chrome_trace_json",
    "write_chrome_trace",
    "validate_chrome_trace",
]

_VALID_PHASES = set("BEXiIPNODMCbnestfSTFR")


def _split_track(track: str) -> Tuple[str, str]:
    if "." in track:
        pid, tid = track.split(".", 1)
    else:
        pid = tid = track
    return pid, tid


class _IdAllocator:
    """Stable small-integer ids for (process, thread) track names."""

    def __init__(self):
        self.pids: Dict[str, int] = {}
        self.tids: Dict[Tuple[str, str], int] = {}

    def ids_for(self, track: str) -> Tuple[int, int]:
        """The (pid, tid) integers for one track string."""
        pname, tname = _split_track(track)
        pid = self.pids.setdefault(pname, len(self.pids) + 1)
        tid = self.tids.setdefault((pname, tname), len(self.tids) + 1)
        return pid, tid

    def metadata_events(self) -> List[dict]:
        """The process_name/thread_name M events for every track seen."""
        events: List[dict] = []
        for pname, pid in sorted(self.pids.items(), key=lambda kv: kv[1]):
            events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                           "args": {"name": pname}})
        for (pname, tname), tid in sorted(self.tids.items(), key=lambda kv: kv[1]):
            events.append({"ph": "M", "name": "thread_name",
                           "pid": self.pids[pname], "tid": tid,
                           "args": {"name": tname}})
        return events


def _span_args(span: Span) -> dict:
    args = dict(span.data) if isinstance(span.data, dict) else (
        {} if span.data is None else {"data": span.data})
    if span.parent is not None:
        args["parent_sid"] = span.parent
    args["sid"] = span.sid
    return args


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """The tracer's contents as a list of Trace Event Format dicts.

    Spans become ``X`` (complete) events; still-open spans are closed
    at the simulator's current time and flagged ``{"open": true}``.
    Spans carrying an ``xparent`` causal edge additionally emit an
    ``s``/``f`` flow-event pair so cross-node request trees render as
    arrows.
    """
    ids = _IdAllocator()
    events: List[dict] = []
    flows: List[dict] = []
    by_sid = {span.sid: span for span in tracer.spans}
    flow_id = 0
    now = tracer.sim.now
    for span in tracer.spans:
        pid, tid = ids.ids_for(span.track)
        args = _span_args(span)
        if not span.closed:
            args["open"] = True
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start,
            "dur": max(0.0, span.duration(now)),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
        # Causal cross-wire edges ("xparent" span data, written by the
        # context-propagation layer) render as flow arrows: an s event
        # anchored inside the parent slice, an f event at the child.
        data = span.data if isinstance(span.data, dict) else None
        if data is not None and "xparent" in data:
            parent = by_sid.get(data["xparent"])
            if parent is not None:
                flow_id += 1
                ppid, ptid = ids.ids_for(parent.track)
                flows.append({
                    "name": span.category, "cat": "flow", "ph": "s",
                    "id": flow_id, "ts": parent.start,
                    "pid": ppid, "tid": ptid,
                })
                flows.append({
                    "name": span.category, "cat": "flow", "ph": "f",
                    "bp": "e", "id": flow_id, "ts": span.start,
                    "pid": pid, "tid": tid,
                })
    return ids.metadata_events() + events + flows


def chrome_trace_dict(tracer: Tracer) -> dict:
    """The full JSON-object form: ``{"traceEvents": [...], ...}``."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.sim.export", "time_unit": "us"},
    }


def chrome_trace_json(tracer: Tracer, indent: Optional[int] = None) -> str:
    """The trace serialized as a Chrome-loadable JSON string."""
    return json.dumps(chrome_trace_dict(tracer), indent=indent)


def write_chrome_trace(tracer: Tracer, path) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path as str."""
    text = chrome_trace_json(tracer)
    with open(str(path), "w") as fh:
        fh.write(text + "\n")
    return str(path)


def validate_chrome_trace(trace: Union[str, bytes, dict, list]) -> List[str]:
    """Schema smoke check for Trace Event Format documents.

    Accepts a JSON string/bytes or an already-parsed object (either the
    JSON-object form with ``traceEvents`` or a bare event array) and
    returns a list of problems — empty means the document passes every
    structural requirement of the format that ``chrome://tracing`` and
    Perfetto enforce on load.
    """
    problems: List[str] = []
    if isinstance(trace, (str, bytes)):
        try:
            trace = json.loads(trace)
        except ValueError as exc:
            return ["not valid JSON: %s" % exc]
    if isinstance(trace, dict):
        events = trace.get("traceEvents")
        if not isinstance(events, list):
            return ["JSON-object form must carry a 'traceEvents' array"]
    elif isinstance(trace, list):
        events = trace
    else:
        return ["top level must be an object or an event array"]

    for index, event in enumerate(events):
        where = "event[%d]" % index
        if not isinstance(event, dict):
            problems.append("%s: not an object" % where)
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _VALID_PHASES:
            problems.append("%s: bad phase %r" % (where, phase))
            continue
        if phase == "M":
            if "name" not in event:
                problems.append("%s: metadata event without a name" % where)
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in event:
                problems.append("%s: missing required key %r" % (where, key))
        if not isinstance(event.get("ts", 0), (int, float)):
            problems.append("%s: non-numeric ts" % where)
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append("%s: complete event needs dur >= 0" % where)
        if phase == "i" and event.get("s", "t") not in ("g", "p", "t"):
            problems.append("%s: instant scope must be g/p/t" % where)
        if phase in ("s", "t", "f") and "id" not in event:
            problems.append("%s: flow event needs an id" % where)
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append("%s: args must be an object" % where)
    return problems
