"""Tests for the Chrome trace_event exporter and its validator."""

import json

from repro.sim import (
    Simulator,
    Tracer,
    chrome_trace_dict,
    chrome_trace_events,
    chrome_trace_json,
    validate_chrome_trace,
    write_chrome_trace,
)


def traced_sim():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    tracer.complete("cpu.store", "store 4B", 0.0, 0.87, track="n0.cpu.p1",
                    data={"bytes": 4})
    tracer.complete("mesh.transit", "pkt #0", 2.02, 2.48, track="mesh.backplane")
    return sim, tracer


def events_of(events, phase):
    return [e for e in events if e["ph"] == phase]


def test_spans_export_as_complete_events_with_metadata():
    _, tracer = traced_sim()
    events = chrome_trace_events(tracer)
    complete = events_of(events, "X")
    assert len(complete) == 2
    store = complete[0]
    assert store["name"] == "store 4B"
    assert store["cat"] == "cpu.store"
    assert store["ts"] == 0.0 and store["dur"] == 0.87
    assert store["args"]["bytes"] == 4 and "sid" in store["args"]
    # Track "n0.cpu.p1" splits at the FIRST dot: process n0, thread cpu.p1.
    meta = events_of(events, "M")
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "n0") in names
    assert ("thread_name", "cpu.p1") in names
    assert ("process_name", "mesh") in names


def test_pid_tid_are_stable_small_integers():
    _, tracer = traced_sim()
    events = chrome_trace_events(tracer)
    complete = events_of(events, "X")
    assert all(isinstance(e["pid"], int) and isinstance(e["tid"], int)
               for e in complete)
    again = events_of(chrome_trace_events(tracer), "X")
    assert [(e["pid"], e["tid"]) for e in complete] == [
        (e["pid"], e["tid"]) for e in again]


def test_open_spans_are_closed_at_now_and_flagged():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    tracer.begin("vmmc.send", "never ended", track="n0.cpu.p1")
    sim.schedule_call(3.0, lambda: None)
    sim.run()
    (event,) = events_of(chrome_trace_events(tracer), "X")
    assert event["dur"] == 3.0
    assert event["args"]["open"] is True


def test_parent_links_survive_export():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    outer = tracer.begin("nx.csend", "csend", track="n0.cpu.p1")
    inner = tracer.begin("vmmc.send", "send", track="n0.cpu.p1")
    tracer.end(inner)
    tracer.end(outer)
    by_name = {e["name"]: e for e in events_of(chrome_trace_events(tracer), "X")}
    assert "parent_sid" not in by_name["csend"]["args"]
    assert by_name["send"]["args"]["parent_sid"] == by_name["csend"]["args"]["sid"]


def test_json_round_trip_validates_clean(tmp_path):
    _, tracer = traced_sim()
    text = chrome_trace_json(tracer, indent=1)
    assert validate_chrome_trace(text) == []
    parsed = json.loads(text)
    assert parsed["traceEvents"] == chrome_trace_dict(tracer)["traceEvents"]
    path = write_chrome_trace(tracer, tmp_path / "t.json")
    assert validate_chrome_trace((tmp_path / "t.json").read_text()) == []
    assert path == str(tmp_path / "t.json")


def test_validator_accepts_bare_event_arrays():
    _, tracer = traced_sim()
    assert validate_chrome_trace(chrome_trace_events(tracer)) == []


def test_validator_flags_structural_problems():
    assert validate_chrome_trace("not json")[0].startswith("not valid JSON")
    assert validate_chrome_trace(42) == [
        "top level must be an object or an event array"]
    assert validate_chrome_trace({"no": "events"}) == [
        "JSON-object form must carry a 'traceEvents' array"]
    problems = validate_chrome_trace([
        {"ph": "Q", "name": "bad phase"},
        {"ph": "X", "name": "n", "ts": 0, "pid": 1, "tid": 1, "dur": -1},
        {"ph": "X", "ts": 0, "pid": 1, "tid": 1, "dur": 1},
        {"ph": "i", "name": "n", "ts": 0, "pid": 1, "tid": 1, "s": "z"},
        {"ph": "B", "name": "n", "ts": 0, "pid": 1, "tid": 1, "args": "nope"},
        "not an object",
    ])
    assert len(problems) == 6
    assert any("bad phase" in p for p in problems)
    assert any("dur >= 0" in p for p in problems)
    assert any("missing required key 'name'" in p for p in problems)
    assert any("scope must be g/p/t" in p for p in problems)
    assert any("args must be an object" in p for p in problems)
    assert any("not an object" in p for p in problems)


def test_empty_tracer_exports_valid_empty_trace():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    assert validate_chrome_trace(chrome_trace_json(tracer)) == []
    assert chrome_trace_events(tracer) == []
