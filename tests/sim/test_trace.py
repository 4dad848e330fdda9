"""Unit tests for tracing and measurement helpers."""

import pytest

from repro.sim import Simulator, Stopwatch, Tracer, spawn


def test_span_begin_end_records_interval():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)

    def worker():
        span = tracer.begin("cpu.store", "store 4B", track="n0.cpu.p1")
        yield sim.timeout(0.87)
        tracer.end(span, data={"bytes": 4})

    spawn(sim, worker())
    sim.run()
    (span,) = tracer.spans
    assert span.category == "cpu.store"
    assert span.track == "n0.cpu.p1"
    assert span.closed
    assert span.start == 0.0 and span.end == 0.87
    assert span.duration() == pytest.approx(0.87)
    assert span.data == {"bytes": 4}


def test_span_nesting_links_parents_per_track():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    outer = tracer.begin("nx.csend", "csend", track="n0.cpu.p1")
    inner = tracer.begin("vmmc.send", "send", track="n0.cpu.p1")
    other = tracer.begin("nic.dma_in", "dma", track="n1.nic.in")
    assert outer.parent is None
    assert inner.parent == outer.sid
    assert other.parent is None  # different track: no cross-track nesting
    tracer.end(inner)
    tracer.end(outer)
    sibling = tracer.begin("vmmc.send", "again", track="n0.cpu.p1")
    assert sibling.parent is None  # stack drained; not a child of closed spans


def test_span_end_pops_dangling_children():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    outer = tracer.begin("a", "outer", track="t")
    tracer.begin("b", "left-open", track="t")
    tracer.end(outer)  # closing outer drops the dangling child from the stack
    fresh = tracer.begin("c", "fresh", track="t")
    assert fresh.parent is None


def test_processes_sharing_a_track_never_parent_each_others_spans():
    """Two simulation processes of one CPU process (an NX receive loop
    and its sender co-process) interleave spans on one track: each
    nests only under its own, and closing one's span leaves the
    other's open."""
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    seen = {}

    def sender():
        seen["send"] = tracer.begin("nx.csend", "csend", track="n0.cpu.p5")
        yield sim.timeout(2.0)
        tracer.end(seen["send"])

    def receiver():
        yield sim.timeout(1.0)
        seen["recv"] = tracer.begin("nx.crecv", "crecv", track="n0.cpu.p5")
        yield sim.timeout(2.0)   # the sender's span closes meanwhile
        seen["copy"] = tracer.begin("cpu.copy", "copy", track="n0.cpu.p5")
        tracer.end(seen["copy"])
        tracer.end(seen["recv"])

    spawn(sim, sender())
    spawn(sim, receiver())
    sim.run()
    assert seen["recv"].parent is None
    assert seen["copy"].parent == seen["recv"].sid
    # Outside any process, spans keep sharing the track's one stack.
    outer = tracer.begin("a", "outer", track="n0.cpu.p5")
    assert tracer.begin("b", "inner", track="n0.cpu.p5").parent == outer.sid


def test_span_disabled_is_noop_and_end_accepts_none():
    sim = Simulator()
    tracer = Tracer(sim, enabled=False, limit=0)
    span = tracer.begin("cpu.store", "store", track="n0.cpu.p1")
    assert span is None
    tracer.end(span)  # must not raise: the guarded call-site pattern
    assert tracer.spans == []
    # The disabled path stops at its one check: nothing is counted.
    assert tracer.dropped == 0


def test_span_limit_caps_spans():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True, limit=2)
    for i in range(5):
        tracer.end(tracer.begin("x", str(i)))
    tracer.complete("x", "late", 0.0)
    tracer.instant("x", "mark")
    assert len(tracer.spans) == 2
    # Every refused span is counted, whichever producer refused it.
    assert tracer.dropped == 5


def test_complete_and_instant_adopt_open_parent():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    outer = tracer.begin("vmmc.send", "send", track="n0.cpu.p1")
    done = tracer.complete("bus", "xfer", 1.0, 2.5, track="n0.cpu.p1")
    mark = tracer.instant("note", "flag", track="n0.cpu.p1")
    assert done.parent == outer.sid and done.duration() == pytest.approx(1.5)
    assert mark.parent == outer.sid and mark.duration() == 0.0
    # complete() must not touch the open-span stack.
    child = tracer.begin("cpu.store", "store", track="n0.cpu.p1")
    assert child.parent == outer.sid


def test_clear_drops_spans_and_refusal_count():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True, limit=1)
    tracer.begin("a", "open")
    tracer.begin("a", "refused")
    assert tracer.dropped == 1
    tracer.clear()
    assert tracer.spans == [] and tracer.dropped == 0
    # Clearing with an open span must not corrupt later nesting.
    fresh = tracer.begin("b", "fresh")
    assert fresh.parent is None


def test_claim_tags_the_receive_span_and_returns_the_adopted_context():
    tracer = Tracer(Simulator(), enabled=True)
    tracer.post(("n1", 7), (5, 11))
    serve = tracer.begin("srpc.serve", "serve", data={"proc": 2})
    assert tracer.claim(("n1", 7), serve) == (5, serve.sid)
    assert serve.data == {"proc": 2, "tid": 5, "xparent": 11}
    recv = tracer.begin("nx.crecv", "recv")  # no data yet: claim adds it
    tracer.post(("n1", 8), (5, 12))
    tracer.claim(("n1", 8), recv)
    assert recv.data == {"tid": 5, "xparent": 12}


def test_a_claim_returns_what_was_posted_until_clear():
    # A retransmitted message claims under its original key again, so a
    # replay finds the same parent; a refused receive span (None) adopts
    # the sender's context as is.
    tracer = Tracer(Simulator(), enabled=True)
    tracer.post(("vrpc", 9), (3, 4))
    assert tracer.claim(("vrpc", 9), None) == (3, 4)
    assert tracer.claim(("vrpc", 9), None) == (3, 4)
    tracer.clear()
    assert tracer.claim(("vrpc", 9), None) is None


def test_claim_finds_nothing_unposted_or_withdrawn():
    tracer = Tracer(Simulator(), enabled=True)
    span = tracer.begin("kv.serve", "serve", data={"op": 1})
    assert tracer.claim(("n0", 1), span) is None
    tracer.post(("n0", 1), (3, 4))
    tracer.post(("n0", 1), None)  # a reused key sent without context
    assert tracer.claim(("n0", 1), span) is None
    assert span.data == {"op": 1}


def test_stopwatch_measures_span():
    sim = Simulator()
    sw = Stopwatch(sim)
    sw.start()
    sim.schedule_call(4.0, lambda: None)
    sim.run()
    assert sw.stop() == 4.0
    assert sw.elapsed == 4.0


def test_stopwatch_stop_without_start_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        Stopwatch(sim).stop()
