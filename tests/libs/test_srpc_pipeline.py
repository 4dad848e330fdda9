"""Pipelined (multi-call window) SHRIMP RPC: submit/finish, ordering,
flow control, and zero-overhead equivalence at window=1.

The pipelining contract under test (docs/PROTOCOLS.md):

* a binding opened with ``window=W`` may keep up to W calls in flight,
  each in its own frame of the replicated buffer;
* the server serves strictly in sequence order (the binding FIFO is the
  program order), but the client may *finish* tickets in any order;
* submitting an eighth call into a full 4-deep window first harvests
  the frame's occupant (sliding-window flow control), so overcommitting
  is safe, just not faster;
* ``window=1`` is byte-identical to the unwindowed protocol — same
  frames, same timing.
"""

import pytest

from repro.libs.shrimp_rpc import SrpcError, compile_stubs
from repro.testbed import make_system

PIPE_IDL = """
program Pipe version 1 {
    int add(in int a, in int b);
    int negate(in int a);
    string<64> label(in int a);
}
"""


class PipeImpl:
    """Records dispatch order so tests can assert server-side FIFO."""

    def __init__(self):
        self.order = []

    def add(self, a, b):
        self.order.append(("add", a, b))
        return a + b
        yield  # pragma: no cover

    def negate(self, a):
        self.order.append(("negate", a))
        return -a
        yield  # pragma: no cover

    def label(self, a):
        self.order.append(("label", a))
        return "value-%d" % a
        yield  # pragma: no cover


def run_pipe(client_body, window=4, max_calls=None):
    """One client binding against one server handler, both windowed."""
    system = make_system()
    client_cls, server_cls, _idl = compile_stubs(PIPE_IDL)
    impl = PipeImpl()
    state = {"impl": impl}

    def server(proc):
        srv = server_cls(system, proc, impl, window=window)
        yield from srv.serve_binding(port=9)
        yield from srv.run(max_calls=max_calls)
        state["served"] = srv.calls_served

    def client(proc):
        cl = client_cls(system, proc, window=window)
        yield from cl.bind(1, port=9)
        state["client"] = cl
        state["result"] = yield from client_body(proc, cl)
        yield from cl.drain()

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return state


def test_window_validation():
    system = make_system()
    client_cls, _server_cls, _ = compile_stubs(PIPE_IDL)

    def client(proc):
        with pytest.raises(SrpcError):
            client_cls(system, proc, window=0)
        with pytest.raises(SrpcError):
            client_cls(system, proc, window=65)
        return
        yield  # pragma: no cover

    system.run_processes([system.spawn(0, client)])


def test_submit_then_finish_in_order():
    def body(proc, cl):
        t1 = yield from cl.add_begin(1, 2)
        t2 = yield from cl.add_begin(3, 4)
        r1 = yield from cl.finish(t1)
        r2 = yield from cl.finish(t2)
        return [r1, r2]

    state = run_pipe(body, window=4, max_calls=2)
    assert state["result"] == [3, 7]
    assert state["served"] == 2


def test_out_of_order_finish():
    """Replies are matched by sequence-numbered frame, not arrival
    order: finishing the newest ticket first must not disturb the
    others' results."""
    def body(proc, cl):
        tickets = []
        for i in range(4):
            t = yield from cl.add_begin(i, 10 * i)
            tickets.append(t)
        results = []
        for t in reversed(tickets):
            r = yield from cl.finish(t)
            results.append(r)
        return results

    state = run_pipe(body, window=4, max_calls=4)
    assert state["result"] == [33, 22, 11, 0]


def test_mixed_procedures_in_flight():
    """Different procedures share the window; each ticket decodes with
    its own procedure's reply shape."""
    def body(proc, cl):
        ta = yield from cl.add_begin(20, 22)
        tn = yield from cl.negate_begin(5)
        tl = yield from cl.label_begin(7)
        label = yield from cl.finish(tl)
        neg = yield from cl.finish(tn)
        add = yield from cl.finish(ta)
        return [add, neg, label]

    state = run_pipe(body, window=4, max_calls=3)
    assert state["result"] == [42, -5, "value-7"]


def test_server_dispatches_in_sequence_order():
    def body(proc, cl):
        tickets = []
        for i in range(6):
            t = yield from cl.add_begin(i, 0)
            tickets.append(t)
        results = []
        for t in reversed(tickets):
            results.append((yield from cl.finish(t)))
        return results

    state = run_pipe(body, window=3, max_calls=6)
    assert state["result"] == [5, 4, 3, 2, 1, 0]
    # The server saw program order even though finishes were reversed.
    assert state["impl"].order == [("add", i, 0) for i in range(6)]


def test_overcommit_window_blocks_not_breaks():
    """Submitting more calls than the window holds forces a harvest of
    the reused frame — results still come back complete and correct."""
    def body(proc, cl):
        tickets = []
        for i in range(8):
            tickets.append((yield from cl.add_begin(i, 100)))
        results = []
        for t in tickets:
            results.append((yield from cl.finish(t)))
        return results

    state = run_pipe(body, window=2, max_calls=8)
    assert state["result"] == [100 + i for i in range(8)]
    assert state["client"].inflight_high_water <= 2


def test_drain_completes_outstanding():
    def body(proc, cl):
        yield from cl.add_begin(1, 1)
        yield from cl.add_begin(2, 2)
        yield from cl.drain()
        assert not cl._frames
        return "drained"

    state = run_pipe(body, window=4, max_calls=2)
    assert state["result"] == "drained"


def test_sync_calls_still_work_on_windowed_binding():
    """A plain call on a windowed binding drains the pipeline first and
    then runs synchronously — the two styles compose."""
    def body(proc, cl):
        t = yield from cl.add_begin(1, 2)
        sync = yield from cl.add(10, 20)
        pipelined = yield from cl.finish(t)
        return [sync, pipelined]

    state = run_pipe(body, window=4, max_calls=2)
    assert state["result"] == [30, 3]


def test_depth_statistics():
    def body(proc, cl):
        tickets = []
        for i in range(4):
            tickets.append((yield from cl.add_begin(i, 0)))
        for t in tickets:
            yield from cl.finish(t)
        return None

    state = run_pipe(body, window=4, max_calls=4)
    cl = state["client"]
    assert cl.submits == 4
    assert cl.inflight_high_water == 4
    assert cl.mean_depth > 1.0


def test_finish_is_idempotent_per_ticket():
    """A ticket already finished returns its cached decode — replayed
    harvests never hit the wire twice."""
    def body(proc, cl):
        t = yield from cl.add_begin(6, 7)
        first = yield from cl.finish(t)
        again = yield from cl.finish(t)
        return [first, again]

    state = run_pipe(body, window=4, max_calls=1)
    assert state["result"] == [13, 13]


def test_window_one_matches_unwindowed_timing():
    """window=1 is the zero-overhead mode: the same call sequence takes
    exactly as long as on an unwindowed binding."""
    def elapsed(window):
        system = make_system()
        client_cls, server_cls, _ = compile_stubs(PIPE_IDL)
        timing = {}

        def server(proc):
            srv = server_cls(system, proc, PipeImpl(), window=window)
            yield from srv.serve_binding(port=3)
            yield from srv.run(max_calls=5)

        def client(proc):
            cl = client_cls(system, proc, window=window)
            yield from cl.bind(1, port=3)
            start = proc.sim.now
            for i in range(5):
                yield from cl.add(i, i)
            timing["us"] = proc.sim.now - start

        system.run_processes([system.spawn(1, server),
                              system.spawn(0, client)])
        return timing["us"]

    base = elapsed(1)
    # Construct the unwindowed binding by omitting the kwarg entirely.
    system = make_system()
    client_cls, server_cls, _ = compile_stubs(PIPE_IDL)
    timing = {}

    def server(proc):
        srv = server_cls(system, proc, PipeImpl())
        yield from srv.serve_binding(port=3)
        yield from srv.run(max_calls=5)

    def client(proc):
        cl = client_cls(system, proc)
        yield from cl.bind(1, port=3)
        start = proc.sim.now
        for i in range(5):
            yield from cl.add(i, i)
        timing["us"] = proc.sim.now - start

    system.run_processes([system.spawn(1, server), system.spawn(0, client)])
    assert base == timing["us"]


def test_pipelining_overlaps_round_trips():
    """The point of the window: W calls submitted together complete in
    less wall-clock than W sequential round trips."""
    def sequential(proc, cl):
        start = proc.sim.now
        for i in range(4):
            yield from cl.add(i, i)
        return proc.sim.now - start

    def pipelined(proc, cl):
        start = proc.sim.now
        tickets = []
        for i in range(4):
            tickets.append((yield from cl.add_begin(i, i)))
        for t in tickets:
            yield from cl.finish(t)
        return proc.sim.now - start

    seq_us = run_pipe(sequential, window=1, max_calls=4)["result"]
    pipe_us = run_pipe(pipelined, window=4, max_calls=4)["result"]
    assert pipe_us < seq_us


def _sync_call_tree(window):
    """The span tree under one bare synchronous call's ``srpc.call``
    span, as nested ``(category, children)`` pairs."""
    system = make_system()
    system.machine.tracer.enabled = True
    client_cls, server_cls, _ = compile_stubs(PIPE_IDL)

    def server(proc):
        srv = server_cls(system, proc, PipeImpl(), window=window)
        yield from srv.serve_binding(port=4)
        yield from srv.run(max_calls=1)

    def client(proc):
        cl = client_cls(system, proc, window=window)
        yield from cl.bind(1, port=4)
        assert (yield from cl.add(2, 3)) == 5

    system.run_processes([system.spawn(1, server), system.spawn(0, client)])
    spans = system.machine.tracer.spans
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def tree(span):
        return (span.category,
                [tree(child) for child in children.get(span.sid, [])])

    (call,) = [s for s in spans if s.category == "srpc.call"]
    return tree(call)


def test_sync_call_has_one_span_tree_at_every_window():
    """A synchronous call is a one-frame pipelined call at any window,
    so its buffer stores and its poll nest under ``srpc.call`` on a
    4-deep binding exactly as on a 1-deep one."""
    narrow = _sync_call_tree(1)
    assert {category for category, _ in narrow[1]} >= {"cpu.store",
                                                       "cpu.poll"}
    assert _sync_call_tree(4) == narrow
