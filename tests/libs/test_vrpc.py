"""VRPC tests: SunRPC headers, binding, calls, faults, both variants."""

import pytest

from repro.libs.rpc import (
    PROC_UNAVAIL,
    RpcCallHeader,
    RpcFault,
    RpcReplyHeader,
    SUCCESS,
    VrpcServer,
    XdrDecoder,
    XdrEncoder,
    clnt_create,
)
from repro.testbed import make_system

PROG, VERS = 0x20000A11, 1


class TestHeaders:
    def test_call_header_roundtrip(self):
        enc = XdrEncoder()
        RpcCallHeader(xid=0x1234, prog=PROG, vers=VERS, proc=3).encode(enc)
        header = RpcCallHeader.decode(XdrDecoder(enc.getvalue()))
        assert (header.xid, header.prog, header.vers, header.proc) == (0x1234, PROG, VERS, 3)

    def test_call_header_size_is_nontrivial(self):
        """The SunRPC header cost the specialized RPC avoids (Figure 8)."""
        enc = XdrEncoder()
        RpcCallHeader(xid=1, prog=PROG, vers=VERS, proc=0).encode(enc)
        assert len(enc.getvalue()) == 40

    def test_reply_header_roundtrip(self):
        enc = XdrEncoder()
        RpcReplyHeader(xid=7, accept_status=SUCCESS).encode(enc)
        reply = RpcReplyHeader.decode(XdrDecoder(enc.getvalue()))
        assert reply.xid == 7
        assert reply.accept_status == SUCCESS

    def test_reply_decoding_call_raises(self):
        enc = XdrEncoder()
        RpcCallHeader(xid=1, prog=PROG, vers=VERS, proc=0).encode(enc)
        with pytest.raises(Exception):
            RpcReplyHeader.decode(XdrDecoder(enc.getvalue()))


def rpc_pair(client_body, register, automatic=True, max_calls=None, n_calls_hint=4):
    """Server on node 1, client on node 0; returns (client result, server)."""
    system = make_system()
    state = {}

    def server(proc):
        srv = VrpcServer(system, proc, PROG, VERS, automatic=automatic)
        register(srv)
        ok = yield from srv.accept_binding()
        assert ok
        yield from srv.svc_run(max_calls=max_calls or n_calls_hint)
        state["server"] = srv

    def client(proc):
        handle = yield from clnt_create(system, proc, 1, PROG, VERS,
                                        automatic=automatic)
        result = yield from client_body(proc, handle)
        state["client"] = result

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return state


def test_null_call():
    def register(srv):
        srv.register(0, lambda args: None)

    def body(proc, client):
        result = yield from client.call(0)
        return result

    state = rpc_pair(body, register, n_calls_hint=1)
    assert state["client"] is None
    assert state["server"].calls_served == 1


@pytest.mark.parametrize("automatic", [True, False])
def test_echo_string_both_variants(automatic):
    def register(srv):
        srv.register(
            1,
            lambda s: s.upper(),
            decode_args=lambda dec: dec.unpack_string(),
            encode_result=lambda enc, v: enc.pack_string(v),
        )

    def body(proc, client):
        result = yield from client.call(
            1, "shrimp rpc",
            encode_args=lambda enc, v: enc.pack_string(v),
            decode_result=lambda dec: dec.unpack_string(),
        )
        return result

    state = rpc_pair(body, register, automatic=automatic, n_calls_hint=1)
    assert state["client"] == "SHRIMP RPC"


def test_struct_arguments_and_results():
    def register(srv):
        def add_vectors(args):
            a, b = args
            return [x + y for x, y in zip(a, b)]

        srv.register(
            2, add_vectors,
            decode_args=lambda dec: (
                dec.unpack_array(XdrDecoder.unpack_int),
                dec.unpack_array(XdrDecoder.unpack_int),
            ),
            encode_result=lambda enc, v: enc.pack_array(v, XdrEncoder.pack_int),
        )

    def body(proc, client):
        result = yield from client.call(
            2, ([1, 2, 3], [10, 20, 30]),
            encode_args=lambda enc, v: (
                enc.pack_array(v[0], XdrEncoder.pack_int),
                enc.pack_array(v[1], XdrEncoder.pack_int),
            ),
            decode_result=lambda dec: dec.unpack_array(XdrDecoder.unpack_int),
        )
        return result

    state = rpc_pair(body, register, n_calls_hint=1)
    assert state["client"] == [11, 22, 33]


def test_multiple_sequential_calls_share_binding():
    def register(srv):
        srv.register(
            3, lambda n: n * n,
            decode_args=lambda dec: dec.unpack_int(),
            encode_result=lambda enc, v: enc.pack_int(v),
        )

    def body(proc, client):
        results = []
        for n in range(5):
            r = yield from client.call(
                3, n,
                encode_args=lambda enc, v: enc.pack_int(v),
                decode_result=lambda dec: dec.unpack_int(),
            )
            results.append(r)
        return results

    state = rpc_pair(body, register, max_calls=5)
    assert state["client"] == [0, 1, 4, 9, 16]


def test_unknown_procedure_faults():
    def register(srv):
        srv.register(0, lambda args: None)

    def body(proc, client):
        try:
            yield from client.call(99)
        except RpcFault as fault:
            return fault.status

    state = rpc_pair(body, register, n_calls_hint=1)
    assert state["client"] == PROC_UNAVAIL


def test_large_opaque_argument():
    blob = bytes(range(256)) * 32  # 8 KB through the 16 KB stream ring

    def register(srv):
        srv.register(
            4, lambda data: len(data),
            decode_args=lambda dec: dec.unpack_opaque(),
            encode_result=lambda enc, v: enc.pack_int(v),
        )

    def body(proc, client):
        result = yield from client.call(
            4, blob,
            encode_args=lambda enc, v: enc.pack_opaque(v),
            decode_result=lambda dec: dec.unpack_int(),
        )
        return result

    state = rpc_pair(body, register, n_calls_hint=1)
    assert state["client"] == len(blob)


def test_stream_ring_wraps_across_many_calls():
    """Enough traffic to wrap the 16 KB cyclic queue several times."""
    blob = bytes(1000)

    def register(srv):
        srv.register(
            5, lambda data: data[:8],
            decode_args=lambda dec: dec.unpack_opaque(),
            encode_result=lambda enc, v: enc.pack_opaque(v),
        )

    def body(proc, client):
        for i in range(60):
            result = yield from client.call(
                5, blob,
                encode_args=lambda enc, v: enc.pack_opaque(v),
                decode_result=lambda dec: dec.unpack_opaque(),
            )
            assert result == blob[:8]
        return "wrapped"

    state = rpc_pair(body, register, max_calls=60)
    assert state["client"] == "wrapped"


def test_null_rtt_near_29us():
    """Headline scalar: 'a round-trip time of about 29 usec for a null
    RPC with no arguments and results.'"""
    system = make_system()
    timing = {}

    def server(proc):
        srv = VrpcServer(system, proc, PROG, VERS, automatic=True)
        srv.register(0, lambda args: None)
        yield from srv.accept_binding()
        yield from srv.svc_run(max_calls=12)

    def client(proc):
        client_handle = yield from clnt_create(system, proc, 1, PROG, VERS)
        yield from client_handle.call(0)  # warmup
        yield from client_handle.call(0)
        start = proc.sim.now
        for _ in range(10):
            yield from client_handle.call(0)
        timing["rtt"] = (proc.sim.now - start) / 10

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    assert 26.0 < timing["rtt"] < 32.0, timing["rtt"]


def _null_call(trace):
    """One VRPC null call, made under a trace context when ``trace``;
    returns the run's spans and the call's simulated completion time."""
    system = make_system()
    tracer = system.machine.tracer
    tracer.enabled = trace
    done = {}

    def server(proc):
        srv = VrpcServer(system, proc, PROG, VERS)
        srv.register(0, lambda args: None)
        yield from srv.accept_binding()
        yield from srv.svc_run(max_calls=1)

    def client(proc):
        handle = yield from clnt_create(system, proc, 1, PROG, VERS)
        if trace:
            proc.trace_ctx = (tracer.new_trace_id(), tracer.reserve_sid())
        yield from handle.call(0)
        done["us"] = proc.sim.now

    system.run_processes([system.spawn(1, server), system.spawn(0, client)])
    return tracer.spans, done["us"]


def test_traced_call_links_its_serve_span_without_moving_time():
    spans, traced_us = _null_call(trace=True)
    _, untraced_us = _null_call(trace=False)
    (call,) = [s for s in spans if s.category == "vrpc.call"]
    (serve,) = [s for s in spans if s.category == "vrpc.serve"]
    assert serve.data == {"tid": call.data["tid"], "xparent": call.sid}
    assert traced_us == untraced_us
