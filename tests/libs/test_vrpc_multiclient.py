"""VRPC multi-client serving: svc_run multiplexes bound transports."""

import struct

import pytest

from repro.libs.rpc import VrpcServer, clnt_create
from repro.libs.rpc.xdr import XdrDecoder, XdrEncoder
from repro.sim.faults import Fault, FaultKind, FaultPlan, FaultSite
from repro.testbed import make_system

PROG, VERS = 0x600, 1


def test_two_clients_interleave_calls():
    system = make_system()
    results = {}

    def server(proc):
        srv = VrpcServer(system, proc, PROG, VERS)
        srv.register(
            1, lambda n: n + 1000,
            decode_args=lambda dec: dec.unpack_int(),
            encode_result=lambda enc, v: enc.pack_int(v),
        )
        yield from srv.accept_binding()
        yield from srv.accept_binding()
        yield from srv.svc_run(max_calls=12)
        results["served"] = srv.calls_served
        results["transports"] = len(srv.transports)

    def client(node):
        def body(proc):
            handle = yield from clnt_create(system, proc, 1, PROG, VERS)
            got = []
            for i in range(6):
                value = yield from handle.call(
                    1, node * 100 + i,
                    encode_args=lambda enc, v: enc.pack_int(v),
                    decode_result=lambda dec: dec.unpack_int(),
                )
                got.append(value)
                yield from proc.compute(25.0)  # interleave with the peer
            results["client-%d" % node] = got

        return body

    handles = [
        system.spawn(1, server),
        system.spawn(0, client(0)),
        system.spawn(2, client(2)),
    ]
    system.run_processes(handles)
    assert results["served"] == 12
    assert results["transports"] == 2
    assert results["client-0"] == [1000 + i for i in range(6)]
    assert results["client-2"] == [1200 + i for i in range(6)]


def test_three_clients_fair_service():
    """Three clients hammer the server; every call gets its own answer
    (no cross-binding reply leakage)."""
    system = make_system()
    results = {}
    n_calls = 5

    def server(proc):
        srv = VrpcServer(system, proc, PROG, VERS)
        srv.register(
            2, lambda s: s[::-1],
            decode_args=lambda dec: dec.unpack_string(),
            encode_result=lambda enc, v: enc.pack_string(v),
        )
        for _ in range(3):
            yield from srv.accept_binding()
        yield from srv.svc_run(max_calls=3 * n_calls)

    def client(node):
        def body(proc):
            handle = yield from clnt_create(system, proc, 1, PROG, VERS)
            ok = True
            for i in range(n_calls):
                text = "node%d-call%d" % (node, i)
                value = yield from handle.call(
                    2, text,
                    encode_args=lambda enc, v: enc.pack_string(v),
                    decode_result=lambda dec: dec.unpack_string(),
                )
                ok = ok and (value == text[::-1])
            results[node] = ok

        return body

    handles = [system.spawn(1, server)]
    for node in (0, 2, 3):
        handles.append(system.spawn(node, client(node)))
    system.run_processes(handles)
    assert results == {0: True, 2: True, 3: True}


def _two_client_run(garbage_flag):
    """Two hardened clients, one call each; optionally poke a garbage
    flag word into one server-side stream 50 us after both bind.
    Returns the dispatched event count."""
    # A plan whose only fault lies past the end of the run: the
    # protocols run hardened, but nothing strikes.
    plan = FaultPlan([Fault(time=1e9, site=FaultSite.MESH_LINK,
                            kind=FaultKind.DROP)])
    system = make_system(fault_plan=plan)
    results = {}

    def server(proc):
        srv = VrpcServer(system, proc, PROG, VERS)
        srv.register(
            1, lambda n: n + 1000,
            decode_args=lambda dec: dec.unpack_int(),
            encode_result=lambda enc, v: enc.pack_int(v),
        )
        yield from srv.accept_binding()
        yield from srv.accept_binding()
        if garbage_flag:
            flag_word = srv.transports[1].in_vaddr
            system.sim.timeout(50.0).add_callback(
                lambda _e: proc.poke(flag_word, struct.pack("<I", 0xFF0000FF)))
        yield from srv.svc_run(max_calls=2)

    def client(node, delay_us):
        def body(proc):
            handle = yield from clnt_create(system, proc, 1, PROG, VERS)
            yield from proc.compute(delay_us)
            results[node] = yield from handle.call(
                1, node,
                encode_args=lambda enc, v: enc.pack_int(v),
                decode_result=lambda dec: dec.unpack_int(),
            )

        return body

    handles = [system.spawn(1, server),
               system.spawn(0, client(0, 2000.0)),
               system.spawn(2, client(2, 2600.0))]
    system.run_processes(handles)
    assert results == {0: 1000, 2: 1002}
    assert system.faults.report().startswith("fault injector: 0 fired")
    return system.sim.events_executed


def test_hardened_server_sleeps_through_a_garbage_flag_word():
    """A corrupted flag word is not a call.  The server must keep
    sleeping until a write lands, not re-check every transport with
    timed reads until the client's next transmission rewrites it."""
    quiet = _two_client_run(garbage_flag=False)
    poked = _two_client_run(garbage_flag=True)
    assert poked <= quiet * 1.1, (quiet, poked)
