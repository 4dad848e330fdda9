"""SHRIMP RPC frame layout: every value is right-aligned.

A procedure's parameter block ends at the call word, a variable-bounded
slot keeps its length word at the slot's end with the data just before
it, and a return value ends at the return word.  So a short call's
stores and its call word leave as one combined automatic-update packet,
and so do a reply's value and its return word ('the buffers are laid
out so that the flag is immediately after the data').  These tests
count the packets each side forms per call and round-trip every IDL
kind through real calls, plain and hardened.
"""

import pytest

from repro.apps.kv.server import KV_IDL
from repro.bench.libraries import _FIG8_IDL
from repro.libs.shrimp_rpc import compile_stubs
from repro.sim.faults import Fault, FaultKind, FaultPlan, FaultSite
from repro.testbed import make_system


def _packets_per_call(idl, impl, call, calls=4, warmup=2):
    """(client, server) packets formed per call on a direct binding,
    over ``calls`` timed calls after ``warmup``."""
    system = make_system()
    client_cls, server_cls, _idl = compile_stubs(idl)
    nics = [system.machine.nodes[n].nic.packetizer for n in (0, 1)]
    marks = {}

    def server(proc):
        srv = server_cls(system, proc, impl)
        yield from srv.serve_binding(port=5)
        yield from srv.run(max_calls=warmup + calls)

    def client(proc):
        cl = client_cls(system, proc)
        yield from cl.bind(1, port=5)
        for i in range(warmup + calls):
            if i == warmup:
                marks["start"] = [nic.packets_formed for nic in nics]
            yield from call(cl)
        marks["end"] = [nic.packets_formed for nic in nics]

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return tuple((end - start) / calls
                 for start, end in zip(marks["start"], marks["end"]))


class _NullImpl:
    def touch(self, buf):
        return None
        yield  # pragma: no cover


class _KvImpl:
    def get(self, key):
        return b"\x00" + bytes(range(32))  # status byte + 32-byte value
        yield  # pragma: no cover

    def put(self, key, value):
        return 0
        yield  # pragma: no cover


def test_figure8_null_call_is_one_packet_each_way():
    assert _packets_per_call(_FIG8_IDL, _NullImpl(),
                             lambda cl: cl.touch(b"")) == (1.0, 1.0)


def test_kv_get_is_one_packet_each_way():
    assert _packets_per_call(KV_IDL, _KvImpl(),
                             lambda cl: cl.get("k" * 7)) == (1.0, 1.0)


def test_kv_put_is_two_packets_out_and_one_back():
    # The key's slot ends where the value's slot starts, so a short key
    # and a short value are two runs; the int result is one packet.
    assert _packets_per_call(KV_IDL, _KvImpl(),
                             lambda cl: cl.put("k" * 7, bytes(32))) == (2.0, 1.0)


KINDS_IDL = """
program Kinds version 1 {
    int k_int(in int a, inout int b, out int c);
    uint k_uint(in uint a, inout uint b, out uint c);
    float k_float(in float a, inout float b, out float c);
    double k_double(in double a, inout double b, out double c);
    double[3] k_array(in double a[3], inout double b[3], out double c[3]);
    opaque[5] k_fixed(in opaque[5] a, inout opaque[5] b, out opaque[5] c);
    opaque<9> k_opaque(in opaque<9> a, inout opaque<9> b, out opaque<9> c);
    string<8> k_string(in string<8> a, inout string<8> b, out string<8> c);
}
"""


def _variable_pairs(make, bound):
    """(a, b) value pairs covering lengths 0, 1, bound - 1 and bound on
    both arguments; b's length mirrors a's, so each slot is rewritten
    with a value of another length."""
    return [(make(n), make(bound - n)) for n in (0, 1, bound - 1, bound)]


CASES = [
    ("k_int", -7, 123456),
    ("k_uint", 0xCAFEBABE, 1),
    ("k_float", 0.5, -2.25),
    ("k_double", -1.125, 1e300),
    ("k_array", [1.0, 2.0, 3.0], [-4.0, 0.0, 6.5]),
    ("k_fixed", b"\x01\x02\x03\x04\x05", b"abcde"),
] + [
    ("k_opaque", a, b)
    for a, b in _variable_pairs(lambda n: bytes(range(1, n + 1)), 9)
] + [
    ("k_string", a, b)
    for a, b in _variable_pairs(lambda n: "shrimp-!"[:n], 8)
]


class _EchoImpl:
    """Every procedure records what it was passed, moves IN ``a`` into
    INOUT ``b`` and the old ``b`` into OUT ``c``, and returns ``a``."""

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        def procedure(a, b, c):
            old = yield from b.get()
            self.seen.append((name, a, old))
            yield from b.set(a)
            yield from c.set(old)
            return a
        return procedure


@pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
def test_every_kind_round_trips_at_every_length(hardened):
    # A plan whose only fault lies past the end of the run: the
    # protocol runs hardened, but nothing strikes.
    plan = (FaultPlan([Fault(time=1e9, site=FaultSite.MESH_LINK,
                             kind=FaultKind.DROP)]) if hardened else None)
    system = make_system(fault_plan=plan)
    client_cls, server_cls, _idl = compile_stubs(KINDS_IDL)
    impl = _EchoImpl()
    replies = []

    def server(proc):
        srv = server_cls(system, proc, impl)
        assert srv.hardened == hardened
        yield from srv.serve_binding(port=5)
        yield from srv.run(max_calls=len(CASES))

    def client(proc):
        cl = client_cls(system, proc)
        yield from cl.bind(1, port=5)
        for name, a, b in CASES:
            replies.append((yield from getattr(cl, name)(a, b)))

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    assert impl.seen == [(name, a, b) for name, a, b in CASES]
    assert replies == [(a, a, b) for _name, a, b in CASES]
