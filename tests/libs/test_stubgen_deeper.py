"""Deeper stub-generator tests: every type, every direction, edge shapes."""

import pytest

from repro.libs.shrimp_rpc import compile_stubs, generate_stubs, parse_idl
from repro.libs.shrimp_rpc.runtime import decode_value, encode_value
from repro.libs.shrimp_rpc.idl import IdlType
from repro.testbed import make_system

ALL_TYPES_IDL = """
program Kitchen version 3 {
    void nothing();
    int negate(in int x);
    uint mask(in uint x);
    float halve(in float x);
    double stats(in double xs[5]);
    opaque[16] xor16(in opaque[16] a, in opaque[16] b);
    void swap(inout int a, inout int b);
    void produce(out double d, out string<16> label);
    uint many(in int a, in uint b, in double c, in opaque<8> d);
}
"""


class KitchenImpl:
    def nothing(self):
        return None
        yield  # pragma: no cover

    def negate(self, x):
        return -x
        yield  # pragma: no cover

    def mask(self, x):
        return x & 0xFFFF0000
        yield  # pragma: no cover

    def halve(self, x):
        return x / 2.0
        yield  # pragma: no cover

    def stats(self, xs):
        return sum(xs)
        yield  # pragma: no cover

    def xor16(self, a, b):
        return bytes(x ^ y for x, y in zip(a, b))
        yield  # pragma: no cover

    def swap(self, a, b):
        va = yield from a.get()
        vb = yield from b.get()
        yield from a.set(vb)
        yield from b.set(va)

    def produce(self, d, label):
        yield from d.set(2.5)
        yield from label.set("made-it")

    def many(self, a, b, c, d):
        return (a + b + int(c) + len(d)) & 0xFFFFFFFF
        yield  # pragma: no cover


def run_kitchen(body, max_calls):
    system = make_system()
    client_cls, server_cls, _ = compile_stubs(ALL_TYPES_IDL)

    def server(proc):
        srv = server_cls(system, proc, KitchenImpl())
        yield from srv.serve_binding(port=9)
        yield from srv.run(max_calls=max_calls)

    out = {}

    def client(proc):
        cl = client_cls(system, proc)
        yield from cl.bind(1, port=9)
        out["result"] = yield from body(cl)

    system.run_processes([system.spawn(1, server), system.spawn(0, client)])
    return out["result"]


def test_every_scalar_type():
    def body(cl):
        results = []
        results.append((yield from cl.nothing()))
        results.append((yield from cl.negate(-17)))
        results.append((yield from cl.mask(0xDEADBEEF)))
        results.append((yield from cl.halve(5.0)))
        return results

    assert run_kitchen(body, 4) == [None, 17, 0xDEAD0000, 2.5]


def test_fixed_array_and_fixed_opaque():
    def body(cl):
        total = yield from cl.stats([1.5, 2.5, 3.0, -1.0, 4.0])
        xored = yield from cl.xor16(bytes(range(16)), b"\xff" * 16)
        return total, xored

    total, xored = run_kitchen(body, 2)
    assert total == pytest.approx(10.0)
    assert xored == bytes(255 - i for i in range(16))


def test_two_inout_params_swap():
    def body(cl):
        result = yield from cl.swap(111, 222)
        return result

    assert run_kitchen(body, 1) == (222, 111)


def test_pure_out_params():
    def body(cl):
        result = yield from cl.produce()
        return result

    assert run_kitchen(body, 1) == (2.5, "made-it")


def test_mixed_parameter_pack():
    def body(cl):
        result = yield from cl.many(1, 2, 3.9, b"abcd")
        return result

    assert run_kitchen(body, 1) == 1 + 2 + 3 + 4


def test_generated_source_has_docstrings_and_ids():
    source = generate_stubs(ALL_TYPES_IDL)
    assert '"""void swap(inout int a, inout int b)"""' in source
    for i in range(1, 10):
        assert "_dispatch_%d" % i in source
    # The generated module embeds its own IDL (self-contained).
    assert "program Kitchen version 3" in source


def test_codec_roundtrip_every_type():
    idl = parse_idl(ALL_TYPES_IDL)
    samples = {
        "int": -5,
        "uint": 0xCAFEBABE,
        "float": 0.5,
        "double": -1.25,
        "array": [1.0, 2.0, 3.0, 4.0, 5.0],
        "opaque_fixed": bytes(range(16)),
        "opaque_var": b"abc",
        "string": "hello",
    }
    types = {
        "int": IdlType("int"),
        "uint": IdlType("uint"),
        "float": IdlType("float"),
        "double": IdlType("double"),
        "array": IdlType("array", 5, "double"),
        "opaque_fixed": IdlType("opaque_fixed", 16),
        "opaque_var": IdlType("opaque_var", 8),
        "string": IdlType("string", 16),
    }
    for kind, value in samples.items():
        idltype = types[kind]
        raw = encode_value(idltype, value)
        # A value ends at its slot's end: whatever precedes it in the
        # slot (zeros, or a longer value's stale bytes) is ignored.
        for filler in (0x00, 0xEE):
            slot = bytes([filler]) * (idltype.slot_bytes - len(raw)) + raw
            assert decode_value(idltype, slot) == value
        assert decode_value(idltype, raw) == value
    # A variable-bounded value is its data, zero pad, then its length.
    assert encode_value(types["opaque_var"], b"abc") == b"abc\x00\x03\x00\x00\x00"
    assert encode_value(types["string"], "") == b"\x00" * 4
    assert idl.procedure("many").args_bytes == 4 + 4 + 8 + (8 + 4)
