"""Specialized SHRIMP RPC tests: IDL, stub generation, calls, AU return."""

import pytest

from repro.libs.shrimp_rpc import (
    IdlError,
    SrpcError,
    compile_stubs,
    generate_stubs,
    parse_idl,
)
from repro.testbed import make_system

CALC_IDL = """
program Calc version 1 {
    int add(in int a, in int b);
    void touch(inout opaque<1000> buf);
    double dot(in double x[3], in double y[3]);
    string<64> greet(in string<32> name);
    void fill(out opaque[8] pattern, in int seed);
}
"""


class TestIdl:
    def test_parse_structure(self):
        idl = parse_idl(CALC_IDL)
        assert idl.name == "Calc"
        assert idl.version == 1
        assert [p.name for p in idl.procedures] == [
            "add", "touch", "dot", "greet", "fill",
        ]

    def test_fixed_offsets(self):
        # Every parameter block is right-aligned: it ends where the
        # argument area (touch's 1004 bytes) does, at the call word.
        idl = parse_idl(CALC_IDL)
        add = idl.procedure("add")
        assert [p.offset for p in add.params] == [996, 1000]
        assert add.args_bytes == 8
        dot = idl.procedure("dot")
        assert [p.offset for p in dot.params] == [956, 980]
        assert dot.args_bytes == 48
        assert [p.offset for p in idl.procedure("touch").params] == [0]
        assert [p.offset for p in idl.procedure("fill").params] == [992, 1000]

    def test_areas_are_max_over_procedures(self):
        idl = parse_idl(CALC_IDL)
        touch = idl.procedure("touch")
        assert touch.args_bytes == 1000 + 4  # bounded payload + length word
        assert idl.args_area_bytes == touch.args_bytes
        assert idl.ret_area_bytes == 4 + 64  # greet's string<64> return

    def test_variable_types_reserve_bounded_slots(self):
        idl = parse_idl(CALC_IDL)
        greet = idl.procedure("greet")
        assert greet.params[0].type.slot_bytes == 4 + 32
        assert greet.return_type.slot_bytes == 4 + 64

    @pytest.mark.parametrize("bad", [
        "",
        "program X { }",                       # missing version
        "program X version 1 {\n}",            # no procedures
        "program X version 1 {\nint f(in void v);\n}",
        "program X version 1 {\nint f(sideways int v);\n}",
        "program X version 1 {\nint f(in int a);\nint f(in int b);\n}",
        "program X version 1 {\nwat f();\n}",
    ])
    def test_rejects_bad_definitions(self, bad):
        with pytest.raises(IdlError):
            parse_idl(bad)

    def test_comments_stripped(self):
        idl = parse_idl(
            "program C version 3 { // interface\n"
            "int f(in int a); // adds\n"
            "}"
        )
        assert idl.procedure("f").proc_id == 1


class TestStubgen:
    def test_generated_source_is_valid_python(self):
        source = generate_stubs(CALC_IDL)
        compile(source, "<test>", "exec")
        assert "class CalcClient" in source
        assert "class CalcServer" in source
        assert "_dispatch_1" in source

    def test_compile_stubs_returns_classes(self):
        client_cls, server_cls, idl = compile_stubs(CALC_IDL)
        assert client_cls.__name__ == "CalcClient"
        assert server_cls.__name__ == "CalcServer"
        assert idl.name == "Calc"
        for proc in idl.procedures:
            assert hasattr(client_cls, proc.name)
            assert hasattr(server_cls, "_dispatch_%d" % proc.proc_id)


class CalcImpl:
    """Server implementation: generator methods, refs for out/inout."""

    def add(self, a, b):
        return a + b
        yield  # pragma: no cover

    def touch(self, buf):
        data = yield from buf.get()
        if data.startswith(b"flip"):
            yield from buf.set(data[::-1])

    def dot(self, x, y):
        return sum(a * b for a, b in zip(x, y))
        yield  # pragma: no cover

    def greet(self, name):
        return "hello, %s!" % name
        yield  # pragma: no cover

    def fill(self, pattern, seed):
        yield from pattern.set(bytes((seed + i) % 256 for i in range(8)))


def run_calc(client_body, max_calls=4):
    system = make_system()
    client_cls, server_cls, _idl = compile_stubs(CALC_IDL)
    state = {}

    def server(proc):
        srv = server_cls(system, proc, CalcImpl())
        yield from srv.serve_binding(port=5)
        yield from srv.run(max_calls=max_calls)
        state["served"] = srv.calls_served

    def client(proc):
        cl = client_cls(system, proc)
        yield from cl.bind(1, port=5)
        state["result"] = yield from client_body(proc, cl)

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return state


def test_scalar_call():
    def body(proc, cl):
        result = yield from cl.add(20, 22)
        return result

    assert run_calc(body, max_calls=1)["result"] == 42


def test_array_call():
    def body(proc, cl):
        result = yield from cl.dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        return result

    assert run_calc(body, max_calls=1)["result"] == pytest.approx(32.0)


def test_string_call():
    def body(proc, cl):
        result = yield from cl.greet("shrimp")
        return result

    assert run_calc(body, max_calls=1)["result"] == "hello, shrimp!"


def test_inout_modified_by_server():
    def body(proc, cl):
        result = yield from cl.touch(b"flip-me!")
        return result

    assert run_calc(body, max_calls=1)["result"] == b"flip-me!"[::-1]


def test_inout_unmodified_returns_original():
    """The server never writes the INOUT: nothing travels back except
    the flag, and the client still sees its own (unchanged) value."""
    payload = bytes(range(200)) * 5  # 1000 bytes

    def body(proc, cl):
        result = yield from cl.touch(payload)
        return result

    assert run_calc(body, max_calls=1)["result"] == payload


def test_out_param():
    def body(proc, cl):
        result = yield from cl.fill(7)
        return result

    assert run_calc(body, max_calls=1)["result"] == bytes(range(7, 15))


def test_sequential_calls_reuse_binding():
    def body(proc, cl):
        results = []
        for i in range(4):
            r = yield from cl.add(i, i)
            results.append(r)
        return results

    assert run_calc(body, max_calls=4)["result"] == [0, 2, 4, 6]


def test_bound_overflow_rejected():
    def body(proc, cl):
        try:
            yield from cl.touch(bytes(2000))  # exceeds opaque<1000>
        except SrpcError:
            # Make one valid call so the server's serve loop completes.
            yield from cl.add(1, 1)
            return "bounded"

    assert run_calc(body, max_calls=1)["result"] == "bounded"


def test_null_call_rtt_near_9_5us():
    """Headline scalar: '9.5 usec for the non-compatible system' — a
    null call is one flag word each way, both single packets."""
    system = make_system()
    client_cls, server_cls, _ = compile_stubs(
        "program Null version 1 {\nvoid ping();\n}"
    )

    class NullImpl:
        def ping(self):
            return None
            yield  # pragma: no cover

    timing = {}

    def server(proc):
        srv = server_cls(system, proc, NullImpl())
        yield from srv.serve_binding(port=2)
        yield from srv.run(max_calls=12)

    def client(proc):
        cl = client_cls(system, proc)
        yield from cl.bind(1, port=2)
        yield from cl.ping()
        yield from cl.ping()
        start = proc.sim.now
        for _ in range(10):
            yield from cl.ping()
        timing["rtt"] = (proc.sim.now - start) / 10

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    assert 8.5 < timing["rtt"] < 11.0, timing["rtt"]
