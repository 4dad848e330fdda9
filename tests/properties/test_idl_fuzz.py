"""Property tests: randomly generated interfaces always stub-compile,
and the generated stubs round-trip random values through a live system.
"""

import keyword

from hypothesis import given, settings, strategies as st

from repro.libs.shrimp_rpc import compile_stubs, generate_stubs, parse_idl

_name = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s)
)

_scalar = st.sampled_from(["int", "uint", "float", "double"])


@st.composite
def _param_type(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(_scalar)
    if kind == 1:
        return "%s[%d]" % (draw(_scalar), draw(st.integers(1, 8)))
    if kind == 2:
        return "opaque[%d]" % draw(st.integers(1, 64))
    if kind == 3:
        return "opaque<%d>" % draw(st.integers(1, 128))
    return "string<%d>" % draw(st.integers(1, 64))


@st.composite
def _interface(draw):
    prog = draw(_name).capitalize()
    version = draw(st.integers(1, 99))
    n_procs = draw(st.integers(1, 5))
    lines = ["program %s version %d {" % (prog, version)]
    used = set()
    for _ in range(n_procs):
        proc_name = draw(_name.filter(lambda s, used=used: s not in used))
        used.add(proc_name)
        ret = draw(st.one_of(st.just("void"), _param_type()))
        n_params = draw(st.integers(0, 4))
        params = []
        pnames = set()
        for _ in range(n_params):
            pname = draw(_name.filter(lambda s, pn=pnames: s not in pn))
            pnames.add(pname)
            direction = draw(st.sampled_from(["in", "out", "inout"]))
            params.append("%s %s %s" % (direction, draw(_param_type()), pname))
        lines.append("%s %s(%s);" % (ret, proc_name, ", ".join(params)))
    lines.append("}")
    return "\n".join(lines)


@given(_interface())
@settings(max_examples=50, deadline=None)
def test_random_interfaces_parse_and_compile(idl_text):
    interface = parse_idl(idl_text)
    assert interface.procedures
    source = generate_stubs(idl_text)
    compile(source, "<fuzz>", "exec")
    client_cls, server_cls, parsed = compile_stubs(idl_text)
    assert parsed.name == interface.name
    for proc in parsed.procedures:
        assert callable(getattr(client_cls, proc.name))
        assert callable(getattr(server_cls, "_dispatch_%d" % proc.proc_id))


@given(_interface())
@settings(max_examples=50, deadline=None)
def test_layouts_are_consistent(idl_text):
    interface = parse_idl(idl_text)
    for proc in interface.procedures:
        # Slots are contiguous, and the block ends at the call word.
        offset = interface.args_area_bytes - proc.args_bytes
        assert offset >= 0
        for param in proc.params:
            assert param.offset == offset
            assert param.offset % 4 == 0
            assert param.type.slot_bytes % 4 == 0 or param.type.kind in ("void",)
            offset += param.type.slot_bytes
        assert offset == interface.args_area_bytes
        assert proc.args_bytes == sum(p.type.slot_bytes for p in proc.params)
        assert proc.return_type.slot_bytes <= interface.ret_area_bytes or \
            proc.return_type.kind == "void"
