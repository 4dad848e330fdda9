"""Stub generator of the specialized SHRIMP RPC.

Reads an interface definition (see :mod:`.idl`) and emits Python source
for a client stub class and a server skeleton class — 'a stub generator
that reads an interface definition file and generates code to marshal
and unmarshal complex data types'.

The generated client marshals every procedure's arguments into their
fixed slots with straight-line packing, each value ending at its
slot's end, and emits them as one ascending store stream.  The
parameter block ends at the call word, so the stream runs into the
call word without a gap and the combining hardware sends a short call
as one packet.  The client reads back only the return slot and the
OUT/INOUT slots.  Alongside each synchronous method the client also
gets a ``<name>_begin`` method — the pipelined submit half, returning
an :class:`~.runtime.SrpcTicket` to redeem with
:meth:`~.runtime.SrpcClientBase.finish` — and a shared ``_decode_<id>``
reply decoder both paths use.  The generated server skeleton decodes
IN parameters eagerly and hands OUT/INOUT parameters to the
implementation as by-reference :class:`~.runtime.ParamRef` objects.

Use :func:`generate_stubs` to get the source text (write it to a file,
inspect it, check it in) or :func:`compile_stubs` to exec it directly.
"""

from __future__ import annotations

from typing import Tuple, Type

from .idl import IdlType, Interface, Param, Procedure, parse_idl

__all__ = ["generate_stubs", "compile_stubs"]

_SCALARS = ("int", "uint", "float", "double")


def _marshal_lines(proc: Procedure) -> list:
    """Source lines building a procedure's ``_writes`` store list."""
    lines = ["        _writes = []"]
    for param in (p for p in proc.params if p.is_in):
        if param.type.kind in _SCALARS:
            lines.append(
                "        _writes.append((%d, pack_scalar(%r, %s)))"
                % (param.offset, param.type.kind, param.name)
            )
        else:
            # A value ends at its slot's end (a variable-bounded one
            # uses only that slot's tail).
            lines.append(
                "        _v = encode_value(self.IDL.procedure(%r).params[%d].type, %s)"
                % (proc.name, proc.params.index(param), param.name)
            )
            lines.append(
                "        _writes.append((%d - len(_v), _v))"
                % (param.offset + param.type.slot_bytes)
            )
    return lines


def _reply_shape(proc: Procedure):
    """(ret_bytes, out_reads, read_exprs) of a procedure's reply."""
    ret_bytes = 0 if proc.return_type.kind == "void" else proc.return_type.slot_bytes
    out_reads = []
    read_exprs = []
    if ret_bytes:
        read_exprs.append(
            "decode_value(self.IDL.procedure(%r).return_type, _raw[0])" % proc.name
        )
    for param in (p for p in proc.params if p.is_out):
        out_reads.append((param.offset, param.type.slot_bytes, param.type.is_variable))
        read_exprs.append(
            "decode_value(self.IDL.procedure(%r).params[%d].type, _raw[%d])"
            % (proc.name, proc.params.index(param),
               (1 if ret_bytes else 0) + len(out_reads) - 1)
        )
    return ret_bytes, out_reads, read_exprs


def _signature(proc: Procedure) -> str:
    return ", ".join(
        "%s %s %s" % (p.direction, p.type.describe(), p.name) for p in proc.params
    )


def _client_method(proc: Procedure) -> str:
    """Source of one generated client stub method (synchronous call)."""
    args = ", ".join(p.name for p in proc.params if p.is_in)
    lines = []
    lines.append("    def %s(self%s):" % (proc.name, ", " + args if args else ""))
    lines.append('        """%s %s(%s)"""'
                 % (proc.return_type.describe(), proc.name, _signature(proc)))
    lines.extend(_marshal_lines(proc))
    ret_bytes, out_reads, _ = _reply_shape(proc)
    lines.append("        _raw = yield from self._invoke(%d, _writes, %d, %r)"
                 % (proc.proc_id, ret_bytes, out_reads))
    lines.append("        return self._decode_%d(_raw)" % proc.proc_id)
    return "\n".join(lines)


def _client_begin_method(proc: Procedure) -> str:
    """Source of one generated pipelined-submit stub method."""
    args = ", ".join(p.name for p in proc.params if p.is_in)
    lines = []
    lines.append("    def %s_begin(self%s):"
                 % (proc.name, ", " + args if args else ""))
    lines.append('        """Pipelined %s(%s): submit without waiting; returns'
                 % (proc.name, _signature(proc)))
    lines.append("        an SrpcTicket to redeem with finish().\"\"\"")
    lines.extend(_marshal_lines(proc))
    ret_bytes, out_reads, _ = _reply_shape(proc)
    lines.append("        _t = yield from self._submit(%d, _writes, %d, %r)"
                 % (proc.proc_id, ret_bytes, out_reads))
    lines.append("        return _t")
    return "\n".join(lines)


def _client_decode_method(proc: Procedure) -> str:
    """Source of one generated reply decoder (shared by call paths)."""
    _, _, read_exprs = _reply_shape(proc)
    lines = []
    lines.append("    def _decode_%d(self, _raw):  # %s"
                 % (proc.proc_id, proc.name))
    if not read_exprs:
        lines.append("        return None")
    elif len(read_exprs) == 1:
        lines.append("        return %s" % read_exprs[0])
    else:
        lines.append("        return (%s)" % ", ".join(read_exprs))
    return "\n".join(lines)


def _server_dispatch(proc: Procedure) -> str:
    """Source of one generated server dispatch method."""
    lines = []
    lines.append("    def _dispatch_%d(self):  # %s" % (proc.proc_id, proc.name))
    call_args = []
    # Contiguous fixed-size IN parameters are read as one span; variable
    # ones via their length word (ParamRef.get reads exactly that much).
    fixed_in = [p for p in proc.params
                if p.direction == "in" and not p.type.is_variable]
    if fixed_in:
        start = min(p.offset for p in fixed_in)
        end = max(p.offset + p.type.slot_bytes for p in fixed_in)
        lines.append("        _span = yield from self._read(%d, %d)" % (start, end - start))
        for param in fixed_in:
            rel = param.offset - start
            lines.append(
                "        %s = decode_value(self.IDL.procedure(%r).params[%d].type, "
                "_span[%d:%d])"
                % (param.name, proc.name, proc.params.index(param),
                   rel, rel + param.type.slot_bytes)
            )
    for param in proc.params:
        if param.direction == "in" and param.type.is_variable:
            lines.append(
                "        %s = yield from self._ref(%r, %r).get()"
                % (param.name, proc.name, param.name)
            )
    for param in proc.params:
        if param.is_out:
            lines.append(
                "        %s = self._ref(%r, %r)" % (param.name, proc.name, param.name)
            )
        call_args.append(param.name)
    call = "self.impl.%s(%s)" % (proc.name, ", ".join(call_args))
    if proc.return_type.kind == "void":
        lines.append("        yield from %s" % call)
        lines.append("        return b''")
    else:
        lines.append("        _ret = yield from %s" % call)
        lines.append(
            "        return encode_value(self.IDL.procedure(%r).return_type, _ret)"
            % proc.name
        )
    return "\n".join(lines)


def generate_stubs(idl_text: str) -> str:
    """Generate the stub module's Python source for an interface."""
    interface = parse_idl(idl_text)  # validate before embedding
    name = interface.name
    parts = [
        '"""Generated by repro.libs.shrimp_rpc.stubgen for interface '
        "%s v%d — do not edit.\"\"\"" % (name, interface.version),
        "",
        "import struct",
        "",
        "from repro.libs.shrimp_rpc.idl import parse_idl",
        "from repro.libs.shrimp_rpc.runtime import (",
        "    ParamRef,",
        "    SrpcClientBase,",
        "    SrpcServerBase,",
        "    decode_value,",
        "    encode_value,",
        "    pack_scalar,",
        "    unpack_scalar,",
        ")",
        "",
        "_IDL = parse_idl('''%s''')" % idl_text,
        "",
        "",
        "class %sClient(SrpcClientBase):" % name,
        "    IDL = _IDL",
        "",
    ]
    parts.extend(_client_method(proc) + "\n" for proc in interface.procedures)
    parts.extend(_client_begin_method(proc) + "\n" for proc in interface.procedures)
    parts.extend(_client_decode_method(proc) + "\n" for proc in interface.procedures)
    parts.extend([
        "",
        "class %sServer(SrpcServerBase):" % name,
        "    IDL = _IDL",
        "",
    ])
    parts.extend(_server_dispatch(proc) + "\n" for proc in interface.procedures)
    return "\n".join(parts)


def compile_stubs(idl_text: str) -> Tuple[Type, Type, Interface]:
    """Generate and exec the stubs; returns (ClientClass, ServerClass, idl)."""
    source = generate_stubs(idl_text)
    namespace: dict = {}
    exec(compile(source, "<shrimp-rpc-stubs>", "exec"), namespace)
    interface = namespace["_IDL"]
    client_cls = namespace["%sClient" % interface.name]
    server_cls = namespace["%sServer" % interface.name]
    return client_cls, server_cls, interface
