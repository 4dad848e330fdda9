"""Interface definition language of the specialized SHRIMP RPC.

'SHRIMP RPC is not compatible with any existing RPC system, but it is a
real RPC system, with a stub generator that reads an interface
definition file and generates code to marshal and unmarshal complex
data types.'

The language (one construct per line, C-flavoured):

    program Calc version 2 {
        int add(in int a, in int b);
        void scale(inout double vec[4], in double factor);
        opaque<256> transform(in opaque<256> data);
        string<64> greet(in string<32> name);
    }

Types: ``int``, ``uint``, ``float``, ``double``, ``void`` (returns only),
fixed arrays ``T[N]`` of scalars, fixed opaque ``opaque[N]``, bounded
variable opaque ``opaque<N>`` and ``string<N>``.  Parameter directions
are ``in``, ``out``, ``inout``.

Parsing produces a typed model with *fixed slot offsets* for every
parameter — what lets the generated stubs marshal with straight-line
stores and the runtime place the flag word immediately after the
argument area (Section 5's buffer layout).  Every procedure's parameter
block is right-aligned to the end of the binding's argument area, so
the last parameter's slot ends at the call word whichever procedure is
called.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["IdlError", "IdlType", "Param", "Procedure", "Interface", "parse_idl"]

_SCALARS = {"int": 4, "uint": 4, "float": 4, "double": 8}
_DIRECTIONS = ("in", "out", "inout")


class IdlError(Exception):
    """Syntax or semantic error in an interface definition."""


def _pad4(n: int) -> int:
    return (n + 3) & ~3


def var_tail(length: int) -> int:
    """Bytes a variable-bounded value of ``length`` data bytes uses at
    the end of its slot: the data, zero pad to a word, then the length
    word.  At the bound it is the whole slot."""
    return _pad4(length) + 4


@dataclass(frozen=True)
class IdlType:
    """A resolved IDL type.

    ``kind`` is one of scalar names, "array", "opaque_fixed",
    "opaque_var", "string", "void".  ``bound`` is the element count /
    byte bound; ``element`` the scalar element type of arrays.
    """

    kind: str
    bound: int = 0
    element: str = ""

    @property
    def slot_bytes(self) -> int:
        """Fixed communication-buffer bytes reserved for this type."""
        if self.kind in _SCALARS:
            return _SCALARS[self.kind]
        if self.kind == "array":
            return self.bound * _SCALARS[self.element]
        if self.kind == "opaque_fixed":
            return _pad4(self.bound)
        if self.kind in ("opaque_var", "string"):
            return var_tail(self.bound)
        if self.kind == "void":
            return 0
        raise IdlError("unknown type kind %r" % self.kind)

    @property
    def is_variable(self) -> bool:
        return self.kind in ("opaque_var", "string")

    def describe(self) -> str:
        """The type as IDL source text."""
        if self.kind in _SCALARS or self.kind == "void":
            return self.kind
        if self.kind == "array":
            return "%s[%d]" % (self.element, self.bound)
        if self.kind == "opaque_fixed":
            return "opaque[%d]" % self.bound
        if self.kind == "opaque_var":
            return "opaque<%d>" % self.bound
        return "string<%d>" % self.bound


@dataclass
class Param:
    name: str
    type: IdlType
    direction: str
    offset: int = 0  # fixed slot offset within the binding's argument area

    @property
    def is_in(self) -> bool:
        return self.direction in ("in", "inout")

    @property
    def is_out(self) -> bool:
        return self.direction in ("out", "inout")


@dataclass
class Procedure:
    name: str
    proc_id: int
    return_type: IdlType
    params: List[Param]
    args_bytes: int = 0       # parameter block bytes (params only)


@dataclass
class Interface:
    name: str
    version: int
    procedures: List[Procedure]

    @property
    def args_area_bytes(self) -> int:
        """The binding's fixed argument area: large enough for every
        procedure, so the call flag sits 'in the same place for all
        calls that use the same binding' — right after it."""
        return max((p.args_bytes for p in self.procedures), default=0)

    @property
    def ret_area_bytes(self) -> int:
        """Fixed result area (after the call word, before the return
        word) sized for the largest return value."""
        return max((p.return_type.slot_bytes for p in self.procedures), default=0)

    def procedure(self, name: str) -> Procedure:
        """Look a procedure up by name."""
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError("no procedure %r in interface %s" % (name, self.name))


_TYPE_RE = re.compile(
    r"^(?:(?P<scalar>int|uint|float|double|void)"
    r"|opaque\[(?P<ofix>\d+)\]"
    r"|opaque<(?P<ovar>\d+)>"
    r"|string<(?P<sbound>\d+)>"
    r"|(?P<elem>int|uint|float|double)\[(?P<count>\d+)\])$"
)


def _parse_type(text: str, where: str) -> IdlType:
    match = _TYPE_RE.match(text.strip())
    if match is None:
        raise IdlError("bad type %r in %s" % (text, where))
    if match.group("scalar"):
        return IdlType(match.group("scalar"))
    if match.group("ofix") is not None:
        bound = int(match.group("ofix"))
        if bound <= 0:
            raise IdlError("zero-size opaque in %s" % where)
        return IdlType("opaque_fixed", bound)
    if match.group("ovar") is not None:
        return IdlType("opaque_var", int(match.group("ovar")))
    if match.group("sbound") is not None:
        return IdlType("string", int(match.group("sbound")))
    count = int(match.group("count"))
    if count <= 0:
        raise IdlError("zero-length array in %s" % where)
    return IdlType("array", count, match.group("elem"))


_PROGRAM_RE = re.compile(r"^\s*program\s+(\w+)\s+version\s+(\d+)\s*\{\s*$")
_PROC_RE = re.compile(r"^\s*(?P<ret>[\w<>\[\]]+)\s+(?P<name>\w+)\s*\((?P<params>.*)\)\s*;\s*$")
_PARAM_RE = re.compile(r"^\s*(?P<dir>in|out|inout)\s+(?P<type>[\w<>\[\]]+?)\s+(?P<name>\w+?)"
                       r"(?P<suffix>(?:\[\d+\]|<\d+>)?)\s*$")


def parse_idl(text: str) -> Interface:
    """Parse an interface definition; returns the typed model."""
    lines = [line.split("//")[0].rstrip() for line in text.splitlines()]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise IdlError("empty interface definition")
    header = _PROGRAM_RE.match(lines[0])
    if header is None:
        raise IdlError("expected 'program <name> version <n> {', got %r" % lines[0])
    name, version = header.group(1), int(header.group(2))
    if lines[-1].strip() != "}":
        raise IdlError("missing closing '}'")

    procedures: List[Procedure] = []
    seen = set()
    for proc_id, line in enumerate(lines[1:-1], start=1):
        match = _PROC_RE.match(line)
        if match is None:
            raise IdlError("bad procedure declaration: %r" % line)
        proc_name = match.group("name")
        if proc_name in seen:
            raise IdlError("duplicate procedure %r" % proc_name)
        seen.add(proc_name)
        return_type = _parse_type(match.group("ret"), proc_name)
        params: List[Param] = []
        params_text = match.group("params").strip()
        if params_text:
            for piece in params_text.split(","):
                pm = _PARAM_RE.match(piece)
                if pm is None:
                    raise IdlError("bad parameter %r in %s" % (piece, proc_name))
                # Array/bound suffix may be attached to the name
                # (C style: 'double vec[4]') or the type.
                type_text = pm.group("type") + (pm.group("suffix") or "")
                ptype = _parse_type(type_text, proc_name)
                if ptype.kind == "void":
                    raise IdlError("void parameter in %s" % proc_name)
                params.append(Param(pm.group("name"), ptype, pm.group("dir")))
        procedures.append(Procedure(
            proc_name, proc_id, return_type, params,
            args_bytes=sum(p.type.slot_bytes for p in params)))
    if not procedures:
        raise IdlError("interface %s declares no procedures" % name)
    if len(procedures) > 0xFFFF:
        raise IdlError("too many procedures")
    interface = Interface(name, version, procedures)
    # Fixed slot layout: each parameter block ends where the argument
    # area does, so its stores run up to the call word.
    for procedure in procedures:
        offset = interface.args_area_bytes - procedure.args_bytes
        for param in procedure.params:
            param.offset = offset
            offset += param.type.slot_bytes
    return interface
