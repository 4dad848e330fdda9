"""SunRPC message structure (RFC 1057): call and reply headers.

VRPC is 'fully compatible with the SunRPC standard' — the stub
generator and kernel are unchanged, only the runtime library was
reimplemented.  Compatibility means the bytes on the wire are real
SunRPC messages; this module encodes and decodes them with the XDR
codec.  ('The SunRPC standard requires a nontrivial header to be sent
for every RPC' — the ~40 byte call header below is exactly the cost
the specialized SHRIMP RPC avoids, Figure 8.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .xdr import XdrDecoder, XdrEncoder, XdrError

__all__ = [
    "CALL", "REPLY", "RPC_VERSION", "AUTH_NULL",
    "MSG_ACCEPTED", "SUCCESS", "PROG_UNAVAIL", "PROC_UNAVAIL", "PROG_MISMATCH",
    "GARBAGE_ARGS", "SYSTEM_ERR",
    "RpcCallHeader", "RpcReplyHeader", "RpcFault",
]

RPC_VERSION = 2
CALL = 0
REPLY = 1
AUTH_NULL = 0

# Reply status / accept status values of RFC 1057.
MSG_ACCEPTED = 0
MSG_DENIED = 1
SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4
SYSTEM_ERR = 5


class RpcFault(Exception):
    """A call that the server did not accept or execute."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class RpcCallHeader:
    """The per-call header SunRPC requires: xid, rpcvers, prog, vers,
    proc, plus credential and verifier (AUTH_NULL here, as in the
    paper's null-call measurements)."""

    xid: int
    prog: int
    vers: int
    proc: int

    def encode(self, enc: XdrEncoder) -> XdrEncoder:
        """Append this header's XDR bytes to the encoder."""
        enc.pack_uint(self.xid)
        enc.pack_enum(CALL)
        enc.pack_uint(RPC_VERSION)
        enc.pack_uint(self.prog)
        enc.pack_uint(self.vers)
        enc.pack_uint(self.proc)
        enc.pack_enum(AUTH_NULL)   # credential flavor
        enc.pack_opaque(b"")       # credential body
        enc.pack_enum(AUTH_NULL)   # verifier flavor
        enc.pack_opaque(b"")       # verifier body
        return enc

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "RpcCallHeader":
        """Parse a call header from the decoder (XdrError on garbage)."""
        xid = dec.unpack_uint()
        msg_type = dec.unpack_enum()
        if msg_type != CALL:
            raise XdrError("expected CALL, got message type %d" % msg_type)
        rpcvers = dec.unpack_uint()
        if rpcvers != RPC_VERSION:
            raise XdrError("unsupported RPC version %d" % rpcvers)
        prog = dec.unpack_uint()
        vers = dec.unpack_uint()
        proc = dec.unpack_uint()
        dec.unpack_enum()          # cred flavor
        dec.unpack_opaque()        # cred body
        dec.unpack_enum()          # verf flavor
        dec.unpack_opaque()        # verf body
        return cls(xid=xid, prog=prog, vers=vers, proc=proc)


@dataclass
class RpcReplyHeader:
    """An accepted-reply header (xid echo, verifier, accept status)."""

    xid: int
    accept_status: int = SUCCESS
    mismatch: Optional[Tuple[int, int]] = None   # (low, high) for PROG_MISMATCH

    def encode(self, enc: XdrEncoder) -> XdrEncoder:
        """Append this header's XDR bytes to the encoder."""
        enc.pack_uint(self.xid)
        enc.pack_enum(REPLY)
        enc.pack_enum(MSG_ACCEPTED)
        enc.pack_enum(AUTH_NULL)   # verifier flavor
        enc.pack_opaque(b"")       # verifier body
        enc.pack_enum(self.accept_status)
        if self.accept_status == PROG_MISMATCH:
            low, high = self.mismatch or (0, 0)
            enc.pack_uint(low)
            enc.pack_uint(high)
        return enc

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "RpcReplyHeader":
        """Parse an accepted-reply header (RpcFault if denied)."""
        xid = dec.unpack_uint()
        msg_type = dec.unpack_enum()
        if msg_type != REPLY:
            raise XdrError("expected REPLY, got message type %d" % msg_type)
        reply_status = dec.unpack_enum()
        if reply_status != MSG_ACCEPTED:
            raise RpcFault(reply_status, "RPC message denied")
        dec.unpack_enum()          # verifier flavor
        dec.unpack_opaque()        # verifier body
        accept_status = dec.unpack_enum()
        mismatch = None
        if accept_status == PROG_MISMATCH:
            mismatch = (dec.unpack_uint(), dec.unpack_uint())
        return cls(xid=xid, accept_status=accept_status, mismatch=mismatch)
