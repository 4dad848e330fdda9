"""VRPC: the SunRPC-compatible runtime on VMMC (Section 4.2).

Only the runtime library differs from stock SunRPC — 'we changed only
the SunRPC runtime library; the stub generator and the operating system
kernel are unchanged'.  Stubs are therefore plain encode/decode
callables over the XDR codec (what rpcgen would have emitted), and the
wire bytes are genuine RFC 1057 messages.

Binding establishes the pair of cyclic stream queues (one mapping per
direction) over the Ethernet, exactly like the sockets library's
connection setup; calls then never leave user level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ...hardware.config import CacheMode
from ...kernel.process import UserProcess
from ...kernel.system import ShrimpSystem
from ...vmmc import VmmcEndpoint, VmmcTimeoutError, VmmcTransferError, attach
from ..recovery import IDLE_US, MAX_XMIT, retransmit
from .rpclib import (
    PROC_UNAVAIL,
    PROG_MISMATCH,
    PROG_UNAVAIL,
    RpcCallHeader,
    RpcFault,
    RpcReplyHeader,
    SUCCESS,
    SYSTEM_ERR,
)
from .stream import VrpcStream
from .xdr import XdrDecoder, XdrEncoder

__all__ = ["VrpcServer", "VrpcClient", "clnt_create", "RpcFault", "RpcTimeout"]


class RpcTimeout(RpcFault, VmmcTimeoutError):
    """A hardened VRPC wait expired: the retransmission budget ran out
    (client) or no call arrived within the idle bound (server)."""

    def __init__(self, message: str):
        RpcFault.__init__(self, SYSTEM_ERR, message)

_ETH_RPC_BASE = 60000
_ETH_REPLY_BASE = 80000
_xids = itertools.count(0x5000)
_CALL_HEADER_BYTES = 40
_REPLY_HEADER_BYTES = 24
_reply_ports = itertools.count(1)

# Stub signatures: encode(XdrEncoder, value) and decode(XdrDecoder) -> value.
EncodeFn = Callable[[XdrEncoder, object], object]
DecodeFn = Callable[[XdrDecoder], object]


def _u32_pack(value: int) -> bytes:
    import struct

    return struct.pack("<I", value & 0xFFFFFFFF)


def encode_void(enc: XdrEncoder, value: object) -> None:
    """The void stub (null procedures)."""


def decode_void(dec: XdrDecoder) -> None:
    """The void result stub."""
    return None


@dataclass
class _Procedure:
    func: Callable
    decode_args: DecodeFn
    encode_result: EncodeFn


@dataclass
class _BindRequest:
    prog: int
    vers: int
    client_node: int
    reply_port: int
    stream_export: int
    ring_bytes: int
    automatic: bool


@dataclass
class _BindReply:
    ok: bool
    error: str = ""
    server_node: int = 0
    stream_export: int = 0
    ring_bytes: int = 0


class _Endpoint:
    """Shared stream setup for client and server halves."""

    def __init__(self, system: ShrimpSystem, proc: UserProcess,
                 automatic: bool, ring_bytes: int,
                 endpoint: Optional[VmmcEndpoint] = None):
        self.system = system
        self.proc = proc
        self.automatic = automatic
        self.ring_bytes = ring_bytes
        self.ep = endpoint or attach(system, proc)
        self.ethernet = system.machine.ethernet
        self.stream: Optional[VrpcStream] = None

    def _make_local_half(self):
        in_vaddr = self.ep.alloc_buffer(self.ring_bytes, cache_mode=CacheMode.WRITE_THROUGH)
        export = yield from self.ep.export(in_vaddr, self.ring_bytes)
        stream = VrpcStream(self.proc, self.ep, in_vaddr, self.ring_bytes,
                            self.automatic)
        self.stream = stream
        return export, stream

    def _attach_remote_half(self, stream: VrpcStream, node: int,
                            export_id: int, ring_bytes: int):
        page = self.proc.config.page_size
        imp = yield from self.ep.import_buffer(node, export_id)
        if self.automatic:
            au_out = self.ep.alloc_buffer(ring_bytes, cache_mode=CacheMode.WRITE_THROUGH)
            # VRPC writes each stream piece as one burst, so a short
            # per-page flush timer gets the tail packet out promptly.
            yield from self.ep.bind(au_out, imp, combining=True, timer_us=0.25)
            staging = 0
        else:
            # Control words still travel by AU: mirror only the first page.
            au_out = self.ep.alloc_buffer(page, cache_mode=CacheMode.WRITE_THROUGH)
            yield from self.ep.bind(au_out, imp, nbytes=page, combining=True,
                                    timer_us=0.25)
            staging = self.ep.alloc_buffer(ring_bytes, cache_mode=CacheMode.WRITE_BACK)
        stream.attach_peer(imp, au_out, staging)


class VrpcServer(_Endpoint):
    """A SunRPC server process: register procedures, bind, svc_run.

    Multiple clients may bind; ``svc_run`` multiplexes across all bound
    transports (the select() loop of a real svc_run), serving whichever
    stream has a flagged call.
    """

    def __init__(self, system: ShrimpSystem, proc: UserProcess,
                 prog: int, vers: int, automatic: bool = True,
                 ring_bytes: int = 16384, **kwargs):
        super().__init__(system, proc, automatic, ring_bytes, **kwargs)
        self.prog = prog
        self.vers = vers
        self.procedures: Dict[int, _Procedure] = {}
        self.transports: list = []
        self.calls_served = 0

    def register(self, proc_num: int, func: Callable,
                 decode_args: DecodeFn = decode_void,
                 encode_result: EncodeFn = encode_void) -> None:
        """svc_register: install a procedure's handler and its stubs."""
        self.procedures[proc_num] = _Procedure(func, decode_args, encode_result)

    def accept_binding(self):
        """Wait for one client binding (the RPC analog of accept)."""
        frame = yield self.ethernet.recv(
            self.proc.node.node_id, _ETH_RPC_BASE + self.prog
        )
        request: _BindRequest = frame.payload
        if request.prog != self.prog or request.vers != self.vers:
            reply = _BindReply(ok=False, error="program/version mismatch")
            self.ethernet.send(self.proc.node.node_id, request.client_node,
                               request.reply_port, reply)
            return False
        self.automatic = request.automatic
        self.ring_bytes = request.ring_bytes
        export, stream = yield from self._make_local_half()
        reply = _BindReply(
            ok=True,
            server_node=self.proc.node.node_id,
            stream_export=export.export_id,
            ring_bytes=self.ring_bytes,
        )
        self.ethernet.send(self.proc.node.node_id, request.client_node,
                           request.reply_port, reply)
        yield from self._attach_remote_half(
            stream, request.client_node, request.stream_export, request.ring_bytes
        )
        self.transports.append(stream)
        return True

    def _wait_any_call(self):
        """Block until some bound transport has a flagged call; returns
        that transport (round-robin fairness across clients)."""
        if not self.transports:
            raise RpcFault(PROG_UNAVAIL, "svc_run with no bound transport")
        if len(self.transports) == 1:
            return self.transports[0]
        proc = self.proc
        start = self.calls_served % len(self.transports)
        hardened = any(stream.hardened for stream in self.transports)
        deadline = proc.sim.now + IDLE_US
        # Hardened streams also watch the xmit/crc words so a pure
        # retransmission (same flag) wakes the loop.
        window = 16 if hardened else 4
        ranges = [(stream.in_vaddr, window) for stream in self.transports]
        while True:
            for shift in range(len(self.transports)):
                stream = self.transports[(start + shift) % len(self.transports)]
                flagged = yield from stream.check_flag()
                if flagged:
                    return stream
                # A bumped xmit word without a new flag means a client
                # never saw its reply — replay it before sleeping.
                yield from stream.service_retransmits()
            # Nothing flagged: sleep until any transport's flag word
            # moves.  Only the next call's flag counts as arrived (the
            # check_flag test): a corrupted flag word must not keep the
            # loop re-checking every transport until the retransmission.
            woke = yield from proc.wait_any(
                ranges,
                lambda: any(proc.peek(stream.in_vaddr, 4)
                            == _u32_pack(stream.flag_in + 1)
                            for stream in self.transports),
                max(0.0, deadline - proc.sim.now) if hardened else None,
            )
            if not woke:
                raise RpcTimeout("svc_run idle: no call within %.0f us" % IDLE_US)

    def svc_run(self, max_calls: Optional[int] = None):
        """Serve calls from every bound client; returns after
        ``max_calls`` (None = forever)."""
        costs = self.proc.config.costs
        served = 0
        while max_calls is None or served < max_calls:
            stream = yield from self._wait_any_call()
            raw = yield from stream.recv_message(IDLE_US)
            if raw is None:
                raise RpcTimeout("svc_run idle: no call within %.0f us" % IDLE_US)
            span = None
            if self.proc.tracer.enabled:
                span = self.proc.tracer.begin(
                    "vrpc.serve", "serve call", track=self.proc.trace_track,
                )
            yield from self.proc.compute(costs.vrpc_header_process)
            dec = XdrDecoder(raw)
            header = RpcCallHeader.decode(dec)
            ctx = None
            if self.proc.tracer.enabled:
                ctx = self.proc.tracer.claim(("vrpc", header.xid), span)
            prev_ctx = self.proc.trace_ctx
            if ctx is not None:
                self.proc.trace_ctx = ctx
            try:
                reply_enc = XdrEncoder()
                if header.prog != self.prog:
                    RpcReplyHeader(header.xid, PROG_UNAVAIL).encode(reply_enc)
                elif header.vers != self.vers:
                    RpcReplyHeader(header.xid, PROG_MISMATCH,
                                   (self.vers, self.vers)).encode(reply_enc)
                elif header.proc not in self.procedures:
                    RpcReplyHeader(header.xid, PROC_UNAVAIL).encode(reply_enc)
                else:
                    procedure = self.procedures[header.proc]
                    args = procedure.decode_args(dec)
                    yield from self.proc.compute(
                        costs.vrpc_xdr_per_byte
                        * max(0, dec.offset - _CALL_HEADER_BYTES)
                    )
                    result = procedure.func(args)
                    RpcReplyHeader(header.xid, SUCCESS).encode(reply_enc)
                    procedure.encode_result(reply_enc, result)
                payload = reply_enc.getvalue()
                yield from self.proc.compute(
                    costs.vrpc_xdr_per_byte
                    * max(0, len(payload) - _REPLY_HEADER_BYTES)
                )
                try:
                    yield from stream.send_message(payload)
                except VmmcTransferError:
                    # A DU abort (only an armed fault plan aborts one)
                    # dropped the reply; the client's retransmission
                    # will trigger a replay.
                    pass
            finally:
                self.proc.trace_ctx = prev_ctx
                # Close here, not after: a fault-raised timeout in the
                # reply send must not leak the serve span.
                self.proc.tracer.end(span)
            self.calls_served += 1
            served += 1


class VrpcClient(_Endpoint):
    """A bound SunRPC client handle (what clnt_create returns)."""

    def __init__(self, system: ShrimpSystem, proc: UserProcess,
                 prog: int, vers: int, automatic: bool = True,
                 ring_bytes: int = 16384, **kwargs):
        super().__init__(system, proc, automatic, ring_bytes, **kwargs)
        self.prog = prog
        self.vers = vers
        self.calls_made = 0

    def bind(self, server_node: int):
        """Establish the stream pair with the server's daemon."""
        export, stream = yield from self._make_local_half()
        reply_port = _ETH_REPLY_BASE + next(_reply_ports)
        request = _BindRequest(
            prog=self.prog, vers=self.vers,
            client_node=self.proc.node.node_id,
            reply_port=reply_port,
            stream_export=export.export_id,
            ring_bytes=self.ring_bytes,
            automatic=self.automatic,
        )
        self.ethernet.send(self.proc.node.node_id, server_node,
                           _ETH_RPC_BASE + self.prog, request)
        frame = yield self.ethernet.recv(self.proc.node.node_id, reply_port)
        reply: _BindReply = frame.payload
        if not reply.ok:
            raise RpcFault(PROG_UNAVAIL, reply.error)
        yield from self._attach_remote_half(
            stream, reply.server_node, reply.stream_export, reply.ring_bytes
        )

    def _exchange(self, payload: bytes, xid: int):
        """Send the call and return the reply's bytes.

        Hardened, the send is the first transmission of a
        :func:`~repro.libs.recovery.retransmit` loop: a DU abort on it
        is swallowed, and the call is resent with backoff until the
        CRC-valid reply lands; :class:`RpcTimeout` when the budget runs
        out."""
        stream = self.stream
        if not stream.hardened:
            yield from stream.send_message(payload)
            return (yield from stream.recv_message())
        try:
            yield from stream.send_message(payload)
        except VmmcTransferError:
            pass  # the retransmissions repair a dropped first copy
        raw = yield from retransmit(stream.resend_last, stream.recv_message,
                                    len(payload), sent=True)
        if raw is None:
            raise RpcTimeout(
                "no reply for xid %#x after %d transmissions" % (xid, MAX_XMIT)
            )
        return raw

    def call(self, proc_num: int, args: object = None,
             encode_args: EncodeFn = encode_void,
             decode_result: DecodeFn = decode_void):
        """clnt_call: synchronous remote procedure call."""
        costs = self.proc.config.costs
        span = ctx = None
        if self.proc.tracer.enabled:
            ctx = self.proc.trace_ctx
            data = {"proc": proc_num}
            if ctx is not None:
                data["tid"], data["cparent"] = ctx
            span = self.proc.tracer.begin(
                "vrpc.call", "call proc %d" % proc_num,
                track=self.proc.trace_track, data=data,
            )
        try:
            yield from self.proc.compute(costs.vrpc_call_prep)
            enc = XdrEncoder()
            header = RpcCallHeader(xid=next(_xids), prog=self.prog,
                                   vers=self.vers, proc=proc_num)
            if ctx is not None:
                # The serve span on the other node links under *this*
                # call span; a hardened resend keeps the xid and the
                # replay path never re-serves, so no double-count.
                self.proc.tracer.post(
                    ("vrpc", header.xid),
                    (ctx[0], span.sid if span is not None else ctx[1]))
            header.encode(enc)
            encode_args(enc, args)
            payload = enc.getvalue()
            yield from self.proc.compute(
                costs.vrpc_xdr_per_byte
                * max(0, len(payload) - _CALL_HEADER_BYTES)
            )
            raw = yield from self._exchange(payload, header.xid)
            yield from self.proc.compute(costs.vrpc_return_cost)
            dec = XdrDecoder(raw)
            reply = RpcReplyHeader.decode(dec)
            if reply.xid != header.xid:
                raise RpcFault(SUCCESS, "xid mismatch: got %#x want %#x"
                               % (reply.xid, header.xid))
            if reply.accept_status != SUCCESS:
                raise RpcFault(reply.accept_status,
                               "call not executed (status %d)"
                               % reply.accept_status)
            result = decode_result(dec)
            yield from self.proc.compute(
                costs.vrpc_xdr_per_byte
                * max(0, dec.offset - _REPLY_HEADER_BYTES)
            )
            self.calls_made += 1
        finally:
            # finally: RpcTimeout/RpcFault exits must close the span.
            self.proc.tracer.end(span)
        return result


def clnt_create(system: ShrimpSystem, proc: UserProcess, server_node: int,
                prog: int, vers: int, automatic: bool = True,
                ring_bytes: int = 16384):
    """SunRPC's clnt_create: build and bind a client handle."""
    client = VrpcClient(system, proc, prog, vers, automatic=automatic,
                        ring_bytes=ring_bytes)
    yield from client.bind(server_node)
    return client
