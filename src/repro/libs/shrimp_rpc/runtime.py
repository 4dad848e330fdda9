"""Runtime of the specialized SHRIMP RPC (Section 5).

Design per the paper (close to Bershad's URPC): each binding consists of
one receive buffer on each side with bidirectional import-export
mappings (and automatic-update bindings) between them.

Buffer layout, identical on both sides:

    [argument area][call word][result area][return word]

'The buffers are laid out so that the flag is immediately after the
data, and so that the flag is in the same place for all calls that use
the same binding.'  Every value is right-aligned: each procedure's
parameter block ends at the call word, a variable-bounded slot holds
its data, zero pad to a word and then its length word at the slot's
end, and a return value ends at the return word.  So the last
argument's stores run straight into the call word and the combining
hardware sends them as one packet: a procedure without parameters is
literally one word, and Figure 8's null call (an empty bounded INOUT)
is its length word plus the call word.  The server writes a return
value and the return word as one store, so a short reply is one packet
too.  OUT and INOUT parameters are passed to the server procedure *by
reference* — pointers into the server's communication buffer — so
whatever the procedure writes propagates back to the client by
automatic update, overlapped with the server's computation; an INOUT
the server never writes costs nothing on the return path.

**One frame protocol** (docs/PROTOCOLS.md "Pipelined SHRIMP RPC"): a
binding created with ``window=W`` replicates the whole buffer layout
into W consecutive *frames* of identical stride, and call ``seq``
occupies frame ``(seq - 1) % W``.  The client keeps up to W calls in
flight (``*_begin`` stub methods return a :class:`SrpcTicket`,
``finish`` matches the reply by sequence number, in any order); a
synchronous call is one submit whose ticket is harvested at once, so
``window=1`` — the default — is the single-buffer protocol above.  The
server serves strictly in sequence order: requests travel the same AU
binding and arrive in issue order, so per-binding FIFO is preserved and
the reply for seq *n* can never overtake *n - 1*.  Under an armed fault
plan the same loops run hardened (CRC-stamped images, retransmission,
reply replay; docs/FAULTS.md).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...hardware.config import CacheMode
from ...kernel.process import UserProcess
from ...kernel.system import ShrimpSystem
from ...vmmc import VmmcEndpoint, VmmcTimeoutError, attach
from ..recovery import IDLE_US, MAX_XMIT, bounded_poll, crc32_of, retransmit
from .idl import IdlType, Interface, Param, var_tail

__all__ = ["SrpcError", "SrpcTimeoutError", "SrpcClientBase", "SrpcServerBase",
           "SrpcTicket", "ParamRef", "pack_scalar", "unpack_scalar"]

_ETH_SRPC_BASE = 100000
_ETH_REPLY_BASE = 120000
_reply_ports = itertools.count(1)

_STATUS_OK = 0
_STATUS_NO_PROC = 1

# How promptly the combining timer flushes an RPC buffer's tail packet.
# Short: the stubs coalesce each call's stores into single bursts.
_SRPC_FLUSH_TIMER = 0.10

# Hardened-protocol knobs (docs/FAULTS.md).  Under an armed fault plan
# each binding grows four reserved words past the return word —
# [call_xmit][call_crc][ret_xmit][ret_crc] — and both sides retransmit
# full buffer images until the peer's CRC check passes.
_HARDENED_EXT_BYTES = 16


_SCALAR_CODES = {"int": "<i", "uint": "<I", "float": "<f", "double": "<d"}


class SrpcError(Exception):
    """Binding failure or protocol violation."""


class SrpcTimeoutError(SrpcError, VmmcTimeoutError):
    """A hardened SHRIMP RPC wait expired: the client's retransmission
    budget ran out, or the server's idle bound passed with no call."""


def pack_scalar(kind: str, value) -> bytes:
    """Encode one scalar in the wire byte order."""
    return struct.pack(_SCALAR_CODES[kind], value)


def unpack_scalar(kind: str, raw: bytes):
    """Decode one scalar from slot bytes."""
    return struct.unpack(_SCALAR_CODES[kind], raw[: struct.calcsize(_SCALAR_CODES[kind])])[0]


def encode_value(idltype: IdlType, value) -> bytes:
    """Marshal one value into the used bytes at the end of its slot:
    write it so it ends where the slot does."""
    kind = idltype.kind
    if kind in _SCALAR_CODES:
        return pack_scalar(kind, value)
    if kind == "array":
        if len(value) != idltype.bound:
            raise SrpcError("array needs %d elements, got %d" % (idltype.bound, len(value)))
        return struct.pack("<%d%s" % (idltype.bound, _SCALAR_CODES[idltype.element][1]), *value)
    if kind == "opaque_fixed":
        if len(value) != idltype.bound:
            raise SrpcError("fixed opaque needs %d bytes, got %d" % (idltype.bound, len(value)))
        return bytes(value) + b"\x00" * (-len(value) % 4)
    if kind in ("opaque_var", "string"):
        data = value.encode("utf-8") if kind == "string" else bytes(value)
        if len(data) > idltype.bound:
            raise SrpcError("value of %d bytes exceeds bound %d" % (len(data), idltype.bound))
        return data + b"\x00" * (-len(data) % 4) + struct.pack("<I", len(data))
    raise SrpcError("cannot encode %s" % idltype.describe())


def decode_value(idltype: IdlType, raw: bytes):
    """Unmarshal one value from bytes that end at its slot's end: the
    whole slot, or (variable-bounded) just its used tail."""
    kind = idltype.kind
    if kind in _SCALAR_CODES:
        return unpack_scalar(kind, raw)
    if kind == "array":
        return list(struct.unpack_from(
            "<%d%s" % (idltype.bound, _SCALAR_CODES[idltype.element][1]), raw
        ))
    if kind == "opaque_fixed":
        return bytes(raw[: idltype.bound])
    if kind in ("opaque_var", "string"):
        (length,) = struct.unpack_from("<I", raw, len(raw) - 4)
        if length > idltype.bound:
            raise SrpcError("corrupt length %d > bound %d" % (length, idltype.bound))
        start = len(raw) - var_tail(length)
        data = bytes(raw[start : start + length])
        return data.decode("utf-8") if kind == "string" else data
    raise SrpcError("cannot decode %s" % idltype.describe())


@dataclass
class _SrpcBindRequest:
    interface: str
    version: int
    client_node: int
    reply_port: int
    buffer_export: int


@dataclass
class _SrpcBindReply:
    ok: bool
    error: str = ""
    server_node: int = 0
    buffer_export: int = 0


class _SrpcEndpointBase:
    """Shared binding machinery: the mirrored buffer pair.

    ``window`` is the multi-call pipelining depth: the buffer holds
    that many identical frames, and up to that many calls may be in
    flight on the binding at once.  Both sides of a binding must agree
    on the window (the workload plumbing guarantees it); ``window=1``
    is the paper's single buffer.
    """

    IDL: Interface  # installed by the stub generator on subclasses

    def __init__(self, system: ShrimpSystem, proc: UserProcess,
                 endpoint: Optional[VmmcEndpoint] = None, window: int = 1):
        if window < 1 or window > 64:
            raise SrpcError("pipeline window must be in [1, 64], got %d"
                            % window)
        self.system = system
        self.proc = proc
        self.ep = endpoint or attach(system, proc)
        self.ethernet = system.machine.ethernet
        interface = self.IDL
        # Frame layout: [args area][call word][ret area][return word].
        # Every value ends at its slot's end, every parameter block at
        # the call word and every return value at the return word, so
        # each side's stores form one ascending run the combining
        # hardware packs together.
        self.call_word_off = interface.args_area_bytes
        self.ret_off = self.call_word_off + 4
        self.return_word_off = self.ret_off + interface.ret_area_bytes
        # Hardened bindings reserve the CRC/xmit words after the return
        # word; both sides derive the flag from the same armed fault
        # plan, so the layouts always agree.
        self.hardened = proc.faults.enabled
        self.hx_off = self.return_word_off + 4
        tail = self.hx_off + (_HARDENED_EXT_BYTES if self.hardened else 0)
        self.window = window
        self.frame_stride = tail
        page = proc.config.page_size
        self.region_bytes = -(-(tail * window) // page) * page
        self.buf = 0  # local buffer vaddr (set during binding)
        # The server buffer's (node, export id), set during binding: with
        # a call's seq it names the call to the tracer's context hand-off.
        self.call_key: Tuple[int, int] = (0, 0)
        # Buffer access is re-based onto the frame of the call being
        # issued, collected or served, and reset to 0 between calls.
        self._active_base = 0

    def _make_buffer(self):
        self.buf = self.ep.alloc_buffer(self.region_bytes,
                                        cache_mode=CacheMode.WRITE_THROUGH)
        export = yield from self.ep.export(self.buf, self.region_bytes)
        return export

    def _bind_to_peer(self, node: int, export_id: int):
        imported = yield from self.ep.import_buffer(node, export_id)
        # The local buffer itself is AU-bound to the peer's: CPU stores
        # propagate; incoming DMA writes do not re-snoop, so no echo.
        yield from self.ep.bind(self.buf, imported, combining=True,
                                timer_us=_SRPC_FLUSH_TIMER)

    # -- timed buffer access helpers used by generated stubs ---------------
    def _read(self, offset: int, nbytes: int):
        data = yield from self.proc.read(
            self.buf + self._active_base + offset, nbytes)
        return data

    def _write(self, offset: int, data: bytes):
        yield from self.proc.write(self.buf + self._active_base + offset, data)


class SrpcTicket:
    """One in-flight call, matched to its reply by sequence.

    Returned by the generated ``*_begin`` stub methods; redeem it with
    :meth:`SrpcClientBase.finish` (in any order — replies land in their
    own frame, so tickets may be finished out of submission order).  A
    synchronous call holds a ticket too, harvested at once.
    """

    __slots__ = ("seq", "proc_id", "frame", "ret_bytes", "out_reads",
                 "start_us", "raw", "bad", "done", "sync", "trace_sid",
                 "trace_ctx")

    def __init__(self, seq: int, proc_id: int, frame: int,
                 ret_bytes: int, out_reads, start_us: float):
        self.seq = seq
        self.proc_id = proc_id
        self.frame = frame
        self.ret_bytes = ret_bytes
        self.out_reads = out_reads
        self.start_us = start_us
        self.raw: Optional[List[bytes]] = None
        self.bad = False
        self.done = False
        # A synchronous call's span is opened and ended by the caller; a
        # ``*_begin`` call's span is completed at harvest, under the sid
        # reserved at submit.  The call-span sid and the caller's trace
        # context are captured at submit, so the server's serve span and
        # the call span link into the same causal tree.
        self.sync = False
        self.trace_sid: Optional[int] = None
        self.trace_ctx = None


class SrpcClientBase(_SrpcEndpointBase):
    """Base class of generated client stubs.

    Generated subclasses carry one plain method per IDL procedure
    (synchronous call) and one ``*_begin`` method per procedure that
    submits the call and returns an :class:`SrpcTicket`; :meth:`finish`
    completes it.  Both are the same frame protocol: a synchronous call
    submits and at once harvests its own ticket, so on a one-frame
    binding it is the paper's single-buffer call.  At most ``window``
    tickets can be outstanding; submitting past the window first
    harvests the frame's previous occupant (classic sliding-window flow
    control).
    """

    def __init__(self, system, proc, **kwargs):
        super().__init__(system, proc, **kwargs)
        self._seq = 0
        self.calls_made = 0
        # Pipelining state: frame index -> outstanding (unharvested)
        # ticket, per-frame hardened transmission counters, and the
        # depth statistics the workload metrics report.
        self._frames: Dict[int, SrpcTicket] = {}
        self._call_xmits: Dict[int, int] = {}
        self.submits = 0
        self.inflight_high_water = 0
        self._depth_total = 0

    def bind(self, server_node: int, port: int):
        """Establish the binding with a serving SrpcServer."""
        export = yield from self._make_buffer()
        reply_port = _ETH_REPLY_BASE + next(_reply_ports)
        request = _SrpcBindRequest(
            interface=self.IDL.name,
            version=self.IDL.version,
            client_node=self.proc.node.node_id,
            reply_port=reply_port,
            buffer_export=export.export_id,
        )
        self.ethernet.send(self.proc.node.node_id, server_node,
                           _ETH_SRPC_BASE + port, request)
        frame = yield self.ethernet.recv(self.proc.node.node_id, reply_port)
        reply: _SrpcBindReply = frame.payload
        if not reply.ok:
            raise SrpcError("bind failed: %s" % reply.error)
        self.call_key = (reply.server_node, reply.buffer_export)
        yield from self._bind_to_peer(reply.server_node, reply.buffer_export)

    def _invoke(self, proc_id: int, writes: List[Tuple[int, bytes]],
                ret_bytes: int, out_reads: List[Tuple[int, int]]):
        """One synchronous call: submit, then harvest the same ticket.

        ``writes``: (offset, bytes) argument stores.  The call word is
        appended and everything is coalesced into maximal consecutive
        streams — the last argument's used bytes end at the call word,
        so they combine with the flag into a single burst ('all of the
        arguments and the flag can be combined into a single packet by
        the client-side hardware').
        ``ret_bytes``: return-slot bytes to read back (0 for void).
        ``out_reads``: (offset, nbytes, variable) OUT/INOUT slots to
        read back.  Returns [ret_raw?] + out slot bytes, in order.
        Outstanding tickets are harvested first, so per-binding order
        holds.
        """
        if self._frames:
            yield from self.drain()
        proc = self.proc
        span = None
        if proc.tracer.enabled:
            data = {"proc": proc_id}
            if proc.trace_ctx is not None:
                data["tid"], data["cparent"] = proc.trace_ctx
            span = proc.tracer.begin(
                "srpc.call", "call proc %d" % proc_id, track=proc.trace_track,
                data=data,
            )
        try:
            ticket = yield from self._submit(proc_id, writes, ret_bytes,
                                             out_reads, sync=True,
                                             call_span=span)
            yield from self._harvest(ticket)
        finally:
            # finally: fault-raised timeouts must not leak the call span
            # (span-balance audit).
            proc.tracer.end(span)
        if ticket.bad:
            raise SrpcError("server has no procedure %d" % proc_id)
        return ticket.raw

    def _submit(self, proc_id: int, writes: List[Tuple[int, bytes]],
                ret_bytes: int, out_reads: List[Tuple[int, int]],
                sync: bool = False, call_span=None):
        """Issue one call into its frame and return its :class:`SrpcTicket`.

        If the call's frame still holds an unharvested ticket (the
        window is full) that occupant is harvested first — sliding-
        window flow control.  The arguments and call word land in the
        call's own frame; the reply is collected later by
        :meth:`_harvest`.  ``sync`` marks a synchronous call, whose
        caller owns its call span (``call_span``; None when the tracer
        is off or refused it).
        """
        proc = self.proc
        # Deferred charge: everything between here and the first buffer
        # write is pure marshaling, so the stub cost folds into that
        # write's deadline (one wake instead of two); a full-window
        # harvest consumes it at its first poll check.
        proc.charge(proc.config.costs.srpc_client_stub)
        self._seq = (self._seq % 0xFFFF) + 1
        seq = self._seq
        frame = (seq - 1) % self.window
        occupant = self._frames.get(frame)
        if occupant is not None:
            yield from self._harvest(occupant)
        call_word = struct.pack("<I", (seq << 16) | proc_id)
        ticket = SrpcTicket(seq, proc_id, frame, ret_bytes, out_reads,
                            proc.sim.now)
        ticket.sync = sync
        ticket.trace_ctx = ctx = proc.trace_ctx
        if proc.tracer.enabled:
            if call_span is not None:
                ticket.trace_sid = call_span.sid
            elif not sync:
                ticket.trace_sid = proc.tracer.reserve_sid()
            # The serve span links under this call's span.  None
            # withdraws a context posted under this key a seq wrap ago.
            proc.tracer.post(self.call_key + (seq,), None if ctx is None
                             else (ctx[0], ticket.trace_sid or ctx[1]))
        self._active_base = frame * self.frame_stride
        try:
            if self.hardened:
                for offset, data in _coalesce(writes):
                    yield from self._write(offset, data)
                yield from self._transmit_frame(frame, call_word)
            else:
                for offset, data in _coalesce(
                        writes + [(self.call_word_off, call_word)]):
                    yield from self._write(offset, data)
        finally:
            self._active_base = 0
        self._frames[frame] = ticket
        if self.window > 1:
            # Depth statistics describe pipelining; a one-frame binding
            # reports none.
            self.submits += 1
            depth = len(self._frames)
            if depth > self.inflight_high_water:
                self.inflight_high_water = depth
            self._depth_total += depth
        return ticket

    def _transmit_frame(self, frame: int, call_word: bytes):
        """One hardened transmission of a frame's call image: the full
        args image, the call word and the [xmit][crc] stamp.  Idempotent
        — the retry loop replays it until the server's CRC check
        accepts the call.  The caller must have ``_active_base`` set to
        the frame; per-frame xmit counters keep concurrent calls'
        replays distinguishable."""
        args_img = yield from self._read(0, self.call_word_off)
        crc = crc32_of(args_img, call_word)
        xmit = (self._call_xmits.get(frame, 0) + 1) & 0xFFFFFFFF
        self._call_xmits[frame] = xmit
        # Stamp last: the server treats a stamp bump whose CRC matches
        # the already-present call image as the trigger, so the image
        # must land first.
        yield from self._write(0, args_img + call_word)
        yield from self._write(self.hx_off, struct.pack("<II", xmit, crc))

    def _harvest(self, ticket: SrpcTicket):
        """Collect one ticket's reply, blocking until it lands."""
        if ticket.done:
            return
        proc = self.proc
        seq = ticket.seq
        expected_ok = struct.pack("<I", (seq << 16) | _STATUS_OK)
        expected_bad = struct.pack("<I", (seq << 16) | _STATUS_NO_PROC)
        base = ticket.frame * self.frame_stride
        self._active_base = base
        try:
            out = []
            if self.hardened:
                call_word = struct.pack("<I", (seq << 16) | ticket.proc_id)
                result, args_img, ret_img = yield from self._retry_frame(
                    ticket, call_word, expected_ok, expected_bad)
                # Everything was read (and CRC-validated) as full
                # images; slice the slots out instead of re-reading.
                if ticket.ret_bytes:
                    out.append(ret_img[len(ret_img) - ticket.ret_bytes:])
                for offset, nbytes, _variable in ticket.out_reads:
                    out.append(args_img[offset : offset + nbytes])
            else:
                result = yield from proc.poll(
                    self.buf + base + self.return_word_off, 4,
                    lambda b: b in (expected_ok, expected_bad),
                )
                if ticket.ret_bytes:
                    out.append((yield from self._read(
                        self.return_word_off - ticket.ret_bytes,
                        ticket.ret_bytes)))
                for offset, nbytes, variable in ticket.out_reads:
                    if variable:
                        data = yield from _read_tail(self._read,
                                                     offset + nbytes, nbytes)
                    else:
                        data = yield from self._read(offset, nbytes)
                    out.append(data)
        finally:
            self._active_base = 0
        ticket.raw = out
        ticket.bad = result == expected_bad
        ticket.done = True
        if self._frames.get(ticket.frame) is ticket:
            del self._frames[ticket.frame]
        self.calls_made += 1
        if proc.tracer.enabled and not ticket.sync:
            data = {"proc": ticket.proc_id, "seq": seq}
            if ticket.trace_ctx is not None:
                data["tid"], data["cparent"] = ticket.trace_ctx
            proc.tracer.complete(
                "srpc.call", "call proc %d" % ticket.proc_id,
                ticket.start_us, track=proc.trace_track,
                data=data, sid=ticket.trace_sid,
            )

    def _retry_frame(self, ticket, call_word, expected_ok, expected_bad):
        """Hardened harvest: wait for a CRC-valid reply in the ticket's
        frame, retransmitting its call image on timeout; returns
        (return word, args image, ret image) or raises SrpcTimeoutError.
        The submit itself counts as the first transmission, so attempt
        0 only waits.  The caller must have ``_active_base`` on the
        frame.

        The reply CRC covers the whole args area (where the server's
        OUT/INOUT stores land), the result area, and the return word —
        so a corrupted reply is rejected and served again from the
        server's replay log."""
        proc = self.proc
        base = ticket.frame * self.frame_stride
        ret_span = self.return_word_off - self.ret_off
        window_off = self.return_word_off
        window_len = self.hx_off + _HARDENED_EXT_BYTES - window_off
        xm_lo = self.hx_off + 8 - window_off

        def await_reply(timeout_us):
            deadline = proc.sim.now + timeout_us
            while True:
                remaining = deadline - proc.sim.now
                if remaining <= 0:
                    return None
                snapshot = proc.peek(self.buf + base + window_off + xm_lo, 4)

                def fresh(w, snapshot=snapshot):
                    return (w[:4] in (expected_ok, expected_bad)
                            or w[xm_lo : xm_lo + 4] != snapshot)

                window = yield from bounded_poll(
                    proc, self.buf + base + window_off, window_len, fresh,
                    remaining,
                )
                if window is None:
                    return None
                result = window[:4]
                if result not in (expected_ok, expected_bad):
                    continue  # only the xmit stamp moved; revalidate later
                args_img = yield from self._read(0, self.call_word_off)
                ret_img = yield from self._read(self.ret_off, ret_span)
                raw = yield from self._read(self.hx_off + 8, 8)
                _ret_xmit, ret_crc = struct.unpack("<II", raw)
                if crc32_of(args_img, ret_img, result) == ret_crc:
                    return result, args_img, ret_img
                # Corrupt or partial: wait for the server's next replay.

        got = yield from retransmit(
            lambda: self._transmit_frame(ticket.frame, call_word),
            await_reply, self.call_word_off, sent=True,
        )
        if got is None:
            raise SrpcTimeoutError(
                "no valid reply for seq %d after %d transmissions"
                % (ticket.seq, MAX_XMIT)
            )
        return got

    def finish(self, ticket: SrpcTicket):
        """Complete a pipelined call: wait for the matching reply and
        return the procedure's decoded result.  Tickets of one binding
        may be finished in any order."""
        yield from self._harvest(ticket)
        if ticket.bad:
            raise SrpcError("server has no procedure %d" % ticket.proc_id)
        return getattr(self, "_decode_%d" % ticket.proc_id)(ticket.raw)

    def drain(self):
        """Harvest every outstanding ticket, oldest first.  Results stay
        available via :meth:`finish` (which is then immediate)."""
        for ticket in sorted(self._frames.values(), key=lambda t: t.seq):
            yield from self._harvest(ticket)

    @property
    def mean_depth(self) -> float:
        """Mean in-flight depth observed at submit time."""
        return self._depth_total / self.submits if self.submits else 0.0


class ParamRef:
    """A by-reference OUT/INOUT parameter handed to server procedures.

    ``get()``/``set()`` are generators: they read/write the slot in the
    server's communication buffer with real (timed) memory operations;
    sets propagate to the client via automatic update, overlapped with
    the rest of the procedure ('in many cases it appears to have no
    cost at all').
    """

    def __init__(self, server: "SrpcServerBase", param: Param):
        self._server = server
        self._param = param

    @property
    def name(self) -> str:
        return self._param.name

    def get(self):
        """Read and decode the parameter's current slot value."""
        param = self._param
        nbytes = param.type.slot_bytes
        if param.type.is_variable:
            raw = yield from _read_tail(self._server._read,
                                        param.offset + nbytes, nbytes)
        else:
            raw = yield from self._server._read(param.offset, nbytes)
        return decode_value(param.type, raw)

    def set(self, value):
        """Encode and write the value so it ends at the slot's end
        (propagates via AU)."""
        data = encode_value(self._param.type, value)
        yield from self._server._write(
            self._param.offset + self._param.type.slot_bytes - len(data), data)


class SrpcServerBase(_SrpcEndpointBase):
    """Base class of generated server skeletons.

    ``impl`` provides one generator method per procedure; IN parameters
    arrive as Python values, OUT/INOUT as :class:`ParamRef`.
    """

    def __init__(self, system, proc, impl, **kwargs):
        super().__init__(system, proc, **kwargs)
        self.impl = impl
        self.calls_served = 0
        # Serving state: the next sequence number to serve and the last
        # one served in each frame.
        self._next_seq = 1
        self._frame_seqs: Dict[int, int] = {}
        # Hardened replay state, per frame: the exact (offset, bytes)
        # stores of the last reply (OUT/INOUT sets included), so a
        # duplicate call — the client never saw our answer — can be
        # answered again even after its retransmission clobbered the
        # buffer; that reply's CRC and stamp counter; and the last call
        # stamp acted on.  ``_reply_log`` is the log being recorded.
        self._reply_log: List[Tuple[int, bytes]] = []
        self._reply_logs: Dict[int, List[Tuple[int, bytes]]] = {}
        self._reply_crcs: Dict[int, int] = {}
        self._ret_xmits: Dict[int, int] = {}
        self._call_xmits_seen: Dict[int, int] = {}

    def _write(self, offset: int, data: bytes):
        if self.hardened:
            # Log absolute offsets so a frame's replay works after
            # _active_base has been reset.
            self._reply_log.append((self._active_base + offset, bytes(data)))
        yield from super()._write(offset, data)

    def serve_binding(self, port: int):
        """Accept one client binding on ``port``."""
        frame = yield self.ethernet.recv(
            self.proc.node.node_id, _ETH_SRPC_BASE + port
        )
        request: _SrpcBindRequest = frame.payload
        if request.interface != self.IDL.name or request.version != self.IDL.version:
            reply = _SrpcBindReply(ok=False, error="interface mismatch")
            self.ethernet.send(self.proc.node.node_id, request.client_node,
                               request.reply_port, reply)
            raise SrpcError("client expected %s v%d" % (request.interface, request.version))
        export = yield from self._make_buffer()
        self.call_key = (self.proc.node.node_id, export.export_id)
        reply = _SrpcBindReply(
            ok=True,
            server_node=self.proc.node.node_id,
            buffer_export=export.export_id,
        )
        self.ethernet.send(self.proc.node.node_id, request.client_node,
                           request.reply_port, reply)
        yield from self._bind_to_peer(request.client_node, request.buffer_export)

    def run(self, max_calls: Optional[int] = None):
        """The server loop: poll the call word, dispatch, flag return.

        Calls are served strictly in sequence order, each in its own
        frame.  They travel one AU binding and land in issue order, so
        waiting on seq *n* before *n + 1* never deadlocks; each reply
        lands in its own frame, which lets the client collect out of
        order."""
        proc = self.proc
        served = 0
        while max_calls is None or served < max_calls:
            frame = (self._next_seq - 1) % self.window
            base = frame * self.frame_stride
            if self.hardened:
                word = yield from self._await_call(frame)
            else:
                last = self._frame_seqs.get(frame, 0)
                raw = yield from proc.poll(
                    self.buf + base + self.call_word_off, 4,
                    lambda b: _is_new_call(struct.unpack("<I", b)[0], last),
                )
                word = struct.unpack("<I", raw)[0]
            seq, proc_id = word >> 16, word & 0xFFFF
            span = ctx = None
            if proc.tracer.enabled:
                span = proc.tracer.begin(
                    "srpc.serve", "serve proc %d" % proc_id,
                    track=proc.trace_track,
                    data={"proc": proc_id, "seq": seq},
                )
                ctx = proc.tracer.claim(self.call_key + (seq,), span)
            self._reply_log = self._reply_logs[frame] = []
            prev_ctx = proc.trace_ctx
            if ctx is not None:
                # Downstream work the dispatcher starts (replication,
                # nested calls) parents under this serve span.
                proc.trace_ctx = ctx
            self._active_base = base
            try:
                # Deferred charge: dispatcher lookup and ParamRef setup
                # are pure, so the dispatch cost folds into the first
                # parameter read (or, for no-arg procedures, into the
                # reply write) — one wake instead of two.
                proc.charge(proc.config.costs.srpc_server_dispatch)
                dispatcher = getattr(self, "_dispatch_%d" % proc_id, None)
                status = _STATUS_OK
                ret_data = b""
                if dispatcher is None:
                    status = _STATUS_NO_PROC
                else:
                    ret_data = (yield from dispatcher()) or b""
                # The return value ends at the return word, so the two
                # leave as one coalesced write.
                return_word = struct.pack("<I", (seq << 16) | status)
                yield from self._write(self.return_word_off - len(ret_data),
                                       ret_data + return_word)
                if self.hardened:
                    yield from self._stamp_frame(frame, return_word)
            finally:
                self._active_base = 0
                proc.trace_ctx = prev_ctx
                # finally: a fault-raised timeout mid-dispatch must not
                # leak the serve span (span-balance audit).
                proc.tracer.end(span)
            self._frame_seqs[frame] = seq
            self._next_seq = (seq % 0xFFFF) + 1
            self.calls_served += 1
            served += 1

    def _await_call(self, frame: int):
        """Hardened wait (bounded) for a CRC-valid new call in ``frame``.

        One poll spans every frame's call word and call stamp; it wakes
        on a new call word in ``frame`` or on any moved stamp.  A moved
        stamp over an already-served call whose image is consistent is
        a genuine retransmission — the client never saw that reply — so
        the logged reply is replayed.  An inconsistent one is the next
        call's stamp racing ahead of its image (or corruption);
        replaying then would clobber the incoming arguments."""
        proc = self.proc
        deadline = proc.sim.now + IDLE_US
        stride = self.frame_stride
        call_off = self.call_word_off
        start = self.buf + call_off
        length = (self.window - 1) * stride + self.hx_off + 8 - call_off
        stamps = [f * stride + self.hx_off - call_off
                  for f in range(self.window)]
        word_lo = frame * stride
        last = self._frame_seqs.get(frame, 0)
        while True:
            remaining = deadline - proc.sim.now
            if remaining <= 0:
                raise SrpcTimeoutError(
                    "no call within %.0f us" % IDLE_US
                )
            snapshots = [proc.peek(start + lo, 4) for lo in stamps]

            def fresh(region, snapshots=snapshots):
                word = struct.unpack_from("<I", region, word_lo)[0]
                return _is_new_call(word, last) or any(
                    region[lo : lo + 4] != snap
                    for lo, snap in zip(stamps, snapshots))

            region = yield from bounded_poll(proc, start, length, fresh,
                                             remaining)
            if region is None:
                continue
            accepted = None
            for f in range(self.window):
                fb = f * stride
                raw = yield from self._read(fb + call_off, 4)
                word = struct.unpack("<I", raw)[0]
                new = _is_new_call(word, self._frame_seqs.get(f, 0))
                if f != frame and (new or word == 0):
                    continue  # not served yet: nothing to replay
                hx = yield from self._read(fb + self.hx_off, 8)
                call_xmit, call_crc = struct.unpack("<II", hx)
                replay = (not new and word != 0
                          and call_xmit != self._call_xmits_seen.get(f, 0)
                          and self._reply_logs.get(f))
                if f != frame and not replay:
                    continue  # the served call's stamp has not moved
                args_img = yield from self._read(fb, call_off)
                if crc32_of(args_img, raw) != call_crc:
                    continue  # corrupt, or a stamp racing its image
                if new:
                    self._call_xmits_seen[f] = call_xmit
                    accepted = word
                elif replay:
                    self._call_xmits_seen[f] = call_xmit
                    yield from self._replay_frame(f)
            if accepted is not None:
                return accepted

    def _stamp_frame(self, frame: int, return_word: bytes):
        """Checksum one frame's reply state and publish its [xmit][crc]
        stamp.  The CRC covers the args area (OUT/INOUT stores live
        there), the result area and the return word — everything the
        client reads.  The caller must have ``_active_base`` on the
        frame; per-frame stamp/CRC state lets the client validate every
        in-flight frame independently."""
        args_img = yield from self._read(0, self.call_word_off)
        ret_img = yield from self._read(
            self.ret_off, self.return_word_off - self.ret_off
        )
        crc = crc32_of(args_img, ret_img, return_word)
        self._reply_crcs[frame] = crc
        xmit = (self._ret_xmits.get(frame, 0) + 1) & 0xFFFFFFFF
        self._ret_xmits[frame] = xmit
        yield from _SrpcEndpointBase._write(
            self, self.hx_off + 8, struct.pack("<II", xmit, crc),
        )

    def _replay_frame(self, frame: int):
        """Rewrite every logged store of a frame's last reply (absolute
        offsets), then bump its stamp — restores OUT slots a
        retransmitted call image clobbered.  Runs between calls, with
        base 0."""
        for offset, data in self._reply_logs[frame]:
            yield from _SrpcEndpointBase._write(self, offset, data)
        xmit = (self._ret_xmits.get(frame, 0) + 1) & 0xFFFFFFFF
        self._ret_xmits[frame] = xmit
        yield from _SrpcEndpointBase._write(
            self, frame * self.frame_stride + self.hx_off + 8,
            struct.pack("<II", xmit, self._reply_crcs[frame]),
        )

    def _ref(self, proc_name: str, param_name: str) -> ParamRef:
        procedure = self.IDL.procedure(proc_name)
        for param in procedure.params:
            if param.name == param_name:
                return ParamRef(self, param)
        raise SrpcError("no parameter %s in %s" % (param_name, proc_name))


def _is_new_call(word: int, last_seq: int) -> bool:
    """Whether a frame's call word holds a call not yet served there:
    nonzero, with a sequence number other than the frame's last."""
    return word != 0 and (word >> 16) != last_seq


def _read_tail(read, end: int, nbytes: int):
    """Read the variable-bounded slot of ``nbytes`` ending at ``end``:
    its length word, then only the data present (an empty value costs
    one word, not the whole bound).  Returns the value's used tail, as
    :func:`decode_value` takes it."""
    lraw = yield from read(end - 4, 4)
    (length,) = struct.unpack("<I", lraw)
    length = min(length, nbytes - 4)
    if not length:
        return lraw
    data = yield from read(end - var_tail(length), length)
    return data + b"\x00" * (-length % 4) + lraw


def _coalesce(writes: List[Tuple[int, bytes]]) -> List[Tuple[int, bytes]]:
    """Merge adjacent (offset, bytes) stores into consecutive streams."""
    merged: List[Tuple[int, bytearray]] = []
    for offset, data in sorted(writes, key=lambda w: w[0]):
        if merged and merged[-1][0] + len(merged[-1][1]) == offset:
            merged[-1][1].extend(data)
        else:
            merged.append((offset, bytearray(data)))
    return [(offset, bytes(data)) for offset, data in merged]
