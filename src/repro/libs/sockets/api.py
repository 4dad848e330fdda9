"""Stream sockets on SHRIMP (Section 4.3): a user-level, VMMC-backed,
BSD-compatible stream socket library.

Connection establishment uses 'a regular internet-domain socket, on the
Ethernet, to exchange the data required to establish two VMMC mappings
(one in each direction).  The internet socket is held open, and is used
to detect when the connection has been broken.'

Data moves through per-direction circular record rings
(:mod:`.circular`); control information — produced/consumed counters
and the FIN flag — always travels by automatic update.  Three variants,
as in Figure 7:

* ``DU-2copy`` — sender copies into a staging area (handling alignment)
  and sends header+payload with one deliberate update; receiver copies
  out.
* ``DU-1copy`` — deliberate update straight from user memory (falling
  back to the two-copy path 'when dictated by alignment'); receiver
  copies out.
* ``AU-2copy`` — the sender-side copy into the AU-bound ring acts as
  the send; receiver copies out.  ('It is not possible to build a
  zero-copy deliberate-update protocol or a one-copy automatic-update
  protocol without violating the protection requirements of the sockets
  model' — the receiver's user memory is never exported.)
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from ...hardware.config import CacheMode
from ...kernel.process import UserProcess
from ...kernel.system import ShrimpSystem
from ...vmmc import VmmcEndpoint, attach
from ...vmmc.errors import VmmcTimeoutError
from ..recovery import IDLE_US, MAX_XMIT, bounded_poll, crc32_of, retransmit
from .circular import RECORD_HEADER_BYTES, RecordRing, pad_word, record_bytes

__all__ = ["SocketVariant", "SOCKET_VARIANTS", "SocketLib", "ShrimpSocket",
           "Listener", "SocketError", "SocketTimeoutError"]

# The FIN flag sits next to the produced counter, so a blocked receiver
# polls one 8-byte pair and the peer's consumed acks do not wake it.
_PRODUCED_OFF = 0x00
_FIN_OFF = 0x04
_CONSUMED_OFF = 0x40
# Hardened-protocol control words (docs/FAULTS.md): record CRC32 and a
# transmission counter, written before the data so the receiver can
# validate a record and detect retransmissions.  Unused (never written,
# never read) when no fault plan is armed, so the fault-free wire
# traffic is byte-identical to the paper's protocol.
_CRC_OFF = 0xC0
_XMIT_OFF = _CRC_OFF + 4
_ETH_LISTEN_BASE = 20000
_ETH_REPLY_BASE = 40000
_reply_ports = itertools.count(1)


class SocketError(Exception):
    """Connection-level failure (refused, state misuse)."""


class SocketTimeoutError(SocketError, VmmcTimeoutError):
    """A hardened-socket retry budget or bounded wait expired.

    Raised instead of hanging when faults eat a record (or its ack)
    more times than the retransmission budget allows.
    """


@dataclass(frozen=True)
class SocketVariant:
    name: str
    automatic: bool
    staging_copy: bool


SOCKET_VARIANTS: Dict[str, SocketVariant] = {
    v.name: v
    for v in [
        SocketVariant("AU-2copy", automatic=True, staging_copy=True),
        SocketVariant("DU-1copy", automatic=False, staging_copy=False),
        SocketVariant("DU-2copy", automatic=False, staging_copy=True),
    ]
}


def _u32(value: int) -> bytes:
    return struct.pack("<I", value & 0xFFFFFFFF)


@dataclass
class _ConnRequest:
    client_node: int
    reply_port: int
    ring_export: int
    ctrl_export: int
    ring_bytes: int


@dataclass
class _ConnReply:
    ok: bool
    error: str = ""
    server_node: int = 0
    ring_export: int = 0
    ctrl_export: int = 0
    ring_bytes: int = 0


@dataclass
class _Fin:
    pass


class SocketLib:
    """Per-process socket library instance."""

    def __init__(
        self,
        system: ShrimpSystem,
        proc: UserProcess,
        variant: SocketVariant = SOCKET_VARIANTS["DU-1copy"],
        ring_bytes: int = 32768,
        endpoint: Optional[VmmcEndpoint] = None,
    ):
        self.system = system
        self.proc = proc
        self.variant = variant
        self.ring_bytes = ring_bytes
        self.ep = endpoint or attach(system, proc)
        self.ethernet = system.machine.ethernet

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------
    def listen(self, port: int) -> "Listener":
        """Bind a listening socket to ``port`` (Ethernet rendezvous)."""
        return Listener(self, port)

    def connect(self, node: int, port: int):
        """Active open to ``(node, port)``; returns a connected socket."""
        half = yield from _LocalHalf.create(self)
        reply_port = _ETH_REPLY_BASE + next(_reply_ports)
        request = _ConnRequest(
            client_node=self.proc.node.node_id,
            reply_port=reply_port,
            ring_export=half.ring_export.export_id,
            ctrl_export=half.ctrl_export.export_id,
            ring_bytes=self.ring_bytes,
        )
        self.ethernet.send(
            self.proc.node.node_id, node, _ETH_LISTEN_BASE + port, request
        )
        frame = yield self.ethernet.recv(self.proc.node.node_id, reply_port)
        reply: _ConnReply = frame.payload
        if not reply.ok:
            raise SocketError("connect to node %d port %d failed: %s"
                              % (node, port, reply.error))
        sock = ShrimpSocket(self, half, peer_node=reply.server_node,
                            eth_peer=(node, port))
        yield from sock._attach_peer(reply.server_node, reply.ring_export,
                                     reply.ctrl_export, reply.ring_bytes)
        return sock


class Listener:
    """A listening socket: accepts Ethernet connection requests."""

    def __init__(self, lib: SocketLib, port: int):
        self.lib = lib
        self.port = port
        self.accepted = 0

    def accept(self):
        """Block for one connection; returns the connected socket."""
        lib = self.lib
        frame = yield lib.ethernet.recv(
            lib.proc.node.node_id, _ETH_LISTEN_BASE + self.port
        )
        request: _ConnRequest = frame.payload
        half = yield from _LocalHalf.create(lib)
        reply = _ConnReply(
            ok=True,
            server_node=lib.proc.node.node_id,
            ring_export=half.ring_export.export_id,
            ctrl_export=half.ctrl_export.export_id,
            ring_bytes=lib.ring_bytes,
        )
        lib.ethernet.send(
            lib.proc.node.node_id, request.client_node, request.reply_port, reply
        )
        sock = ShrimpSocket(lib, half, peer_node=request.client_node,
                            eth_peer=(request.client_node, request.reply_port))
        yield from sock._attach_peer(
            request.client_node, request.ring_export, request.ctrl_export,
            request.ring_bytes,
        )
        self.accepted += 1
        return sock


class _LocalHalf:
    """The locally-exported half of a connection: in-ring + control page."""

    def __init__(self, lib, ring_vaddr, ctrl_vaddr, ring_export, ctrl_export):
        self.ring_vaddr = ring_vaddr
        self.ctrl_vaddr = ctrl_vaddr
        self.ring_export = ring_export
        self.ctrl_export = ctrl_export

    @classmethod
    def create(cls, lib: SocketLib):
        page = lib.proc.config.page_size
        ring_vaddr = lib.ep.alloc_buffer(lib.ring_bytes, cache_mode=CacheMode.WRITE_THROUGH)
        ctrl_vaddr = lib.ep.alloc_buffer(page, cache_mode=CacheMode.WRITE_THROUGH)
        ring_export = yield from lib.ep.export(ring_vaddr, lib.ring_bytes)
        ctrl_export = yield from lib.ep.export(ctrl_vaddr, page)
        return cls(lib, ring_vaddr, ctrl_vaddr, ring_export, ctrl_export)


class ShrimpSocket:
    """One endpoint of a connected stream socket."""

    def __init__(self, lib: SocketLib, half: _LocalHalf, peer_node: int, eth_peer):
        self.lib = lib
        self.proc = lib.proc
        self.ep = lib.ep
        self.variant = lib.variant
        self.peer_node = peer_node
        self.eth_peer = eth_peer
        self.half = half
        # Hardened mode: armed fault plan => CRC + bounded retransmission.
        self.hardened = self.proc.faults.enabled
        self._xmit_count = 0           # sender: transmissions issued
        self._xmit_seen = 0            # receiver: last peer xmit counter seen
        # Receive side (peer -> me).
        self.in_ring = RecordRing(lib.ring_bytes)
        self._partial = 0              # bytes of the current record already read
        self._fin_seen = False
        # Send side (me -> peer); sized after the handshake.
        self.out_ring: Optional[RecordRing] = None
        self.imp_ring = None
        self.imp_ctrl = None
        self.au_ring_out = 0
        self.au_ctrl_out = 0
        self.staging = 0
        self.send_closed = False
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        # Each direction's stream is named to the tracer's context
        # hand-off by the receiver's ring, (node, export id); a request
        # within it by its stream offset.
        self.in_key = (self.proc.node.node_id, half.ring_export.export_id)
        self.out_key = (0, 0)  # the peer's ring, set by _attach_peer()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _attach_peer(self, node: int, ring_export: int, ctrl_export: int,
                     ring_bytes: int):
        lib = self.lib
        page = self.proc.config.page_size
        self.out_ring = RecordRing(ring_bytes)
        self.out_key = (node, ring_export)
        self.imp_ring = yield from self.ep.import_buffer(node, ring_export)
        self.imp_ctrl = yield from self.ep.import_buffer(node, ctrl_export)
        self.au_ctrl_out = self.ep.alloc_buffer(page, cache_mode=CacheMode.WRITE_THROUGH)
        # Control words are single-burst writes: a short flush timer gets
        # them out promptly.
        yield from self.ep.bind(self.au_ctrl_out, self.imp_ctrl, combining=True,
                                timer_us=0.25)
        if self.variant.automatic:
            self.au_ring_out = self.ep.alloc_buffer(
                ring_bytes, cache_mode=CacheMode.WRITE_THROUGH
            )
            # Data-ring packets grow across the header write and the
            # payload copy; a long timer lets them combine (the counter
            # write that follows closes the packet anyway).
            yield from self.ep.bind(self.au_ring_out, self.imp_ring, combining=True,
                                    timer_us=8.0)
        staging_bytes = -(-(ring_bytes // 2 + RECORD_HEADER_BYTES + 8) // page) * page
        self.staging = self.ep.alloc_buffer(staging_bytes, cache_mode=CacheMode.WRITE_BACK)

    # ------------------------------------------------------------------
    # Send
    # ------------------------------------------------------------------
    def send(self, vaddr: int, nbytes: int):
        """Blocking send of exactly ``nbytes``; returns ``nbytes``.

        (BSD send() may send less; blocking sockets with cooperative
        receivers always drain fully, which is the behaviour programs
        rely on and the one modeled here.)
        """
        if self.send_closed or self.closed:
            raise SocketError("send on closed socket")
        costs = self.proc.config.costs
        span = None
        if self.proc.tracer.enabled:
            span = self.proc.tracer.begin(
                "sock.send", "send %dB" % nbytes, track=self.proc.trace_track,
                data={"bytes": nbytes},
            )
        try:
            if nbytes > 0:
                # Folds into the first consumed-counter read (only pure
                # code runs in between); an empty send has no such read.
                self.proc.charge(costs.socket_send_overhead)
            else:
                yield from self.proc.compute(costs.socket_send_overhead)
            sent = 0
            max_record = self.out_ring.capacity // 4
            while sent < nbytes:
                yield from self._refresh_consumed()
                fit = self.out_ring.max_payload_fitting()
                if fit <= 0:
                    yield from self._wait_for_space()
                    continue
                chunk = min(nbytes - sent, fit, max_record)
                yield from self._send_record(vaddr + sent, chunk)
                sent += chunk
            self.bytes_sent += nbytes
        finally:
            # finally: fault-raised timeouts must not leak an open span.
            if span is not None:
                self.proc.tracer.end(span)
        return nbytes

    def _send_record(self, vaddr: int, payload: int):
        """Send one record: header + payload into the ring, then the new
        produced counter (control via AU, after the data).

        Hardened, the record is a synchronous rendezvous retransmitted
        until acked: the receiver's consumed counter reaching the new
        produced value *is* the ack (no extra wire words), so the ring
        is drained between records and a retransmission can blindly
        rewrite the same offsets (:meth:`_await_ack`).  Raises
        :class:`SocketTimeoutError` once the retry budget is spent.
        """
        proc = self.proc
        ring = self.out_ring
        header_off = ring.offset_of(ring.produced)
        header, segments, produced = ring.place_record(payload)
        if not self.hardened:
            yield from self._transmit_record(vaddr, payload, header,
                                             header_off, segments, produced)
            return
        body = yield from proc.read(vaddr, payload)      # checksum pass
        crc = crc32_of(header, body)
        target = _u32(produced)
        acked = yield from retransmit(
            lambda: self._transmit_record(vaddr, payload, header, header_off,
                                          segments, produced, crc),
            lambda timeout_us: self._await_ack(target, timeout_us),
            payload,
        )
        if acked is None:
            raise SocketTimeoutError(
                "no ack for a %d-byte record after %d transmissions"
                % (payload, MAX_XMIT)
            )
        ring.consumed = produced

    def _await_ack(self, target: bytes, timeout_us: float):
        """Wait at most ``timeout_us`` for the consumed counter to read
        ``target`` (generator returning it, or None at the deadline).

        The charged check loads the consumed word alone, but a store to
        the peer's xmit word also wakes the wait.  A peer retransmitting
        to us never saw our last ack, and it is blocked in its own send,
        so it will not read our record until we replay that ack: the
        wake runs :meth:`_refresh_produced`, which does.
        """
        proc = self.proc
        xmit = self.half.ctrl_vaddr + _XMIT_OFF
        deadline = proc.sim.now + timeout_us
        while True:
            seen = _u32(self._xmit_seen)
            data = yield from proc.poll(
                self.half.ctrl_vaddr + _CONSUMED_OFF, 4,
                lambda data: data == target or proc.peek(xmit, 4) != seen,
                deadline, wake=((xmit, 4),))
            if data is None or data == target:
                return data
            yield from self._refresh_produced()

    def _transmit_record(self, vaddr: int, payload: int, header: bytes,
                         header_off: int, segments, produced: int,
                         crc: int = 0):
        """One transmission of a record: (hardened) the CRC and xmit
        words, the variant-specific header+payload placement, then the
        produced counter.

        Idempotent with respect to ring state, so the hardened sender
        replays it verbatim on retransmission.
        """
        proc = self.proc
        if self.hardened:
            # Bumped before the data, so a DU abort still uses it up.
            self._xmit_count += 1
            yield from proc.write(
                self.au_ctrl_out + _CRC_OFF,
                _u32(crc) + _u32(self._xmit_count),
            )
        word = proc.config.word_size
        if self.variant.automatic:
            yield from proc.write(self.au_ring_out + header_off, header)
            cursor = 0
            for seg in segments:
                take = min(seg.length, payload - cursor)
                if take > 0:
                    yield from proc.copy(vaddr + cursor, self.au_ring_out + seg.ring_offset, take)
                cursor += seg.length
        else:
            use_staging = self.variant.staging_copy or vaddr % word != 0
            if use_staging:
                # Marshal header+payload contiguously; one deliberate
                # update when the record does not wrap.
                padded = pad_word(payload)
                yield from proc.write(self.staging, header)
                yield from proc.copy(vaddr, self.staging + RECORD_HEADER_BYTES, payload)
                if len(segments) == 1:
                    yield from self.ep.send(
                        self.imp_ring, self.staging,
                        RECORD_HEADER_BYTES + padded, offset=header_off,
                    )
                else:
                    yield from self.ep.send(self.imp_ring, self.staging,
                                            RECORD_HEADER_BYTES, offset=header_off)
                    cursor = 0
                    for seg in segments:
                        yield from self.ep.send(
                            self.imp_ring,
                            self.staging + RECORD_HEADER_BYTES + cursor,
                            seg.length, offset=seg.ring_offset,
                        )
                        cursor += seg.length
            else:
                # Direct from user memory; whole words straight across,
                # the trailing partial word via the staging area.
                yield from proc.write(self.staging, header)
                yield from self.ep.send(self.imp_ring, self.staging,
                                        RECORD_HEADER_BYTES, offset=header_off)
                cursor = 0
                for seg in segments:
                    take = min(seg.length, max(0, payload - cursor))
                    whole = take - (take % word)
                    if whole > 0:
                        yield from self.ep.send(self.imp_ring, vaddr + cursor,
                                                whole, offset=seg.ring_offset)
                    if take > whole:
                        tail = take - whole
                        yield from proc.copy(vaddr + cursor + whole,
                                             self.staging + RECORD_HEADER_BYTES, tail)
                        yield from self.ep.send(
                            self.imp_ring, self.staging + RECORD_HEADER_BYTES,
                            pad_word(tail), offset=seg.ring_offset + whole,
                        )
                    cursor += seg.length
        proc.charge(proc.config.costs.socket_space_update)
        yield from proc.write(self.au_ctrl_out + _PRODUCED_OFF, _u32(produced))

    def _refresh_consumed(self):
        data = yield from self.proc.read(self.half.ctrl_vaddr + _CONSUMED_OFF, 4)
        (consumed,) = struct.unpack("<I", data)
        if consumed > self.out_ring.consumed:
            self.out_ring.consumed = consumed

    def _wait_for_space(self):
        current = _u32(self.out_ring.consumed)
        yield from self.proc.poll(
            self.half.ctrl_vaddr + _CONSUMED_OFF, 4, lambda b: b != current
        )
        yield from self._refresh_consumed()

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------
    def recv(self, vaddr: int, max_bytes: int):
        """Blocking receive; returns the byte count (0 at EOF).

        Returns as soon as at least one byte is available, up to
        ``max_bytes`` — BSD semantics.
        """
        if self.closed:
            raise SocketError("recv on closed socket")
        if max_bytes <= 0:
            return 0
        costs = self.proc.config.costs
        span = None
        if self.proc.tracer.enabled:
            span = self.proc.tracer.begin(
                "sock.recv", "recv up to %dB" % max_bytes,
                track=self.proc.trace_track,
            )
        try:
            # Folds into the produced-counter read that always follows.
            self.proc.charge(costs.socket_recv_overhead)
            while True:
                yield from self._refresh_produced()
                if self.in_ring.used > 0:
                    break
                if self._fin_seen:
                    self.proc.tracer.end(span,
                                         data={"bytes": 0} if span else None)
                    return 0
                yield from self._wait_for_data()
            got = 0
            while got < max_bytes and self.in_ring.used > 0:
                got += yield from self._read_from_current_record(
                    vaddr + got, max_bytes - got)
            self.bytes_received += got
            if span is not None:
                self.proc.tracer.end(span, data={"bytes": got})
            return got
        finally:
            # Fault-raised timeouts exit with the span still open; the
            # success paths above already closed it (no-op then).
            if span is not None and span.end is None:
                self.proc.tracer.end(span)

    def bytes_available(self):
        """Timed check: payload bytes readable right now without blocking.

        (Record headers and padding are accounted out; partial-record
        progress is included.)
        """
        yield from self._refresh_produced()
        ring = self.in_ring
        available = 0
        probe = RecordRing(ring.capacity)
        probe.produced = ring.produced
        probe.consumed = ring.consumed
        first = True
        while probe.used > 0:
            raw = self.proc.peek(self.half.ring_vaddr + probe.next_header_offset(), 4)
            (payload,) = struct.unpack("<I", raw)
            available += payload - (self._partial if first else 0)
            first = False
            probe.consume_record(payload)
        return available

    def recv_nowait(self, vaddr: int, max_bytes: int):
        """Non-blocking receive: returns 0 immediately when no data is
        buffered (and the connection is still open)."""
        if self.closed:
            raise SocketError("recv on closed socket")
        yield from self._refresh_produced()
        if self.in_ring.used == 0:
            return 0
        got = 0
        while got < max_bytes and self.in_ring.used > 0:
            got += yield from self._read_from_current_record(vaddr + got, max_bytes - got)
        self.bytes_received += got
        return got

    def wait_readable(self):
        """Block until data (or EOF) is available — the select() shape.

        Returns True if payload is readable, False at EOF.
        """
        while True:
            yield from self._refresh_produced()
            if self.in_ring.used > 0:
                return True
            if self._fin_seen:
                return False
            yield from self._wait_for_data()

    def recv_exactly(self, vaddr: int, nbytes: int):
        """Loop recv until ``nbytes`` arrive (or EOF; returns count)."""
        got = 0
        while got < nbytes:
            step = yield from self.recv(vaddr + got, nbytes - got)
            if step == 0:
                break
            got += step
        return got

    def _read_from_current_record(self, vaddr: int, room: int):
        proc = self.proc
        ring = self.in_ring
        header = yield from proc.read(self.half.ring_vaddr + ring.next_header_offset(), 4)
        (payload,) = struct.unpack("<I", header)
        want = min(room, payload - self._partial)
        segments = ring.payload_segments(payload)
        # Walk to the partial offset, then copy out `want` bytes.
        skip = self._partial
        copied = 0
        for seg in segments:
            if copied >= want:
                break
            if skip >= seg.length:
                skip -= seg.length
                continue
            take = min(seg.length - skip, want - copied)
            yield from proc.copy(
                self.half.ring_vaddr + seg.ring_offset + skip, vaddr + copied, take
            )
            copied += take
            skip = 0
        self._partial += copied
        if self._partial >= payload:
            self._partial = 0
            consumed = ring.consume_record(payload)
            proc.charge(proc.config.costs.socket_space_update)
            yield from proc.write(self.au_ctrl_out + _CONSUMED_OFF, _u32(consumed))
        return copied

    def _refresh_produced(self):
        """Pull the peer's produced counter and FIN flag into the ring.

        Hardened, validate before accepting instead of trusting: a
        record is accepted only when the produced delta spans exactly
        one well-formed record whose CRC (over header + payload) matches
        the sender's.  Anything else (corrupted counter, stale or
        corrupted data, a delayed packet that has not landed yet) leaves
        the ring state untouched, and the sender's retransmission
        repairs it.  A bumped xmit counter also replays our consumed
        ack, since the retransmission may mean our ack was lost.
        """
        proc = self.proc
        ring = self.in_ring
        ctrl = self.half.ctrl_vaddr
        data = yield from proc.read(ctrl + _PRODUCED_OFF, 4)
        (produced,) = struct.unpack("<I", data)
        if self.hardened:
            crc_raw = yield from proc.read(ctrl + _CRC_OFF, 8)
        if proc.peek(ctrl + _FIN_OFF, 4) != b"\x00\x00\x00\x00":
            self._fin_seen = True
        if not self.hardened:
            if produced > ring.produced:
                ring.produced = produced
            return
        crc, xmit = struct.unpack("<II", crc_raw)
        if produced != ring.produced:
            delta = produced - ring.produced
            if 0 < delta <= ring.capacity:
                header = yield from proc.read(
                    self.half.ring_vaddr + ring.next_header_offset(),
                    RECORD_HEADER_BYTES,
                )
                (payload,) = struct.unpack("<I", header)
                if 0 <= payload <= ring.capacity and record_bytes(payload) == delta:
                    # Checksum pass over the (not yet consumed) payload.
                    body = bytearray()
                    remaining = payload
                    probe = RecordRing(ring.capacity)
                    probe.produced = produced
                    probe.consumed = ring.consumed
                    for seg in probe.payload_segments(payload):
                        take = min(seg.length, remaining)
                        if take <= 0:
                            break
                        piece = yield from proc.read(
                            self.half.ring_vaddr + seg.ring_offset, take
                        )
                        body += piece
                        remaining -= take
                    if crc32_of(header, bytes(body)) == crc:
                        ring.produced = produced
        if xmit != self._xmit_seen:
            # The sender retransmitted: our ack may have been lost or
            # corrupted, so replay it.  Harmless when it did arrive
            # (same value rewritten), and never a false ack — the
            # sender waits for its exact target counter.
            self._xmit_seen = xmit
            yield from proc.write(
                self.au_ctrl_out + _CONSUMED_OFF, _u32(ring.consumed)
            )

    def _wait_for_data(self):
        """Sleep until the produced counter moves or the FIN flag lands.

        The polled range is the produced word and the FIN word beside
        it, so either write wakes the receiver (a watch on the counter
        alone would sleep through a close) and each check loads 8 bytes.
        """
        if self.hardened:
            # Watch the whole control window (counters + CRC + xmit):
            # after rejecting a garbage record the produced word alone
            # would still look "changed" and busy-spin, but a
            # retransmission always bumps the xmit word.  Bounded so a
            # dead sender surfaces as a typed error, not a hang.
            window = _CRC_OFF + 8
            snapshot = self.proc.peek(self.half.ctrl_vaddr, window)
            woke = yield from bounded_poll(
                self.proc, self.half.ctrl_vaddr, window,
                lambda data: data != snapshot, IDLE_US,
            )
            if woke is None:
                raise SocketTimeoutError(
                    "no data from peer node %d within %.0f us"
                    % (self.peer_node, IDLE_US)
                )
            return
        current = _u32(self.in_ring.produced)

        def data_or_fin(window: bytes) -> bool:
            produced = window[:4]
            fin = window[_FIN_OFF : _FIN_OFF + 4]
            return produced != current or fin != b"\x00\x00\x00\x00"

        yield from self.proc.poll(
            self.half.ctrl_vaddr + _PRODUCED_OFF, _FIN_OFF + 4, data_or_fin
        )

    # ------------------------------------------------------------------
    # Shutdown / close
    # ------------------------------------------------------------------
    def shutdown_write(self):
        """Half-close: no more sends; the peer sees EOF after draining."""
        if self.send_closed:
            return
        self.send_closed = True
        yield from self.proc.write(self.au_ctrl_out + _FIN_OFF, _u32(1))
        if self.hardened:
            # The FIN flag is idempotent and unacknowledged, so blind
            # retransmissions (spaced out to dodge a transient fault
            # window) cover a dropped packet.
            for gap_us in (50.0, 200.0):
                yield from self.proc.compute(gap_us)
                yield from self.proc.write(self.au_ctrl_out + _FIN_OFF, _u32(1))
        # The held-open internet socket also learns about the close.
        node, port = self.eth_peer
        self.lib.ethernet.send(self.proc.node.node_id, node, port, _Fin())

    def close(self):
        """Full close: half-close the write side and release the socket."""
        if not self.send_closed:
            yield from self.shutdown_write()
        self.closed = True
