"""The NX message-passing interface (Intel NX/2 compatibility library).

Implements the classic NX calls — ``csend``/``crecv``, ``isend``/
``irecv``/``msgwait``/``msgdone``, ``cprobe``/``iprobe``, the info
calls, and ``gsync`` — entirely at user level on VMMC, as in Section
4.1 of the paper:

* small messages use the one-copy protocol through per-pair packet
  buffers with send credits;
* messages larger than a packet buffer use the zero-copy scout
  protocol: scout descriptor, receiver replies with its user buffer's
  export, sender deliberate-updates straight into it (the sender
  meanwhile makes a safety copy off the critical path);
* when alignment forbids zero-copy, the transfer falls back to
  streaming through the packet buffers.

One NX process per node, addressed by rank (node number), matching the
fixed-process-set model of NX ('NX allows communication between a fixed
set of processes only... at initialization time, NX sets up one set of
buffers for each pair of processes').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...hardware.config import CacheMode
from ...kernel.process import UserProcess
from ...kernel.system import ShrimpSystem
from ...testbed import Rendezvous
from ...vmmc import VmmcEndpoint, attach
from ..recovery import IDLE_US
from .connection import (
    ANY_TYPE,
    CHUNK_TYPE,
    Connection,
    NXTimeoutError,
    NXVariant,
    PendingMessage,
    REPLY_MODE_CHUNKED,
    REPLY_MODE_DIRECT,
    SCOUT_SLOT,
)

__all__ = ["NXVariant", "NXProcess", "MsgId", "nx_world", "VARIANTS",
           "ANY_TYPE", "ANY_NODE", "NXTimeoutError"]

ANY_NODE = -1

VARIANTS: Dict[str, NXVariant] = {
    v.name: v
    for v in [
        NXVariant("AU-1copy", automatic=True, staging_copy=False),
        NXVariant("AU-2copy", automatic=True, staging_copy=True),
        NXVariant("DU-1copy", automatic=False, staging_copy=False),
        NXVariant("DU-2copy", automatic=False, staging_copy=True),
        NXVariant("DU-0copy", automatic=False, staging_copy=False, force_zero_copy=True),
    ]
}

_BARRIER_TYPE = 0x7FFF0001


@dataclass
class MsgId:
    """Handle returned by isend/irecv/hrecv, consumed by msgwait/msgdone."""

    kind: str                     # "send" | "recv"
    done: bool = False
    typesel: int = ANY_TYPE
    vaddr: int = 0
    max_bytes: int = 0
    info: Optional[Tuple[int, int, int]] = None   # (count, node, type)
    handler: Optional[Callable[[int, int, int], None]] = None


class NXProcess:
    """One rank of an NX application."""

    def __init__(
        self,
        system: ShrimpSystem,
        proc: UserProcess,
        rank: int,
        nranks: int,
        rdv: Rendezvous,
        variant: NXVariant,
        slots: int = 8,
        payload_bytes: int = 2048,
    ):
        self.system = system
        self.proc = proc
        self.rank = rank
        self.nranks = nranks
        self.rdv = rdv
        self.variant = variant
        self.slots = slots
        self.payload_bytes = payload_bytes
        self.ep: VmmcEndpoint = attach(system, proc)
        self.connections: Dict[int, Connection] = {}
        self._pending: List[PendingMessage] = []
        self._posted: List[MsgId] = []
        self._arrival = 0
        self._last_info: Tuple[int, int, int] = (0, -1, -1)  # (count, node, type)
        # Zero-copy machinery caches.
        self._export_cache: Dict[int, object] = {}     # region base -> ExportedBuffer
        self._import_cache: Dict[Tuple[int, int], object] = {}
        self._backup_vaddr = 0
        self._backup_bytes = 0
        self.messages_sent = 0
        self.messages_received = 0

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def init(self):
        """Establish connections to every rank (including self)."""
        for peer in range(self.nranks):
            conn = Connection(
                self.proc, self.ep, peer_node=peer, peer_rank=peer,
                variant=self.variant, slots=self.slots,
                payload_bytes=self.payload_bytes,
            )
            yield from conn.establish(self.rdv, self.rank)
            self.connections[peer] = conn

    # -- identity ------------------------------------------------------------
    def mynode(self) -> int:
        """This rank's number."""
        return self.rank

    def numnodes(self) -> int:
        """Total ranks in the application."""
        return self.nranks

    # ------------------------------------------------------------------
    # Blocking send / receive
    # ------------------------------------------------------------------
    def csend(self, mtype: int, vaddr: int, nbytes: int, to: int):
        """Blocking typed send of ``nbytes`` at ``vaddr`` to rank ``to``."""
        if not 0 <= to < self.nranks:
            raise ValueError("destination rank %d out of range" % to)
        if mtype < 0:
            raise ValueError("message types must be non-negative")
        conn = self.connections[to]
        span = None
        ctx = self.proc.trace_ctx
        if self.proc.tracer.enabled:
            data = {"bytes": nbytes, "type": mtype}
            if ctx is not None:
                data["tid"], data["cparent"] = ctx
            span = self.proc.tracer.begin(
                "nx.csend", "csend %dB -> r%d" % (nbytes, to),
                track=self.proc.trace_track, data=data,
            )
            if ctx is not None:
                # The receive side links under this csend span.  The
                # message takes the connection's next descriptor seq
                # (one sender per connection at a time), which a
                # retransmission keeps.
                self.proc.tracer.post(
                    conn.out_key + (conn.next_send_seq,),
                    (ctx[0], span.sid if span is not None else ctx[1]))
        try:
            yield from self.proc.compute(self.proc.config.costs.nx_send_overhead)
            if nbytes <= self.payload_bytes and not self.variant.force_zero_copy:
                yield from conn.send_small(vaddr, nbytes, mtype)
            else:
                yield from self._send_large(conn, mtype, vaddr, nbytes)
        finally:
            # Close the span on fault-raised exits too, or the
            # span-balance audit flags a leak on every retried send.
            self.proc.tracer.end(span)
        self.messages_sent += 1

    def crecv(self, typesel: int, vaddr: int, max_bytes: int):
        """Blocking typed receive into ``vaddr``; returns the byte count.

        ``typesel`` of ANY_TYPE (-1) matches any message.  Messages may
        be consumed out of arrival order when types differ — the packet
        buffers are credit-recycled individually to allow exactly this.
        """
        size = yield from self.crecvx(typesel, vaddr, max_bytes, ANY_NODE)
        return size

    def crecvx(self, typesel: int, vaddr: int, max_bytes: int, nodesel: int):
        """Source-selective blocking receive (NX's crecvx): ``nodesel``
        restricts matching to one sender rank (-1 = any)."""
        span = None
        if self.proc.tracer.enabled:
            span = self.proc.tracer.begin(
                "nx.crecv", "crecv type %d" % typesel, track=self.proc.trace_track,
            )
        try:
            yield from self.proc.compute(self.proc.config.costs.nx_recv_overhead)
            while True:
                yield from self._progress()
                match = self._take_match(typesel, nodesel)
                if match is not None:
                    size = yield from self._consume(match, vaddr, max_bytes)
                    if span is not None:
                        self.proc.tracer.end(span, data={"bytes": size})
                        self.proc.tracer.claim(
                            self.connections[match.peer].in_key
                            + (match.seq,), span)
                    return size
                yield from self._wait_any_descriptor()
        finally:
            # A fault-raised NXTimeoutError exits through here with the
            # span still open; close it (the success path above already
            # ended it, which makes this a no-op).
            if span is not None and span.end is None:
                self.proc.tracer.end(span)

    # ------------------------------------------------------------------
    # Non-blocking operations
    # ------------------------------------------------------------------
    def isend(self, mtype: int, vaddr: int, nbytes: int, to: int):
        """Asynchronous send.  This implementation completes the send
        eagerly (valid: isend may complete at any time); msgwait on the
        returned handle is then immediate."""
        yield from self.csend(mtype, vaddr, nbytes, to)
        return MsgId(kind="send", done=True)

    def irecv(self, typesel: int, vaddr: int, max_bytes: int):
        """Post an asynchronous receive; progress is made lazily by
        msgwait/msgdone/crecv/probe calls."""
        mid = MsgId(kind="recv", typesel=typesel, vaddr=vaddr, max_bytes=max_bytes)
        self._posted.append(mid)
        yield from self._progress()
        return mid

    def hrecv(self, typesel: int, vaddr: int, max_bytes: int,
              handler: Callable[[int, int, int], None]):
        """Handler receive: like irecv, but ``handler(count, node, type)``
        runs when the message is consumed (during library progress —
        NX/2's handler model, minus true preemption)."""
        mid = MsgId(kind="recv", typesel=typesel, vaddr=vaddr,
                    max_bytes=max_bytes, handler=handler)
        self._posted.append(mid)
        yield from self._progress()
        return mid

    def msgwait(self, mid: MsgId):
        """Block until the handle's operation completes."""
        while not mid.done:
            yield from self._progress()
            if mid.done:
                break
            yield from self._wait_any_descriptor()
        if mid.info is not None:
            self._last_info = mid.info

    def msgdone(self, mid: MsgId):
        """One progress pass; returns completion status."""
        yield from self._progress()
        return mid.done

    # ------------------------------------------------------------------
    # Probes and info
    # ------------------------------------------------------------------
    def iprobe(self, typesel: int):
        """Non-blocking: is a matching message available?"""
        yield from self._progress()
        match = self._find_match(typesel)
        if match is not None:
            self._last_info = (match.size, match.peer, match.mtype)
            return True
        return False

    def cprobe(self, typesel: int):
        """Block until a matching message is available (not consumed)."""
        while True:
            found = yield from self.iprobe(typesel)
            if found:
                return
            yield from self._wait_any_descriptor()

    def infocount(self) -> int:
        """Byte count of the last received message."""
        return self._last_info[0]

    def infonode(self) -> int:
        """Source rank of the last received message."""
        return self._last_info[1]

    def infotype(self) -> int:
        """Type of the last received message."""
        return self._last_info[2]

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------
    def gsync(self):
        """Global synchronization: gather-to-0 then broadcast."""
        token_vaddr = self._scratch_word()
        self.proc.poke(token_vaddr, b"SYNC")
        if self.rank == 0:
            for _ in range(self.nranks - 1):
                yield from self.crecv(_BARRIER_TYPE, token_vaddr, 4)
            for peer in range(1, self.nranks):
                yield from self.csend(_BARRIER_TYPE + 1, token_vaddr, 4, peer)
        else:
            yield from self.csend(_BARRIER_TYPE, token_vaddr, 4, 0)
            yield from self.crecv(_BARRIER_TYPE + 1, token_vaddr, 4)

    def _scratch_word(self) -> int:
        if not hasattr(self, "_scratch"):
            self._scratch = self.proc.space.mmap(self.proc.config.page_size)
        return self._scratch

    # ------------------------------------------------------------------
    # Progress engine
    # ------------------------------------------------------------------
    def _progress(self):
        """Scan every connection's descriptor ring; match posted irecvs.

        Pending notifications (e.g. a peer's buffer-request interrupt)
        are dispatched first — the signal handler runs as soon as the
        process is back in library code.
        """
        yield from self.ep.dispatch_notifications()
        for peer in range(self.nranks):
            conn = self.connections[peer]
            yield from conn.service_replays()
            while True:
                parsed = yield from conn.scan_descriptor()
                if parsed is None:
                    break
                slot, mtype, size, seq = parsed
                self._arrival += 1
                self._pending.append(
                    PendingMessage(peer, slot, mtype, size, seq, self._arrival)
                )
        # Lazy completion of posted receives, in post order.
        for mid in list(self._posted):
            match = self._take_match(mid.typesel)
            if match is None:
                continue
            self._posted.remove(mid)
            size = yield from self._consume(match, mid.vaddr, mid.max_bytes)
            mid.done = True
            mid.info = (size, match.peer, match.mtype)
            if mid.handler is not None:
                yield from self.proc.compute(self.proc.config.costs.call_overhead)
                mid.handler(size, match.peer, match.mtype)

    def _find_match(self, typesel: int, nodesel: int = -1) -> Optional[PendingMessage]:
        candidates = [
            m for m in self._pending
            if m.mtype != CHUNK_TYPE
            and (typesel == ANY_TYPE or m.mtype == typesel)
            and (nodesel == ANY_NODE or m.peer == nodesel)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda m: m.arrival)

    def _take_match(self, typesel: int, nodesel: int = -1) -> Optional[PendingMessage]:
        match = self._find_match(typesel, nodesel)
        if match is not None:
            self._pending.remove(match)
        return match

    def _wait_any_descriptor(self):
        """Sleep until any connection's next descriptor stamp can have
        arrived (a watch-based stand-in for the receiver's polling loop;
        each wakeup charges one check).

        Hardened mode also watches each connection's CRC block and
        replay-request beacon — a retransmission or a replay request
        must wake the receiver even though the descriptor stamp it
        expects is unchanged — and bounds the sleep, raising
        :class:`NXTimeoutError` instead of hanging on a dead peer.
        """
        proc = self.proc
        conns = self.connections.values()
        ranges = []
        for conn in conns:
            ranges.append((conn.descriptor_stamp_vaddr(), 4))
            if conn.hardened:
                ranges.extend(conn.hardened_watch_ranges())
        woke = yield from proc.wait_any(
            ranges,
            lambda: any(proc.peek(conn.descriptor_stamp_vaddr(), 4)
                        == conn.expected_stamp_bytes() for conn in conns),
            IDLE_US if proc.faults.enabled else None,
        )
        if not woke:
            raise NXTimeoutError(
                "rank %d saw no message activity within %.0f us"
                % (self.rank, IDLE_US)
            )

    # ------------------------------------------------------------------
    # Consumption (small, zero-copy, chunked)
    # ------------------------------------------------------------------
    def _consume(self, match: PendingMessage, vaddr: int, max_bytes: int):
        if match.size > max_bytes:
            raise ValueError(
                "message of %d bytes exceeds receive buffer of %d"
                % (match.size, max_bytes)
            )
        conn = self.connections[match.peer]
        if match.slot == SCOUT_SLOT:
            size = yield from self._recv_large(conn, match, vaddr)
        else:
            yield from conn.consume_payload(match.slot, match.size, vaddr)
            size = match.size
        self._last_info = (size, match.peer, match.mtype)
        self.messages_received += 1
        return size

    # -- zero-copy protocol, sender side ------------------------------------
    def _send_large(self, conn: Connection, mtype: int, vaddr: int, nbytes: int):
        if conn.large_send_active:
            raise RuntimeError("one large send at a time per connection")
        conn.large_send_active = True
        try:
            seq, reply = yield from conn.send_scout(mtype, nbytes)
            copied = 0
            if reply is None:
                # 'The sender immediately begins copying the data into a
                # local buffer... The sender copies only when it has
                # nothing better to do; as soon as the receiver replies,
                # the sender immediately stops copying.'
                backup = self._backup_buffer(nbytes)
                chunk = 1024
                while reply is None:
                    reply = yield from conn.check_reply()
                    if reply is not None:
                        break
                    if copied < nbytes:
                        step = min(chunk, nbytes - copied)
                        yield from self.proc.copy(vaddr + copied, backup + copied, step)
                        copied += step
                    else:
                        reply = yield from conn.poll_reply()
            export_id, buf_offset, mode = reply
            if mode == REPLY_MODE_DIRECT and not conn.hardened:
                src = backup if copied >= nbytes else vaddr
                if src % self.proc.config.word_size != 0:
                    # Finish the safety copy; the backup is aligned.
                    yield from self.proc.copy(vaddr + copied, backup + copied,
                                              nbytes - copied)
                    src = backup
                imported = yield from self._import_region(conn, export_id)
                yield from self.ep.send(imported, src, nbytes, offset=buf_offset)
                yield from conn.send_complete(seq)
            else:
                # Alignment fallback, and every hardened large send:
                # stream through the packet buffers, each chunk riding
                # the CRC'd, credit-acked small-message protocol.  A
                # hardened receiver always replies CHUNKED, and the
                # zero-copy path would need its own ack machinery, so a
                # hardened sender ignores the reply's (possibly
                # corrupted) mode word.
                sent = 0
                while sent < nbytes:
                    step = min(self.payload_bytes, nbytes - sent)
                    yield from conn.send_small(vaddr + sent, step, CHUNK_TYPE)
                    sent += step
        finally:
            conn.large_send_active = False

    def _backup_buffer(self, nbytes: int) -> int:
        page = self.proc.config.page_size
        needed = -(-nbytes // page) * page
        if needed > self._backup_bytes:
            self._backup_vaddr = self.proc.space.mmap(
                needed, cache_mode=CacheMode.WRITE_BACK
            )
            self._backup_bytes = needed
        return self._backup_vaddr

    def _import_region(self, conn: Connection, export_id: int):
        key = (conn.peer_rank, export_id)
        cached = self._import_cache.get(key)
        if cached is None:
            cached = yield from self.ep.import_buffer(conn.peer_node, export_id)
            self._import_cache[key] = cached
        return cached

    # -- zero-copy protocol, receiver side ------------------------------------
    def _recv_large(self, conn: Connection, scout: PendingMessage, vaddr: int):
        yield from self.proc.compute(self.proc.config.costs.nx_scout_overhead)
        page = self.proc.config.page_size
        word = self.proc.config.word_size
        region = (vaddr // page) * page
        end = -(-(vaddr + scout.size) // page) * page
        offset = vaddr - region
        if offset % word == 0 and scout.size % word == 0 and not conn.hardened:
            export = self._export_cache.get(region)
            if export is None or export.nbytes < end - region:
                export_vaddr = region
                export = yield from self.ep.export(export_vaddr, end - region)
                self._export_cache[region] = export
            yield from conn.send_reply(export.export_id, offset, REPLY_MODE_DIRECT)
            yield from conn.poll_complete(scout.seq)
            return scout.size
        # Alignment forbids zero-copy: receive chunks through the buffers.
        yield from conn.send_reply(0, 0, REPLY_MODE_CHUNKED)
        received = 0
        while received < scout.size:
            yield from self._progress()
            chunk = next(
                (m for m in self._pending
                 if m.peer == conn.peer_rank and m.mtype == CHUNK_TYPE),
                None,
            )
            if chunk is None:
                yield from self._wait_any_descriptor()
                continue
            self._pending.remove(chunk)
            yield from conn.consume_payload(chunk.slot, chunk.size, vaddr + received)
            received += chunk.size
        return scout.size


def nx_world(
    system: ShrimpSystem,
    programs: List[Callable[[NXProcess], object]],
    variant: NXVariant = VARIANTS["AU-1copy"],
    slots: int = 8,
    payload_bytes: int = 2048,
):
    """Boot an NX application: one rank per node running ``programs[rank]``.

    Each program is a generator function taking its :class:`NXProcess`
    (already initialized).  Returns the spawned process handles; run
    them with ``system.run_processes(handles)``.
    """
    if len(programs) > system.config.n_nodes:
        raise ValueError("more NX ranks than nodes")
    rdv = Rendezvous(system)
    nranks = len(programs)
    handles = []

    def make_main(rank: int, body):
        def main(proc: UserProcess):
            nx = NXProcess(system, proc, rank, nranks, rdv, variant,
                           slots=slots, payload_bytes=payload_bytes)
            yield from nx.init()
            result = yield from body(nx)
            return result

        return main

    for rank, body in enumerate(programs):
        handles.append(system.spawn(rank, make_main(rank, body), name="nx-%d" % rank))
    return handles
