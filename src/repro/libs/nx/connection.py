"""NX connections: the per-pair buffer structure and wire protocol.

'A connection between two processes consists of a set of buffers, each
exported by one process and imported by the other; there is also a
fixed protocol for using the buffers to transfer data and synchronize.'
For NX: 'a connection is set up between each pair of processes at
initialization time' and the data buffer is 'divided into fixed-size
packet buffers' that credits recycle in any order.

Memory layout per direction (all offsets in the *receiver's* memory):

* data region — ``slots`` packet buffers of ``12 + payload`` bytes each:
  an in-slot header ``[type][seq][size]`` followed by the payload.
* control page —
  - credit ring (written by the peer when it consumes my messages),
  - descriptor ring (written by the peer when it sends to me; the
    sequence stamp is the arrival flag, written after the data, which
    in-order delivery makes safe),
  - scout-reply field, buffer-request word, and large-message
    completion word (the zero-copy protocol's control traffic).

Control information always travels by automatic update (all three
compatibility libraries do this — it is small and latency-critical);
message payload travels by AU or DU according to the library variant.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Deque
from collections import deque

from ...hardware.config import CacheMode
from ...kernel.process import UserProcess
from ...testbed import Rendezvous
from ...vmmc import VmmcEndpoint
from ...vmmc.errors import VmmcTimeoutError
from ..recovery import MAX_XMIT, bounded_poll, crc32_of, retransmit
from .credits import CREDIT_SLOT_BYTES, CreditRing

__all__ = ["NXVariant", "Connection", "NXTimeoutError", "HEADER_BYTES",
           "DESCRIPTOR_BYTES", "SCOUT_SLOT", "CHUNK_TYPE", "ANY_TYPE"]

HEADER_BYTES = 12          # in-slot [type][seq][size]
DESCRIPTOR_BYTES = 16      # ring entry [slot][type][size][seq]; seq is the flag
SCOUT_SLOT = 0xFFFFFFFF    # descriptor slot index meaning "scout, no payload"
CHUNK_TYPE = 0xFFFFFFFE    # internal message type for the chunked fallback
ANY_TYPE = -1

# Control-page field offsets.
_CREDITS_OFF = 0x000
_DESC_RING_OFF = 0x100
_REPLY_OFF = 0x400         # [export_id][buf_offset][mode][reply_seq]
_REQUEST_OFF = 0x480       # [request_seq]
_COMPLETE_OFF = 0x4C0      # [complete_seq]
# Hardened-protocol words (docs/FAULTS.md; written only under an armed
# fault plan, so the fault-free wire traffic is unchanged):
_HCRC_OFF = 0x500          # [crc32][seq][xmit] of the newest transmission
_RREQ_OFF = 0x540          # replay-request beacon (sender asks for control replay)
REPLY_MODE_DIRECT = 1      # zero-copy: DU straight into the user buffer
REPLY_MODE_CHUNKED = 2     # alignment fallback: stream through packet buffers


class NXTimeoutError(VmmcTimeoutError):
    """A hardened NX retry budget expired (message, credit, or reply
    repeatedly lost); raised instead of hanging."""


@dataclass(frozen=True)
class NXVariant:
    """The small-message strategy of an NX build (Figure 4's curves).

    ``automatic``: payload via AU marshal into the bound send region
    (the copy is the send) vs deliberate update.
    ``staging_copy``: copy payload into a staging area first — for AU
    this is the '2copy' variant; for DU it trades a copy for sending
    header+payload with a *single* deliberate update ('the tradeoff
    between a local copy and an extra send').
    ``force_zero_copy``: run the scout protocol for every size (the
    DU-0copy curve), instead of only above the packet-buffer size.
    """

    name: str
    automatic: bool
    staging_copy: bool
    force_zero_copy: bool = False


@dataclass
class PendingMessage:
    """A message that has arrived (descriptor seen) but not been consumed."""

    peer: int
    slot: int               # SCOUT_SLOT for scouts
    mtype: int
    size: int
    seq: int
    arrival: int            # global arrival tick for ANY_TYPE fairness


def _u32(*values: int) -> bytes:
    return struct.pack("<%dI" % len(values), *values)


class Connection:
    """One direction-symmetric NX connection between two processes."""

    def __init__(
        self,
        proc: UserProcess,
        ep: VmmcEndpoint,
        peer_node: int,
        peer_rank: int,
        variant: NXVariant,
        slots: int,
        payload_bytes: int,
    ):
        self.proc = proc
        self.ep = ep
        self.peer_node = peer_node
        self.peer_rank = peer_rank
        self.variant = variant
        self.slots = slots
        self.payload_bytes = payload_bytes
        self.slot_bytes = HEADER_BYTES + payload_bytes
        page = proc.config.page_size
        self.data_bytes = -(-self.slots * self.slot_bytes // page) * page

        # Filled in by establish():
        self.data_in = 0
        self.ctrl_in = 0
        # The receivers' control buffers, (node, export id): with a
        # descriptor seq they name a message to the tracer's context
        # hand-off (mine for messages in, the peer's for messages out).
        self.in_key = (0, 0)
        self.out_key = (0, 0)
        self.imp_data = None
        self.imp_ctrl = None
        self.au_ctrl_out = 0
        self.au_data_out = 0
        self.staging = 0

        # Sender-side state.
        self.free_slots: Deque[int] = deque(range(slots))
        self.next_send_seq = 1
        self.credit_reader = CreditRing(0, 2 * slots)  # rebased in establish()
        self.next_reply_seq = 1       # scout replies I expect
        self.large_send_active = False

        # Receiver-side state.
        self.credit_writer_seq = 1
        self.next_recv_seq = 1        # next descriptor-ring stamp expected
        self.next_credit_out = CreditRing(0, 2 * slots)  # peer's ring, via AU
        self.next_complete_seq = 1
        self.next_reply_out_seq = 1
        self.buffer_requests_seen = 0

        # Hardened-protocol state (armed fault plan => CRC'd synchronous
        # sends, credit-acks, and control-write replay; docs/FAULTS.md).
        self.hardened = proc.faults.enabled
        self._xmit_out = 0            # sender: hardened transmissions issued
        self._rreq_out = 0            # sender: replay requests issued
        self._rreq_seen = 0           # receiver: last replay request serviced
        # Recent control writes (credits, replies, completes) as exact
        # (vaddr, bytes) pairs.  Long enough to cover two full wraps of
        # the credit ring, so replaying it in order reconstructs the
        # latest intended state of every control word it spans.
        self._replay_log: Deque[tuple] = deque(maxlen=4 * slots + 8)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def establish(self, rdv: Rendezvous, my_rank: int):
        """Export my halves, exchange ids, import the peer's, bind AU."""
        proc, ep = self.proc, self.ep
        page = proc.config.page_size
        self.data_in = ep.alloc_buffer(self.data_bytes, cache_mode=CacheMode.WRITE_THROUGH)
        self.ctrl_in = ep.alloc_buffer(page, cache_mode=CacheMode.WRITE_THROUGH)
        exp_data = yield from ep.export(self.data_in, self.data_bytes)
        exp_ctrl = yield from ep.export(self.ctrl_in, page,
                                        handler=self._on_buffer_request)
        key = "nx-conn-%d-%d" % (my_rank, self.peer_rank)
        rdv.put(key, (proc.node.node_id, exp_data.export_id, exp_ctrl.export_id))
        peer_key = "nx-conn-%d-%d" % (self.peer_rank, my_rank)
        peer_node, peer_data_id, peer_ctrl_id = yield rdv.get(peer_key)
        assert peer_node == self.peer_node
        self.in_key = (proc.node.node_id, exp_ctrl.export_id)
        self.out_key = (peer_node, peer_ctrl_id)
        self.imp_data = yield from ep.import_buffer(peer_node, peer_data_id)
        self.imp_ctrl = yield from ep.import_buffer(peer_node, peer_ctrl_id)

        self.au_ctrl_out = ep.alloc_buffer(page, cache_mode=CacheMode.WRITE_THROUGH)
        yield from ep.bind(self.au_ctrl_out, self.imp_ctrl, combining=True)
        if self.variant.automatic:
            self.au_data_out = ep.alloc_buffer(
                self.data_bytes, cache_mode=CacheMode.WRITE_THROUGH
            )
            yield from ep.bind(self.au_data_out, self.imp_data, combining=True)
        self.staging = ep.alloc_buffer(
            -(-self.slot_bytes // page) * page, cache_mode=CacheMode.WRITE_BACK
        )
        self.credit_reader = CreditRing(self.ctrl_in + _CREDITS_OFF, 2 * self.slots)
        self.next_credit_out = CreditRing(self.au_ctrl_out + _CREDITS_OFF, 2 * self.slots)

    def _on_buffer_request(self, buffer, page, size) -> None:
        """Notification handler: the peer ran out of packet buffers.

        Credits flow back when we consume messages; the interrupt's job
        is only to force the receiver into library code (Section 6) —
        recorded here, observable in tests and the interrupt statistics.
        """
        self.buffer_requests_seen += 1

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def reclaim_credits(self, at_least: int = 0):
        """Pull returned credits into the free list.

        Stops early once ``at_least`` credits were recovered (saves the
        trailing does-not-match read on the fast path); ``at_least=0``
        drains everything currently visible.
        """
        recovered = 0
        while True:
            slot_vaddr = self.credit_reader.expected_slot_vaddr()
            data = yield from self.proc.read(slot_vaddr, CREDIT_SLOT_BYTES)
            index = self.credit_reader.try_read(data)
            if index is None:
                return
            self.free_slots.append(index)
            recovered += 1
            if at_least and recovered >= at_least:
                return

    def acquire_slot(self):
        """Get a free remote packet buffer, blocking (and interrupting
        the receiver) if none are available.

        Credit reclaim is lazy: no control reads happen while the free
        list still has buffers.
        """
        if self.free_slots:
            return self.free_slots.popleft()
        yield from self.reclaim_credits(at_least=1)
        if self.free_slots:
            return self.free_slots.popleft()
        # Buffers exhausted: 'the NX library generates an interrupt on
        # the receiver to request more buffers', then waits for a credit.
        yield from self._send_buffer_request()
        while not self.free_slots:
            stamp_vaddr = self.credit_reader.expected_slot_vaddr() + 4
            expected = self.credit_reader.expected_seq_bytes()
            yield from self.proc.poll(stamp_vaddr, 4, lambda b: b == expected)
            yield from self.reclaim_credits()
        return self.free_slots.popleft()

    def _send_buffer_request(self):
        proc = self.proc
        yield from proc.write(self.staging, _u32(self.next_send_seq))
        yield from self.ep.send(
            self.imp_ctrl, self.staging, 4, offset=_REQUEST_OFF, notify=True
        )

    def slot_offset(self, slot: int) -> int:
        """Byte offset of packet buffer ``slot`` in the data region."""
        return slot * self.slot_bytes

    def send_small(self, user_vaddr: int, size: int, mtype: int):
        """One-copy-protocol send of a message that fits a packet buffer.

        Returns the message seq.  Payload lands at the slot, the in-slot
        header identifies it, and the descriptor-ring write (via AU,
        after the data, hence ordered) flags arrival.

        Hardened, the send is a synchronous rendezvous retransmitted
        until acked: the message's credit coming back *is* the ack (the
        receiver only returns a credit after consuming the payload), so
        at most one message is outstanding per connection and a
        retransmission can blindly rewrite the same slot.  A timed-out
        attempt also bumps the peer's replay-request beacon, covering
        the case where the message arrived but the credit was lost.
        Raises :class:`NXTimeoutError` when the retry budget is spent.
        """
        if size > self.payload_bytes:
            raise ValueError("message of %d bytes does not fit a packet buffer" % size)
        slot = yield from self.acquire_slot()
        seq = self.next_send_seq
        self.next_send_seq += 1
        if not self.hardened:
            yield from self._transmit_small(slot, user_vaddr, size, mtype, seq)
            return seq
        desc = self._desc_image(slot, mtype, size, seq)
        body = yield from self.proc.read(user_vaddr, size)    # checksum pass
        crc = crc32_of(desc, bytes(body))
        acked = yield from retransmit(
            lambda: self._transmit_small(slot, user_vaddr, size, mtype, seq, crc),
            self._await_credit, size, on_miss=self.request_replay,
        )
        if acked is None:
            raise NXTimeoutError(
                "no credit back from rank %d for seq %d (%d bytes) after %d transmissions"
                % (self.peer_rank, seq, size, MAX_XMIT)
            )
        if slot not in self.free_slots:
            # The credit arrived but its index half was mangled (and
            # rejected); synchrony pins it to this slot.
            self.free_slots.append(slot)
        return seq

    def _transmit_small(self, slot: int, user_vaddr: int, size: int,
                        mtype: int, seq: int, crc: int = 0):
        """One transmission of a small message: the variant-specific
        payload placement, then (hardened) the CRC block, then the
        descriptor.

        Idempotent with respect to connection state, so the hardened
        sender replays it verbatim on retransmission.
        """
        proc, ep = self.proc, self.ep
        variant = self.variant
        if self.hardened:
            # Bumped first, so a DU abort below still uses the number up.
            self._xmit_out += 1
        offset = self.slot_offset(slot)
        header = _u32(mtype & 0xFFFFFFFF, seq, size)

        needs_staging = variant.staging_copy or (
            not variant.automatic and (user_vaddr % proc.config.word_size != 0)
        )
        if variant.automatic:
            # AU marshal straight into the bound slot; the descriptor-ring
            # write below is the header ('the sender may choose to send
            # the data along with the header directly via automatic
            # update as it marshals') — an in-slot copy of the header
            # would be redundant bookkeeping, so payload starts at the
            # slot's payload offset and nothing else is written here.
            base = self.au_data_out + offset
            if needs_staging:
                yield from proc.copy(user_vaddr, self.staging + HEADER_BYTES, size)
                yield from proc.copy(self.staging + HEADER_BYTES, base + HEADER_BYTES, size)
            else:
                yield from proc.copy(user_vaddr, base + HEADER_BYTES, size)
        else:
            if needs_staging:
                # Copy payload next to the header, one deliberate update
                # for both — the '2copy' point of the tradeoff.
                yield from proc.write(self.staging, header)
                yield from proc.copy(user_vaddr, self.staging + HEADER_BYTES, size)
                yield from ep.send(self.imp_data, self.staging,
                                   HEADER_BYTES + size, offset=offset)
            else:
                # Header and payload as two separate deliberate updates —
                # the '1copy' point.
                yield from proc.write(self.staging, header)
                yield from ep.send(self.imp_data, self.staging, HEADER_BYTES,
                                   offset=offset)
                yield from ep.send(self.imp_data, user_vaddr, _pad4(size),
                                   offset=offset + HEADER_BYTES)
        if self.hardened:
            yield from proc.write(self.au_ctrl_out + _HCRC_OFF,
                                  _u32(crc, seq, self._xmit_out))
        yield from self._write_descriptor(slot, mtype, size, seq)

    def _await_credit(self, timeout_us: float):
        """Hardened ack wait of a small message: True once the next
        credit stamp lands, None at the deadline."""
        stamp_vaddr = self.credit_reader.expected_slot_vaddr() + 4
        expected = self.credit_reader.expected_seq_bytes()
        ok = yield from self._await_ctrl_word(stamp_vaddr, expected, timeout_us)
        if not ok:
            return None
        yield from self.reclaim_credits(at_least=1)
        return True

    def _await_reply(self, timeout_us: float):
        """Hardened ack wait of a scout: the receiver's reply
        ``(export_id, buf_offset, mode)``, or None at the deadline."""
        landed = yield from self._await_ctrl_word(
            self.ctrl_in + _REPLY_OFF + 12, _u32(self.next_reply_seq), timeout_us
        )
        if not landed:
            return None
        return (yield from self.check_reply())

    def _await_ctrl_word(self, vaddr: int, expected: bytes, timeout_us: float):
        """Bounded wait for a control word, servicing the replay beacon.

        Waits until the 4 bytes at ``vaddr`` (inside our control page)
        equal ``expected``; True on success, False at the deadline.  The
        wait covers the whole control window so it also wakes on the
        peer's replay-request beacon and answers it — without this, two
        peers whose rounds overlap after a lost ack would each sit in a
        send-retry loop waiting for the other to reach library code (a
        sender-sender standoff).
        """
        proc = self.proc
        deadline = proc.sim.now + timeout_us
        stamp_off = vaddr - self.ctrl_in
        window = _RREQ_OFF + 4
        while True:
            remaining = deadline - proc.sim.now
            if remaining <= 0:
                return False
            rreq_snapshot = proc.peek(self.ctrl_in + _RREQ_OFF, 4)

            def stamp_or_beacon(data: bytes) -> bool:
                return (data[stamp_off : stamp_off + 4] == expected
                        or data[_RREQ_OFF : _RREQ_OFF + 4] != rreq_snapshot)

            got = yield from bounded_poll(
                proc, self.ctrl_in, window, stamp_or_beacon, remaining
            )
            if got is None:
                return False
            if got[stamp_off : stamp_off + 4] == expected:
                return True
            yield from self.service_replays()

    def request_replay(self):
        """Bump the peer's replay-request beacon (hardened recovery).

        The receiver answers by rewriting its recent control writes —
        credits, scout replies, completion words — repairing any the
        fabric ate.  Idempotent on the receiver side, so a spurious
        request costs only the replayed writes.
        """
        self._rreq_out += 1
        yield from self.proc.write(self.au_ctrl_out + _RREQ_OFF, _u32(self._rreq_out))

    def send_scout(self, mtype: int, size: int):
        """Announce a large message (zero-copy protocol, step 1).

        Returns ``(seq, reply)``.  Fault-free, ``reply`` is None: the
        caller collects the receiver's reply itself, overlapping its
        safety copy with the wait.  Hardened, the scout is retransmitted
        until the reply ``(export_id, buf_offset, mode)`` arrives; the
        reply is in the receiver's replay log, so a lost reply is
        recovered via the replay-request beacon.
        """
        seq = self.next_send_seq
        self.next_send_seq += 1
        if not self.hardened:
            yield from self._transmit_scout(mtype, size, seq)
            return seq, None
        crc = crc32_of(self._desc_image(SCOUT_SLOT, mtype, size, seq))
        reply = yield from retransmit(
            lambda: self._transmit_scout(mtype, size, seq, crc),
            self._await_reply, 0, on_miss=self.request_replay,
        )
        if reply is None:
            raise NXTimeoutError(
                "no scout reply from rank %d for a %d-byte message after %d transmissions"
                % (self.peer_rank, size, MAX_XMIT)
            )
        return seq, reply

    def _transmit_scout(self, mtype: int, size: int, seq: int, crc: int = 0):
        """One transmission of a scout: (hardened) the CRC block, then
        the descriptor."""
        proc = self.proc
        yield from proc.compute(proc.config.costs.nx_scout_overhead)
        if self.hardened:
            self._xmit_out += 1
            yield from proc.write(self.au_ctrl_out + _HCRC_OFF,
                                  _u32(crc, seq, self._xmit_out))
        yield from self._write_descriptor(SCOUT_SLOT, mtype, size, seq)

    def _desc_image(self, slot: int, mtype: int, size: int, seq: int) -> bytes:
        """The wire image of one descriptor-ring entry."""
        return _u32(slot, mtype & 0xFFFFFFFF, size, seq)

    def _write_descriptor(self, slot: int, mtype: int, size: int, seq: int):
        ring_slot = seq % (2 * self.slots + 2)
        vaddr = self.au_ctrl_out + _DESC_RING_OFF + ring_slot * DESCRIPTOR_BYTES
        yield from self.proc.write(
            vaddr, self._desc_image(slot, mtype, size, seq)
        )

    def poll_reply(self):
        """Wait for the receiver's reply to our scout (step 3)."""
        expected = _u32(self.next_reply_seq)
        stamp = self.ctrl_in + _REPLY_OFF + 12
        yield from self.proc.poll(stamp, 4, lambda b: b == expected)
        data = yield from self.proc.read(self.ctrl_in + _REPLY_OFF, 16)
        export_id, buf_offset, mode, _seq = struct.unpack("<IIII", data)
        self.next_reply_seq += 1
        return export_id, buf_offset, mode

    def check_reply(self):
        """Non-blocking reply check; None if not yet there."""
        expected = _u32(self.next_reply_seq)
        data = yield from self.proc.read(self.ctrl_in + _REPLY_OFF, 16)
        export_id, buf_offset, mode, seq = struct.unpack("<IIII", data)
        if _u32(seq) != expected:
            return None
        self.next_reply_seq += 1
        return export_id, buf_offset, mode

    def send_complete(self, seq: int):
        """Flag the zero-copy data as fully in place (step 5, via AU)."""
        yield from self._ctrl_write(self.au_ctrl_out + _COMPLETE_OFF, _u32(seq))

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def scan_descriptor(self):
        """Non-blocking: parse the next descriptor if it has arrived.

        Reads the 4-byte sequence stamp first; the full descriptor is
        read only on a hit (the common no-message scan is one load).
        """
        ring_slot = self.next_recv_seq % (2 * self.slots + 2)
        vaddr = self.ctrl_in + _DESC_RING_OFF + ring_slot * DESCRIPTOR_BYTES
        stamp = yield from self.proc.read(vaddr + DESCRIPTOR_BYTES - 4, 4)
        if stamp != _u32(self.next_recv_seq):
            return None
        data = yield from self.proc.read(vaddr, DESCRIPTOR_BYTES)
        slot, mtype, size, seq = struct.unpack("<IIII", data)
        if seq != self.next_recv_seq:
            return None
        if self.hardened:
            ok = yield from self._validate_arrival(data, slot, size, seq)
            if not ok:
                # Corrupt, stale, or not fully landed: leave the ring
                # state untouched and let the sender's retransmission
                # (which rewrites the CRC block and descriptor) repair it.
                return None
        self.next_recv_seq += 1
        yield from self.proc.compute(self.proc.config.costs.nx_match_overhead)
        return slot, mtype, size, seq

    def _validate_arrival(self, desc: bytes, slot: int, size: int, seq: int):
        """Hardened check: descriptor + payload match the sender's CRC."""
        proc = self.proc
        hdr = yield from proc.read(self.ctrl_in + _HCRC_OFF, 12)
        crc, hseq, _xmit = struct.unpack("<III", hdr)
        if hseq != seq:
            return False
        if slot == SCOUT_SLOT:
            payload = b""
        else:
            if slot >= self.slots or size > self.payload_bytes:
                return False
            payload = yield from proc.read(
                self.data_in + self.slot_offset(slot) + HEADER_BYTES, size
            )
        return crc32_of(desc, payload) == crc

    def descriptor_stamp_vaddr(self) -> int:
        """Address of the next expected descriptor's sequence stamp
        (what a blocking receive polls)."""
        ring_slot = self.next_recv_seq % (2 * self.slots + 2)
        return (self.ctrl_in + _DESC_RING_OFF
                + ring_slot * DESCRIPTOR_BYTES + DESCRIPTOR_BYTES - 4)

    def expected_stamp_bytes(self) -> bytes:
        """Encoded stamp the next descriptor must carry."""
        return _u32(self.next_recv_seq)

    def consume_payload(self, slot: int, size: int, user_vaddr: int):
        """Copy a small message out of its packet buffer and return the
        credit ('at least one copy from the receive buffer')."""
        yield from self.proc.copy(self.data_in + self.slot_offset(slot) + HEADER_BYTES,
                                  user_vaddr, size)
        yield from self.return_credit(slot)

    def peek_payload(self, slot: int, size: int) -> bytes:
        """Untimed view of a slot's payload (tests/debug only)."""
        return self.proc.peek(self.data_in + self.slot_offset(slot) + HEADER_BYTES, size)

    def return_credit(self, slot: int):
        """Return ``slot``'s credit to the sender (via AU)."""
        yield from self.proc.compute(self.proc.config.costs.nx_credit_overhead)
        vaddr, data = self.next_credit_out.next_write(slot)
        yield from self._ctrl_write(vaddr, data)

    def send_reply(self, export_id: int, buf_offset: int, mode: int):
        """Receiver side of the zero-copy protocol: tell the sender where
        to put the data (step 2->3)."""
        seq = self.next_reply_out_seq
        self.next_reply_out_seq += 1
        yield from self._ctrl_write(
            self.au_ctrl_out + _REPLY_OFF, _u32(export_id, buf_offset, mode, seq)
        )

    def _ctrl_write(self, vaddr: int, data: bytes):
        """Timed control write, recorded for replay in hardened mode."""
        if self.hardened:
            self._replay_log.append((vaddr, data))
        yield from self.proc.write(vaddr, data)

    def service_replays(self):
        """Answer the peer's replay-request beacon (hardened recovery).

        Rewrites the logged control writes in order — the newest write
        to each word lands last, reconstructing the intended state of
        every credit-ring slot, reply, and completion word the log
        covers.  Rewriting a write that did arrive is harmless.
        """
        if not self.hardened:
            return
        raw = yield from self.proc.read(self.ctrl_in + _RREQ_OFF, 4)
        (rreq,) = struct.unpack("<I", raw)
        if rreq == self._rreq_seen:
            return
        self._rreq_seen = rreq
        for vaddr, data in list(self._replay_log):
            yield from self.proc.write(vaddr, data)

    def hardened_watch_ranges(self):
        """(vaddr, nbytes) control ranges a hardened receiver watches.

        Retransmissions rewrite the CRC block and replay requests bump
        the beacon; a sleeping receiver must wake for either (the
        retransmitted descriptor lands in an already-consumed ring slot,
        which the descriptor-stamp watch alone would sleep through).
        """
        return [(self.ctrl_in + _HCRC_OFF, 12), (self.ctrl_in + _RREQ_OFF, 4)]

    def poll_complete(self, seq: int):
        """Wait for the zero-copy completion word to show ``seq``."""
        expected = _u32(seq)
        yield from self.proc.poll(
            self.ctrl_in + _COMPLETE_OFF, 4, lambda b: b == expected
        )
        self.next_complete_seq = seq + 1


def _pad4(size: int) -> int:
    """DU transfer sizes are whole words; trailing pad bytes land in the
    slot's spare room (never read — size in the header bounds reads)."""
    return (size + 3) & ~3
