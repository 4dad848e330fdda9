"""The VRPC bidirectional stream: a cyclic shared queue per direction.

'The communication between the client and the server takes place over
a pair of mappings which implement a bidirectional stream...  we
implement a cyclic shared queue in each direction.  The control
information in each buffer consists of 2 reserved words.  The first
word is a flag and the second the total length (in bytes) of the data
that has been written into the buffer from the last and previous
transfers.  The sender (respectively, receiver) remembers the next
position to write (read) data to (from) the buffer.  The XDR layer
sends the data directly to the receiver, so there is no copying on
the sending side.'

This is the 'stream layer folded directly into the XDR layer': the
encoder's output bytes are written straight into the (mirror of the)
peer's queue, and the decoder reads straight out of the local queue.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ...hardware.config import CacheMode
from ...kernel.process import UserProcess
from ...vmmc import VmmcEndpoint, VmmcTransferError
from ..recovery import bounded_poll, crc32_of

__all__ = ["VrpcStream", "STREAM_CTRL_BYTES"]

STREAM_CTRL_BYTES = 8  # [flag][total_length]

# Under an armed fault plan the stream grows two more reserved words —
# [flag][total][xmit][crc] — so a receiver can tell a retransmission
# from a new message (xmit) and reject corrupted payloads (crc).  The
# fault-free layout is untouched.
_HARDENED_CTRL_BYTES = 16


class VrpcStream:
    """One endpoint's view of the bidirectional VRPC stream.

    The local half (``in_vaddr``) is this process's receive queue; the
    peer's queue is reached through ``au_out`` (automatic update mirror)
    or deliberate update into ``imp_out`` — per the binding's variant.
    Message payloads are always XDR data, hence word-multiple, which
    keeps every deliberate-update destination aligned.
    """

    def __init__(
        self,
        proc: UserProcess,
        ep: VmmcEndpoint,
        in_vaddr: int,
        ring_bytes: int,
        automatic: bool,
    ):
        self.proc = proc
        self.ep = ep
        self.in_vaddr = in_vaddr
        self.ring_bytes = ring_bytes
        # The reserved control words live at the region's start; the
        # cyclic data area is what remains.  Both endpoints derive the
        # hardened flag from the same armed fault plan, so the layouts
        # always agree.
        self.hardened = proc.faults.enabled
        self.ctrl_bytes = _HARDENED_CTRL_BYTES if self.hardened else STREAM_CTRL_BYTES
        self.data_capacity = ring_bytes - self.ctrl_bytes
        self.automatic = automatic
        # Peer-side handles, installed by attach_peer():
        self.imp_out = None
        self.au_out = 0            # AU mirror (whole region for AU; page 0 always)
        self.staging = 0           # DU marshal area
        # 'The sender remembers the next position to write':
        self.write_total = 0
        self.flag_out = 0
        # '...the receiver the next position to read':
        self.read_total = 0
        self.flag_in = 0
        # Hardened-protocol state: retransmission stamps and the last
        # message we sent (kept so a lost reply can be replayed when the
        # peer retransmits an already-consumed request).
        self._xmit_out = 0
        self._xmit_seen = 0
        self._last_payload: Optional[bytes] = None
        self._last_base = 0

    # ------------------------------------------------------------------
    def attach_peer(self, imp_out, au_out: int, staging: int) -> None:
        """Install the peer-side handles after the handshake."""
        self.imp_out = imp_out
        self.au_out = au_out
        self.staging = staging

    def _ring_segments(self, total: int, nbytes: int) -> List[Tuple[int, int]]:
        """(ring offset, length) pieces for nbytes starting at counter."""
        segments = []
        while nbytes > 0:
            offset = total % self.data_capacity
            piece = min(nbytes, self.data_capacity - offset)
            segments.append((offset, piece))
            total += piece
            nbytes -= piece
        return segments

    # ------------------------------------------------------------------
    # Send side ('no copying on the sending side' beyond the marshal)
    # ------------------------------------------------------------------
    def send_message(self, payload: bytes):
        """Write one XDR message into the peer's queue and flag it."""
        nbytes = len(payload)
        if nbytes % 4 != 0:
            raise ValueError("stream payloads are XDR data (word multiples)")
        if nbytes > self.data_capacity:
            raise ValueError("message of %d bytes exceeds the stream queue" % nbytes)
        # Commit the stream counters first, then transmit: a DU abort
        # mid-transmit leaves the counters consistent, and a hardened
        # resend_last() replays the identical message.
        self._last_payload = payload
        self._last_base = self.write_total
        self.write_total += nbytes
        self.flag_out += 1
        yield from self._transmit()

    def _transmit(self):
        """(Re)write the newest message: the data, then (hardened) the
        [xmit][crc] words, then [flag][total] as one AU write after the
        data.

        Idempotent with respect to the stream counters, so the hardened
        retry paths call it as many times as the fault plan demands."""
        payload = self._last_payload
        proc = self.proc
        self._xmit_out += 1
        segments = self._ring_segments(self._last_base, len(payload))
        cursor = 0
        for offset, length in segments:
            if self.automatic:
                # Marshal straight into the AU mirror: the writes are
                # the send.
                yield from proc.write(
                    self.au_out + self.ctrl_bytes + offset,
                    payload[cursor : cursor + length],
                )
            else:
                # Marshal into the staging ring, one deliberate update
                # per contiguous piece.
                yield from proc.write(
                    self.staging + offset, payload[cursor : cursor + length]
                )
                yield from self.ep.send(
                    self.imp_out, self.staging + offset, length,
                    offset=self.ctrl_bytes + offset,
                )
            cursor += length
        ctrl = struct.pack("<II", self.flag_out, self.write_total)
        if self.hardened:
            crc = crc32_of(ctrl, payload)
            yield from proc.write(
                self.au_out + 8, struct.pack("<II", self._xmit_out & 0xFFFFFFFF, crc)
            )
        yield from proc.write(self.au_out, ctrl)

    def resend_last(self):
        """Retransmit the most recent message (hardened only)."""
        if self._last_payload is None:
            return
        yield from self._transmit()

    def service_retransmits(self):
        """Hardened probe: if the peer retransmitted a message we already
        consumed, our last send (their ack) was lost — replay it."""
        if not self.hardened:
            return
        raw = yield from self.proc.read(self.in_vaddr, 12)
        flag, _total, xmit = struct.unpack("<III", raw)
        yield from self._replay_if_duplicate(flag, xmit)

    def _replay_if_duplicate(self, flag: int, xmit: int):
        """A new xmit stamp on the message we already consumed is the
        peer's retransmission: it never saw our answer, so resend it."""
        if flag == self.flag_in and xmit != self._xmit_seen:
            self._xmit_seen = xmit
            try:
                yield from self.resend_last()
            except VmmcTransferError:
                # The replay itself got aborted; the peer's next
                # retransmission will trigger another one.
                pass

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def check_flag(self):
        """Non-blocking: has the next transfer been flagged?  One timed
        load of the flag word (the svc_run select-loop probe)."""
        raw = yield from self.proc.read(self.in_vaddr, 4)
        (flag,) = struct.unpack("<I", raw)
        return flag == self.flag_in + 1

    def recv_message(self, timeout_us: Optional[float] = None):
        """Wait for the next flagged transfer; returns its bytes.

        A fault-free stream polls the flag word with no deadline (the
        paper's reliable network), so it ignores ``timeout_us``.  A
        hardened stream waits at most ``timeout_us`` (None: unbounded)
        and returns None when the deadline passes without a valid
        message; the RPC layer maps that to a typed fault.  It also
        wakes on a bumped xmit word, replays its last send when the
        peer retransmits a message already consumed (the peer never saw
        the answer), and rejects corrupted arrivals by CRC, waiting on
        until the sender's retransmission repairs them."""
        proc = self.proc
        hardened = self.hardened
        expected = struct.pack("<I", self.flag_in + 1)
        deadline = None if timeout_us is None else proc.sim.now + timeout_us
        while True:
            if not hardened:
                yield from proc.poll(self.in_vaddr, 4, lambda b: b == expected)
            else:
                # Wake on either a new flag or a bumped xmit word — the
                # latter covers retransmissions whose flag we already
                # hold (our reply was dropped) and corrupt flags
                # repaired later.
                snapshot = proc.peek(self.in_vaddr + 8, 4)

                def fresh(window, snapshot=snapshot):
                    return window[:4] == expected or window[8:12] != snapshot

                if deadline is None:
                    window = yield from proc.poll(
                        self.in_vaddr, _HARDENED_CTRL_BYTES, fresh
                    )
                else:
                    remaining = deadline - proc.sim.now
                    if remaining <= 0:
                        return None
                    window = yield from bounded_poll(
                        proc, self.in_vaddr, _HARDENED_CTRL_BYTES, fresh,
                        remaining,
                    )
                    if window is None:
                        return None
            raw = yield from proc.read(self.in_vaddr, self.ctrl_bytes)
            flag, total = struct.unpack_from("<II", raw)
            nbytes = total - self.read_total
            if hardened:
                xmit, crc = struct.unpack_from("<II", raw, 8)
                if flag != self.flag_in + 1:
                    # A duplicate of the last message, or a garbage flag
                    # word the retransmission will rewrite.
                    yield from self._replay_if_duplicate(flag, xmit)
                    continue
                self._xmit_seen = xmit
                if not (0 < nbytes <= self.data_capacity) or nbytes % 4 != 0:
                    continue  # corrupt length word — reject, await retransmit
            pieces = []
            for offset, length in self._ring_segments(self.read_total, nbytes):
                piece = yield from proc.read(
                    self.in_vaddr + self.ctrl_bytes + offset, length
                )
                pieces.append(piece)
            payload = b"".join(pieces)
            if hardened and crc32_of(raw[:8], payload) != crc:
                continue  # corrupt payload — reject, await retransmit
            self.flag_in = flag
            self.read_total = total
            return payload
