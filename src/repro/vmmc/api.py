"""The VMMC API: what user-level libraries program against.

This is the 'thin layer library that implements the VMMC API, provides
direct access to the network for data transfers between user processes,
and handles communication with the SHRIMP daemon'.

One :class:`VmmcEndpoint` per user process.  The model's calls
(Section 2):

* :meth:`export` / :meth:`unexport` — receive-buffer lifecycle
* :meth:`import_buffer` / :meth:`unimport` — sender-side mapping
* :meth:`send` — blocking deliberate update (explicit transfer)
* :meth:`bind` / :meth:`unbind` — automatic-update binding, after which
  ordinary stores (``proc.write``) propagate with no send call
* notifications — per-buffer handlers, block/unblock, wait

All methods are generator functions: the calling process pays the time.
Data transfer never crosses the kernel; mapping setup and notification
mask changes do.
"""

from __future__ import annotations

from typing import Optional, Set

import zlib

from ..hardware.config import CacheMode
from ..hardware.router.packet import READ_REPLY_HEADER, encode_read_request
from ..kernel.daemon import AutomaticBinding, ImportedBuffer, ShrimpDaemon
from ..kernel.process import UserProcess
from ..kernel.system import ShrimpSystem
from ..kernel.vm import ProtectionFault
from .buffers import ExportedBuffer, NotificationHandler
from .errors import (VmmcAlignmentError, VmmcReadTimeoutError,
                     VmmcStateError, VmmcTransferError)
from .notifications import NotificationCenter

__all__ = ["VmmcEndpoint", "attach"]


class VmmcEndpoint:
    """A process's handle on the VMMC layer."""

    def __init__(self, system: ShrimpSystem, proc: UserProcess,
                 fast_notifications: bool = False):
        self.system = system
        self.proc = proc
        self.daemon: ShrimpDaemon = system.daemons[proc.node.node_id]
        self.notifications = NotificationCenter(proc, fast=fast_notifications)
        proc.vmmc = self
        self.sends = 0
        self.bytes_sent = 0
        self.reads = 0
        self.bytes_read = 0
        self._read_seq = 0

    # ------------------------------------------------------------------
    # Buffer allocation convenience
    # ------------------------------------------------------------------
    def alloc_buffer(self, nbytes: int,
                     cache_mode: CacheMode = CacheMode.WRITE_THROUGH) -> int:
        """Allocate page-rounded communication memory; returns its vaddr.

        Communication buffers default to write-through caching, as in
        the paper's experiments ('with both sender's and receiver's
        memory cached write-through').
        """
        page = self.proc.config.page_size
        rounded = -(-nbytes // page) * page
        return self.proc.space.mmap(rounded, cache_mode=cache_mode)

    # ------------------------------------------------------------------
    # Import-export mappings (Section 2.1)
    # ------------------------------------------------------------------
    def export(
        self,
        vaddr: int,
        nbytes: int,
        allow_nodes: Optional[Set[int]] = None,
        handler: Optional[NotificationHandler] = None,
    ):
        """Export a receive buffer; returns an :class:`ExportedBuffer`.

        ``handler`` (if given) becomes the buffer's notification handler
        and enables the receiver-side interrupt flag on its pages.
        """
        span = None
        if self.proc.tracer.enabled:
            span = self.proc.tracer.begin(
                "vmmc.export", "export %dB" % nbytes,
                track=self.proc.trace_track, data={"bytes": nbytes},
            )
        try:
            record = yield from self.daemon.export(
                self.proc, vaddr, nbytes,
                allow_nodes=allow_nodes,
                notify=handler is not None,
            )
        finally:
            # finally: a fault-raised timeout must not leak an open span.
            self.proc.tracer.end(span)
        buffer = ExportedBuffer(record=record, handler=handler)
        if handler is not None:
            self.notifications.register(buffer)
        return buffer

    def export_new(self, nbytes: int, **kwargs):
        """Allocate page-rounded memory and export it in one call."""
        page = self.proc.config.page_size
        rounded = -(-nbytes // page) * page
        vaddr = self.alloc_buffer(rounded)
        buffer = yield from self.export(vaddr, rounded, **kwargs)
        return buffer

    def unexport(self, buffer: ExportedBuffer):
        """Destroy an export (waits for pending deliveries)."""
        if not buffer.active:
            raise VmmcStateError("buffer already unexported")
        self.notifications.unregister(buffer)
        yield from self.daemon.unexport(self.proc, buffer.record)

    def import_buffer(self, remote_node: int, export_id: int):
        """Import a remote export; returns an :class:`ImportedBuffer`."""
        span = None
        if self.proc.tracer.enabled:
            span = self.proc.tracer.begin(
                "vmmc.import", "import n%d/%d" % (remote_node, export_id),
                track=self.proc.trace_track,
            )
        try:
            imported = yield from self.daemon.import_buffer(
                self.proc, remote_node, export_id)
        finally:
            self.proc.tracer.end(span)
        return imported

    def unimport(self, imported: ImportedBuffer):
        """Destroy an import (waits for pending sends through it)."""
        yield from self.daemon.unimport(self.proc, imported)

    # ------------------------------------------------------------------
    # Deliberate update (Section 2.2)
    # ------------------------------------------------------------------
    def send(
        self,
        imported: ImportedBuffer,
        local_vaddr: int,
        nbytes: int,
        offset: int = 0,
        notify: bool = False,
    ):
        """Blocking deliberate-update send.

        Transfers ``nbytes`` from the caller's memory at ``local_vaddr``
        into the imported buffer at ``offset``.  Returns when the source
        data has been read out (safe to reuse); delivery completes
        asynchronously, in order.  With ``notify=True`` the final packet
        carries the sender-specified interrupt flag.  This is
        :meth:`send_nonblocking` followed by a wait on its event.
        """
        proc = self.proc
        tracer = proc.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "vmmc.send", "send %dB" % nbytes, track=proc.trace_track,
                data={"bytes": nbytes},
            )
        try:
            done = yield from self.send_nonblocking(
                imported, local_vaddr, nbytes, offset, notify)
            yield done
        finally:
            # finally: a hardened caller catches fault-raised timeouts
            # and retries; the abandoned attempt must still close its
            # span or the span-balance audit flags a leak.
            if span is not None:
                tracer.end(span)

    def send_nonblocking(
        self,
        imported: ImportedBuffer,
        local_vaddr: int,
        nbytes: int,
        offset: int = 0,
        notify: bool = False,
    ):
        """Non-blocking deliberate-update send.

        Returns (after only the initiation sequence) an event that fires
        when the DU engine has read the source out of memory — until
        then the source buffer must not be modified, or the transfer
        picks up the new bytes ('the ordering guarantees are a bit more
        complicated when the non-blocking... send operation is used';
        none of the paper's libraries use it, but the hardware offers
        it).  Delivery remains in order with other sends.
        """
        word = self.proc.config.word_size
        if local_vaddr % word != 0:
            raise VmmcAlignmentError(
                "deliberate-update source %#x is not word-aligned" % local_vaddr
            )
        if offset % word != 0:
            raise VmmcAlignmentError(
                "deliberate-update destination offset %d is not word-aligned" % offset
            )
        if not imported.active:
            raise VmmcStateError("send through a destroyed import")
        if nbytes <= 0:
            raise ValueError("send size must be positive")
        if offset + nbytes > imported.nbytes:
            raise ValueError(
                "send of %d bytes at offset %d exceeds the %d-byte buffer"
                % (nbytes, offset, imported.nbytes)
            )
        # User-level bookkeeping, then the two decoded EISA accesses of
        # the transfer-initiation sequence: one sleep to the two-sleep
        # deadline (now + call) + pio, the source translated at its
        # start.  A source fault still waits out the call cost and
        # surfaces at now + call.
        proc = self.proc
        eisa = proc.node.eisa
        called = proc.sim.now + proc.config.costs.vmmc_send_call
        try:
            segments = proc.space.translate(local_vaddr, nbytes, write=False)
        except ProtectionFault:
            yield called
            raise
        yield called + eisa.pio_time(2)
        eisa.pio_accesses += 2
        done = proc.node.nic.initiate_deliberate_update(
            src_segments=segments,
            opt_base=imported.opt_base,
            offset=offset,
            size=nbytes,
            interrupt=notify,
        )
        self.sends += 1
        self.bytes_sent += nbytes
        return done

    def wait_send(self, done_event):
        """Block until a non-blocking send's source has been read."""
        yield done_event

    # ------------------------------------------------------------------
    # One-sided remote read (docs/ONESIDED.md)
    # ------------------------------------------------------------------
    def read_remote(
        self,
        imported: ImportedBuffer,
        offset: int,
        nbytes: int,
        reply_vaddr: int,
        timeout_us: float = 200.0,
    ):
        """One-sided read of an imported buffer — no remote CPU involved.

        Emits a READ_REQUEST descriptor naming the remote physical range
        and a local *exported* reply buffer; the target NIC DMAs the data
        back as deliberate-update packets (data first, completion header
        last) while the remote CPU stays out of the loop.  Blocks polling
        the completion header; returns the payload bytes.

        The read must not cross a remote page boundary (imported frames
        need not be physically contiguous), and header plus data must fit
        one local page of the reply buffer.  Raises
        :class:`VmmcReadTimeoutError` if the completion stamp does not
        arrive within ``timeout_us`` (lost or IPT-denied request — the
        target drops rather than replies), and
        :class:`VmmcTransferError` on a reply that fails its CRC or
        length check (e.g. a late stale reply interleaving with this
        one's data).
        """
        page = self.proc.config.page_size
        if not imported.active:
            raise VmmcStateError("read through a destroyed import")
        if nbytes <= 0:
            raise ValueError("read size must be positive")
        if offset < 0 or offset + nbytes > imported.nbytes:
            raise ValueError(
                "read of %d bytes at offset %d exceeds the %d-byte buffer"
                % (nbytes, offset, imported.nbytes)
            )
        if (offset % page) + nbytes > page:
            raise VmmcAlignmentError(
                "one-sided read must not cross a remote page boundary"
            )
        header_size = READ_REPLY_HEADER.size
        reply_segments = self.proc.space.translate(
            reply_vaddr, header_size + nbytes, write=True)
        if len(reply_segments) != 1:
            raise VmmcAlignmentError(
                "reply header plus data must fit one page of the reply buffer"
            )
        reply_paddr = reply_segments[0][0]
        if not self.proc.node.nic.ipt.is_enabled(reply_paddr // page):
            raise VmmcStateError(
                "the reply buffer must be exported before one-sided reads"
            )
        src_paddr = (imported.remote_frames[offset // page] * page
                     + offset % page)
        costs = self.proc.config.costs
        tracer = self.proc.tracer
        span = None
        if tracer.enabled:
            data = {"bytes": nbytes}
            ctx = self.proc.trace_ctx
            if ctx is not None:
                data["tid"] = ctx[0]
                data["cparent"] = ctx[1]
            span = tracer.begin(
                "vmmc.read", "read %dB" % nbytes,
                track=self.proc.trace_track, data=data,
            )
        sim = self.proc.sim
        try:
            yield sim.now + costs.vmmc_send_call
            self._read_seq += 1
            seq = self._read_seq
            ctx = self.proc.trace_ctx if span is not None else None
            descriptor = encode_read_request(
                seq, src_paddr, nbytes, reply_paddr,
                trace_id=ctx[0] if ctx is not None else 0,
                parent_sid=span.sid if span is not None else 0,
            )
            # The initiation sequence: two programmed-I/O accesses — a
            # doorbell write of the descriptor's address plus the status
            # read-back — and the NIC fetches the descriptor by DMA.
            yield sim.now + self.proc.node.eisa.pio_cost(2)
            self.proc.node.nic.packetizer.request_emit(
                imported.remote_node, descriptor)
            deadline = sim.now + timeout_us

            def _completed(stamp: bytes) -> bool:
                return READ_REPLY_HEADER.unpack(stamp)[0] == seq

            stamp = yield from self.proc.poll(
                reply_vaddr, header_size, _completed, deadline)
            if stamp is None:
                raise VmmcReadTimeoutError(
                    "one-sided read of %d bytes from node %d timed out "
                    "after %.1f us" % (nbytes, imported.remote_node,
                                       timeout_us)
                )
            _seq, length, crc, status = READ_REPLY_HEADER.unpack(stamp)
            if status != 0 or length != nbytes:
                raise VmmcTransferError(
                    "one-sided read reply malformed (status %d, %d/%d bytes)"
                    % (status, length, nbytes)
                )
            payload = yield from self.proc.read(
                reply_vaddr + header_size, length)
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise VmmcTransferError(
                    "one-sided read reply of %d bytes failed its CRC"
                    % length
                )
            self.reads += 1
            self.bytes_read += length
            return payload
        finally:
            # finally: callers retry typed failures; the abandoned
            # attempt must still close its span (span-balance audit).
            tracer.end(span)

    # ------------------------------------------------------------------
    # Automatic update (Section 2.2)
    # ------------------------------------------------------------------
    def bind(
        self,
        local_vaddr: int,
        imported: ImportedBuffer,
        nbytes: Optional[int] = None,
        offset: int = 0,
        combining: bool = True,
        use_timer: bool = True,
        notify: bool = False,
        timer_us: Optional[float] = None,
    ):
        """Create an automatic-update binding (page-granular).

        After this, ordinary stores to the bound range propagate to the
        remote buffer — 'eliminating the need for an explicit send
        operation'.  AU has no word-alignment restriction.  ``timer_us``
        configures this binding's combining-flush timer (None = machine
        default); single-burst control pages use a short timer.
        """
        span = None
        if self.proc.tracer.enabled:
            span = self.proc.tracer.begin(
                "vmmc.bind", "bind %sB" % (nbytes if nbytes is not None else "all"),
                track=self.proc.trace_track,
            )
        binding = yield from self.daemon.bind_automatic(
            self.proc, local_vaddr, imported,
            nbytes=nbytes, offset=offset,
            combining=combining, use_timer=use_timer,
            dest_interrupt=notify, timer_us=timer_us,
        )
        self.proc.tracer.end(span)
        return binding

    def unbind(self, binding: AutomaticBinding):
        """Remove an automatic-update binding (drains first)."""
        yield from self.daemon.unbind_automatic(self.proc, binding)

    # ------------------------------------------------------------------
    # Notifications (Section 2.3)
    # ------------------------------------------------------------------
    def set_handler(self, buffer: ExportedBuffer, handler: Optional[NotificationHandler]):
        """Install/replace/remove the handler of an exported buffer.

        Changing handler presence flips the pages' interrupt status bits
        (a kernel crossing) — the polling/blocking switch of Section 6.
        """
        had = buffer.handler is not None
        buffer.handler = handler
        has = handler is not None
        if has:
            self.notifications.register(buffer)
        else:
            self.notifications.unregister(buffer)
        if had != has:
            yield from self.system.kernels[self.proc.node.node_id].sys_set_notification(
                self.proc, buffer.record.frames, has
            )

    def block_notifications(self):
        """Defer handler invocation; notifications queue meanwhile."""
        yield from self.system.kernels[self.proc.node.node_id].sys_sigblock(self.proc)

    def unblock_notifications(self):
        """Re-enable delivery, then dispatch anything queued."""
        yield from self.system.kernels[self.proc.node.node_id].sys_sigunblock(self.proc)
        delivered = yield from self.notifications.dispatch()
        return delivered

    def dispatch_notifications(self):
        """Run handlers for any pending (unblocked) notifications."""
        delivered = yield from self.notifications.dispatch()
        return delivered

    def wait_notification(self):
        """Suspend until a notification arrives, then dispatch it."""
        delivered = yield from self.notifications.wait()
        return delivered


def attach(system: ShrimpSystem, proc: UserProcess, **kwargs) -> VmmcEndpoint:
    """Attach a VMMC endpoint to a user process."""
    return VmmcEndpoint(system, proc, **kwargs)
