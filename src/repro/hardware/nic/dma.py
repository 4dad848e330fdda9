"""The NIC's two DMA engines.

*Deliberate Update Engine* (outgoing): interprets the two-access
transfer-initiation sequence, DMAs the source data out of main memory
over the EISA bus, and feeds it to the packetizer in chunks.

*Incoming DMA Engine*: takes packets from the NIC chip, checks the
Incoming Page Table, and DMAs the payload into main memory over the
EISA bus.  Receiving into a non-enabled page freezes the receive
datapath and interrupts the node CPU (Section 3.2).

When the machine tracer is enabled each engine wraps its work in a
span — ``nic.du`` on track ``n<id>.nic.du``, ``nic.dma_in`` on
``n<id>.nic.in`` — guarded by one attribute check when disabled
(docs/OBSERVABILITY.md).

Both engines share the node's one EISA bus, so heavy receive traffic
slows concurrent deliberate-update sends on the same node — the
'aggregate DMA bandwidth of the shared EISA and Xpress buses' limit
that caps end-to-end bandwidth at ~23 MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ...sim import (
    BandwidthChannel,
    Event,
    FaultInjector,
    FaultKind,
    FaultSite,
    Simulator,
    Store,
    Tracer,
)
from ...sim.core import URGENT
from ..config import MachineConfig
from ..memory import PhysicalMemory
from ..router.packet import (READ_REPLY_HEADER, PacketKind,
                             decode_read_request, encode_read_reply_header)
from .arbiter import Arbiter, INCOMING_PRIORITY
from .ipt import IncomingPageTable
from .opt import OutgoingPageTable
from .packetizer import Packetizer

__all__ = ["DUCommand", "DeliberateUpdateEngine", "IncomingDmaEngine", "ReceiveFault"]

# Tested on every incoming packet: a module global reads faster than an
# Enum member through its class.
_READ_REQUEST = PacketKind.READ_REQUEST


@dataclass
class DUCommand:
    """One decoded transfer-initiation sequence.

    ``src_segments`` are physical (address, length) pieces of the source
    buffer, in order (the kernel's page tables produced them; user pages
    need not be physically contiguous).  ``opt_base``/``offset`` select
    the destination through the Outgoing Page Table's import region.
    ``done`` fires when the source has been fully read — the point at
    which a *blocking* deliberate-update send returns (the source buffer
    is then reusable; delivery completes asynchronously).
    """

    src_segments: List[Tuple[int, int]]
    opt_base: int
    offset: int
    size: int
    interrupt: bool
    done: Event

    def __post_init__(self) -> None:
        total = sum(length for _, length in self.src_segments)
        if total != self.size:
            raise ValueError(
                "source segments cover %d bytes but size is %d" % (total, self.size)
            )


@dataclass
class ReceiveFault:
    """Details handed to the kernel when the receive datapath freezes."""

    node_id: int
    paddr: int
    size: int
    src_node: int


class _SegmentReader:
    """Walks a DU command's physical source segments chunk by chunk."""

    def __init__(self, memory: PhysicalMemory, segments: List[Tuple[int, int]]):
        self.memory = memory
        self.segments = segments
        self.index = 0
        self.within = 0

    def read(self, nbytes: int) -> bytes:
        out = bytearray()
        while nbytes > 0 and self.index < len(self.segments):
            paddr, length = self.segments[self.index]
            available = length - self.within
            take = min(nbytes, available)
            out += self.memory.read(paddr + self.within, take)
            self.within += take
            nbytes -= take
            if self.within == length:
                self.index += 1
                self.within = 0
        if nbytes > 0:
            raise ValueError("source segments exhausted early")
        return bytes(out)


class DeliberateUpdateEngine:
    """Drains the DU command queue, one chunked DMA read at a time.

    A serial stage run as scheduled callbacks: each command steps
    through setup, then per chunk a read setup, an EISA transfer and
    the hand-off to the packetizer; the engine then takes the next
    queued command or goes idle until :meth:`submit`.
    """

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        node_id: int,
        memory: PhysicalMemory,
        eisa: BandwidthChannel,
        opt: OutgoingPageTable,
        packetizer: Packetizer,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.memory = memory
        self.eisa = eisa
        self.opt = opt
        self.packetizer = packetizer
        self.tracer = tracer or Tracer(sim)
        # Stored as ``injector`` engine-wide: the incoming engine's
        # ``faults`` name is already its receive-fault counter.
        self.injector = faults or FaultInjector(sim)
        self.commands: Store = Store(sim, name="du-commands-n%d" % node_id)
        self.transfers_done = 0
        self.bytes_sent = 0
        self.stalls = 0
        self.aborts = 0
        # Occupancy accounting for the metrics registry: time from
        # dequeuing a command to resolving it (done or aborted).  The
        # engine is serial, so busy_time/now is its utilization.
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        self._idle = True
        # The command in progress: its span, source walker, and the
        # destination offset and byte count still to move.
        self._command: Optional[DUCommand] = None
        self._span = None
        self._reader: Optional[_SegmentReader] = None
        self._offset = 0
        self._remaining = 0

    def submit(self, command: DUCommand) -> None:
        """Queue a decoded initiation sequence (called at PIO-decode time).

        An idle engine takes the command at once and starts it in an
        URGENT entry at this instant, as an event wake would: ``submit``
        runs inside the initiator's process step, so the engine cannot
        start in place (docs/SIMULATOR.md, "NIC stages as callbacks").
        """
        if not self.commands.try_put(command):
            raise RuntimeError("DU command queue unexpectedly full")
        if self._idle:
            self._idle = False
            self.sim.schedule_call(0.0, self._start, self.commands.try_get(),
                                   priority=URGENT)

    def metrics_snapshot(self, now: Optional[float] = None) -> dict:
        """Utilization counters for the metrics registry."""
        now = self.sim.now if now is None else now
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return {
            "name": "du-engine-n%d" % self.node_id,
            "kind": "engine",
            "busy_time": busy,
            "count": self.transfers_done,
            "bytes": self.bytes_sent,
        }

    def _next(self) -> None:
        """Start the next queued command, or go idle."""
        command = self.commands.try_get()
        if command is None:
            self._idle = True
        else:
            self._start(command)

    def _start(self, command: DUCommand) -> None:
        """Dequeued: consult the fault site, then begin the transfer."""
        self._busy_since = self.sim.now
        if self.injector.enabled:
            fault = self.injector.draw(FaultSite.NIC_DU, node=self.node_id)
            if fault is not None:
                if fault.kind == FaultKind.ABORT:
                    # The engine rejects the whole command before any
                    # chunk is emitted; the initiator's done event
                    # fails with a typed error instead of hanging.
                    from ...vmmc.errors import VmmcTransferError

                    self.aborts += 1
                    command.done.fail(VmmcTransferError(
                        "deliberate update of %d bytes aborted by the "
                        "DU engine on node %d" % (command.size, self.node_id)
                    ))
                    self.busy_time += self.sim.now - self._busy_since
                    self._busy_since = None
                    self._next()
                    return
                self.stalls += 1
                self.sim.schedule_call(fault.params.get("stall_us", 50.0),
                                       self._begin, command)
                return
        self._begin(command)

    def _begin(self, command: DUCommand) -> None:
        cfg = self.config
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "nic.du", "du %dB" % command.size,
                track="n%d.nic.du" % self.node_id,
                data={"bytes": command.size},
            )
        self._command = command
        self._span = span
        self._reader = _SegmentReader(self.memory, command.src_segments)
        self._offset = command.offset
        self._remaining = command.size
        if command.size <= 0:  # degenerate command: charge setup alone
            self.sim.schedule_call(cfg.du_engine_setup, self._finish)
            return
        # Engine setup and the first chunk's read setup are back-to-back
        # sleeps with no side effects between them: one entry, bit-exact
        # deadline arithmetic.
        self.sim.schedule_at((self.sim.now + cfg.du_engine_setup)
                             + cfg.du_dma_read_setup, self._read_chunk)

    def _read_chunk(self) -> None:
        """Read setup done: DMA the next chunk out over the EISA bus."""
        cfg = self.config
        # Chunk at both the packet-size bound and destination page
        # boundaries so each packet maps through one OPT entry.
        page_room = cfg.page_size - (self._offset % cfg.page_size)
        chunk = min(self._remaining, cfg.max_packet_payload, page_room)
        finish = self.eisa.reserve(chunk)
        self.sim.schedule_call(finish - self.sim.now, self._emit_chunk, chunk)

    def _emit_chunk(self, chunk: int) -> None:
        """The chunk crossed the bus: hand it to the packetizer."""
        cfg = self.config
        command = self._command
        offset = self._offset
        data = self._reader.read(chunk)
        entry = self.opt.proxy_entry(command.opt_base + offset // cfg.page_size)
        dst_paddr = entry.dst_paddr(cfg.page_size, offset % cfg.page_size)
        last = self._remaining == chunk
        self.packetizer.du_emit(
            entry.dst_node,
            dst_paddr,
            data,
            interrupt=command.interrupt and last,
        )
        self._offset = offset + chunk
        self._remaining -= chunk
        self.bytes_sent += chunk
        if last:
            self._finish()
        else:
            self.sim.schedule_call(cfg.du_dma_read_setup, self._read_chunk)

    def _finish(self) -> None:
        command = self._command
        self.transfers_done += 1
        self.busy_time += self.sim.now - self._busy_since
        self._busy_since = None
        self.tracer.end(self._span)
        self._command = self._span = self._reader = None
        command.done.succeed()
        self._next()


class _ReadReply:
    """A READ_REQUEST being served: where the reply goes, how far along."""

    __slots__ = ("dst_node", "request", "shadowed", "span", "single",
                 "data_base", "offset", "chunks")

    def __init__(self, dst_node, request, shadowed, span, single, data_base):
        self.dst_node = dst_node
        self.request = request
        self.shadowed = shadowed    # the bytes, when the shadow holds them
        self.span = span
        self.single = single        # header and data ride one packet
        self.data_base = data_base  # reply address of the first data byte
        self.offset = 0
        self.chunks: List[bytes] = []


class IncomingDmaEngine:
    """Moves arriving packets from the NIC chip into main memory.

    A serial landing stage run as scheduled callbacks: per packet the
    fault site, a port claim, the IPT lookup, DMA setup and the EISA
    transfer, then the next queued packet — or idle until the mesh
    delivers one.  READ_REQUEST packets take the serve path instead.
    """

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        node_id: int,
        memory: PhysicalMemory,
        eisa: BandwidthChannel,
        ipt: IncomingPageTable,
        arbiter: Arbiter,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.memory = memory
        self.eisa = eisa
        self.ipt = ipt
        self.arbiter = arbiter
        self.tracer = tracer or Tracer(sim)
        self.injector = faults or FaultInjector(sim)
        self.stalls = 0
        self.incoming: Store = Store(
            sim, capacity=config.incoming_queue_packets, name="incoming-n%d" % node_id
        )
        # The node's packetizer, wired by NetworkInterface after both
        # exist: READ_REQUEST replies leave through the normal outgoing
        # datapath as deliberate-update packets.
        self.packetizer = None
        # The on-card region shadow, wired by NetworkInterface: serves
        # READ_REQUESTs for registered pages without touching the host
        # bus, and is kept coherent by this engine's own landing writes.
        self.shadow = None
        self.read_requests_served = 0
        self.read_requests_shadowed = 0
        self.read_requests_dropped = 0
        self.read_requests_denied = 0
        self.read_reply_bytes = 0
        # Kernel hooks, installed at boot:
        self.fault_handler: Optional[Callable[[ReceiveFault], None]] = None
        self.notify_handler: Optional[Callable[[int, int], None]] = None
        # (packet, span, fast) of the landing the receive path froze on.
        self._frozen_on: Optional[tuple] = None
        self.frozen = False
        self._idle = True
        self.packets_received = 0
        self.bytes_received = 0
        self.faults = 0
        self.packets_discarded = 0

    def deliver(self, packet) -> None:
        """Entry point wired to the mesh: a packet reached this NIC.

        An idle stage takes the packet in place: this is the last action
        of the mesh's NORMAL delivery entry and its first URGENT push,
        so running the stage here is order-identical to waking it
        (docs/SIMULATOR.md, "NIC stages as callbacks").
        """
        incoming = self.incoming
        if incoming.try_put(packet):
            if self._idle:
                self._idle = False
                self._land(incoming.try_get())
            return
        # Queue full: a blocking put in a NORMAL entry at this instant;
        # the packet enters in FIFO order once space frees.  The stage
        # cannot be idle by then: it holds the packet it took last, and
        # every step of serving that is an entry of its own.
        self.sim.schedule_call(0.0, incoming.put, packet)

    def unfreeze(self, discard: bool = False) -> None:
        """Kernel action: resume the receive datapath after a fault.

        With ``discard=True`` the offending packet is dropped instead of
        retried — the kernel's recourse against traffic for a mapping it
        will not re-enable (e.g. a stale sender after an unexport).
        """
        if not self.frozen:
            raise RuntimeError("receive datapath of node %d is not frozen" % self.node_id)
        self.frozen = False
        self.sim.schedule_call(0.0, self._thaw, discard, priority=URGENT)

    def _next(self) -> None:
        """Land the next queued packet, or go idle."""
        packet = self.incoming.try_get()
        if packet is None:
            self._idle = True
        else:
            self._land(packet)

    def _land(self, packet) -> None:
        """Dequeued: consult the fault site, then serve or land."""
        if self.injector.enabled:
            fault = self.injector.draw(FaultSite.NIC_DMA_IN, node=self.node_id)
            if fault is not None:
                # The landing engine hiccups (bus retry storm, slow
                # card): the packet sits in the incoming queue a
                # while longer.  Latency-only; data is untouched.
                self.stalls += 1
                self.sim.schedule_call(fault.params.get("stall_us", 50.0),
                                       self._dispatch, packet)
                return
        self._dispatch(packet)

    def _dispatch(self, packet) -> None:
        if packet.kind is _READ_REQUEST:
            # The descriptor check and IPT lookup are card-local: no
            # port claim for them.
            self.sim.schedule_call(self.config.ipt_lookup, self._serve, packet)
        elif self.arbiter.acquire(INCOMING_PRIORITY, self._granted, packet):
            self._granted(packet)

    def _granted(self, packet) -> None:
        """The port is ours: open the span and walk the IPT."""
        cfg = self.config
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "nic.dma_in", "land #%d %dB" % (packet.seq, packet.size),
                track="n%d.nic.in" % self.node_id,
                data={"bytes": packet.size, "src_node": packet.src_node},
            )
        # Steady-state fast path: the IPT already enables the range,
        # so the lookup and DMA-setup delays collapse into a single
        # entry.  The deadline repeats the two-step float arithmetic
        # ((now + lookup) + setup), so the landing instant is bit-exact;
        # the check is re-run at the deadline in case the kernel revoked
        # the mapping meanwhile (the setup charge is not repeated on
        # that rare fault path).
        if self.ipt.check_range(packet.dst_paddr, packet.size):
            self.sim.schedule_at((self.sim.now + cfg.ipt_lookup)
                                 + cfg.incoming_dma_setup,
                                 self._looked_up, packet, span, True)
        else:
            self.sim.schedule_call(cfg.ipt_lookup, self._looked_up,
                                   packet, span, False)

    def _looked_up(self, packet, span, fast: bool) -> None:
        """Lookup done: start the DMA, or freeze on a disabled page."""
        cfg = self.config
        if not self.ipt.check_range(packet.dst_paddr, packet.size):
            # Page not enabled: freeze the receive datapath and
            # interrupt the CPU.  We stay frozen until the kernel
            # calls unfreeze(); then the check is retried (the kernel
            # may have enabled the page, or discarded us via a new
            # mapping — retry models the hardware re-walking the IPT).
            self.frozen = True
            self.faults += 1
            self._frozen_on = (packet, span, fast)
            fault = ReceiveFault(self.node_id, packet.dst_paddr, packet.size, packet.src_node)
            if self.fault_handler is None:
                self.arbiter.release()
                raise RuntimeError(
                    "receive fault on node %d with no kernel handler: %r"
                    % (self.node_id, fault)
                )
            self.sim.schedule_call(cfg.interrupt_latency, self.fault_handler, fault)
            return
        if fast:
            self._dma(packet, span)
        else:
            self.sim.schedule_call(cfg.incoming_dma_setup, self._dma, packet, span)

    def _thaw(self, discard: bool) -> None:
        """Unfrozen: drop the packet, or re-walk the IPT for it."""
        packet, span, fast = self._frozen_on
        self._frozen_on = None
        if discard:
            self.packets_discarded += 1
            self.tracer.end(span, data={"discarded": True})
            self.arbiter.release()
            self._next()
        else:
            self._looked_up(packet, span, fast)

    def _dma(self, packet, span) -> None:
        finish = self.eisa.reserve(packet.size)
        self.sim.schedule_call(finish - self.sim.now, self._landed, packet, span)

    def _landed(self, packet, span) -> None:
        """The payload crossed the bus: it is in memory now."""
        cfg = self.config
        self.memory.write(packet.dst_paddr, packet.payload)
        if self.shadow is not None:
            # The card mirrors its own landing DMA into the shadow,
            # the second of the two datapaths that keep it coherent.
            self.shadow.write(packet.dst_paddr, packet.payload)
        self.packets_received += 1
        self.bytes_received += packet.size
        self.tracer.end(span)
        self.arbiter.release()
        first_page = packet.dst_paddr // cfg.page_size
        if packet.interrupt and self.ipt.wants_interrupt(first_page):
            # Sender-specified AND receiver-specified flags both set:
            # raise the notification interrupt (Section 3.2).
            if self.notify_handler is not None:
                self.sim.schedule_call(
                    cfg.interrupt_latency, self.notify_handler, first_page, packet.size
                )
        self._next()

    # -- one-sided reads ------------------------------------------------------

    def _serve(self, packet) -> None:
        """Serve one READ_REQUEST entirely on the NIC — no CPU involved.

        Runs once the card-local IPT lookup time has passed.  The
        descriptor is validated (bad length, magic, or CRC drops the
        request; the reader's bounded completion poll then expires and
        it falls back to its RPC path) and the source range is checked
        against the Incoming Page Table like any remote access; both
        are card-local, so no bus grant is taken for them.  If the
        range is resident in the on-card region shadow the reply is
        assembled straight from NIC memory — the host bus and its
        arbiter are never touched, and the target host cannot even
        observe the read.  Otherwise the data is DMA'd out of main
        memory chunk by chunk under an arbiter grant.  Either way the
        reply leaves as ordinary deliberate-update packets addressed to
        the reply buffer named in the descriptor, completion header
        *last*: per-pair in-order delivery guarantees the data has
        landed when the reader's poll sees the header
        (docs/ONESIDED.md).  A denied or malformed request is dropped
        rather than frozen — unlike a landing write, nothing was
        received that the kernel could re-enable a page for.
        """
        request = decode_read_request(packet.payload)
        if request is None:
            self.read_requests_dropped += 1
            self._next()
            return
        span = None
        if self.tracer.enabled:
            data = {"bytes": request.nbytes, "src_node": packet.src_node}
            if request.trace_id:
                data["tid"] = request.trace_id
                data["xparent"] = request.parent_sid
            span = self.tracer.begin(
                "nic.remote_read", "rread %dB" % request.nbytes,
                track="n%d.nic.rr" % self.node_id, data=data,
            )
        if not self.ipt.check_range(request.src_paddr, request.nbytes):
            self.read_requests_denied += 1
            self.tracer.end(span, data={"denied": True})
            self._next()
            return
        # The completion header (seq, length, CRC, status) is
        # synthesized on the card from the data streaming past — it is
        # never fetched from host memory.
        header_size = READ_REPLY_HEADER.size
        shadowed = (self.shadow.read(request.src_paddr, request.nbytes)
                    if self.shadow is not None else None)
        reply = _ReadReply(
            packet.src_node, request, shadowed, span,
            single=header_size + request.nbytes <= self.config.max_packet_payload,
            data_base=request.reply_paddr + header_size)
        if shadowed is not None:
            # Shadow hit: the snoop logic already carried these bytes
            # past the card when they were stored, so the serve is a
            # read of on-card DRAM — no arbiter grant, no EISA cycle.
            self._reply_chunk(reply)
        elif self.arbiter.acquire(INCOMING_PRIORITY, self._reply_chunk, reply):
            self._reply_chunk(reply)

    def _reply_chunk(self, reply: _ReadReply) -> None:
        """Fetch the next reply chunk: shadow read, or DMA read setup.

        A single-packet reply is one chunk of the whole range; header
        and data then ride one packet, delivered (and written to the
        reply buffer) atomically — the common case for the small reads
        the bypass is tuned for.
        """
        cfg = self.config
        nbytes = reply.request.nbytes
        chunk = (nbytes if reply.single
                 else min(nbytes - reply.offset, cfg.max_packet_payload))
        if reply.shadowed is not None:
            self.sim.schedule_call(
                cfg.nic_shadow_read_setup + cfg.nic_shadow_read_rate * chunk,
                self._reply_emit, reply, chunk)
        else:
            self.sim.schedule_call(cfg.du_dma_read_setup, self._reply_dma,
                                   reply, chunk)

    def _reply_dma(self, reply: _ReadReply, chunk: int) -> None:
        finish = self.eisa.reserve(chunk)
        self.sim.schedule_call(finish - self.sim.now, self._reply_emit,
                               reply, chunk)

    def _reply_emit(self, reply: _ReadReply, chunk: int) -> None:
        """The chunk is on the card: send it, then the next or the header."""
        request = reply.request
        offset = reply.offset
        if reply.shadowed is not None:
            data = reply.shadowed[offset:offset + chunk]
        else:
            data = self.memory.read(request.src_paddr + offset, chunk)
        if reply.single:
            header = encode_read_reply_header(request.seq, data)
            self.packetizer.du_emit(reply.dst_node, request.reply_paddr,
                                    header + data, interrupt=False)
        else:
            self.packetizer.du_emit(reply.dst_node, reply.data_base + offset,
                                    data, interrupt=False)
            reply.chunks.append(data)
            reply.offset = offset + chunk
            if reply.offset < request.nbytes:
                self._reply_chunk(reply)
                return
            header = encode_read_reply_header(request.seq,
                                              b"".join(reply.chunks))
            self.packetizer.du_emit(reply.dst_node, request.reply_paddr,
                                    header, interrupt=False)
        shadowed = reply.shadowed is not None
        if shadowed:
            self.read_requests_shadowed += 1
        else:
            self.arbiter.release()
        self.read_requests_served += 1
        self.read_reply_bytes += request.nbytes
        self.tracer.end(reply.span, data={"shadow": shadowed})
        self._next()
