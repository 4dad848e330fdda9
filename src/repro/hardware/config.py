"""Machine configuration: every timing constant of the SHRIMP model.

The paper's prototype is fixed hardware (60 MHz Pentium nodes, Xpress
memory bus, EISA I/O bus, custom NIC, Paragon mesh backplane).  Our
substitute is a discrete-event model whose behaviour is governed entirely
by the constants defined here.  Each field's docstring ties it to the
datapath element it stands for (Section 3 of the paper / DESIGN.md S2).

Defaults come from :meth:`MachineConfig.shrimp_prototype` and are
calibrated so the headline measurements land near the paper's values:

* automatic-update one-word latency  ~ 4.75 us (write-through) / 3.7 us (uncached)
* deliberate-update one-word latency ~ 7.6 us
* DU zero-copy asymptotic bandwidth  ~ 23 MB/s (EISA DMA limit)

``tests/calibration`` asserts these; do not re-tune casually.
All times are microseconds; all bandwidths are bytes/microsecond (== MB/s).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["CacheMode", "MachineConfig", "SoftwareCosts"]


class CacheMode(enum.Enum):
    """Per-virtual-page caching policy, as in the prototype's page tables.

    Main memory can be cached write-through or write-back per page; the
    paper's AU latency experiment also ran with caching disabled.
    """

    WRITE_THROUGH = "write-through"
    WRITE_BACK = "write-back"
    UNCACHED = "uncached"


# The cost model runs on every CPU access; reading an Enum member through
# its class costs a descriptor lookup each time, a module global does not.
_WRITE_THROUGH = CacheMode.WRITE_THROUGH
_WRITE_BACK = CacheMode.WRITE_BACK


@dataclass
class SoftwareCosts:
    """Per-operation CPU costs of the user-level library code.

    The paper attributes library overhead to "procedure calls, checking
    for errors, and accessing the socket data structure" and the like.
    These constants model that code, per library, and are calibrated
    against the overheads the paper reports (NX ~6 us over raw AU,
    sockets ~13 us over the hardware limit, VRPC null call 29 us RTT,
    SHRIMP RPC null call 9.5 us RTT).
    """

    # -- generic -------------------------------------------------------
    call_overhead: float = 0.20
    """One user-level procedure call + argument setup on the 60 MHz Pentium."""

    # -- VMMC basic library ---------------------------------------------
    vmmc_send_call: float = 0.30
    """User-level bookkeeping in vmmc_send before touching the NIC."""

    vmmc_poll_check: float = 0.13
    """One iteration of the receive-flag polling loop (load + compare)."""

    # -- NX ------------------------------------------------------------
    nx_send_overhead: float = 0.70
    """csend entry: argument checks, connection lookup, descriptor build."""

    nx_recv_overhead: float = 0.70
    """crecv entry: queue scan, descriptor parse, size-field reset."""

    nx_credit_overhead: float = 0.40
    """Returning a packet-buffer credit to the sender (paper: part of the
    ~6 us of buffer management above the hardware limit)."""

    nx_scout_overhead: float = 0.90
    """Building/parsing the scout descriptor of the zero-copy protocol."""

    nx_match_overhead: float = 0.30
    """Tag/source matching of a queued message against a receive."""

    # -- sockets ---------------------------------------------------------
    socket_send_overhead: float = 2.20
    """send() entry: descriptor validation, error checks, circular-buffer
    state access (paper: ~half of the 13 us above the hardware limit,
    together with the timed control writes this side performs)."""

    socket_recv_overhead: float = 2.20
    """recv() side of the same bookkeeping."""

    socket_space_update: float = 0.50
    """Updating/propagating circular-buffer read/write positions."""

    # -- SunRPC-compatible VRPC ------------------------------------------
    vrpc_call_prep: float = 4.5
    """Client-side call preparation beyond the timed header-marshal
    memory writes.  Together with those writes this totals ~7 us —
    the paper's 'about 7 usecs spent in preparing the header and
    making the call'."""

    vrpc_header_process: float = 4.0
    """Server-side header processing beyond the timed reads (together
    ~5-6 us: the paper's 'remaining 5-6 usecs processing the header')."""

    vrpc_return_cost: float = 0.5
    """Returning from the call beyond the timed reply reads (together
    ~2 us: the paper's '1-2 usecs in returning from the call')."""

    vrpc_xdr_per_byte: float = 0.012
    """XDR encode/decode incremental cost per payload byte (beyond the
    memory copy itself, which is charged by the memory model)."""

    # -- specialized SHRIMP RPC ------------------------------------------
    srpc_client_stub: float = 0.25
    """Client stub entry (paper: total software overhead under 1 us,
    split between this and the server dispatch)."""

    srpc_server_dispatch: float = 0.30
    """Server loop: flag decode to procedure invocation."""

    # -- notifications ---------------------------------------------------
    signal_delivery: float = 70.0
    """Delivering a notification via a UNIX signal (current implementation;
    the paper notes signals are slow and plans an active-message-style
    reimplementation)."""

    notification_fast_delivery: float = 4.0
    """Projected active-message-style notification cost (used by the
    ablation benchmarks only)."""

    syscall_overhead: float = 12.0
    """Crossing into the Linux kernel and back (used for daemon syscalls
    and notification mask changes, none of which are on the data path)."""


@dataclass
class MachineConfig:
    """Hardware timing/geometry parameters of the simulated SHRIMP system.

    Construct via :meth:`shrimp_prototype` for the calibrated 4-node
    machine, or tweak fields for ablation studies.
    """

    # -- geometry --------------------------------------------------------
    n_nodes: int = 4
    """Number of PC nodes (the prototype has four; the paper plans 16)."""

    mesh_width: int = 2
    """Mesh X dimension of the routing backplane."""

    mesh_height: int = 2
    """Mesh Y dimension of the routing backplane."""

    page_size: int = 4096
    """Virtual-memory page size (i386)."""

    memory_pages: int = 10240
    """Physical pages per node (40 MB, as in the DEC 560ST prototype)."""

    word_size: int = 4
    """Word size; deliberate update requires word-aligned src and dst."""

    cpu_stream_chunk: int = 512
    """Granularity at which streaming CPU stores/copies are simulated.
    A bulk copy into an AU-bound region emits snooped writes chunk by
    chunk, so packet formation pipelines with the copy — as the real
    snooping hardware does word by word."""

    # -- CPU memory-op costs (Section 3.1: 60 MHz Pentium, 256 KB L2) -----
    # A memory operation of n bytes costs base(mode) + n * per_byte(mode).
    wt_write_base: float = 0.72
    """Fixed cost of an isolated store to a write-through page (store
    instruction, cache lookup, write buffer post to the Xpress bus)."""

    wt_write_per_byte: float = 0.038
    """Streaming write-through writes: ~26 MB/s of pure store bandwidth;
    with the read side of a copy this yields the ~20 MB/s copy rate that
    caps automatic-update bandwidth (Figure 3)."""

    wb_write_base: float = 0.22
    """Isolated store to a write-back page (usually a cache hit)."""

    wb_write_per_byte: float = 0.022
    """Streaming write-back writes (dirty lines retire in bursts)."""

    uc_write_base: float = 0.10
    """Isolated uncached store: a single bus transaction, no cache logic."""

    uc_write_per_byte: float = 0.030
    """Uncached streaming writes: word-at-a-time bus transactions."""

    wt_read_base: float = 0.58
    """Isolated load from a write-through page whose line was just
    invalidated by a snooped DMA write (the receive-flag poll case)."""

    wb_read_base: float = 0.20
    """Isolated load from a write-back page."""

    uc_read_base: float = 0.065
    """Isolated uncached load."""

    read_per_byte: float = 0.012
    """Streaming read bandwidth (cache-line fills at ~80 MB/s)."""

    uc_read_per_byte: float = 0.055
    """Uncached streaming reads: every word is a bus transaction."""

    # -- buses (Section 3.1) ----------------------------------------------
    eisa_dma_bandwidth: float = 26.5
    """Effective EISA DMA streaming rate.  The paper measured ~23 MB/s
    end-to-end 'limited only by the aggregate DMA bandwidth of the shared
    EISA and Xpress buses'; 25 MB/s raw minus per-packet setup lands
    there."""

    eisa_pio_access: float = 1.0
    """One programmed-I/O access decoded by the NIC on the EISA bus.  A
    deliberate update is initiated by a sequence of two such accesses."""

    # -- SHRIMP NIC (Section 3.2) ------------------------------------------
    snoop_opt_lookup: float = 0.65
    """Snoop logic latching an Xpress write and indexing the OPT."""

    packetize_latency: float = 0.30
    """Forming a packet header and entering the Outgoing FIFO."""

    nic_injection_latency: float = 0.20
    """Arbiter grant plus handoff of a packet to the NIC chip."""

    outgoing_fifo_packets: int = 64
    """Outgoing FIFO capacity, in packets (backpressure bound)."""

    incoming_queue_packets: int = 64
    """NIC-side incoming packet queue capacity."""

    max_packet_payload: int = 1024
    """Largest packet payload.  AU write-combining and DU chunking both
    cut transfers at this size."""

    packet_header_bytes: int = 16
    """Packet header: destination base address, size, flags."""

    combine_timeout: float = 1.0
    """OPT hardware timer: a combining packet with no subsequent AU write
    for this long is sent automatically."""

    du_engine_setup: float = 0.80
    """Deliberate Update Engine decoding a queued transfer-initiation
    sequence and preparing the DMA read."""

    du_dma_read_setup: float = 1.10
    """Per-chunk EISA bus acquisition + DMA read startup on the send side."""

    incoming_dma_setup: float = 1.20
    """Incoming DMA Engine: IPT check done, EISA bus acquisition + DMA
    write startup, per packet."""

    ipt_lookup: float = 0.15
    """Indexing the Incoming Page Table with the packet's destination page."""

    nic_shadow_bytes: int = 1 << 20
    """On-card region shadow capacity (the snoop-fed serve cache of
    docs/ONESIDED.md): exported read-served pages whose snooped stores
    the NIC retains in its on-board DRAM, so READ_REQUESTs are answered
    without touching the host bus.  0 disables the shadow; every read
    request is then served by host DMA over EISA."""

    nic_shadow_read_setup: float = 0.50
    """Per-chunk serve turnaround out of the on-card shadow: no bus
    arbitration or DMA startup, just the engine indexing its own DRAM."""

    nic_shadow_read_rate: float = 0.010
    """Per-byte cost of streaming shadow bytes from on-card DRAM into a
    reply packet (µs/B) — card-local, so much faster than EISA DMA."""

    interrupt_latency: float = 18.0
    """Raising an interrupt to the node CPU and entering the kernel
    handler (used by notifications and by receive-path faults)."""

    # -- routing backplane (Section 3.1: iMRC mesh) ------------------------
    router_hop_latency: float = 0.15
    """Per-hop header routing decision + switch traversal (wormhole)."""

    link_bandwidth: float = 175.0
    """Backplane link rate.  The iMRC is 'a wider, faster version of the
    Caltech MRC'; fast enough that the EISA bus, not the network, is the
    end-to-end bottleneck, as in the paper."""

    nic_link_latency: float = 0.10
    """NIC chip to router (and router to NIC) handoff."""

    # -- commodity Ethernet (diagnostics / connection setup) ---------------
    ethernet_bandwidth: float = 1.1
    """10 Mbit/s Ethernet minus framing ~= 1.1 MB/s."""

    ethernet_latency: float = 400.0
    """Per-message software latency of the kernel UDP/IP path on Linux of
    the era (used only off the critical path: daemons, connect/accept)."""

    # -- software ---------------------------------------------------------
    costs: SoftwareCosts = field(default_factory=SoftwareCosts)

    # -- derived / validation ----------------------------------------------
    def __post_init__(self) -> None:
        if self.mesh_width * self.mesh_height < self.n_nodes:
            raise ValueError(
                "mesh %dx%d cannot hold %d nodes"
                % (self.mesh_width, self.mesh_height, self.n_nodes)
            )
        if self.page_size % self.word_size != 0:
            raise ValueError("page size must be a multiple of the word size")
        if self.max_packet_payload <= 0:
            raise ValueError("max_packet_payload must be positive")

    @property
    def memory_bytes(self) -> int:
        """Physical memory per node."""
        return self.memory_pages * self.page_size

    # -- cost helpers -------------------------------------------------------
    def write_cost(self, mode: CacheMode, nbytes: int) -> float:
        """CPU cost of writing ``nbytes`` to memory of the given mode."""
        if mode is _WRITE_THROUGH:
            return self.wt_write_base + nbytes * self.wt_write_per_byte
        if mode is _WRITE_BACK:
            return self.wb_write_base + nbytes * self.wb_write_per_byte
        return self.uc_write_base + nbytes * self.uc_write_per_byte

    def read_cost(self, mode: CacheMode, nbytes: int) -> float:
        """CPU cost of reading ``nbytes`` from memory of the given mode."""
        if mode is _WRITE_THROUGH:
            return self.wt_read_base + nbytes * self.read_per_byte
        if mode is _WRITE_BACK:
            return self.wb_read_base + nbytes * self.read_per_byte
        return self.uc_read_base + nbytes * self.uc_read_per_byte

    def write_rate(self, mode: CacheMode) -> "tuple[float, float]":
        """(base, per_byte) write cost components for streaming loops."""
        if mode is _WRITE_THROUGH:
            return self.wt_write_base, self.wt_write_per_byte
        if mode is _WRITE_BACK:
            return self.wb_write_base, self.wb_write_per_byte
        return self.uc_write_base, self.uc_write_per_byte

    def read_rate(self, mode: CacheMode) -> "tuple[float, float]":
        """(base, per_byte) read cost components for streaming loops."""
        if mode is _WRITE_THROUGH:
            return self.wt_read_base, self.read_per_byte
        if mode is _WRITE_BACK:
            return self.wb_read_base, self.read_per_byte
        return self.uc_read_base, self.uc_read_per_byte

    def copy_cost(self, src_mode: CacheMode, dst_mode: CacheMode, nbytes: int) -> float:
        """CPU cost of a memory-to-memory copy (read + write, serialized)."""
        return self.read_cost(src_mode, nbytes) + self.write_cost(dst_mode, nbytes)

    def node_position(self, node_id: int) -> "tuple[int, int]":
        """(x, y) placement of a node on the mesh backplane."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError("node id %d out of range" % node_id)
        return node_id % self.mesh_width, node_id // self.mesh_width

    # -- canned configurations ----------------------------------------------
    @classmethod
    def shrimp_prototype(cls) -> "MachineConfig":
        """The calibrated 4-node prototype of the paper."""
        return cls()

    @classmethod
    def sixteen_node(cls) -> "MachineConfig":
        """The 16-node expansion the paper's conclusion plans."""
        return cls(n_nodes=16, mesh_width=4, mesh_height=4)
