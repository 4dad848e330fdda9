"""Hardware-level end-to-end tests: CPU write -> NIC -> mesh -> remote memory.

These exercise the full Figure 2 datapath below the VMMC layer, wiring
the page tables by hand (the role the kernel/daemon layer automates).
"""

import pytest

from repro.hardware import CacheMode, Machine, MachineConfig
from repro.hardware.nic import OPTEntry
from repro.sim import spawn


PAGE = 4096

# When the frozen packet of the receive-freeze scenario lands (and the
# run ends), in microseconds: pinned exactly, not within a tolerance.
LANDED_AFTER_FREEZE = 21.987229110512132


def make_machine(**kwargs):
    return Machine(MachineConfig(**kwargs) if kwargs else None)


def bind_au(machine, src_node, src_page, dst_node, dst_page, npages=1, **flags):
    """Hand-wire an AU binding plus the receiving IPT enables."""
    for i in range(npages):
        machine.node(src_node).nic.opt.bind_page(
            src_page + i, OPTEntry(dst_node=dst_node, dst_page=dst_page + i, **flags)
        )
        machine.node(dst_node).nic.ipt.enable(dst_page + i)


def test_automatic_update_moves_bytes_to_remote_node():
    machine = make_machine()
    bind_au(machine, 0, 16, 1, 32)
    payload = b"automatic update!"

    def sender():
        yield from machine.node(0).cpu_write(16 * PAGE, payload, CacheMode.WRITE_THROUGH)

    spawn(machine.sim, sender())
    machine.run()
    assert machine.node(1).peek(32 * PAGE, len(payload)) == payload
    # Local memory also updated (it is a normal store):
    assert machine.node(0).peek(16 * PAGE, len(payload)) == payload


def test_au_word_latency_in_paper_range():
    """One-word AU, write-through: the paper measured 4.75 us user-to-user.
    At the hardware level (no library polling), it must be below that."""
    machine = make_machine()
    bind_au(machine, 0, 16, 1, 32, use_timer=False)
    arrival = {}
    machine.node(1).memory.add_watch(
        32 * PAGE, 4, lambda p, n: arrival.setdefault("t", machine.sim.now)
    )

    def sender():
        yield from machine.node(0).cpu_write(16 * PAGE, b"\x01\x02\x03\x04",
                                             CacheMode.WRITE_THROUGH)
        machine.node(0).nic.packetizer.flush()

    spawn(machine.sim, sender())
    machine.run()
    assert 2.0 < arrival["t"] < 4.75


def test_deliberate_update_moves_bytes():
    machine = make_machine()
    dst = machine.node(2)
    dst.nic.ipt.enable(40)
    proxy = machine.node(0).nic.opt.allocate_proxy([OPTEntry(dst_node=2, dst_page=40)])
    src_paddr = 8 * PAGE
    payload = bytes(range(64))
    machine.node(0).poke(src_paddr, payload)

    def sender():
        done = machine.node(0).nic.initiate_deliberate_update(
            src_segments=[(src_paddr, 64)], opt_base=proxy, offset=0, size=64
        )
        yield done

    proc = spawn(machine.sim, sender())
    machine.run()
    assert proc.ok
    assert dst.peek(40 * PAGE, 64) == payload


def test_deliberate_update_chunks_large_transfer():
    machine = make_machine()
    npages = 3
    first_dst_page = 50
    for i in range(npages):
        machine.node(1).nic.ipt.enable(first_dst_page + i)
    proxy = machine.node(0).nic.opt.allocate_proxy(
        [OPTEntry(dst_node=1, dst_page=first_dst_page + i) for i in range(npages)]
    )
    size = 3 * PAGE
    payload = bytes((i * 7) % 256 for i in range(size))
    machine.node(0).poke(4 * PAGE, payload)

    def sender():
        done = machine.node(0).nic.initiate_deliberate_update(
            src_segments=[(4 * PAGE, size)], opt_base=proxy, offset=0, size=size
        )
        yield done

    spawn(machine.sim, sender())
    machine.run()
    assert machine.node(1).peek(first_dst_page * PAGE, size) == payload
    stats = machine.node(0).nic.stats()
    assert stats["packets_formed"] >= size // machine.config.max_packet_payload


def test_du_from_scattered_physical_segments():
    """User pages need not be physically contiguous; the DU command's
    segment list stitches them."""
    machine = make_machine()
    machine.node(1).nic.ipt.enable(60)
    proxy = machine.node(0).nic.opt.allocate_proxy([OPTEntry(dst_node=1, dst_page=60)])
    machine.node(0).poke(10 * PAGE, b"AAAA")
    machine.node(0).poke(99 * PAGE, b"BBBB")

    def sender():
        done = machine.node(0).nic.initiate_deliberate_update(
            src_segments=[(10 * PAGE, 4), (99 * PAGE, 4)],
            opt_base=proxy, offset=0, size=8,
        )
        yield done

    spawn(machine.sim, sender())
    machine.run()
    assert machine.node(1).peek(60 * PAGE, 8) == b"AAAABBBB"


def _receive_freeze():
    """A packet for a non-enabled page; the 'kernel' enables the page
    and unfreezes.  Returns the machine, the faults it was handed, and
    the instant the payload landed."""
    machine = make_machine()
    nic1 = machine.node(1).nic
    faults = []
    landed = []

    def fault_handler(fault):
        faults.append(fault)
        nic1.ipt.enable(fault.paddr // PAGE)
        nic1.unfreeze()

    nic1.fault_handler = fault_handler
    machine.node(1).memory.add_watch(
        32 * PAGE, 4, lambda p, n: landed.append(machine.sim.now))
    # Bind AU without enabling the receive page:
    machine.node(0).nic.opt.bind_page(16, OPTEntry(dst_node=1, dst_page=32))

    def sender():
        yield from machine.node(0).cpu_write(16 * PAGE, b"\xde\xad\xbe\xef",
                                             CacheMode.WRITE_THROUGH)
        machine.node(0).nic.packetizer.flush()

    spawn(machine.sim, sender())
    machine.run()
    return machine, faults, landed


def test_receive_fault_freezes_until_kernel_unfreezes():
    """A packet for a non-enabled page freezes the receive path and
    interrupts the CPU; after the 'kernel' enables the page and
    unfreezes, the transfer completes."""
    machine, faults, _ = _receive_freeze()
    nic1 = machine.node(1).nic
    assert len(faults) == 1
    assert faults[0].src_node == 0
    assert machine.node(1).peek(32 * PAGE, 4) == b"\xde\xad\xbe\xef"
    assert nic1.stats()["receive_faults"] == 1


def test_receive_freeze_landing_time_is_exact():
    """The freeze scenario above, pinned to the ulp: lookup, freeze,
    interrupt latency, unfreeze, re-check, DMA setup and bus time."""
    machine, _, landed = _receive_freeze()
    assert landed == [LANDED_AFTER_FREEZE]
    assert machine.sim.now == LANDED_AFTER_FREEZE


def test_notification_interrupt_requires_both_flags():
    """Interrupt fires only when sender AND receiver flags are set."""
    results = {}
    for receiver_flag in (False, True):
        machine = make_machine()
        notifications = []
        machine.node(1).nic.notify_handler = (
            lambda page, size: notifications.append(page)
        )
        machine.node(0).nic.opt.bind_page(
            16, OPTEntry(dst_node=1, dst_page=32, dest_interrupt=True, use_timer=False)
        )
        machine.node(1).nic.ipt.enable(32, interrupt=receiver_flag)

        def sender(machine=machine):
            yield from machine.node(0).cpu_write(
                16 * PAGE, b"\x01\x02\x03\x04", CacheMode.WRITE_THROUGH
            )
            machine.node(0).nic.packetizer.flush()

        spawn(machine.sim, sender())
        machine.run()
        results[receiver_flag] = list(notifications)
    assert results[False] == []
    assert results[True] == [32]


def test_eisa_bus_is_shared_between_du_and_incoming():
    """DU source reads and incoming DMA writes on the same node contend
    for one EISA bus: concurrent activity stretches completion time."""
    # Node 1 simultaneously sends a big DU to node 0 and receives a big
    # DU from node 0; compare with node 1 only receiving.
    def run(send_back: bool) -> float:
        machine = make_machine()
        size = 8 * PAGE
        for node, first_page in ((1, 100), (0, 100)):
            for i in range(8):
                machine.node(node).nic.ipt.enable(first_page + i)
        proxy01 = machine.node(0).nic.opt.allocate_proxy(
            [OPTEntry(dst_node=1, dst_page=100 + i) for i in range(8)]
        )
        proxy10 = machine.node(1).nic.opt.allocate_proxy(
            [OPTEntry(dst_node=0, dst_page=100 + i) for i in range(8)]
        )
        machine.node(0).poke(4 * PAGE, bytes(size))
        machine.node(1).poke(4 * PAGE, bytes(size))
        finish = {}

        def watch_arrival():
            machine.node(1).memory.add_watch(
                (100 + 7) * PAGE + PAGE - 4, 4,
                lambda p, n: finish.setdefault("t", machine.sim.now),
            )

        watch_arrival()

        def sender0():
            done = machine.node(0).nic.initiate_deliberate_update(
                [(4 * PAGE, size)], proxy01, 0, size
            )
            yield done

        def sender1():
            done = machine.node(1).nic.initiate_deliberate_update(
                [(4 * PAGE, size)], proxy10, 0, size
            )
            yield done

        spawn(machine.sim, sender0())
        if send_back:
            spawn(machine.sim, sender1())
        machine.run()
        return finish["t"]

    assert run(send_back=True) > run(send_back=False)
