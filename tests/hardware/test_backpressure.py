"""Backpressure and arbitration behaviour of the NIC datapath."""

import pathlib

import pytest

from repro.hardware import CacheMode, Machine, MachineConfig
from repro.hardware.nic import OPTEntry
from repro.sim import spawn

PAGE = 4096


def test_tiny_outgoing_fifo_still_delivers_everything():
    """A 2-packet outgoing FIFO forces the packetizer to stall; all data
    still arrives, in order."""
    machine = Machine(MachineConfig(outgoing_fifo_packets=2))
    for i in range(4):
        machine.node(0).nic.opt.bind_page(
            16 + i, OPTEntry(dst_node=1, dst_page=32 + i)
        )
        machine.node(1).nic.ipt.enable(32 + i)
    payload = bytes((i * 3) % 256 for i in range(4 * PAGE))

    def sender():
        yield from machine.node(0).cpu_write(16 * PAGE, payload,
                                             CacheMode.WRITE_THROUGH)
        machine.node(0).nic.packetizer.flush()

    spawn(machine.sim, sender())
    machine.run()
    assert machine.node(1).peek(32 * PAGE, 4 * PAGE) == payload
    assert machine.node(0).nic.fifo.high_water <= 2


def test_tiny_incoming_queue_still_delivers_everything():
    machine = Machine(MachineConfig(incoming_queue_packets=1))
    for i in range(2):
        machine.node(0).nic.opt.bind_page(16 + i, OPTEntry(dst_node=1, dst_page=32 + i))
        machine.node(1).nic.ipt.enable(32 + i)
    payload = bytes(range(256)) * 32  # 8 KB

    def sender():
        yield from machine.node(0).cpu_write(16 * PAGE, payload,
                                             CacheMode.WRITE_THROUGH)
        machine.node(0).nic.packetizer.flush()

    spawn(machine.sim, sender())
    machine.run()
    assert machine.node(1).peek(32 * PAGE, len(payload)) == payload


def _priority_flood(flood: bool):
    """Node 1 sends one packet to node 2 at t=400 while (optionally)
    receiving a 40-packet flood from node 0.  Returns the victim's
    arrival instant and every flood landing instant on node 1."""
    machine = Machine()
    machine.node(1).nic.opt.bind_page(16, OPTEntry(dst_node=2, dst_page=40))
    machine.node(2).nic.ipt.enable(40)
    machine.node(0).nic.opt.bind_page(16, OPTEntry(dst_node=1, dst_page=48))
    machine.node(1).nic.ipt.enable(48)
    arrival = {}
    landings = []
    machine.node(2).memory.add_watch(
        40 * PAGE, 4, lambda p, n: arrival.setdefault("t", machine.sim.now)
    )
    machine.node(1).memory.add_watch(
        48 * PAGE, PAGE, lambda p, n: landings.append(machine.sim.now)
    )

    def flooder():
        for _ in range(40):
            yield from machine.node(0).cpu_write(
                16 * PAGE, bytes(1024), CacheMode.WRITE_THROUGH
            )
        machine.node(0).nic.packetizer.flush()

    def victim_sender():
        yield machine.sim.timeout(400.0)  # mid-flood
        yield from machine.node(1).cpu_write(
            16 * PAGE, b"\x01\x02\x03\x04", CacheMode.WRITE_THROUGH
        )
        machine.node(1).nic.packetizer.flush()

    if flood:
        spawn(machine.sim, flooder())
    spawn(machine.sim, victim_sender())
    machine.run()
    return arrival["t"], landings


def test_incoming_traffic_has_arbiter_priority():
    """'The Arbiter is needed to share the NIC's processor port...
    with incoming given absolute priority.'  While a node is flooded
    with incoming packets, its own outgoing injection makes progress
    only between them — outgoing completion is later than in the quiet
    case."""
    quiet, _ = _priority_flood(flood=False)
    contended, _ = _priority_flood(flood=True)
    assert contended > quiet


def test_priority_flood_landing_times_are_exact():
    """The flood scenario above, pinned to the ulp: the victim's
    arrival in both runs and every flood landing instant."""
    quiet, quiet_landings = _priority_flood(flood=False)
    contended, landings = _priority_flood(flood=True)
    lines = ["quiet %r" % quiet, "contended %r" % contended]
    lines += ["land %r" % t for t in landings]
    assert quiet_landings == []
    golden = pathlib.Path(__file__).parent / "goldens" / "priority_flood.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()


def test_fifo_statistics_track_traffic():
    machine = Machine()
    machine.node(0).nic.opt.bind_page(16, OPTEntry(dst_node=1, dst_page=32))
    machine.node(1).nic.ipt.enable(32)

    def sender():
        yield from machine.node(0).cpu_write(16 * PAGE, bytes(2048),
                                             CacheMode.WRITE_THROUGH)
        machine.node(0).nic.packetizer.flush()

    spawn(machine.sim, sender())
    machine.run()
    fifo = machine.node(0).nic.fifo
    assert fifo.packets_enqueued >= 2
    assert fifo.bytes_enqueued == 2048
    assert len(fifo) == 0  # drained
