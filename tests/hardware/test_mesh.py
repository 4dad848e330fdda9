"""Unit tests for the mesh backplane: routing, ordering, timing."""

import itertools

import pytest

from repro.hardware import MachineConfig
from repro.hardware.router import MeshBackplane, Packet, PacketKind
from repro.hardware.router.imrc import RouterNode
from repro.sim import Simulator


def make_mesh(config=None):
    sim = Simulator()
    config = config or MachineConfig.shrimp_prototype()
    mesh = MeshBackplane(sim, config)
    return sim, config, mesh


# Hand-built packets are numbered here, as a NIC's packetizer numbers
# its packets from the backplane's counter.
_numbers = itertools.count(1)


def packet(src, dst, payload=b"\x01\x02\x03\x04", paddr=0x10000):
    return Packet(
        src_node=src, dst_node=dst, dst_paddr=paddr,
        payload=payload, kind=PacketKind.AUTOMATIC_UPDATE,
        seq=next(_numbers),
    )


def test_hop_count_on_2x2_mesh():
    _sim, _config, mesh = make_mesh()
    assert mesh.hops(0, 1) == 1   # (0,0) -> (1,0)
    assert mesh.hops(0, 3) == 2   # (0,0) -> (1,1)
    assert mesh.hops(2, 1) == 2
    assert mesh.hops(1, 1) == 0


def test_inject_requires_attached_receiver():
    _sim, _config, mesh = make_mesh()
    with pytest.raises(ValueError):
        mesh.inject(packet(0, 1))


def test_packet_delivered_to_destination_only():
    sim, _config, mesh = make_mesh()
    received = {n: [] for n in range(4)}
    for n in range(4):
        mesh.attach(n, lambda p, n=n: received[n].append(p))
    mesh.inject(packet(0, 3))
    sim.run()
    assert len(received[3]) == 1
    assert not received[0] and not received[1] and not received[2]


def test_double_attach_rejected():
    _sim, _config, mesh = make_mesh()
    mesh.attach(0, lambda p: None)
    with pytest.raises(ValueError):
        mesh.attach(0, lambda p: None)


def test_more_hops_means_more_latency():
    times = {}
    for dst in (1, 3):
        sim, _config, mesh = make_mesh()
        for n in range(4):
            mesh.attach(n, lambda p, n=n: times.__setitem__((dst, n), sim.now))
        mesh.inject(packet(0, dst))
        sim.run()
    assert times[(3, 3)] > times[(1, 1)]


def test_larger_packets_take_longer():
    arrivals = {}
    for size in (4, 4096):
        sim, config, mesh = make_mesh(MachineConfig(max_packet_payload=8192))
        mesh.attach(1, lambda p: arrivals.__setitem__(p.size, sim.now))
        for n in (0, 2, 3):
            mesh.attach(n, lambda p: None)
        mesh.inject(packet(0, 1, payload=bytes(size)))
        sim.run()
    assert arrivals[4096] > arrivals[4]


def test_per_pair_ordering_preserved():
    """Packets from one source to one destination arrive in injection
    order — the property VMMC's in-order guarantee is built on."""
    sim, _config, mesh = make_mesh()
    got = []
    for n in range(4):
        mesh.attach(n, lambda p, n=n: got.append(p.seq) if n == 3 else None)
    packets = [packet(0, 3, payload=bytes([i + 1] * (4 + 100 * i))) for i in range(5)]
    for p in packets:
        mesh.inject(p)
    sim.run()
    assert got == [p.seq for p in packets]


def test_link_serialization_delays_second_packet():
    """Two same-path packets injected back-to-back: the second's arrival
    is pushed out by link occupancy (wormhole blocking)."""
    config = MachineConfig(max_packet_payload=8192)
    sim, _config, mesh = make_mesh(config)
    arrivals = []
    mesh.attach(1, lambda p: arrivals.append((p.seq, sim.now)))
    for n in (0, 2, 3):
        mesh.attach(n, lambda p: None)
    big = packet(0, 1, payload=bytes(8000))
    small = packet(0, 1, payload=b"\xff" * 4)
    mesh.inject(big)
    mesh.inject(small)
    sim.run()
    assert arrivals[0][0] == big.seq
    gap = arrivals[1][1] - arrivals[0][1]
    # The small packet had to wait for the big one to drain the link;
    # its arrival is at least close behind, never before.
    assert gap >= 0


def test_loopback_delivery_without_links():
    sim, _config, mesh = make_mesh()
    got = []
    mesh.attach(0, lambda p: got.append(sim.now))
    for n in (1, 2, 3):
        mesh.attach(n, lambda p: None)
    mesh.inject(packet(0, 0))
    sim.run()
    assert len(got) == 1
    assert got[0] > 0.0  # still pays NIC handoff + wire time


def test_byte_and_packet_counters():
    sim, _config, mesh = make_mesh()
    for n in range(4):
        mesh.attach(n, lambda p: None)
    mesh.inject(packet(0, 1, payload=bytes(100)))
    mesh.inject(packet(1, 2, payload=bytes(50)))
    sim.run()
    assert mesh.packets_routed == 2
    assert mesh.bytes_routed == 150
    assert sum(mesh.link_utilization().values()) > 0


class TestRouterNode:
    def test_dimension_order_x_first(self):
        sim = Simulator()
        config = MachineConfig.sixteen_node()
        router = RouterNode(sim, config, 0, 0)
        assert router.route_step(3, 2) == (1, 0)
        router_mid = RouterNode(sim, config, 3, 0)
        assert router_mid.route_step(3, 2) == (3, 1)

    def test_route_step_at_destination_raises(self):
        sim = Simulator()
        router = RouterNode(sim, MachineConfig.shrimp_prototype(), 1, 1)
        with pytest.raises(ValueError):
            router.route_step(1, 1)

    def test_link_to_non_neighbour_raises(self):
        sim = Simulator()
        config = MachineConfig.sixteen_node()
        a = RouterNode(sim, config, 0, 0)
        b = RouterNode(sim, config, 2, 0)
        with pytest.raises(ValueError):
            a.link_to(b)

    def test_link_reuse(self):
        sim = Simulator()
        config = MachineConfig.shrimp_prototype()
        a = RouterNode(sim, config, 0, 0)
        b = RouterNode(sim, config, 1, 0)
        assert a.link_to(b) is a.link_to(b)


def test_packet_requires_payload():
    with pytest.raises(ValueError):
        Packet(src_node=0, dst_node=1, dst_paddr=0, payload=b"",
               kind=PacketKind.AUTOMATIC_UPDATE)


def test_packet_payload_becomes_immutable_bytes():
    p = Packet(src_node=0, dst_node=1, dst_paddr=0,
               payload=bytearray(b"abc"), kind=PacketKind.DELIBERATE_UPDATE)
    assert isinstance(p.payload, bytes)
    assert p.wire_size(16) == 19
    assert p.end_paddr == 3
