"""Unit tests for the Ethernet control network and the node buses."""

import pytest

from repro.hardware import EisaBus, Ethernet, MachineConfig
from repro.hardware.config import CacheMode
from repro.hardware.machine import Machine
from repro.sim import Simulator, spawn


class TestEthernet:
    def make(self):
        sim = Simulator()
        return sim, Ethernet(sim, MachineConfig.shrimp_prototype())

    def test_send_and_receive(self):
        sim, eth = self.make()
        got = []

        def receiver():
            frame = yield eth.recv(1, 50)
            got.append((frame.src_node, frame.payload, sim.now))

        spawn(sim, receiver())
        eth.send(0, 1, 50, {"hello": True}, wire_bytes=200)
        sim.run()
        src, payload, when = got[0]
        assert src == 0
        assert payload == {"hello": True}
        # Slow: kernel-stack latency plus shared-medium time.
        config = MachineConfig.shrimp_prototype()
        assert when >= config.ethernet_latency

    def test_ports_are_independent(self):
        sim, eth = self.make()
        got = []

        def receiver(port):
            frame = yield eth.recv(1, port)
            got.append((port, frame.payload))

        spawn(sim, receiver(10))
        spawn(sim, receiver(11))
        eth.send(0, 1, 11, "for-eleven")
        eth.send(0, 1, 10, "for-ten")
        sim.run()
        assert sorted(got) == [(10, "for-ten"), (11, "for-eleven")]

    def test_per_sender_ordering(self):
        sim, eth = self.make()
        got = []

        def receiver():
            for _ in range(3):
                frame = yield eth.recv(2, 5)
                got.append(frame.payload)

        spawn(sim, receiver())
        for i in range(3):
            eth.send(0, 2, 5, i)
        sim.run()
        assert got == [0, 1, 2]

    def test_shared_medium_serializes(self):
        sim, eth = self.make()
        arrival = {}

        def receiver(node):
            frame = yield eth.recv(node, 5)
            arrival[node] = sim.now

        spawn(sim, receiver(1))
        spawn(sim, receiver(2))
        eth.send(0, 1, 5, "a", wire_bytes=1400)
        eth.send(3, 2, 5, "b", wire_bytes=1400)
        sim.run()
        # Both waited on the same wire: the second arrives later.
        assert abs(arrival[1] - arrival[2]) >= 1400 / MachineConfig().ethernet_bandwidth

    def test_frame_counter(self):
        sim, eth = self.make()
        eth.send(0, 1, 5, "x")
        eth.send(0, 1, 5, "y")
        assert eth.frames_sent == 2


class TestBuses:
    def test_eisa_pio_cost_counts_accesses(self):
        sim = Simulator()
        config = MachineConfig.shrimp_prototype()
        eisa = EisaBus(sim, config, node_id=0)
        cost = eisa.pio_cost(2)
        assert cost == 2 * config.eisa_pio_access
        assert eisa.pio_accesses == 2


class TestNodeCpuOps:
    def test_cpu_write_snooped_cpu_read_not(self):
        machine = Machine()
        node = machine.node(0)
        done = []

        def worker():
            yield from node.cpu_write(0x5000, b"abcd", CacheMode.WRITE_BACK)
            data = yield from node.cpu_read(0x5000, 4, CacheMode.WRITE_BACK)
            done.append(data)

        spawn(machine.sim, worker())
        machine.run()
        assert done == [b"abcd"]
        assert node.nic.snoop.writes_seen == 1

    def test_cpu_copy_snoops_destination(self):
        machine = Machine()
        node = machine.node(0)
        node.poke(0x1000, b"source!!")

        def worker():
            yield from node.cpu_copy(0x1000, 0x9000, 8,
                                     CacheMode.WRITE_BACK, CacheMode.WRITE_THROUGH)

        spawn(machine.sim, worker())
        machine.run()
        assert node.peek(0x9000, 8) == b"source!!"
        assert node.nic.snoop.writes_seen == 1

    def test_poke_is_not_snooped(self):
        machine = Machine()
        node = machine.node(0)
        node.poke(0x2000, b"quiet")
        assert node.nic.snoop.writes_seen == 0

    def test_machine_node_bounds(self):
        machine = Machine()
        with pytest.raises(ValueError):
            machine.node(99)
