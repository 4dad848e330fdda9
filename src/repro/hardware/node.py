"""One SHRIMP node: a DEC 560ST PC with the custom NIC installed.

The node owns its physical memory, the EISA bus, and the network
interface, and exposes the CPU's view of memory: timed stores and loads
that go through the cache-mode cost model and feed the NIC's snoop
logic.  Address translation lives a layer up, in the OS model
(:mod:`repro.kernel.vm`); the node deals in physical addresses only.
"""

from __future__ import annotations

from typing import Optional

from ..sim import FaultInjector, Resource, Simulator, Tracer
from .bus import EisaBus
from .config import CacheMode, MachineConfig
from .memory import PhysicalMemory
from .nic.interface import NetworkInterface
from .router.mesh import MeshBackplane

__all__ = ["Node"]


class Node:
    """Hardware of one PC node."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        node_id: int,
        mesh: MeshBackplane,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.tracer = tracer or Tracer(sim)
        self.faults = faults or FaultInjector(sim)
        self.memory = PhysicalMemory(config, node_id)
        self.eisa = EisaBus(sim, config, node_id, faults=self.faults)
        self.eisa.tracer = self.tracer
        self.eisa.track = "n%d.bus.eisa" % node_id
        self.nic = NetworkInterface(
            sim, config, node_id, self.memory, self.eisa, mesh, self.tracer,
            faults=self.faults,
        )
        # Optional CPU scheduler: None means the historical model where
        # every process computes on its own infinite CPU (handlers on
        # one node never contend).  ``enable_cpu`` turns contention on
        # for overload studies; with it off every timed path is
        # byte-identical to the uncontended machine.
        self.cpu: Optional[Resource] = None

    def enable_cpu(self, slots: int = 1) -> Resource:
        """Model this node's CPU as ``slots`` schedulable execution slots.

        Idempotent: a second call returns the existing scheduler (the
        slot count of the first call wins).  Processes opt in per
        compute call via :meth:`repro.kernel.process.UserProcess.compute`'s
        ``priority`` argument — lower values run first, matching
        :class:`~repro.sim.Resource` semantics.
        """
        if self.cpu is None:
            self.cpu = Resource(self.sim, capacity=slots,
                                name="n%d.cpu" % self.node_id)
        return self.cpu

    # -- the CPU's memory operations ------------------------------------------
    def cpu_write(self, paddr: int, data: bytes, mode: CacheMode):
        """Timed CPU store: charge the cache-model cost, store the bytes,
        and present the write to the NIC's snoop logic.

        Generator — the caller's process pays the time.  The snoop sees
        the write *after* the store retires, matching the bus ordering.
        """
        cost = self.config.write_cost(mode, len(data))
        yield self.sim.timeout(cost)
        self.memory.write(paddr, data)
        self.nic.snoop_write(paddr, data)

    def cpu_read(self, paddr: int, nbytes: int, mode: CacheMode):
        """Timed CPU load; returns the bytes."""
        cost = self.config.read_cost(mode, nbytes)
        yield self.sim.timeout(cost)
        return self.memory.read(paddr, nbytes)

    def cpu_copy(self, src_paddr: int, dst_paddr: int, nbytes: int,
                 src_mode: CacheMode, dst_mode: CacheMode):
        """Timed CPU memcpy between physical ranges (read + write cost).

        The destination write is snooped, so copying into an AU-bound
        region *is* the send operation — the paper's 'extra copy' that
        automatic update trades for not needing an explicit send.
        """
        cost = self.config.copy_cost(src_mode, dst_mode, nbytes)
        yield self.sim.timeout(cost)
        data = self.memory.read(src_paddr, nbytes)
        self.memory.write(dst_paddr, data)
        self.nic.snoop_write(dst_paddr, data)

    # -- zero-cost debug access (test assertions, not simulated work) -----------
    def peek(self, paddr: int, nbytes: int) -> bytes:
        """Untimed read for test assertions."""
        return self.memory.read(paddr, nbytes)

    def poke(self, paddr: int, data: bytes) -> None:
        """Untimed store that still fires watches but is NOT snooped.

        For test setup only — production code paths must use cpu_write.
        """
        self.memory.write(paddr, data)
