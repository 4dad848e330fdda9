"""The assembled SHRIMP multicomputer hardware.

A :class:`Machine` is Figure 1 minus the software: N PC nodes with NICs,
the mesh routing backplane connecting them, and the commodity Ethernet
on the side.  The OS and daemon layers wrap this in
:class:`repro.kernel.system.ShrimpSystem`.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import FaultInjector, FaultPlan, MetricsRegistry, Simulator, Tracer
from .config import MachineConfig
from .ethernet import Ethernet
from .node import Node
from .router.mesh import MeshBackplane

__all__ = ["Machine"]


class Machine:
    """Hardware of the prototype: nodes + backplane + Ethernet.

    ``fault_plan`` arms a machine-wide :class:`FaultInjector` consulted
    by the mesh, the DMA engines, the EISA buses, and the combining
    timers (docs/FAULTS.md).  Without a plan the injector stays disabled
    and every hook is a single false attribute check — zero overhead.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 sim: Optional[Simulator] = None,
                 trace: bool = False,
                 fault_plan: Optional[FaultPlan] = None):
        self.config = config or MachineConfig.shrimp_prototype()
        self.sim = sim or Simulator()
        self.tracer = Tracer(self.sim, enabled=trace)
        self.faults = FaultInjector(self.sim, fault_plan, self.tracer)
        self.mesh = MeshBackplane(self.sim, self.config, self.tracer,
                                  faults=self.faults)
        self.ethernet = Ethernet(self.sim, self.config)
        self.nodes: List[Node] = [
            Node(self.sim, self.config, node_id, self.mesh, self.tracer,
                 faults=self.faults)
            for node_id in range(self.config.n_nodes)
        ]
        self.metrics = MetricsRegistry(self.sim)
        for node in self.nodes:
            self.metrics.register(node.eisa)
            self.metrics.register(node.nic.fifo)
            self.metrics.register(node.nic.arbiter)
            self.metrics.register(node.nic.du_engine)

    def node(self, node_id: int) -> Node:
        """The node with this id (ValueError if out of range)."""
        if not 0 <= node_id < len(self.nodes):
            raise ValueError("node id %d out of range" % node_id)
        return self.nodes[node_id]

    def run(self, until: Optional[float] = None):
        """Run the event loop (convenience passthrough)."""
        return self.sim.run(until=until)

    def stats(self) -> dict:
        """Machine-wide hardware counters."""
        return {
            "packets_routed": self.mesh.packets_routed,
            "bytes_routed": self.mesh.bytes_routed,
            "packets_delivered": self.mesh.packets_delivered,
            "packets_dropped": self.mesh.packets_dropped,
            "ethernet_frames": self.ethernet.frames_sent,
            "faults": self.faults.stats(),
            "nodes": {n.node_id: n.nic.stats() for n in self.nodes},
        }

    def utilization_report(self, min_count: int = 0) -> str:
        """Per-resource utilization across buses, FIFOs, arbiters, links.

        Mesh links are created lazily on first traffic, so any not yet
        registered are added here before rendering.
        """
        registered = set(id(entry) for entry in self.metrics._entries)
        for router in self.mesh.routers.values():
            for link in router.links.values():
                if id(link) not in registered:
                    self.metrics.register(link)
                    registered.add(id(link))
        for link in self.mesh._loopback.values():
            if id(link) not in registered:
                self.metrics.register(link)
                registered.add(id(link))
        return self.metrics.report(min_count=min_count)

    def stats_report(self) -> str:
        """A human-readable counter summary (for examples and debugging)."""
        stats = self.stats()
        lines = [
            "machine @ t=%.1f us: %d packets / %d bytes on the backplane, "
            "%d Ethernet frames"
            % (self.sim.now, stats["packets_routed"], stats["bytes_routed"],
               stats["ethernet_frames"])
        ]
        header = ("node", "au-writes", "packets", "combined", "du-bytes",
                  "recv-pkts", "faults")
        lines.append("  %-5s %10s %8s %9s %9s %10s %7s" % header)
        for node_id, node_stats in stats["nodes"].items():
            lines.append(
                "  %-5d %10d %8d %9d %9d %10d %7d"
                % (
                    node_id,
                    node_stats["au_writes_matched"],
                    node_stats["packets_formed"],
                    node_stats["combined_writes"],
                    node_stats["du_bytes"],
                    node_stats["packets_received"],
                    node_stats["receive_faults"],
                )
            )
        return "\n".join(lines)
