"""The node's EISA expansion bus.

The EISA bus carries the NIC's DMA traffic — deliberate-update source
reads and incoming-packet writes — plus the programmed-I/O accesses
that initiate deliberate updates.  It is modeled as a serially-occupied
bandwidth channel, the end-to-end bottleneck of the system, as in the
paper (~23 MB/s effective after per-packet setup costs).

The node's other bus, the Xpress memory bus, has no channel of its own:
CPU store/load *costs* are charged by the cache model
(config.write_cost/read_cost), and modeling Xpress contention on top
does not close the 7 KB socket-streaming deviation (docs/CALIBRATION.md,
"Known deviations").
"""

from __future__ import annotations

from typing import Optional

from ..sim import BandwidthChannel, FaultInjector, FaultSite, Simulator
from .config import MachineConfig

__all__ = ["EisaBus"]


class EisaBus(BandwidthChannel):
    """The EISA expansion bus of one node.

    Hosts the ``bus.eisa`` fault site: a ``degrade`` fault divides the
    bus bandwidth by ``factor`` for ``duration_us`` (a flaky card or a
    bus-hog peripheral stealing cycles).  Transfers that start inside
    the window take proportionally longer; the window opens when the
    first transfer at or after the fault's time crosses the bus.
    """

    def __init__(self, sim: Simulator, config: MachineConfig, node_id: int,
                 faults: Optional[FaultInjector] = None):
        super().__init__(
            sim,
            bandwidth=config.eisa_dma_bandwidth,
            name="eisa-n%d" % node_id,
        )
        self.config = config
        self.node_id = node_id
        self.faults = faults or FaultInjector(sim)
        self.pio_accesses = 0
        self._degraded_until = 0.0
        self._degrade_factor = 1.0
        self.degrade_windows = 0

    def occupancy(self, nbytes: int) -> float:
        """Channel time for one transfer, stretched while degraded."""
        base = super().occupancy(nbytes)
        if self.sim.now < self._degraded_until:
            return base * self._degrade_factor
        return base

    def reserve(self, nbytes: int) -> float:
        """Book a DMA transfer, consulting the fault site first."""
        if self.faults.enabled:
            fault = self.faults.draw(FaultSite.BUS_EISA, node=self.node_id)
            if fault is not None:
                self._degrade_factor = fault.params.get("factor", 4.0)
                self._degraded_until = self.sim.now + fault.params.get(
                    "duration_us", 200.0
                )
                self.degrade_windows += 1
        return super().reserve(nbytes)

    def pio_cost(self, accesses: int = 1) -> float:
        """CPU time of ``accesses`` programmed-I/O accesses decoded by the NIC.

        A deliberate update is initiated by a sequence of two of these.
        Counts them now; a caller that sleeps first takes the time from
        :meth:`pio_time` and counts ``pio_accesses`` after the sleep.
        """
        self.pio_accesses += accesses
        return self.pio_time(accesses)

    def pio_time(self, accesses: int = 1) -> float:
        """CPU time of ``accesses`` programmed-I/O accesses, uncounted."""
        return accesses * self.config.eisa_pio_access

