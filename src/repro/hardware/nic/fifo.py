"""The Outgoing FIFO: closed packets waiting for the NIC chip.

A thin wrapper over :class:`repro.sim.Store` that adds occupancy
statistics (and a ``metrics_snapshot`` for the machine's
:class:`~repro.sim.MetricsRegistry`).  Capacity is in packets; a full
FIFO backpressures the packetizer (its packets wait, in order, for a
free slot), which is how a slow link ultimately stalls the sending
CPU's deliberate-update engine.

The one consumer, the NIC's injection stage, is a scheduled callback:
it drains the FIFO with :meth:`try_get` and, on finding it empty, parks
itself with :meth:`wait`, so the next :meth:`put` hands it the packet
with no event in between.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...sim import Event, Simulator, Store
from ..config import MachineConfig
from ..router.packet import Packet

__all__ = ["OutgoingFifo"]


class OutgoingFifo:
    """FIFO of closed packets between the packetizer and the arbiter."""

    def __init__(self, sim: Simulator, config: MachineConfig, name: str = "outgoing-fifo"):
        self.sim = sim
        self.config = config
        self._store = Store(sim, capacity=config.outgoing_fifo_packets, name=name)
        self._consumer: Optional[Callable[[Packet], None]] = None
        self.packets_enqueued = 0
        self.bytes_enqueued = 0
        self.high_water = 0

    def put(self, packet: Packet) -> None:
        """Enqueue a packet; while the FIFO is full it waits its turn.

        A consumer parked by :meth:`wait` gets the packet in place, so
        a put must be the last action of a NORMAL scheduler entry (the
        packetizer's timed FIFO entry is): running the consumer here is
        then order-identical to waking it (docs/SIMULATOR.md).
        """
        self.packets_enqueued += 1
        self.bytes_enqueued += packet.size
        store = self._store
        if not store.try_put(packet):
            store.put(packet)  # full: enters in FIFO order once room frees
        consumer = self._consumer
        if consumer is not None:
            # A parked consumer implies an empty FIFO, so the put above
            # went straight in and this takes it back out.
            self._consumer = None
            packet = store.try_get()
        self.high_water = max(self.high_water, len(store))
        if consumer is not None:
            consumer(packet)

    def wait(self, consumer: Callable[[Packet], None]) -> None:
        """Park the single consumer on the empty FIFO until the next put."""
        self._consumer = consumer

    def get(self) -> Event:
        """Dequeue the oldest packet as an event (for process consumers)."""
        return self._store.get()

    def try_get(self, default=None):
        """Non-blocking dequeue; ``default`` when the FIFO is empty."""
        return self._store.try_get(default)

    def __len__(self) -> int:
        return len(self._store)

    def metrics_snapshot(self, now=None) -> dict:
        """Utilization counters for the metrics registry."""
        snap = self._store.metrics_snapshot(now)
        snap["name"] = self._store.name
        snap["kind"] = "fifo"
        snap["bytes"] = self.bytes_enqueued
        return snap
