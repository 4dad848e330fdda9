"""Arbiter for the NIC chip's processor port.

'The Arbiter is needed to share the NIC's processor port between
outgoing and incoming transfer, with incoming given absolute priority.'
Modeled as a single-slot lock with two priority classes: the incoming
DMA engine claims it at priority 0, the outgoing injection stage at
priority 1.  Both claimants are scheduled callbacks, not processes, so
a claim carries the callback to resume instead of a per-grant event
(docs/SIMULATOR.md, "NIC stages as callbacks").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional

from ...sim import Simulator
from ...sim.core import URGENT

__all__ = ["Arbiter", "INCOMING_PRIORITY", "OUTGOING_PRIORITY"]

INCOMING_PRIORITY = 0
OUTGOING_PRIORITY = 1


class Arbiter:
    """The NIC-port arbiter of one network interface.

    :meth:`acquire` grants a free port at once (the caller proceeds in
    place) or queues the claim.  :meth:`release` hands the port to the
    oldest claim of the best priority and runs its callback as an
    URGENT entry at the release instant, the entry a granted
    :class:`~repro.sim.Request` gives its waiting process.  Busy time,
    arbitration wait and grant count accumulate with exactly the float
    arithmetic of ``Resource(capacity=1)``, the reference the arbiter
    property test holds it to.
    """

    def __init__(self, sim: Simulator, node_id: int):
        self.sim = sim
        self.name = "arbiter-n%d" % node_id
        self._held = False
        # One FIFO of (requested_at, fn, args) per priority class; both
        # are empty whenever the port is free.
        self._waiting = (deque(), deque())
        self.busy_time = 0.0
        self.wait_time = 0.0
        self.grants = 0
        self._busy_since: Optional[float] = None

    @property
    def queue_length(self) -> int:
        """Claims waiting for the port."""
        return len(self._waiting[0]) + len(self._waiting[1])

    def acquire(self, priority: int, fn: Callable, *args: Any) -> bool:
        """Claim the port; True if granted now, else ``fn(*args)`` runs
        at the grant."""
        if self._held:
            self._waiting[priority].append((self.sim.now, fn, args))
            return False
        self._held = True
        self._busy_since = self.sim.now
        self.grants += 1
        return True

    def release(self) -> None:
        """Give the port back; the next claim, if any, takes it now."""
        now = self.sim.now
        self.busy_time += now - self._busy_since
        for waiting in self._waiting:
            if waiting:
                requested_at, fn, args = waiting.popleft()
                self._busy_since = now
                self.wait_time += now - requested_at
                self.grants += 1
                self.sim.schedule_call(0.0, fn, *args, priority=URGENT)
                return
        self._held = False
        self._busy_since = None

    def metrics_snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Utilization counters for the metrics registry."""
        now = self.sim.now if now is None else now
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return {
            "name": self.name,
            "kind": "resource",
            "busy_time": busy,
            "count": self.grants,
            "wait_time": self.wait_time,
        }
