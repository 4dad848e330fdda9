"""Contention primitives: resources, stores, and bandwidth channels.

Three shapes of contention appear in the SHRIMP model:

* :class:`Resource` — N interchangeable slots with a priority queue of
  waiters.  Models the node CPU (interrupt handlers preempt at higher
  priority than user code in the queue sense) and bus mastership.
* :class:`Store` — a bounded FIFO of items.  Models the NIC's outgoing
  FIFO and router input queues; ``put`` blocks when full (backpressure),
  ``get`` blocks when empty.
* :class:`BandwidthChannel` — a serial link that carries one transfer at a
  time at a fixed bytes-per-microsecond rate.  Models bus data phases and
  mesh links, preserving per-link FIFO order (the property the Paragon
  backplane guarantees and the libraries rely on).

All three keep always-on utilization accounting (busy time, arbitration
waits, queue-depth integrals) — a handful of float operations per
event, cheap enough to leave on.  A :class:`MetricsRegistry` collects
any number of them and renders the per-resource utilization report
("EISA bus 87% busy") that :mod:`repro.sim.export`'s Chrome traces
complement; see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, List, Optional, Tuple

from .core import Event, Simulator

__all__ = ["Request", "Resource", "Store", "BandwidthChannel", "MetricsRegistry"]


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted.

    Use as ``req = resource.request(); yield req; ...; resource.release(req)``.
    """

    __slots__ = ("resource", "priority", "_order", "requested_at", "_state")

    _QUEUED, _HELD, _DONE = range(3)

    def __init__(self, resource: "Resource", priority: int, order: int):
        Event.__init__(self, resource.sim)
        self.resource = resource
        self.priority = priority
        self._order = order
        self.requested_at = resource.sim.now
        self._state = Request._QUEUED

    def _label(self) -> str:
        return "Request(%s)" % self.resource.name

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` slots granted to waiters in (priority, FIFO) order.

    Lower ``priority`` values are served first; the default priority is 0.
    Accounts busy time (any slot held) and the total time requests spent
    queued before their grant — the "arbitration wait" the utilization
    report attributes per resource.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._holders: List[Request] = []
        # Waiters live in a (priority, order) heap; cancelled requests
        # stay in the heap (lazy deletion, skipped at grant time) and
        # ``_queued`` tracks the live count.  This replaces an O(n)
        # ``min`` + ``remove`` scan per grant that dominated profiles of
        # contended runs.
        self._pending: List[Tuple[int, int, Request]] = []
        self._queued = 0
        self._order = 0
        self.busy_time = 0.0
        self.wait_time = 0.0
        self.grants = 0
        self._busy_since: Optional[float] = None

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        return self._queued

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        self._order += 1
        req = Request(self, priority, self._order)
        heappush(self._pending, (priority, self._order, req))
        self._queued += 1
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Give back a granted slot (or cancel a still-queued request)."""
        state = request._state
        if state == Request._HELD:
            request._state = Request._DONE
            self._holders.remove(request)
            if not self._holders and self._busy_since is not None:
                self.busy_time += self.sim.now - self._busy_since
                self._busy_since = None
            self._grant()
        elif state == Request._QUEUED:
            request._state = Request._DONE
            self._queued -= 1
        else:
            raise ValueError("request %r does not hold %s" % (request, self.name))

    def _grant(self) -> None:
        pending = self._pending
        holders = self._holders
        while self._queued and len(holders) < self.capacity:
            req = heappop(pending)[2]
            if req._state != Request._QUEUED:
                continue  # cancelled while queued; heap entry is stale
            req._state = Request._HELD
            if not holders:
                self._busy_since = self.sim.now
            holders.append(req)
            self._queued -= 1
            self.wait_time += self.sim.now - req.requested_at
            self.grants += 1
            req.succeed(self)

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


class Store:
    """A bounded FIFO buffer of items with blocking put/get.

    ``capacity`` is in *items*; callers that need byte-capacity semantics
    (the outgoing FIFO) track byte occupancy themselves and use the item
    bound as a packet bound.  A time-weighted occupancy integral and the
    high-water mark are kept for the utilization report.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = "store"):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()
        self.puts = 0
        self.high_water = 0
        self._occupancy_integral = 0.0
        self._occupancy_since = 0.0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[Any, ...]:
        """A read-only snapshot of buffered items (for tests/inspection)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Append ``item``; the event triggers once there is room."""
        event = Event(self.sim)
        self._putters.append((event, item))
        self._settle()
        return event

    def get(self) -> Event:
        """Pop the oldest item; the event's value is the item."""
        event = Event(self.sim)
        self._getters.append(event)
        self._settle()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if len(self._items) >= self.capacity:
            return False
        self._account()
        self._items.append(item)
        self.puts += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        # Only getters can make progress after a put (waiting putters
        # imply the store was already full, contradicting the append).
        if self._getters:
            self._settle()
        return True

    def try_get(self, default: Any = None) -> Any:
        """Non-blocking get; returns ``default`` when nothing is buffered.

        ``default`` disambiguates an empty store from a buffered item
        that is itself None (e.g. a shutdown sentinel) — pass a private
        sentinel object when None items are possible.
        """
        if not self._items:
            return default
        self._account()
        item = self._items.popleft()
        # Only putters can make progress after a get (waiting getters
        # imply the store was already empty, contradicting the pop).
        if self._putters:
            self._settle()
        return item

    def _account(self) -> None:
        now = self.sim.now
        self._occupancy_integral += len(self._items) * (now - self._occupancy_since)
        self._occupancy_since = now

    def _settle(self) -> None:
        items = self._items
        putters = self._putters
        getters = self._getters
        while True:
            progressed = False
            if putters and len(items) < self.capacity:
                event, item = putters.popleft()
                self._account()
                items.append(item)
                self.puts += 1
                if len(items) > self.high_water:
                    self.high_water = len(items)
                event.succeed(item)
                progressed = True
            if getters and items:
                event = getters.popleft()
                self._account()
                event.succeed(items.popleft())
                progressed = True
            if not progressed:
                return

    def mean_depth(self, now: Optional[float] = None) -> float:
        """Time-averaged number of buffered items since t=0."""
        now = self.sim.now if now is None else now
        if now <= 0.0:
            return float(len(self._items))
        integral = self._occupancy_integral + len(self._items) * (now - self._occupancy_since)
        return integral / now

    def metrics_snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Utilization counters for the metrics registry."""
        return {
            "name": self.name,
            "kind": "store",
            "count": self.puts,
            "high_water": self.high_water,
            "mean_depth": self.mean_depth(now),
        }


class BandwidthChannel:
    """A serial pipe: transfers occupy it back-to-back at a fixed rate.

    ``transfer(nbytes)`` returns an event that fires when the *last byte*
    has passed through; ``reserve(nbytes)`` books the same transfer and
    returns that instant instead.  Transfers queue in FIFO order; each takes
    ``overhead + nbytes / bandwidth`` microseconds of channel time.

    Busy time and head-of-line wait accumulate per transfer.  When a
    :class:`~repro.sim.trace.Tracer` is attached (``tracer``/``track``
    attributes, set by the hardware layer) and enabled, each transfer
    additionally emits one complete span on the channel's track.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        overhead: float = 0.0,
        name: str = "channel",
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive (bytes/us)")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.overhead = overhead
        self._free_at = 0.0
        self.bytes_carried = 0
        self.transfers = 0
        self.busy_time = 0.0
        self.wait_time = 0.0
        self.tracer = None      # optional Tracer, attached by the owner
        self.track = "channel"  # span track used when tracing is enabled

    def busy_until(self) -> float:
        """Simulated time at which the channel next falls idle."""
        return max(self._free_at, self.sim.now)

    def occupancy(self, nbytes: int) -> float:
        """Channel time one transfer of ``nbytes`` consumes."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.overhead + nbytes / self.bandwidth

    def transfer(self, nbytes: int, value: Any = None) -> Event:
        """Queue a transfer; returns an event fired at completion time."""
        finish = self.reserve(nbytes)
        return self.sim.timeout(finish - self.sim.now, value)

    def reserve(self, nbytes: int) -> float:
        """Queue a transfer and return its completion time.

        The accounting half of :meth:`transfer`, for callers that run as
        scheduled callbacks: ``schedule_call(finish - now, ...)`` lands
        on the same float ``transfer``'s timeout would.
        """
        start = self.busy_until()
        occupied = self.occupancy(nbytes)
        finish = start + occupied
        self._free_at = finish
        self.bytes_carried += nbytes
        self.transfers += 1
        self.busy_time += occupied
        self.wait_time += start - self.sim.now
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.complete("bus", "%s xfer %dB" % (self.name, nbytes),
                            start, finish, track=self.track,
                            data={"bytes": nbytes})
        return finish

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of elapsed simulated time the channel was occupied."""
        now = self.sim.now if now is None else now
        if now <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / now)

    def metrics_snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Utilization counters for the metrics registry."""
        return {
            "name": self.name,
            "kind": "channel",
            "busy_time": self.busy_time,
            "count": self.transfers,
            "bytes": self.bytes_carried,
            "wait_time": self.wait_time,
        }


class MetricsRegistry:
    """A machine-wide roster of contention points with a report renderer.

    Anything exposing ``metrics_snapshot(now) -> dict`` (the three
    primitives above, mesh links, the outgoing FIFO wrapper) can
    register; :meth:`report` renders one aligned row per entry —
    busy time, utilization, arbitration wait, queue depth — against
    the elapsed simulated time.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._entries: List[Any] = []

    def register(self, entry: Any) -> Any:
        """Add one metrics source; returns it (for chaining)."""
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Every entry's counters, in registration order."""
        now = self.sim.now if now is None else now
        return [entry.metrics_snapshot(now) for entry in self._entries]

    def report(self, now: Optional[float] = None, min_count: int = 0) -> str:
        """The utilization table as aligned text.

        ``min_count`` hides rows whose operation count is below it
        (quiet resources clutter a 4-node report).
        """
        now = self.sim.now if now is None else now
        header = ("resource", "kind", "busy us", "util %", "ops", "bytes",
                  "avg wait us", "depth avg/max")
        rows: List[Tuple[str, ...]] = [header]
        for snap in self.snapshot(now):
            count = snap.get("count", 0)
            if count < min_count:
                continue
            busy = snap.get("busy_time")
            util = "-"
            if busy is not None and now > 0:
                util = "%.1f" % (100.0 * min(1.0, busy / now))
            wait = snap.get("wait_time")
            avg_wait = "-"
            if wait is not None and count:
                avg_wait = "%.3f" % (wait / count)
            depth = "-"
            if "mean_depth" in snap:
                depth = "%.2f/%d" % (snap["mean_depth"], snap.get("high_water", 0))
            rows.append((
                snap["name"],
                snap["kind"],
                "-" if busy is None else "%.2f" % busy,
                util,
                str(count),
                str(snap["bytes"]) if "bytes" in snap else "-",
                avg_wait,
                depth,
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = ["utilization @ t=%.2f us" % now]
        for row in rows:
            lines.append("  " + "  ".join(
                cell.ljust(widths[i]) if i < 2 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            ))
        return "\n".join(lines)
