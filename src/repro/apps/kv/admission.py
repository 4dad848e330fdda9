"""Server-side admission control: bounded queues, lanes, deadline shed.

The SHRIMP user-level protocols keep the OS off the data path, so
nothing in the stack says "no" — NX credits push back at the transport
layer but the service layer will queue work without bound and serve it
arbitrarily late.  This module is the end-to-end admission policy the
overload tentpole adds (docs/OVERLOAD.md):

* :data:`LANE_CHEAP` / :data:`LANE_BULK` / :data:`LANE_BACKGROUND` —
  priority lanes.  GET/multi_get ride the cheap lane; PUT/DELETE/SCAN
  (replication fan-out attached) ride the bulk lane; replication apply
  runs in the background lane.  Lane order is CPU-grant order.
* :class:`AdmissionQueue` — the pure accept-queue discipline: bounded
  occupancy, FIFO within each lane, lanes served in priority order,
  and deadline-aware shedding (an entry whose queueing delay already
  exceeds its budget is shed at claim time rather than served late).
  Pure Python over explicit timestamps, so the property tests in
  ``tests/properties/`` can drive it with randomized schedules.
* :class:`AdmissionController` — the simulation glue: one per node,
  fronting the node's CPU scheduler.  Door checks (occupancy bound,
  brownout) reject instantly; admitted requests wait for a CPU slot in
  lane priority and are re-checked against the deadline at grant.  A
  two-window burn-rate :class:`~repro.obs.slo.SloMonitor` watches the
  shed fraction and triggers *brownout* — a period during which the
  expensive lane is rejected at the door so the cheap lane keeps its
  SLO — exactly the degradation order a read-heavy store wants.
* :class:`KvRejectedError` — the typed client-visible rejection, raised
  by :class:`~repro.apps.kv.client.KVClient` once its retry budget for
  a request is exhausted.  Rejections are *never* silent: every shed
  produces either a later success (a retry was admitted) or this
  exception, which the workload engine counts toward the conservation
  invariant ``completed + rejected + errors == offered``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ...obs.slo import SloMonitor, SloObjective

__all__ = [
    "LANE_CHEAP", "LANE_BULK", "LANE_BACKGROUND",
    "KvRejectedError", "AdmissionQueue", "AdmissionController",
]

LANE_CHEAP = 0       # GET / multi_get — small, latency-sensitive
LANE_BULK = 1        # PUT / DELETE / SCAN — value bytes + fan-out
LANE_BACKGROUND = 2  # replication apply — off the request path

# Brownout policy of every AdmissionController: the shed-fraction SLO
# (budget, window length, burn-rate windows and factor) and how long a
# triggered brownout rejects the bulk lane.
SHED_BUDGET = 0.05
WINDOW_US = 500.0
SHORT_WINDOWS = 4
LONG_WINDOWS = 24
BURN_FACTOR = 4.0
BROWNOUT_US = 2000.0


class KvRejectedError(Exception):
    """A request the service shed and the client's retry budget could
    not recover.  Carries enough to account for the request precisely."""

    def __init__(self, op: str, key: str, attempts: int):
        super().__init__("kv %s %r rejected after %d attempt(s)"
                         % (op, key, attempts))
        self.op = op
        self.key = key
        self.attempts = attempts


class _Entry:
    """One queued admission ticket (pure bookkeeping, no sim objects)."""

    __slots__ = ("ticket", "lane", "enqueued_at")

    def __init__(self, ticket: int, lane: int, enqueued_at: float):
        self.ticket = ticket
        self.lane = lane
        self.enqueued_at = enqueued_at


class AdmissionQueue:
    """The pure accept-queue discipline: bound, lanes, deadline.

    * **bounded occupancy** — at most ``bound`` entries wait at once;
      :meth:`offer` returns None (reject) beyond that.
    * **FIFO within priority** — :meth:`pop` serves lanes in ascending
      lane order and entries within a lane in offer order.
    * **deadline shedding** — with ``deadline_us > 0``, an entry whose
      waiting time exceeds the budget when it reaches the head is shed
      (returned separately by :meth:`pop` / verdict ``"shed"`` from
      :meth:`claim`), never served.

    Time is an explicit argument everywhere, so the structure can be
    exercised by the property tests without a simulator.
    """

    def __init__(self, bound: int, deadline_us: float = 0.0):
        if bound < 1:
            raise ValueError("admission queue bound must be >= 1")
        if deadline_us < 0.0:
            raise ValueError("deadline_us must be >= 0")
        self.bound = bound
        self.deadline_us = deadline_us
        self._lanes: Dict[int, Deque[_Entry]] = {}
        self._entries: Dict[int, _Entry] = {}
        self._next_ticket = 0
        self.offers = 0
        self.rejected_full = 0
        self.shed = 0
        self.popped = 0
        self.high_water = 0

    @property
    def waiting(self) -> int:
        """Entries currently queued (the bounded occupancy)."""
        return len(self._entries)

    def entry(self, ticket: int) -> Optional[_Entry]:
        """The queued entry for ``ticket``, or None if gone."""
        return self._entries.get(ticket)

    def expired(self, entry: _Entry, now: float) -> bool:
        """Whether ``entry``'s queueing delay has blown its budget."""
        return (self.deadline_us > 0.0
                and now - entry.enqueued_at > self.deadline_us)

    def offer(self, now: float, lane: int) -> Optional[int]:
        """Try to enqueue one arrival; the ticket, or None when full."""
        self.offers += 1
        if len(self._entries) >= self.bound:
            self.rejected_full += 1
            return None
        self._next_ticket += 1
        entry = _Entry(self._next_ticket, lane, now)
        self._lanes.setdefault(lane, deque()).append(entry)
        self._entries[entry.ticket] = entry
        self.high_water = max(self.high_water, len(self._entries))
        return entry.ticket

    def claim(self, ticket: int, now: float) -> str:
        """Remove ``ticket`` at service time: ``"serve"`` or ``"shed"``.

        The controller claims tickets in CPU-grant order, which matches
        this queue's (lane, FIFO) discipline; the deadline check happens
        here, at the moment a slot is finally available.
        """
        entry = self._entries.pop(ticket)
        self._lanes[entry.lane].remove(entry)
        if self.expired(entry, now):
            self.shed += 1
            return "shed"
        self.popped += 1
        return "serve"

    def pop(self, now: float) -> Tuple[Optional[int], List[int]]:
        """Next ticket to serve plus every expired ticket shed en route.

        Walks lanes in priority order; expired entries at the front are
        shed (collected into the second element) until an unexpired
        entry is found or the queue drains.
        """
        shed: List[int] = []
        for lane in sorted(self._lanes):
            queue = self._lanes[lane]
            while queue:
                entry = queue.popleft()
                del self._entries[entry.ticket]
                if self.expired(entry, now):
                    self.shed += 1
                    shed.append(entry.ticket)
                    continue
                self.popped += 1
                return entry.ticket, shed
        return None, shed


class _ShedWindow:
    """Duck-typed window sample feeding the controller's SloMonitor."""

    __slots__ = ("count", "slow", "errors")

    def __init__(self, count: int, slow: int):
        self.count = count
        self.slow = slow
        self.errors = 0


class AdmissionController:
    """Per-node admission in front of the CPU scheduler (sim glue).

    ``admit(proc, lane, cost_us)`` is the one entry point the shard
    handlers call: it either charges ``cost_us`` of contended CPU and
    returns True, or rejects/sheds and returns False (emitting a
    ``kv.server.reject`` complete span when tracing is on, so a shed
    request's causal tree ends at the rejection with no handler span).

    The shed-fraction SLO drives brownout: the shed fraction of each
    :data:`WINDOW_US` window feeds a burn-rate monitor with budget
    :data:`SHED_BUDGET`; when its short window (:data:`SHORT_WINDOWS`)
    burns at :data:`BURN_FACTOR` times the budget and the long window
    (:data:`LONG_WINDOWS`) confirms, the bulk lane is rejected at the
    door for :data:`BROWNOUT_US`, shifting remaining capacity to the
    cheap lane.
    """

    def __init__(self, system, node_id: int, cpu,
                 bound: int = 32, deadline_us: float = 0.0):
        self.sim = system.sim
        self.tracer = system.machine.tracer
        self.node_id = node_id
        self.cpu = cpu
        self.queue = AdmissionQueue(bound, deadline_us)
        self.slo = SloMonitor([SloObjective("shed", "slow", SHED_BUDGET)],
                              short_windows=SHORT_WINDOWS,
                              long_windows=LONG_WINDOWS,
                              burn_factor=BURN_FACTOR)
        self.offers = 0
        self.served = 0
        self.rejected_full = 0
        self.rejected_brownout = 0
        self.shed_deadline = 0
        self.brownouts = 0
        self._brownout_until = 0.0
        self._window_end = self.sim.now + WINDOW_US
        self._w_offers = 0
        self._w_shed = 0

    @property
    def rejected(self) -> int:
        """Total requests this node refused to serve, any reason."""
        return self.rejected_full + self.rejected_brownout \
            + self.shed_deadline

    def admit(self, proc, lane: int, cost_us: float):
        """Generator: True after serving ``cost_us`` on the CPU, False
        on rejection (door or deadline)."""
        start = self.sim.now
        self._tick(start)
        self.offers += 1
        self._w_offers += 1
        if lane != LANE_CHEAP and start < self._brownout_until:
            self.rejected_brownout += 1
            self._shed(proc, start, "brownout")
            return False
        ticket = self.queue.offer(start, lane)
        if ticket is None:
            self.rejected_full += 1
            self._shed(proc, start, "full")
            return False
        if self.cpu is None:
            # Admission without CPU modeling: the bound alone applies
            # (nothing ever waits, so deadlines cannot trip).
            self.queue.claim(ticket, start)
            self.served += 1
            yield from proc.compute(cost_us)
            return True
        req = self.cpu.request(lane)
        yield req
        granted = self.sim.now
        self._tick(granted)
        if self.queue.claim(ticket, granted) == "shed":
            self.cpu.release(req)
            self.shed_deadline += 1
            self._shed(proc, start, "deadline")
            return False
        self.served += 1
        try:
            yield self.sim.timeout(cost_us)
        finally:
            self.cpu.release(req)
        return True

    def _shed(self, proc, start: float, reason: str) -> None:
        """Account one shed and close its causal tree with a reject span."""
        self._w_shed += 1
        tracer = self.tracer
        if not tracer.enabled:
            return
        data = {"reason": reason, "node": self.node_id}
        ctx = proc.trace_ctx
        if ctx is not None:
            data["tid"] = ctx[0]
            data["cparent"] = ctx[1]
        tracer.complete("kv.server.reject", reason, start,
                        track=proc.trace_track, data=data)

    def _tick(self, now: float) -> None:
        """Fold completed shed-fraction windows into the SLO monitor."""
        while now >= self._window_end:
            if self._w_offers:
                breached = self.slo.observe(
                    self._window_end,
                    _ShedWindow(self._w_offers, self._w_shed))
                if breached is not None:
                    self._brownout_until = max(
                        self._brownout_until,
                        self._window_end + BROWNOUT_US)
                    self.brownouts += 1
                self._w_offers = 0
                self._w_shed = 0
            self._window_end += WINDOW_US

    def metrics_snapshot(self, now: Optional[float] = None) -> dict:
        """Registry row: offers served/shed and queue high water."""
        return {
            "name": "n%d.kv.admission" % self.node_id,
            "kind": "admission",
            "count": self.offers,
            "served": self.served,
            "rejected_full": self.rejected_full,
            "rejected_brownout": self.rejected_brownout,
            "shed_deadline": self.shed_deadline,
            "brownouts": self.brownouts,
            "mean_depth": 0.0,
            "high_water": self.queue.high_water,
        }
