"""Deterministic, seed-driven fault injection for the SHRIMP model.

The paper's prototype assumes a reliable Paragon-style mesh, but the
protection and buffer-management arguments of Sections 3-4 only hold if
the software stack behaves sanely when transfers stall or packets die.
This module is the substrate for exercising exactly that: a
:class:`FaultPlan` is a reproducible schedule of ``(time, site, kind)``
triples, and a :class:`FaultInjector` is the machine-wide object the
hardware components consult at well-known *sites* (docs/FAULTS.md):

* ``mesh.link``  — drop / corrupt / delay one backplane packet;
* ``nic.du``     — stall or abort one deliberate-update command;
* ``nic.dma_in`` — stall the incoming DMA engine on one packet;
* ``bus.eisa``   — degrade one node's EISA bus bandwidth for a window;
* ``opt.timer``  — misfire one combining timeout (early flush or a
  late, inflated timer).

Determinism: a plan built from a seed always yields the same schedule,
and a fault fires on the *first operation to cross its site at or after
its scheduled time* — a function only of the (deterministic) simulated
workload, never of host state.  Runs with the same seed are therefore
bit-identical, which docs/FAULTS.md's reproduction recipe and the
``tests/faults`` determinism tests rely on.

Zero overhead when disabled: every hardware hook is guarded by one
attribute check (``if self.faults.enabled:``), the same discipline the
tracer uses, so fault-free runs schedule exactly the same events and
reproduce the pre-fault latency numbers byte-for-byte (the guard test
in ``tests/faults/test_zero_overhead.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .core import Simulator
from .trace import Tracer

__all__ = [
    "FaultKind",
    "FaultSite",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "DEFAULT_SITE_KINDS",
]


class FaultSite:
    """Well-known injection site names (where a fault can strike)."""

    MESH_LINK = "mesh.link"
    NIC_DU = "nic.du"
    NIC_DMA_IN = "nic.dma_in"
    BUS_EISA = "bus.eisa"
    OPT_TIMER = "opt.timer"
    # Application-level site: the KV replication apply loop consults it
    # per incoming record (docs/REPLICATION.md).  Deliberately NOT in
    # DEFAULT_SITE_KINDS — seeded hardware plans must stay stable —
    # so torture tests schedule it with explicit Fault entries.
    KV_REPLICA = "kv.replica"


class FaultKind:
    """Fault kind names (what happens when one strikes)."""

    DROP = "drop"          # mesh: the packet vanishes in the fabric
    CORRUPT = "corrupt"    # mesh: one payload byte is flipped in flight
    DELAY = "delay"        # mesh: extra in-fabric latency for one packet
    STALL = "stall"        # dma engines: extra latency on one operation
    ABORT = "abort"        # du engine: the command fails (typed error)
    DEGRADE = "degrade"    # eisa: bandwidth divided for a time window
    EARLY = "early"        # opt timer: fires immediately (premature flush)
    LATE = "late"          # opt timer: inflated timeout (sluggish flush)
    CRASH = "crash"        # kv.replica: the apply loop discards incoming
                           # records for duration_us (silent divergence)


# The kinds a seeded plan draws from, per site (weights are uniform).
DEFAULT_SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    FaultSite.MESH_LINK: (FaultKind.DROP, FaultKind.CORRUPT, FaultKind.DELAY),
    FaultSite.NIC_DU: (FaultKind.STALL, FaultKind.ABORT),
    FaultSite.NIC_DMA_IN: (FaultKind.STALL,),
    FaultSite.BUS_EISA: (FaultKind.DEGRADE,),
    FaultSite.OPT_TIMER: (FaultKind.EARLY, FaultKind.LATE),
}


@dataclass
class Fault:
    """One scheduled fault: strike ``site`` with ``kind`` at/after ``time``.

    ``params`` carries kind-specific knobs (``delay_us``, ``stall_us``,
    ``factor``, ``duration_us``, ``offset`` for the corrupted byte,
    ``node`` to restrict a per-node site to one node).  ``fired_at`` is
    filled in by the injector when the fault actually strikes (the first
    matching operation at or after ``time``); None means it never found
    a victim.
    """

    time: float
    site: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    index: int = 0
    fired_at: Optional[float] = None

    def matches(self, site: str, node: Optional[int]) -> bool:
        """Does this fault apply to an operation at ``site`` on ``node``?"""
        if self.site != site:
            return False
        want = self.params.get("node")
        return want is None or node is None or want == node

    def describe(self) -> str:
        """One-line human-readable form (CLI and trace annotations)."""
        extras = ", ".join(
            "%s=%s" % (k, v) for k, v in sorted(self.params.items())
        )
        status = ("fired@%.3f" % self.fired_at) if self.fired_at is not None else "pending"
        return "t>=%9.3f  %-10s %-8s %-14s {%s}" % (
            self.time, self.site, self.kind, status, extras
        )


class FaultPlan:
    """A reproducible schedule of faults.

    Build one explicitly from :class:`Fault` entries, or derive one from
    a seed with :meth:`from_seed` — the same seed always produces the
    same schedule.  Plans are consumed by a :class:`FaultInjector`.
    """

    def __init__(self, faults: Sequence[Fault] = (), seed: Optional[int] = None):
        self.seed = seed
        self.faults: List[Fault] = sorted(faults, key=lambda f: (f.time, f.index))
        for i, fault in enumerate(self.faults):
            fault.index = i

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        horizon_us: float = 5000.0,
        count: int = 8,
        sites: Optional[Sequence[str]] = None,
        nodes: Optional[Sequence[int]] = None,
    ) -> "FaultPlan":
        """Derive a deterministic plan from ``seed``.

        ``count`` faults are spread uniformly over ``[0, horizon_us)``
        across the given ``sites`` (default: all known sites) with
        kind-appropriate parameters.  ``nodes`` restricts per-node sites
        (DU/EISA/OPT/incoming-DMA) to those node ids; None leaves the
        node unconstrained (the first crossing operation anywhere fires
        it).
        """
        rng = random.Random(seed)
        site_pool = list(sites) if sites is not None else sorted(DEFAULT_SITE_KINDS)
        faults: List[Fault] = []
        for i in range(count):
            site = rng.choice(site_pool)
            kind = rng.choice(DEFAULT_SITE_KINDS[site])
            time = rng.uniform(0.0, horizon_us)
            params: Dict[str, Any] = {}
            if kind == FaultKind.DELAY:
                params["delay_us"] = round(rng.uniform(5.0, 80.0), 3)
            elif kind == FaultKind.CORRUPT:
                params["offset"] = rng.randrange(0, 1 << 16)
            elif kind == FaultKind.STALL:
                params["stall_us"] = round(rng.uniform(10.0, 150.0), 3)
            elif kind == FaultKind.DEGRADE:
                params["factor"] = rng.choice([2.0, 4.0, 8.0])
                params["duration_us"] = round(rng.uniform(50.0, 500.0), 3)
            elif kind == FaultKind.LATE:
                params["factor"] = rng.choice([4.0, 16.0, 64.0])
            if nodes is not None and site != FaultSite.MESH_LINK:
                params["node"] = rng.choice(list(nodes))
            faults.append(Fault(time=time, site=site, kind=kind, params=params))
        return cls(faults, seed=seed)

    def describe(self) -> str:
        """Render the whole schedule, one fault per line."""
        header = "fault plan%s: %d faults" % (
            "" if self.seed is None else " (seed %d)" % self.seed, len(self.faults)
        )
        return "\n".join([header] + ["  " + f.describe() for f in self.faults])


class FaultInjector:
    """The machine-wide fault oracle the hardware consults.

    One injector is built per :class:`~repro.hardware.machine.Machine`
    and handed to every component that hosts a site.  ``enabled`` is a
    plain attribute so the hot-path guard is a single attribute check;
    it is True only while an armed plan still has pending faults is not
    required — it stays True for the whole run so late operations keep
    drawing (a fault scheduled at t strikes the first crossing at or
    after t).

    Components call :meth:`draw` at their site; a non-None result means
    *this* operation is the victim and the component applies the kind's
    effect.  The injector records every firing (``fired`` list, per-kind
    counters) and, when the tracer is enabled, emits a ``fault`` instant
    span on the ``faults`` track.
    """

    def __init__(self, sim: Simulator, plan: Optional[FaultPlan] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.tracer = tracer or Tracer(sim)
        self.enabled = False
        self.plan: Optional[FaultPlan] = None
        self._pending: List[Fault] = []
        self.fired: List[Fault] = []
        self.counts: Dict[str, int] = {}
        if plan is not None:
            self.arm(plan)

    def arm(self, plan: FaultPlan) -> None:
        """Install ``plan`` and enable the injection sites."""
        self.plan = plan
        self._pending = list(plan)
        self.enabled = len(self._pending) > 0

    def pending(self) -> List[Fault]:
        """Faults that have not struck yet (scheduled or never matched)."""
        return list(self._pending)

    def draw(self, site: str, node: Optional[int] = None) -> Optional[Fault]:
        """Claim the earliest due fault for ``site`` (None if none due).

        A fault is *due* once simulated time has reached its scheduled
        time; the first operation to cross its site afterwards is the
        victim.  At most one fault is returned per call — a site hosting
        several due faults fires them on successive operations, oldest
        first, keeping multi-fault schedules deterministic.
        """
        now = self.sim.now
        for fault in self._pending:
            if fault.time <= now and fault.matches(site, node):
                self._pending.remove(fault)
                fault.fired_at = now
                self.fired.append(fault)
                key = "%s.%s" % (fault.site, fault.kind)
                self.counts[key] = self.counts.get(key, 0) + 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        "fault", "%s %s" % (fault.site, fault.kind),
                        track="faults",
                        data=dict(fault.params, site=fault.site, kind=fault.kind,
                                  scheduled=fault.time),
                    )
                return fault
        return None

    # -- reporting -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counters: per-site.kind firing counts plus totals."""
        return {
            "enabled": self.enabled,
            "fired": len(self.fired),
            "pending": len(self._pending),
            "counts": dict(self.counts),
        }

    def firing_log(self) -> List[Tuple[float, str, str]]:
        """The realized schedule: (fired_at, site, kind) per strike.

        Two runs of the same seed and workload must produce identical
        logs — the determinism tests compare exactly this.
        """
        return [(f.fired_at, f.site, f.kind) for f in self.fired]

    def report(self) -> str:
        """Human-readable summary of what struck and what never matched."""
        lines = ["fault injector: %d fired, %d pending" % (len(self.fired), len(self._pending))]
        for fault in self.fired:
            lines.append("  " + fault.describe())
        for fault in self._pending:
            lines.append("  " + fault.describe())
        return "\n".join(lines)
