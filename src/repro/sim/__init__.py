"""Discrete-event simulation kernel (system S1 in DESIGN.md).

Everything active in the SHRIMP model runs on a single
:class:`Simulator` event loop: user programs and daemons as
generator-based processes, the NIC's fixed-function stages as plain
scheduled callbacks.  Time is in microseconds.

The kernel also hosts the observability layer (docs/OBSERVABILITY.md):
:class:`Tracer`/:class:`Span` record structured begin/end intervals on
per-component tracks (spans are the tracer's only record), the
contention primitives keep always-on utilization counters collected
by :class:`MetricsRegistry`, and :mod:`repro.sim.export` turns a
tracer into Chrome ``trace_event`` JSON (``chrome_trace_json``/
``write_chrome_trace``/``validate_chrome_trace``).
"""

from .core import (
    AllOf,
    Event,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
)
from .export import (
    chrome_trace_dict,
    chrome_trace_events,
    chrome_trace_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from .faults import (
    DEFAULT_SITE_KINDS,
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSite,
)
from .process import Interrupt, Process, spawn
from .resources import BandwidthChannel, MetricsRegistry, Request, Resource, Store
from .timers import IdleTimer, TimerWheel
from .trace import Span, Stopwatch, Tracer

__all__ = [
    "AllOf",
    "BandwidthChannel",
    "DEFAULT_SITE_KINDS",
    "Event",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSite",
    "IdleTimer",
    "Interrupt",
    "MetricsRegistry",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "StopSimulation",
    "Stopwatch",
    "Store",
    "TimerWheel",
    "Timeout",
    "Tracer",
    "chrome_trace_dict",
    "chrome_trace_events",
    "chrome_trace_json",
    "spawn",
    "validate_chrome_trace",
    "write_chrome_trace",
]
