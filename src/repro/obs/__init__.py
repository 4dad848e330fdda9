"""repro.obs — causal tracing, time-series telemetry, SLO monitoring.

Layered on :mod:`repro.sim.trace`: the transports tag their spans with
trace contexts the tracer hands across each wire hop (its "Causal
trace context" section), :mod:`~repro.obs.assemble` reconstructs
cross-node causal trees with critical paths and stage budgets, and
:mod:`~repro.obs.timeseries`/:mod:`~repro.obs.slo` watch the system's
health over time.  See docs/OBSERVABILITY.md "Causal traces & SLOs".
"""

from .assemble import (
    ExplainResult,
    PathSegment,
    STAGE_ORDER,
    TraceTree,
    assemble_traces,
    audit,
    explain_trace,
    format_tree,
)
from .diff import DiffResult, StageDelta, diff_bench_payloads, diff_profiles
from .profile import (
    PROFILE_STAGES,
    Profile,
    RequestProfile,
    build_profile,
    render_flame,
    render_folded,
    tag_root,
)
from .slo import FlightRecorder, SloAlert, SloMonitor, SloObjective
from .timeseries import RingBuffer, TelemetrySampler, WindowedLatency, WindowSample

__all__ = [
    "TraceTree", "PathSegment", "ExplainResult", "STAGE_ORDER",
    "assemble_traces", "audit", "explain_trace", "format_tree",
    "PROFILE_STAGES", "Profile", "RequestProfile", "build_profile",
    "render_flame", "render_folded", "tag_root",
    "DiffResult", "StageDelta", "diff_profiles", "diff_bench_payloads",
    "RingBuffer", "WindowedLatency", "WindowSample", "TelemetrySampler",
    "SloObjective", "SloAlert", "SloMonitor", "FlightRecorder",
]
