"""The workload run report: tail latency, throughput, utilization.

Rendered entirely from simulated quantities — no wall-clock, no host
state — so the same seed produces a byte-identical report, which the
determinism tests (and the acceptance criteria) compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis import TAIL_PERCENTILES, LatencyHistogram, format_table

__all__ = ["WorkloadReport"]


@dataclass
class WorkloadReport:
    """Everything one :func:`~repro.workload.engine.run_workload` measured."""

    spec_line: str
    transport: str
    arrival: str
    offered_load: float          # ops/s (0.0 for closed loop)
    duration_us: float           # measurement window
    completed: int
    errors: int
    misses: int
    failovers: int
    corruptions: int
    overall: LatencyHistogram
    per_op: Dict[str, LatencyHistogram]
    utilization: str             # the metrics-registry table
    service_lines: List[str] = field(default_factory=list)
    fault_lines: List[str] = field(default_factory=list)
    telemetry_lines: List[str] = field(default_factory=list)
    overload_lines: List[str] = field(default_factory=list)
    consistency_lines: List[str] = field(default_factory=list)
    rejected: int = 0            # requests shed past the retry budget
    in_slo: int = 0              # completions within slo_latency_us
    slo_latency_us: float = 0.0  # the goodput threshold (0 = off)
    #: Structured replica-correctness extras (None when the knobs are
    #: off): the staleness tallies (``reads``/``stale``) and the
    #: anti-entropy convergence record (rounds, repaired, series).
    #: Machine-readable companions to ``consistency_lines`` for the
    #: JSON artifacts and the consistency experiments.
    staleness: Optional[Dict[str, int]] = None
    convergence: Optional[dict] = None
    #: Scheduler entries the run dispatched (``Simulator.
    #: events_executed``) — the layer ledger's ``sim.events`` and the
    #: denominator of its ``sim.host_ns_per_event``.  Never rendered
    #: into the text report, so the determinism goldens are unaffected.
    events_executed: int = 0
    #: The run's recorded spans when ``spec.trace`` was set, else None.
    #: Carried for trace assembly (``python -m repro explain``) and the
    #: observability tests; never rendered into the text report, so the
    #: determinism goldens are unaffected.
    spans: Optional[list] = None
    #: Spans the tracer refused once ``spans`` reached its limit
    #: (``Tracer.dropped``); 0 for an untraced run.  Never rendered
    #: into the text report, like ``spans``.
    spans_dropped: int = 0
    #: The metrics-registry snapshot (``{"now": ..., "entries": [...]}``)
    #: when ``spec.trace`` was set, else None — the contention source
    #: for ``python -m repro profile``.  Never rendered into the text
    #: report, like ``spans``.
    metrics: Optional[dict] = None

    @property
    def throughput_ops_s(self) -> float:
        """Completed requests per second of measurement window."""
        if self.duration_us <= 0.0:
            return 0.0
        return self.completed / (self.duration_us / 1e6)

    @property
    def goodput_ops_s(self) -> float:
        """Useful completions per second: within-SLO when an SLO
        threshold was set, otherwise all completions."""
        if self.duration_us <= 0.0:
            return 0.0
        useful = self.in_slo if self.slo_latency_us > 0.0 else self.completed
        return useful / (self.duration_us / 1e6)

    def percentile(self, p: float) -> float:
        """Overall latency percentile (µs)."""
        return self.overall.percentile(p)

    def latency_rows(self) -> List[List[str]]:
        """The per-op latency table (one row per op plus OVERALL)."""
        header = ["op", "count", "mean us"] + [
            "p%g us" % p for p in TAIL_PERCENTILES] + ["max us"]
        rows = [header]
        entries = [(name, hist) for name, hist in sorted(self.per_op.items())
                   if hist.count]
        entries.append(("OVERALL", self.overall))
        for name, hist in entries:
            rows.append([name, str(hist.count), "%.2f" % hist.mean]
                        + ["%.2f" % hist.percentile(p)
                           for p in TAIL_PERCENTILES]
                        + ["%.2f" % hist.max])
        return rows

    def report(self) -> str:
        """The full run report as deterministic text."""
        lines = [self.spec_line]
        lines.append(
            "window %.1f us  completed %d  throughput %.0f ops/s"
            % (self.duration_us, self.completed, self.throughput_ops_s))
        if self.offered_load > 0.0:
            lines.append("offered load %.0f ops/s  (achieved/offered = %.2f)"
                         % (self.offered_load,
                            self.throughput_ops_s / self.offered_load))
        lines.append(
            "errors %d  misses %d  failovers %d  corruptions %d"
            % (self.errors, self.misses, self.failovers, self.corruptions))
        lines.append("")
        lines.extend(format_table(self.latency_rows()))
        if self.service_lines:
            lines.append("")
            lines.extend(self.service_lines)
        if self.overload_lines:
            # Conditional, like the telemetry block: overload-off
            # reports stay byte-identical to the goldens.
            lines.append("")
            lines.extend(self.overload_lines)
        if self.consistency_lines:
            # Conditional, like the overload block: runs without the
            # replica-correctness knobs keep golden-identical reports.
            lines.append("")
            lines.extend(self.consistency_lines)
        if self.telemetry_lines:
            # Conditional, like the fault block: telemetry-off reports
            # stay byte-identical to the zero-regression goldens.
            lines.append("")
            lines.extend(self.telemetry_lines)
        if self.fault_lines:
            lines.append("")
            lines.extend(self.fault_lines)
        lines.append("")
        lines.append("per-resource utilization (registered metrics):")
        lines.append(self.utilization)
        return "\n".join(lines)
