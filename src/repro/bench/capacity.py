"""Capacity sweep: offered load vs tail latency, per transport.

The serving-side complement of the figure harnesses: instead of one
message bouncing between two nodes, an open-loop workload offers load
to the whole KV service and we watch where the tail departs.  Below
capacity an open-loop system's p99 tracks p50; past the knee queueing
delay accumulates without bound inside the measurement window, so p99
diverges while achieved throughput plateaus at service capacity — the
classic saturation signature (docs/WORKLOADS.md).

:func:`find_knee` works on the measured points alone, so it can be unit
tested on synthetic data without running a sweep.

An A/B is a pair of specs that differ only in the mechanism under test:
:func:`paired_capacity_sweep` sweeps both, and the three pair builders
(:func:`mitigation_pair`, :func:`overload_pair`,
:func:`consistency_pair`) derive the two sides of each experiment from
one spec, each holding its preset once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Sequence

from ..apps.kv.config import Mitigations
from ..workload.spec import WorkloadSpec
from .report import format_table

__all__ = ["CapacityPoint", "CapacityResult", "MITIGATIONS",
           "MITIGATIONS_OFF", "PairedCapacityResult", "capacity_payload",
           "capacity_sweep", "consistency_pair", "find_knee",
           "mitigation_pair", "overload_pair", "paired_capacity_sweep"]

#: Every client-side mitigation off: the mitigation pair's A side and
#: the base of the overload and consistency pairs.
MITIGATIONS_OFF = asdict(Mitigations())

#: The mitigations the B side of :func:`mitigation_pair` turns on.
MITIGATIONS = dict(pipeline_window=4, batch_keys=4, cache_keys=64,
                   cache_ttl_us=2000.0, read_spread=True)


def mitigation_pair(spec: WorkloadSpec, **knobs):
    """The (A, B) specs of the mitigation experiment (``capacity --ab``).

    Same seed, mix, and keyspace — A with every client-side mitigation
    off, B with ``knobs`` over the :data:`MITIGATIONS` preset — so the
    pair differs only in the serving-stack knobs under test.  With
    ``onesided_reads=True`` the pair isolates the one-sided bypass
    instead (docs/ONESIDED.md): B's other mitigations stay off unless
    ``knobs`` sets them.
    """
    baseline = replace(spec, **MITIGATIONS_OFF)
    preset = {} if knobs.get("onesided_reads") else MITIGATIONS
    return baseline, replace(baseline, **dict(preset, **knobs))


def overload_pair(spec: WorkloadSpec, cpu_slots: int = 1,
                  cpu_op_us: float = 50.0, slo_latency_us: float = 1000.0,
                  admit_queue: int = 8, admit_deadline_us: float = 400.0,
                  retry_budget: int = 1, retry_base_us: float = 50.0,
                  backpressure: bool = True):
    """The (A, B) specs of the overload experiment (docs/OVERLOAD.md).

    BOTH sides model contended node CPUs (``cpu_slots``/``cpu_op_us``)
    and score goodput against ``slo_latency_us``, the hot-key
    mitigations stay off on both sides, and only B arms admission
    control, retry budgets, and backpressure — so the pair isolates
    whether the *controls* (not a faster server) preserve goodput past
    the knee.  The ``cpu_op_us`` default of 50 (~3000 cycles on a
    60 MHz Pentium) is the calibrated point where handler CPU — not the
    client worker pool — is the binding resource, so the knee lives
    server-side where admission can see it.
    """
    baseline = replace(spec, **MITIGATIONS_OFF, cpu_slots=cpu_slots,
                       cpu_op_us=cpu_op_us, slo_latency_us=slo_latency_us,
                       admission=False, retry_budget=0, backpressure=False)
    return baseline, replace(baseline, admission=True,
                             admit_queue=admit_queue,
                             admit_deadline_us=admit_deadline_us,
                             retry_budget=retry_budget,
                             retry_base_us=retry_base_us,
                             backpressure=backpressure)


def consistency_pair(spec: WorkloadSpec, quorum_r: int = 0,
                     quorum_w: int = 0):
    """The (A, B) specs of the replica-correctness experiment.

    Both sides score every GET against the newest acknowledged write
    (docs/REPLICATION.md).  A spreads reads over the replica set under
    eventual consistency — replication lag shows up as a nonzero stale
    rate; B pays for quorum reads and writes (R + W > N) plus read
    repair and must serve zero stale reads at every load.
    """
    eventual = replace(spec, **dict(MITIGATIONS_OFF, read_spread=True),
                       consistency="eventual", staleness=True)
    return eventual, replace(eventual, read_spread=False,
                             consistency="quorum", read_repair=True,
                             quorum_r=quorum_r, quorum_w=quorum_w)


@dataclass
class CapacityPoint:
    """One sweep sample: what was offered, what came back, how slowly."""

    offered_load: float      # ops/s
    throughput: float        # achieved ops/s
    p50_us: float
    p99_us: float
    errors: int
    p95_us: float = 0.0      # defaulted last: older call sites omit it
    rejected: int = 0        # requests shed past the retry budget
    goodput: float = 0.0     # within-SLO completions per second
    versioned_reads: int = 0  # staleness-scored GETs (consistency sweeps)
    stale_reads: int = 0     # of those, answers an acked write superseded


@dataclass
class CapacityResult:
    """A full sweep of one spec, plus the detected knee."""

    spec: WorkloadSpec
    points: List[CapacityPoint] = field(default_factory=list)
    knee_load: Optional[float] = None

    @property
    def transport(self) -> str:
        return self.spec.transport

    @property
    def arrival(self) -> str:
        return self.spec.arrival

    def rows(self) -> List[List[str]]:
        """The sweep as table rows (header first)."""
        rows = [["offered ops/s", "achieved ops/s", "goodput ops/s",
                 "p50 us", "p95 us", "p99 us", "p99/p50", "rejected",
                 "errors"]]
        for pt in self.points:
            ratio = pt.p99_us / pt.p50_us if pt.p50_us > 0 else 0.0
            rows.append(["%.0f" % pt.offered_load, "%.0f" % pt.throughput,
                         "%.0f" % pt.goodput,
                         "%.2f" % pt.p50_us, "%.2f" % pt.p95_us,
                         "%.2f" % pt.p99_us,
                         "%.1f" % ratio, str(pt.rejected), str(pt.errors)])
        return rows

    def to_payload(self) -> dict:
        """This sweep as a JSON-ready dict (points, knee, labels).

        Staleness counters appear only when the sweep armed the
        oracle, so artifacts from sweeps that never measured them
        (and the committed ones that predate them) keep their shape.
        """
        graded = any(pt.versioned_reads for pt in self.points)
        points = []
        for pt in self.points:
            entry = {"offered_load": pt.offered_load,
                     "throughput": pt.throughput,
                     "goodput": pt.goodput,
                     "p50_us": pt.p50_us,
                     "p95_us": pt.p95_us,
                     "p99_us": pt.p99_us,
                     "rejected": pt.rejected,
                     "errors": pt.errors}
            if graded:
                entry["versioned_reads"] = pt.versioned_reads
                entry["stale_reads"] = pt.stale_reads
            points.append(entry)
        return {
            "transport": self.transport,
            "arrival": self.arrival,
            "knee_load": self.knee_load,
            "points": points,
        }

    def report(self) -> str:
        """Deterministic text: the sweep table and the knee verdict."""
        lines = ["capacity sweep: transport=%s arrival=%s"
                 % (self.transport, self.arrival)]
        lines.extend(format_table(self.rows()))
        if self.knee_load is not None:
            lines.append("saturation knee at ~%.0f ops/s offered"
                         % self.knee_load)
        else:
            lines.append("no saturation knee inside the swept range")
        return "\n".join(lines)


def find_knee(points: Sequence[CapacityPoint],
              tail_factor: float = 3.0,
              shortfall: float = 0.9) -> Optional[float]:
    """The offered load delivering maximum useful output, or None.

    A sweep *saturates* when some point past the lowest load shows the
    classic signature — p99 beyond ``tail_factor`` times the
    lowest-load baseline (queueing delay owns the tail) or achieved
    throughput below ``shortfall`` of offered (the service can no
    longer keep up).  An unsaturated sweep has no knee.

    Within a saturated sweep the knee is the point of **maximum
    goodput** (falling back to throughput for sweeps that measured
    none), ties broken toward the *lower* offered load.  The first
    saturated point is the wrong answer on a non-monotonic collapse:
    an overloaded service's throughput can keep climbing past the
    point where the tail first diverges, then fall off a cliff — the
    capacity worth reporting is where the output *peaks*, not where
    the tail first twitched.  A maximum at the sweep's highest load is
    no peak: output may still be rising past it, so that sweep has no
    knee inside its range either.
    """
    if not points:
        return None
    ordered = sorted(points, key=lambda pt: pt.offered_load)
    baseline_p99 = ordered[0].p99_us
    saturated = False
    for pt in ordered[1:]:
        saturated_tail = (baseline_p99 > 0.0
                          and pt.p99_us > tail_factor * baseline_p99)
        saturated_tput = pt.throughput < shortfall * pt.offered_load
        if saturated_tail or saturated_tput:
            saturated = True
            break
    if not saturated:
        return None
    best = max(ordered,
               key=lambda pt: ((pt.goodput or pt.throughput),
                               -pt.offered_load))
    if best is ordered[-1]:
        return None
    return best.offered_load


def capacity_sweep(loads: Sequence[float],
                   base_spec: Optional[WorkloadSpec] = None,
                   tail_factor: float = 3.0,
                   shortfall: float = 0.9) -> CapacityResult:
    """Run ``base_spec`` at each offered load and locate the knee.

    ``base_spec`` must be (or is forced to be) open-loop — a closed
    loop self-limits and never shows a knee.
    """
    # Imported here, not at module scope: repro.workload.report renders
    # tables via repro.bench.report, so a module-level import of the
    # engine would close an import cycle.
    from ..workload.engine import run_workload

    spec = base_spec if base_spec is not None else WorkloadSpec()
    if spec.arrival != "open":
        raise ValueError("capacity sweeps need an open-loop spec")
    result = CapacityResult(spec=spec)
    for load in sorted(loads):
        rep = run_workload(spec.with_load(load))
        result.points.append(CapacityPoint(
            offered_load=load,
            throughput=rep.throughput_ops_s,
            p50_us=rep.percentile(50.0),
            p95_us=rep.percentile(95.0),
            p99_us=rep.percentile(99.0),
            errors=rep.errors,
            rejected=rep.rejected,
            goodput=rep.goodput_ops_s,
            versioned_reads=(rep.staleness or {}).get("reads", 0),
            stale_reads=(rep.staleness or {}).get("stale", 0)))
    result.knee_load = find_knee(result.points, tail_factor=tail_factor,
                                 shortfall=shortfall)
    return result


@dataclass
class PairedCapacityResult:
    """An A/B capacity sweep over a pair of specs.

    The paired comparison is the serving-stack experiment of
    docs/WORKLOADS.md: same seed, so the same arrival sequence, key
    popularity, and value sizes — the two specs differ only in the
    mechanism under test, so any knee movement is attributable to it.
    Which experiment the pair is, and its label, follow from what B
    changes (:attr:`kind`).
    """

    baseline: CapacityResult
    mitigated: CapacityResult

    @property
    def kind(self) -> str:
        """``"consistency"`` when B changes the consistency mode (the
        verdict compares stale-read rates — quorum must serve zero),
        ``"overload"`` when B arms overload controls (the verdict
        compares goodput survival past the knee), else
        ``"mitigation"`` (the verdict compares knee movement)."""
        a, b = self.baseline.spec, self.mitigated.spec
        if a.consistency != b.consistency:
            return "consistency"
        if (a.admission, a.retry_budget, a.backpressure) \
                != (b.admission, b.retry_budget, b.backpressure):
            return "overload"
        return "mitigation"

    @property
    def label(self) -> str:
        """B's spec-line suffix for the knobs this kind of pair tests."""
        b = self.mitigated.spec
        return {"consistency": b.consistency_label,
                "overload": b.overload_label,
                "mitigation": b.mitigation_label}[self.kind]()

    def report(self) -> str:
        """Both sweep tables plus the knee comparison verdict."""
        lines = ["paired capacity sweep (A = baseline, B = %s)"
                 % self.label]
        lines.append("")
        lines.append("A: " + self.baseline.report())
        lines.append("")
        lines.append("B: " + self.mitigated.report())
        lines.append("")
        a, b = self.baseline.knee_load, self.mitigated.knee_load
        kind = self.kind
        if kind == "consistency":
            # A consistency pair trades capacity for correctness on
            # purpose; frame the knees as quorum's cost, not as a
            # mitigation that failed to help.
            if a is not None and b is not None:
                lines.append("consistency cost: quorum knee at ~%.0f "
                             "ops/s vs eventual ~%.0f" % (b, a))
            elif b is not None:
                lines.append("consistency cost: quorum saturates at "
                             "~%.0f ops/s; eventual never saturated "
                             "in range" % b)
            elif a is not None:
                lines.append("consistency cost: eventual saturates at "
                             "~%.0f ops/s; quorum never saturated "
                             "in range" % a)
            else:
                lines.append("consistency cost: neither mode saturated "
                             "inside the swept range")
        elif a is not None and b is not None:
            if b > a:
                lines.append("verdict: mitigation moved the knee from "
                             "~%.0f to ~%.0f ops/s (+%.0f%%)"
                             % (a, b, 100.0 * (b - a) / a))
            elif b < a:
                lines.append("verdict: mitigation moved the knee from "
                             "~%.0f DOWN to ~%.0f ops/s" % (a, b))
            else:
                lines.append("verdict: knee unchanged at ~%.0f ops/s" % a)
        elif a is not None:
            lines.append("verdict: baseline saturates at ~%.0f ops/s; "
                         "mitigated run never saturated in range" % a)
        elif b is not None:
            lines.append("verdict: mitigated run saturates at ~%.0f ops/s; "
                         "baseline never saturated in range (unexpected)" % b)
        else:
            lines.append("verdict: neither run saturated inside the "
                         "swept range")
        if kind != "consistency" and a == b:
            # Equal knees (or none) hide any gain; compare what each
            # side achieved at the top load both sweeps measured.
            base = {pt.offered_load: pt for pt in self.baseline.points}
            shared = [pt for pt in self.mitigated.points
                      if pt.offered_load in base]
            if shared:
                top = max(shared, key=lambda pt: pt.offered_load)
                low = base[top.offered_load]
                lines.append(
                    "at %.0f ops/s offered: B achieved %.0f ops/s (p99 "
                    "%.2f us), A %.0f ops/s (p99 %.2f us)"
                    % (top.offered_load, top.throughput, top.p99_us,
                       low.throughput, low.p99_us))
        if kind == "overload" and self.mitigated.knee_load is not None:
            knee = self.mitigated.knee_load
            knee_goodput = max(
                (pt.goodput for pt in self.mitigated.points
                 if pt.offered_load <= knee), default=0.0)
            past = [pt for pt in self.mitigated.points
                    if pt.offered_load > knee]
            base_past = [pt for pt in self.baseline.points
                         if pt.offered_load > knee]
            if past and knee_goodput > 0.0:
                worst = min(pt.goodput for pt in past)
                lines.append(
                    "overload verdict: past the knee (~%.0f ops/s) "
                    "controlled goodput holds >= %.0f ops/s (%.0f%% of "
                    "knee goodput %.0f)"
                    % (knee, worst, 100.0 * worst / knee_goodput,
                       knee_goodput))
                if base_past:
                    lines.append(
                        "                  uncontrolled goodput past the "
                        "knee falls to %.0f ops/s"
                        % min(pt.goodput for pt in base_past))
        if kind == "consistency":
            a_reads = sum(pt.versioned_reads for pt in self.baseline.points)
            a_stale = sum(pt.stale_reads for pt in self.baseline.points)
            b_reads = sum(pt.versioned_reads for pt in self.mitigated.points)
            b_stale = sum(pt.stale_reads for pt in self.mitigated.points)
            lines.append(
                "consistency verdict: eventual served %d stale of %d reads "
                "(%.2f%%); quorum served %d stale of %d reads [%s]"
                % (a_stale, a_reads,
                   100.0 * a_stale / a_reads if a_reads else 0.0,
                   b_stale, b_reads,
                   "OK" if b_stale == 0 else "VIOLATED"))
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """Both sweeps as a JSON-ready dict keyed A/B."""
        return {
            "mode": "ab",
            "overload": self.kind == "overload",
            "consistency": self.kind == "consistency",
            "label": self.label,
            "baseline": self.baseline.to_payload(),
            "mitigated": self.mitigated.to_payload(),
        }


def paired_capacity_sweep(loads: Sequence[float], baseline: WorkloadSpec,
                          variant: WorkloadSpec, tail_factor: float = 3.0,
                          shortfall: float = 0.9) -> PairedCapacityResult:
    """Sweep the same loads over both sides of a pair: A, then B.

    Build the pair with :func:`mitigation_pair`, :func:`overload_pair`
    or :func:`consistency_pair`, or pass any two specs that differ only
    in the mechanism under test.
    """
    return PairedCapacityResult(
        baseline=capacity_sweep(loads, baseline, tail_factor=tail_factor,
                                shortfall=shortfall),
        mitigated=capacity_sweep(loads, variant, tail_factor=tail_factor,
                                 shortfall=shortfall))


def capacity_payload(result) -> dict:
    """The machine-readable sweep document (``BENCH_capacity.json``).

    Wraps a :class:`CapacityResult` or :class:`PairedCapacityResult`
    with the full workload configuration and seed, so a later session
    (or CI artifact consumer) can reproduce the exact sweep: same spec,
    same loads, same knee.  A pair records its B side (the variant),
    from which the pair's builder rebuilds A.
    """
    sweep = (result.mitigated if isinstance(result, PairedCapacityResult)
             else result)
    payload = {
        "schema": "repro.bench.capacity/v1",
        "seed": sweep.spec.seed,
        "loads": [pt.offered_load for pt in sweep.points],
        "config": asdict(sweep.spec),
    }
    payload.update(result.to_payload())
    payload.setdefault("mode", "sweep")
    return payload
