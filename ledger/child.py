"""One measurement in a fresh interpreter: ``python -m ledger.child JOB``.

``JOB`` is a JSON object naming one of the jobs below; the child prints
one JSON object as the last line of its standard output.  It reaches
the simulator only through public functions: ``run_workload`` and its
``WorkloadReport``, the ping-pong drivers of ``repro.bench``,
``build_profile`` and ``cProfile``.

* ``unit`` — warm up (the paper's ladder scalars, then a short run of
  the spec), then time one run of the spec.  ``setup_s`` runs from the
  parent's spawn to the end of the warm-up.
* ``reference`` — the simulated-metric runs on the reference input:
  the spec itself, the capacity sweep, and with ``layers`` the traced
  run, its untraced twin and the ladder points the libraries' peak
  bandwidths need.
* ``cprofile`` — one profiled run of the spec, with self time folded
  into host-share groups.
"""

from __future__ import annotations

import cProfile
import hashlib
import inspect
import json
import pstats
import resource
import sys
import time
from dataclasses import replace

from repro.bench.figures import headline_scalars, ttcp_results
from repro.bench.libraries import nx_pingpong, socket_pingpong, vrpc_pingpong
from repro.bench.pingpong import STRATEGIES, vmmc_pingpong
from repro.obs.profile import build_profile
from repro.sim.trace import Tracer
from repro.workload import WorkloadSpec, run_workload

from .analysis import host_shares, point_passes

#: Message size of the libraries' peak-bandwidth points (the paper's
#: largest, 10 KB).
PEAK_SIZE = 10240


def summarize(spec: WorkloadSpec, report, keep_text: bool = False) -> dict:
    """What the parent needs from one run's report (its text, whose
    utilization and service tables the parent parses, only on request)."""
    text = report.report()
    summary = {
        "offered": spec.requests,
        "completed": report.completed,
        "errors": report.errors,
        "rejected": report.rejected,
        "corruptions": report.corruptions,
        "failovers": report.failovers,
        "p50_us": report.percentile(50.0),
        "p99_us": report.percentile(99.0),
        "throughput_ops_s": report.throughput_ops_s,
        "events": report.events_executed,
        "sha": hashlib.sha256(text.encode()).hexdigest(),
        "per_op": {op: {"count": hist.count,
                        "p50_us": hist.percentile(50.0) if hist.count else 0.0}
                   for op, hist in report.per_op.items()},
    }
    if keep_text:
        summary["text"] = text
    if spec.arrival == "open":
        summary["rate"] = spec.load
        summary["achieved"] = report.throughput_ops_s / spec.load
    return summary


def ladder_scalars() -> dict:
    """The paper's scalar ladder: headline latencies and ttcp."""
    values = dict(headline_scalars())
    values.update(ttcp_results())
    values["nx_overhead_us"] = values["nx_small_au_us"] - values["raw_small_au_us"]
    return values


def ladder_peaks() -> dict:
    """The extra ladder points the per-library metrics need."""
    return {
        "raw_small_au2_us": vmmc_pingpong(
            STRATEGIES["AU-2copy"], 4, iterations=8).one_way_latency_us,
        "nx_peak_mb_s": PEAK_SIZE / nx_pingpong("DU-0copy", PEAK_SIZE,
                                                iterations=8),
        "sockets_peak_mb_s": PEAK_SIZE / socket_pingpong(
            "DU-1copy", PEAK_SIZE, iterations=8),
        "vrpc_peak_mb_s": PEAK_SIZE / vrpc_pingpong(
            PEAK_SIZE, automatic=True, iterations=6),
    }


def unit(job: dict) -> dict:
    spec = WorkloadSpec(**job["spec"])
    paper = ladder_scalars()
    run_workload(replace(spec, requests=job["warmup"]))
    setup_s = time.monotonic() - job["spawned"]
    start = time.perf_counter()
    report = run_workload(spec)
    host_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "host_s": host_s, "rss_kb": rss_kb,
            "paper": paper, "run": summarize(spec, report)}


def reference(job: dict) -> dict:
    spec = WorkloadSpec(**job["spec"])
    ref = summarize(spec, run_workload(spec), keep_text=True)
    points = []
    for rate in job["grid"]:
        if rate == spec.load:
            point = ref
        else:
            at_rate = replace(spec, load=rate)
            point = summarize(at_rate, run_workload(at_rate))
        points.append(point)
        if not point_passes(point) and rate >= spec.load:
            break
    out = {"ref": ref, "points": points}
    if job["layers"]:
        small = replace(spec, requests=job["traced"])
        start = time.perf_counter()
        untraced = run_workload(small)
        untraced_s = time.perf_counter() - start
        start = time.perf_counter()
        traced = run_workload(replace(small, trace=True))
        traced_s = time.perf_counter() - start
        profile = build_profile(traced.spans, traced.metrics)
        out.update(
            untraced=summarize(small, untraced),
            traced=summarize(small, traced),
            untraced_s=untraced_s,
            traced_s=traced_s,
            span_count=len(traced.spans),
            span_limit=inspect.signature(Tracer).parameters["limit"].default,
            stage_us=profile.stage_means(),
            conservation_error=profile.conservation_error,
            skipped_trees=profile.skipped_trees,
            peaks=ladder_peaks(),
        )
    return out


def profiled(job: dict) -> dict:
    spec = WorkloadSpec(**job["spec"])
    run_workload(replace(spec, requests=job["warmup"]))
    profiler = cProfile.Profile()
    profiler.enable()
    report = run_workload(spec)
    profiler.disable()
    self_times: dict = {}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        self_times[filename] = self_times.get(filename, 0.0) + row[2]
    return {"shares": host_shares(self_times), "run": summarize(spec, report)}


JOBS = {"unit": unit, "reference": reference, "cprofile": profiled}


def main(argv) -> int:
    job = json.loads(argv[0])
    print(json.dumps(JOBS[job["job"]](job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
