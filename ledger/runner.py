"""``ledger run``: spawn the measurement children and assemble the ledger.

The parent never imports the simulator.  It runs every child one at a
time (at most one is alive), repeats the host unit round-robin across
the selected workloads until the time budget is spent, then runs each
workload's reference and profile children and turns their output into
the metrics ``BENCHMARK.json`` declares, plus named correctness checks.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import (find_knee, hardware_metrics, kv_counters,
                       paper_errors, parse_utilization)
from .workloads import SIM_SEED, Workload

ROOT = Path(__file__).resolve().parent.parent

#: Host units per workload even when the time budget is already spent
#: (a smoke run needs only the two the report-identity check compares).
MIN_REPEATS = 3
MIN_REPEATS_SMOKE = 2
#: Requests in each child's warm-up run.
WARMUP_REQUESTS = 50
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Largest relative gap the trace profile may leave between its stage
#: totals and the request time it folds.
CONSERVATION_LIMIT = 1e-9


class ChildError(RuntimeError):
    """A measurement child exited abnormally."""


def load_declared() -> dict:
    """The metric declarations of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_child(job: dict) -> dict:
    """Run one job in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    job = dict(job, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ledger.child", json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildError("%s child timed out after %.0f s"
                         % (job["job"], exc.timeout)) from exc
    if proc.returncode != 0:
        raise ChildError("%s child exited %d:\n%s"
                         % (job["job"], proc.returncode,
                            proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Outcome:
    """Everything one workload's run produced."""

    values: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _per_op(run: dict, op: str) -> Tuple[int, float]:
    entry = run["per_op"].get(op, {"count": 0, "p50_us": 0.0})
    return entry["count"], entry["p50_us"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def assemble(grid: Sequence[float], units: Sequence[dict], ref: dict,
             prof: Optional[dict], end_to_end: bool,
             per_layer: bool) -> Outcome:
    """Turn one workload's child results into metrics and checks.

    ``grid`` is the capacity sweep the reference child was given (empty
    for a closed loop, whose capacity is its throughput)."""
    out = Outcome()
    host = [u["host_s"] for u in units]
    out.samples = {"host_s": host,
                   "setup_s": [u["setup_s"] for u in units],
                   "rss_kb": [u["rss_kb"] for u in units]}
    paper = units[0]["paper"]
    errors = paper_errors(paper)

    runs = [("unit", u["run"]) for u in units] + [("reference", ref["ref"])]
    runs += [("sweep@%g" % p["rate"], p) for p in ref["points"]
             if p["rate"] != ref["ref"].get("rate")]
    if per_layer:
        runs += [("untraced", ref["untraced"]), ("traced", ref["traced"]),
                 ("cprofile", prof["run"])]
    for name, run in runs:
        answered = run["completed"] + run["errors"] + run["rejected"]
        out.check("conservation:" + name, answered == run["offered"],
                  "completed+errors+rejected = %d of %d offered"
                  % (answered, run["offered"]))
        bad = run["errors"] + run["rejected"] + run["corruptions"]
        out.check("no_failed_ops:" + name, bad == 0,
                  "%d errors, %d rejected, %d corruptions"
                  % (run["errors"], run["rejected"], run["corruptions"]))
        out.attempted += run["offered"]
        out.failed += bad
    identities = {(u["run"]["sha"], u["run"]["events"]) for u in units}
    out.check("unit_reports_identical", len(identities) == 1,
              "%d distinct reports over %d interpreters"
              % (len(identities), len(units)))
    out.check("ladder_identical",
              all(u["paper"] == paper for u in units),
              "ladder scalars differ between interpreters")

    if end_to_end:
        ref_run = ref["ref"]
        out.values.update(
            host_s=min(host),
            setup_s=statistics.median(out.samples["setup_s"]),
            peak_rss_mb=max(out.samples["rss_kb"]) / 1024.0,
            sim_p50_us=ref_run["p50_us"],
            sim_p99_us=ref_run["p99_us"],
            paper_err_pct=errors["paper_err_pct"],
        )
        if grid:
            knee, censored = find_knee(ref["points"], grid)
            out.check("knee_inside_grid", not censored,
                      "knee %s on the grid %g..%g ops/s"
                      % (knee, min(grid), max(grid)))
            out.values["sim_capacity_ops_s"] = knee or 0.0
        else:
            out.values["sim_capacity_ops_s"] = ref_run["throughput_ops_s"]

    if per_layer:
        events = units[0]["run"]["events"]
        ref_run = ref["ref"]
        out.values["sim.events"] = float(events)
        out.values["sim.host_ns_per_event"] = min(host) * 1e9 / events
        for name, share in prof["shares"].items():
            out.values["host_share." + name] = share
        out.values.update(hardware_metrics(
            parse_utilization(ref_run["text"]), ref_run["completed"]))
        for stage, us in ref["stage_us"].items():
            out.values["stage_us." + stage] = us
        out.values["obs.trace_p50_shift_pct"] = 100.0 * (
            ref["traced"]["p50_us"] / ref["untraced"]["p50_us"] - 1.0)
        out.values["obs.trace_host_overhead_pct"] = 100.0 * (
            ref["traced_s"] / ref["untraced_s"] - 1.0)
        out.values["obs.profile_conservation_err"] = ref["conservation_error"]
        gets, get_p50 = _per_op(ref_run, "get")
        puts, put_p50 = _per_op(ref_run, "put")
        counters = kv_counters(ref_run["text"])
        out.values.update({
            "apps.kv.get_p50_us": get_p50,
            "apps.kv.put_p50_us": put_p50,
            "apps.kv.scan_p50_us": _per_op(ref_run, "scan")[1],
            "apps.kv.server_gets_per_get": _ratio(counters["gets"], gets),
            "apps.kv.onesided_hit_ratio": _ratio(counters["onesided_hits"],
                                                 gets),
            "apps.kv.repl_applied_per_put": _ratio(counters["repl_applied"],
                                                   puts),
            "apps.kv.failovers": float(ref_run["failovers"]),
        })
        peaks = ref["peaks"]
        out.values.update({
            "vmmc.au_word_us": paper["au_word_wt_us"],
            "vmmc.au_word_uncached_us": paper["au_word_uncached_us"],
            "vmmc.du_word_us": paper["du_word_us"],
            "vmmc.du_0copy_peak_mb_s": paper["du_0copy_peak_mb_s"],
            "vmmc.raw_small_au_us": paper["raw_small_au_us"],
            "libs.nx.small_us": paper["nx_small_au_us"],
            "libs.nx.overhead_us": paper["nx_overhead_us"],
            "libs.nx.peak_mb_s": peaks["nx_peak_mb_s"],
            "libs.sockets.small_us": paper["socket_small_au_us"],
            "libs.sockets.overhead_us": (paper["socket_small_au_us"]
                                         - peaks["raw_small_au2_us"]),
            "libs.sockets.peak_mb_s": peaks["sockets_peak_mb_s"],
            "libs.sockets.ttcp_7k_mb_s": paper["ttcp_7k_mb_s"],
            "libs.sockets.ttcp_70b_mb_s": paper["ttcp_70b_mb_s"],
            "libs.rpc.vrpc_null_rtt_us": paper["vrpc_null_rtt_us"],
            "libs.rpc.vrpc_peak_mb_s": peaks["vrpc_peak_mb_s"],
            "libs.shrimp_rpc.null_rtt_us": paper["srpc_null_inout_rtt_us"],
            "paper_err_pct.anchors": errors["paper_err_pct.anchors"],
            "paper_err_pct.heldout": errors["paper_err_pct.heldout"],
        })
        out.check("trace_under_span_limit",
                  ref["span_count"] < ref["span_limit"],
                  "%d spans, tracer limit %d"
                  % (ref["span_count"], ref["span_limit"]))
        out.check("profile_conserved",
                  ref["conservation_error"] <= CONSERVATION_LIMIT,
                  "conservation error %g" % ref["conservation_error"])
        out.check("profile_no_skipped_trees", ref["skipped_trees"] == 0,
                  "%d trees without a closed root" % ref["skipped_trees"])
        out.check("cprofile_report_identical",
                  prof["run"]["sha"] == units[0]["run"]["sha"],
                  "the profiled run's report differs from the timed one")
    return out


@dataclass
class RunConfig:
    """What one ``ledger run`` measures."""

    workloads: Sequence[Workload]
    seed: int
    sim_seed: int = SIM_SEED
    seconds: float = 10.0
    end_to_end: bool = True
    per_layer: bool = True
    smoke: bool = False


def run(config: RunConfig, log=lambda line: None) -> Dict[str, Outcome]:
    """Measure every selected workload; ``log`` receives progress lines."""
    workloads = [w.smoke() if config.smoke else w for w in config.workloads]
    units: Dict[str, List[dict]] = {w.name: [] for w in workloads}
    start = time.monotonic()
    budget = config.seconds * len(workloads)
    rounds = 0
    min_rounds = MIN_REPEATS_SMOKE if config.smoke else MIN_REPEATS
    while rounds < min_rounds or time.monotonic() - start < budget:
        for workload in workloads:
            units[workload.name].append(run_child({
                "job": "unit", "spec": workload.spec_at(config.seed),
                "warmup": WARMUP_REQUESTS}))
        rounds += 1
        log("host units: round %d done after %.1f s"
            % (rounds, time.monotonic() - start))
    outcomes = {}
    for workload in workloads:
        grid = workload.grid if config.end_to_end else ()
        ref = run_child({
            "job": "reference", "spec": workload.spec_at(config.sim_seed),
            "grid": list(grid), "layers": config.per_layer,
            "traced": workload.traced_requests})
        prof = None
        if config.per_layer:
            prof = run_child({
                "job": "cprofile", "spec": workload.spec_at(config.seed),
                "warmup": WARMUP_REQUESTS})
        outcomes[workload.name] = assemble(
            grid, units[workload.name], ref, prof,
            config.end_to_end, config.per_layer)
        log("%s: measured" % workload.name)
    return outcomes
