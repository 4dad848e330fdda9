"""The layer ledger: its rules on synthetic inputs and one smoke run.

The smoke run (``python -m ledger run --smoke``) runs every workload in
fresh interpreters at toy sizes and must emit every metric
``BENCHMARK.json`` declares, pass every correctness check, and print
the one-line JSON summary last.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from ledger.analysis import (HOST_SHARE_NAMES, find_knee, hardware_metrics,
                             host_group, host_shares, kv_counters,
                             paper_errors, parse_utilization)
from ledger.compare import (IMPROVED, REGRESSED, UNCHANGED, UNRESOLVED,
                            compare, verdict)
from ledger.runner import ROOT, load_declared
from ledger.workloads import WORKLOADS
from repro.workload import WorkloadSpec, run_workload

DECLARED = load_declared()


def _ledger(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "ledger"] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = _ledger("run", "--smoke", "--seconds", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    with open(out) as handle:
        return proc, json.load(handle), out


# -- smoke run ---------------------------------------------------------------

def test_smoke_emits_every_declared_metric_with_units(smoke):
    proc, run, _ = smoke
    declared = {entry["name"]: entry["unit"]
                for kind in ("end_to_end", "per_layer")
                for entry in DECLARED[kind]}
    assert set(run["workloads"]) == set(WORKLOADS)
    lines = proc.stdout.splitlines()
    for name, result in run["workloads"].items():
        metrics = result["metrics"]
        assert {m: e["unit"] for m, e in metrics.items()} == declared
        for metric, entry in metrics.items():
            assert "%s %s %r %s" % (name, metric, entry["value"],
                                    entry["unit"]) in lines
    for entry in DECLARED["end_to_end"]:
        for result in run["workloads"].values():
            assert result["metrics"][entry["name"]]["value"] > 0, entry


def test_smoke_passes_every_check_and_ends_with_the_summary(smoke):
    proc, run, _ = smoke
    assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
    for result in run["workloads"].values():
        names = {check["name"] for check in result["checks"]}
        assert {"unit_reports_identical", "ladder_identical",
                "trace_under_span_limit", "profile_conserved",
                "profile_no_skipped_trees",
                "cprofile_report_identical"} <= names
        assert all(check["ok"] for check in result["checks"])
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["metrics"]["kv-srpc-sweep"]["host_s"]["unit"] == "s"
    assert "knee_inside_grid" in {
        c["name"] for c in run["workloads"]["kv-srpc-sweep"]["checks"]}


def test_smoke_host_shares_sum_to_one(smoke):
    _, run, _ = smoke
    for result in run["workloads"].values():
        shares = [result["metrics"]["host_share." + name]["value"]
                  for name in HOST_SHARE_NAMES]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        assert result["metrics"]["host_share.sim"]["value"] > 0.1


def test_compare_of_a_run_with_itself_reads_unchanged(smoke):
    _, _, out = smoke
    proc = _ledger("compare", str(out), "--", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    per_workload = len(DECLARED["end_to_end"]) + len(DECLARED["per_layer"])
    assert len(rows) == len(WORKLOADS) * per_workload
    assert all(row.split()[-1] == UNCHANGED for row in rows)


def test_run_without_the_simulator_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _ledger("run", "--workload", "kv-srpc-sweep", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_declares_the_ledger():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    names = [e["name"] for kind in ("end_to_end", "per_layer")
             for e in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    bounds = {e["name"]: e["bound"] for e in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    readme = (ROOT / "ledger" / "README.md").read_text()
    assert all("`%s`" % name in readme for name in names)


# -- knee rule ---------------------------------------------------------------

GRID = (100.0, 200.0, 300.0, 400.0)


def _points(*p99s, achieved=1.0):
    return [{"rate": rate, "p99_us": p99, "achieved": achieved}
            for rate, p99 in zip(GRID, p99s)]


def test_knee_of_a_monotone_sweep_is_the_last_passing_rate():
    assert find_knee(_points(100, 200, 600), GRID) == (200.0, False)


def test_knee_ignores_a_pass_after_the_first_collapse():
    assert find_knee(_points(100, 900, 300, 700), GRID) == (100.0, False)


def test_knee_requires_the_service_to_keep_up():
    assert find_knee(_points(100, 200, 300, achieved=0.85), GRID) == (
        None, True)


def test_knee_is_censored_at_either_end_of_the_grid():
    assert find_knee(_points(900), GRID) == (None, True)
    assert find_knee(_points(100, 200, 300, 400), GRID) == (400.0, True)


# -- report parsers ----------------------------------------------------------

def test_utilization_and_service_parsers_read_a_real_report():
    spec = WorkloadSpec(seed=11, requests=120, concurrency=4, load=50000.0)
    report = run_workload(spec)
    rows = parse_utilization(report.utilization)
    table = [line for line in report.utilization.splitlines()[2:] if line]
    assert len(rows) == len(table)
    arbiters = [r for r in rows if r["name"].startswith("arbiter-")]
    assert arbiters and all(r["busy_us"] > 0 for r in arbiters)
    metrics = hardware_metrics(rows, report.completed)
    assert metrics["hardware.arbiter.busy_us_per_req"] == pytest.approx(
        sum(r["busy_us"] for r in arbiters) / report.completed)
    assert metrics["hardware.mesh.bytes_per_req"] > 0
    assert metrics["workload.dispatch_depth_max"] >= 1
    counters = kv_counters(report.report())
    assert counters["gets"] == report.per_op["get"].count
    assert counters["repl_applied"] == report.per_op["put"].count
    assert counters["onesided_hits"] == 0


def test_parser_rejects_a_text_without_the_table():
    with pytest.raises(ValueError):
        parse_utilization("no table here")


# -- host shares and paper error ---------------------------------------------

def test_host_groups_follow_the_source_tree():
    assert host_group("/x/src/repro/sim/core.py") == "sim"
    assert host_group("/x/src/repro/hardware/nic/card.py") == "hardware.nic"
    assert host_group("/x/src/repro/hardware/bus.py") == "hardware"
    assert host_group("/x/src/repro/libs/onesided.py") == "libs"
    assert host_group("/x/src/repro/testbed.py") == "other"
    assert host_group("~") == "other"


def test_host_shares_sum_to_one():
    shares = host_shares({"/r/repro/sim/core.py": 3.0,
                          "/r/repro/libs/nx/core.py": 1.0,
                          "/usr/lib/python3/heapq.py": 1.0})
    assert set(shares) == set(HOST_SHARE_NAMES)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sim"] == pytest.approx(0.6)


def test_paper_error_is_zero_on_the_paper_itself():
    from ledger.analysis import PAPER_ANCHORS, PAPER_HELDOUT
    values = dict(PAPER_ANCHORS + PAPER_HELDOUT)
    assert paper_errors(values) == {"paper_err_pct": 0.0,
                                    "paper_err_pct.anchors": 0.0,
                                    "paper_err_pct.heldout": 0.0}
    values["ttcp_7k_mb_s"] *= 2
    assert paper_errors(values)["paper_err_pct"] == pytest.approx(10.0)


# -- compare verdicts --------------------------------------------------------

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def test_noise_within_the_bound_is_unchanged():
    head = [x * 1.01 for x in reversed(BASE)]
    assert verdict(BASE, head, "lower", 0.10) == UNCHANGED


def test_a_shift_beyond_the_bound_is_a_regression():
    head = [x * 1.2 for x in BASE]
    assert verdict(BASE, head, "lower", 0.10) == REGRESSED
    assert verdict(BASE, [x / 1.2 for x in BASE], "higher", 0.10) == REGRESSED


def test_overlapping_wide_spreads_are_unresolved():
    wide = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.05]
    head = [x * 1.05 for x in reversed(wide)]
    assert verdict(wide, head, "lower", 0.10) == UNRESOLVED


def test_a_consistent_gain_beyond_the_spread_is_an_improvement():
    head = [x * 0.9 for x in BASE]
    assert verdict(BASE, head, "lower", 0.10) == IMPROVED
    # Too few pairs to claim it.
    assert verdict(BASE[:3], head[:3], "lower", 0.10) == UNCHANGED


def test_unbounded_metrics_are_unchanged_only_within_the_base_spread():
    assert verdict([5.0], [5.0], "lower", None) == UNCHANGED
    assert verdict([5.0], [5.5], "lower", None) == UNRESOLVED


def test_compare_pairs_runs_per_workload_and_metric():
    def run(value):
        return {"workloads": {"w": {"metrics": {
            "host_s": {"value": value, "unit": "s"}}}}}
    rows = compare([run(1.0)], [run(1.5)], DECLARED)
    assert [(r.workload, r.metric, r.verdict) for r in rows] == [
        ("w", "host_s", REGRESSED)]
    assert rows[0].ratio == pytest.approx(1.5)
