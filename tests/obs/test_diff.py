"""Differential attribution: stage deltas, closure, bench diffs.

`diff_profiles` must satisfy the conservation property the acceptance
criterion names: the per-stage deltas sum to the end-to-end delta
(within the 5% closure gate when scored against measured histogram
means).  `diff_bench_payloads` must compare every schema the shared
writer knows and refuse mismatched ones.
"""

from repro.obs import PROFILE_STAGES, diff_bench_payloads, diff_profiles
from repro.obs.profile import Profile, RequestProfile


def _profile(per_request_stages):
    """Build a synthetic Profile from per-request stage dicts."""
    profile = Profile()
    for i, stages in enumerate(per_request_stages):
        full = {s: stages.get(s, 0.0) for s in PROFILE_STAGES}
        total = sum(full.values())
        profile.requests.append(RequestProfile(
            tid=i + 1, op="get", total_us=total,
            dispatch_us=full["queueing"], stages=full))
        profile.total_us += total
        for stage, us in full.items():
            profile.stage_totals[stage] = (
                profile.stage_totals.get(stage, 0.0) + us)
    return profile


def test_stage_deltas_sum_to_the_profile_mean_delta():
    a = _profile([{"nic": 20.0, "cpu": 10.0},
                  {"nic": 30.0, "cpu": 10.0}])
    b = _profile([{"nic": 12.0, "cpu": 14.0},
                  {"nic": 18.0, "cpu": 14.0}])
    diff = diff_profiles(a, b)
    assert diff.a_requests == diff.b_requests == 2
    # A mean 35, B mean 29: nic -10, cpu +4.
    assert abs(diff.measured_delta_us - (-6.0)) < 1e-9
    assert abs(diff.attributed_delta_us - (-6.0)) < 1e-9
    assert diff.closure_error < 1e-9
    by_stage = {s.stage: s.delta_us for s in diff.stages}
    assert abs(by_stage["nic"] - (-10.0)) < 1e-9
    assert abs(by_stage["cpu"] - 4.0) < 1e-9


def test_closure_scored_against_measured_means():
    a = _profile([{"nic": 50.0}])
    b = _profile([{"nic": 40.0}])
    # Histogram means drift from profile means by quantization; the
    # closure must be computed against what the caller measured.
    diff = diff_profiles(a, b, measured_a=50.0, measured_b=41.0)
    assert abs(diff.measured_delta_us - (-9.0)) < 1e-9
    assert abs(diff.attributed_delta_us - (-10.0)) < 1e-9
    assert abs(diff.closure_error - (1.0 / 9.0)) < 1e-9
    assert "VIOLATED" in diff.report()


def test_closure_denominator_floors_at_one_microsecond():
    a = _profile([{"nic": 10.0}])
    b = _profile([{"nic": 10.0}])
    diff = diff_profiles(a, b, measured_a=10.0, measured_b=10.03)
    # Near-zero measured delta must not blow the ratio up: the error
    # is 0.03/1.0 (floored denominator), not 0.03/0.03 = 100%.
    assert abs(diff.closure_error - 0.03) < 1e-9
    assert "OK" in diff.report()


def test_report_lists_every_stage_and_the_sum_row():
    a = _profile([{"nic": 20.0}])
    b = _profile([{"nic": 25.0, "queueing": 5.0}])
    text = diff_profiles(a, b, label="test pair").report()
    for stage in PROFILE_STAGES:
        assert stage in text
    assert "SUM" in text
    assert "test pair" in text
    assert "closure:" in text


def test_tail_attribution_uses_p99_requests():
    a = _profile([{"nic": 10.0}] * 9 + [{"nic": 100.0}])
    b = _profile([{"nic": 10.0}] * 9 + [{"nic": 150.0, "mesh": 20.0}])
    diff = diff_profiles(a, b)
    assert diff.p99_b_us > diff.p99_a_us
    tail = {s.stage: s.delta_us for s in diff.tail_stages}
    assert tail["nic"] > 0.0
    assert "p99 tail attribution" in diff.report()


# ---------------------------------------------------------------- bench


def _capacity_payload(knee, p99):
    return {
        "schema": "repro.bench.capacity/v1",
        "seed": 11, "loads": [10000.0], "config": {}, "mode": "sweep",
        "knee_load": knee,
        "points": [{"offered_load": 10000.0, "throughput": 9900.0,
                    "p50_us": 40.0, "p99_us": p99}],
    }


def test_bench_diff_capacity_sweeps():
    text = diff_bench_payloads(_capacity_payload(150000.0, 90.0),
                               _capacity_payload(250000.0, 70.0))
    assert "repro.bench.capacity/v1" in text
    assert "knee" in text
    assert "+66.7%" in text            # knee 150k -> 250k
    assert "-22.2%" in text            # p99 90 -> 70


def test_bench_diff_reports_missing_knees():
    text = diff_bench_payloads(_capacity_payload(None, 90.0),
                               _capacity_payload(200000.0, 90.0))
    assert "no knee in range" in text


def test_bench_diff_antientropy():
    def payload(rounds, stale):
        return {"schema": "repro.antientropy.convergence/v1",
                "seed": 3, "interval_us": 1000.0,
                "staleness": {"stale": stale, "reads": 100},
                "convergence": {"rounds": rounds, "repaired": 5,
                                "divergent_last": 0,
                                "divergent_high": 9,
                                "converged_at_us": 5000.0},
                "spec_line": "workload ..."}
    text = diff_bench_payloads(payload(4, 12), payload(2, 0))
    assert "rounds: A 4 -> B 2" in text
    assert "stale reads: A 12/100 -> B 0/100" in text


def test_bench_diff_refuses_mismatched_schemas():
    text = diff_bench_payloads(
        _capacity_payload(1.0, 1.0),
        {"schema": "repro.antientropy.convergence/v1"})
    assert "schemas differ" in text
    assert "nothing comparable" in text
