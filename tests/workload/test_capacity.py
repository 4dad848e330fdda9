"""Tests for the capacity sweep: knee detection on synthetic points,
and (slow) a real sweep showing the saturation signature."""

import pytest

from repro.__main__ import main
from repro.bench.capacity import (
    MITIGATIONS_OFF,
    CapacityPoint,
    CapacityResult,
    PairedCapacityResult,
    capacity_sweep,
    find_knee,
    mitigation_pair,
    paired_capacity_sweep,
)
from repro.bench.report import load_bench_json
from repro.workload import WorkloadSpec
from tests.workload.test_overload import spec_from_config


def point(offered, throughput, p50, p99, errors=0):
    return CapacityPoint(offered_load=offered, throughput=throughput,
                         p50_us=p50, p99_us=p99, errors=errors)


class TestFindKnee:
    """Knee detection over synthetic sweep points."""

    def test_no_points_no_knee(self):
        assert find_knee([]) is None

    def test_healthy_sweep_has_no_knee(self):
        points = [point(load, load * 0.99, 40.0, 80.0)
                  for load in (1000, 2000, 4000)]
        assert find_knee(points) is None

    def test_tail_divergence_marks_the_knee(self):
        points = [
            point(10_000, 9_900, 40.0, 80.0),
            point(20_000, 19_800, 45.0, 95.0),
            point(40_000, 39_000, 60.0, 400.0),   # p99 blows past 3x baseline
            point(80_000, 35_000, 300.0, 2000.0),  # output falls past the peak
        ]
        assert find_knee(points) == 40_000

    def test_knee_is_the_output_maximum_not_first_saturation(self):
        """A non-monotonic collapse: the tail first diverges at 40k, but
        throughput keeps climbing to 60k before falling off a cliff.
        The knee worth reporting is the output peak, not the first
        saturated point."""
        points = [
            point(10_000, 9_900, 40.0, 80.0),
            point(20_000, 19_800, 45.0, 95.0),
            point(40_000, 39_500, 60.0, 400.0),   # tail diverges here...
            point(60_000, 52_000, 120.0, 900.0),  # ...but output still grows
            point(80_000, 11_000, 500.0, 5000.0),  # collapse
        ]
        assert find_knee(points) == 60_000

    def test_goodput_outranks_throughput_for_the_knee(self):
        """When goodput was measured, the knee is its maximum: retries
        can push raw throughput up at a load where almost nothing
        finishes inside the SLO."""
        points = [
            CapacityPoint(offered_load=10_000, throughput=9_900,
                          p50_us=40.0, p99_us=80.0, errors=0,
                          goodput=9_800),
            CapacityPoint(offered_load=40_000, throughput=39_000,
                          p50_us=60.0, p99_us=400.0, errors=0,
                          goodput=36_000),
            CapacityPoint(offered_load=80_000, throughput=41_000,
                          p50_us=300.0, p99_us=2000.0, errors=0,
                          goodput=4_000),
        ]
        assert find_knee(points) == 40_000

    def test_knee_tie_prefers_the_lower_load(self):
        points = [
            point(10_000, 9_900, 40.0, 80.0),
            point(40_000, 39_000, 60.0, 400.0),
            point(80_000, 39_000, 300.0, 2000.0),  # same output, worse tail
        ]
        assert find_knee(points) == 40_000

    def test_throughput_shortfall_marks_the_knee(self):
        points = [
            point(10_000, 9_900, 40.0, 80.0),
            point(20_000, 19_800, 45.0, 90.0),
            point(40_000, 22_000, 50.0, 100.0),   # achieved << offered
            point(80_000, 21_000, 55.0, 110.0),   # tail never diverges
        ]
        assert find_knee(points) == 40_000

    def test_unsorted_input_is_sorted_first(self):
        points = [
            point(80_000, 30_000, 300.0, 2000.0),
            point(40_000, 39_000, 60.0, 400.0),
            point(10_000, 9_900, 40.0, 80.0),
        ]
        assert find_knee(points) == 40_000

    def test_factor_is_tunable(self):
        points = [
            point(1_000, 990, 40.0, 80.0),
            point(2_000, 1_980, 45.0, 170.0),
            point(2_100, 1_900, 45.0, 150.0),
        ]
        assert find_knee(points, tail_factor=2.0) == 2_000
        assert find_knee(points, tail_factor=3.0) is None

    def test_a_maximum_at_the_top_of_the_grid_is_no_knee(self):
        """Output still highest at the sweep's last load shows no peak:
        it may keep rising past the grid.  The same sweep extended past
        a drop has its knee inside."""
        points = [
            point(10_000, 9_900, 40.0, 80.0),
            point(40_000, 30_000, 60.0, 400.0),   # saturated
            point(80_000, 34_000, 300.0, 2000.0),  # still rising
        ]
        assert find_knee(points) is None
        points.append(point(160_000, 20_000, 900.0, 6000.0))
        assert find_knee(points) == 80_000


class TestPairedVerdict:
    """The A/B report on synthetic sweeps: when the knees cannot tell
    the runs apart, the top load both sweeps measured does."""

    A = WorkloadSpec(arrival="open")
    B = WorkloadSpec(arrival="open", cache_keys=8)
    TOP = ("at 200000 ops/s offered: B achieved 190000 ops/s "
           "(p99 210.00 us), A 150000 ops/s (p99 700.00 us)")

    def report(self, a_points, b_points):
        a = CapacityResult(self.A, a_points, find_knee(a_points))
        b = CapacityResult(self.B, b_points, find_knee(b_points))
        return PairedCapacityResult(a, b).report().splitlines()

    def test_plateau_compares_the_top_shared_load(self):
        """Both sweeps still rising at the grid's top: no knee either
        side.  B measured one more load than A; the line takes the
        highest load both measured."""
        a_points = [point(100_000, 99_000, 40.0, 80.0),
                    point(200_000, 150_000, 60.0, 700.0)]
        b_points = [point(100_000, 99_500, 35.0, 70.0),
                    point(200_000, 190_000, 45.0, 210.0),
                    point(300_000, 240_000, 60.0, 900.0)]
        lines = self.report(a_points, b_points)
        assert lines[-2:] == [
            "verdict: neither run saturated inside the swept range",
            self.TOP]

    def test_equal_knees_compare_the_top_shared_load(self):
        a_points = [point(100_000, 99_000, 40.0, 80.0),
                    point(150_000, 152_000, 50.0, 400.0),
                    point(200_000, 150_000, 60.0, 700.0)]
        b_points = [point(100_000, 99_500, 35.0, 70.0),
                    point(150_000, 195_000, 40.0, 300.0),
                    point(200_000, 190_000, 45.0, 210.0)]
        lines = self.report(a_points, b_points)
        assert lines[-2:] == ["verdict: knee unchanged at ~150000 ops/s",
                              self.TOP]

    def test_a_knee_move_needs_no_extra_line(self):
        a_points = [point(100_000, 99_000, 40.0, 80.0),
                    point(150_000, 152_000, 50.0, 400.0),
                    point(200_000, 150_000, 60.0, 700.0)]
        b_points = [point(100_000, 99_500, 35.0, 70.0),
                    point(200_000, 199_000, 45.0, 400.0),
                    point(300_000, 150_000, 60.0, 900.0)]
        lines = self.report(a_points, b_points)
        assert lines[-1].startswith("verdict: mitigation moved the knee")


def test_sweep_requires_open_loop():
    with pytest.raises(ValueError):
        capacity_sweep([1000.0], WorkloadSpec(arrival="closed"))


def test_ab_artifact_config_rebuilds_its_pair(tmp_path):
    """An ``--ab --onesided`` artifact's config is its B side: the pair
    rebuilt from that config alone reproduces both sweeps, and the
    label describes the config it sits beside."""
    path = str(tmp_path / "ab.json")
    assert main(["capacity", "--ab", "--onesided", "--requests", "40",
                 "--concurrency", "4", "--loads", "100000,200000",
                 "--json", path]) == 0
    payload = load_bench_json(path)
    spec = spec_from_config(payload["config"])
    assert spec.onesided_reads
    assert payload["label"] == spec.mitigation_label()
    knobs = {name: getattr(spec, name) for name in MITIGATIONS_OFF}
    result = paired_capacity_sweep(payload["loads"],
                                   *mitigation_pair(spec, **knobs))
    fresh = result.to_payload()
    assert fresh["baseline"] == payload["baseline"]
    assert fresh["mitigated"] == payload["mitigated"]


@pytest.mark.slow
def test_real_sweep_shows_the_saturation_knee():
    """The acceptance-criteria sweep: past the knee, achieved throughput
    plateaus while p99 diverges.  Goodput counts completions inside a
    300 us SLO, so it peaks at the knee; raw throughput alone keeps
    creeping up to the grid's top and shows no peak."""
    spec = WorkloadSpec(seed=1, transport="srpc", arrival="open",
                        concurrency=4, requests=120, keys=60,
                        slo_latency_us=300.0)
    loads = [10_000, 40_000, 80_000, 160_000, 320_000]
    result = capacity_sweep(loads, spec)
    assert result.knee_load is not None and result.knee_load < max(loads)
    past = [pt for pt in result.points if pt.offered_load > result.knee_load]
    achieved = [pt.throughput for pt in past]
    assert max(achieved) < 1.1 * min(achieved)
    assert all(pt.p99_us > 3.0 * result.points[0].p99_us for pt in past)
    ordered = sorted(result.points, key=lambda pt: pt.offered_load)
    first, last = ordered[0], ordered[-1]
    assert last.p99_us > 3.0 * first.p99_us          # tail diverged
    assert last.throughput < 0.5 * last.offered_load  # throughput plateaued
    assert "saturation knee" in result.report()
