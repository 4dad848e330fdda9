"""End-to-end tests of the workload engine: determinism, tail shape,
fault tolerance.  Runs are deliberately small — the capacity-scale runs
live behind the ``slow`` marker in ``test_capacity.py``."""

import pytest

from repro.sim.faults import FaultPlan
from repro.workload import WorkloadSpec, run_workload
from repro.workload.spec import Keyspace, Traffic


def small_spec(**overrides):
    base = dict(seed=1, transport="srpc", arrival="closed",
                concurrency=4, requests=40, keys=50, read_fraction=0.8)
    base.update(overrides)
    return WorkloadSpec(**base)


@pytest.mark.parametrize("transport", ["srpc", "sockets"])
def test_closed_loop_completes_and_has_a_tail(transport):
    report = run_workload(small_spec(transport=transport))
    assert report.completed == 40
    assert report.errors == 0
    assert report.corruptions == 0
    assert report.percentile(99.0) >= report.percentile(50.0) > 0.0
    assert report.throughput_ops_s > 0.0


def test_open_loop_completes_all_requests():
    report = run_workload(small_spec(arrival="open", load=5000.0))
    assert report.completed == 40
    assert report.offered_load == 5000.0
    # Sub-saturation open loop should roughly achieve what was offered.
    assert report.throughput_ops_s > 0.5 * report.offered_load


def test_same_seed_produces_byte_identical_report():
    spec = small_spec(arrival="open", load=6000.0, scan_fraction=0.05)
    first = run_workload(spec).report()
    second = run_workload(spec).report()
    assert first == second


def test_different_seed_produces_different_traffic():
    first = run_workload(small_spec(seed=1, arrival="open", load=6000.0))
    second = run_workload(small_spec(seed=2, arrival="open", load=6000.0))
    assert first.report() != second.report()


def test_scan_mix_rides_sockets_beside_srpc():
    report = run_workload(small_spec(read_fraction=0.6, scan_fraction=0.2))
    assert report.completed == 40
    assert report.per_op["scan"].count > 0
    assert report.corruptions == 0


def test_get_values_pass_integrity_check():
    report = run_workload(small_spec(read_fraction=1.0))
    assert report.misses == 0  # keyspace is fully preloaded
    assert report.corruptions == 0


def test_report_text_contains_the_advertised_sections():
    text = run_workload(small_spec()).report()
    assert "p99 us" in text and "OVERALL" in text
    assert "utilization" in text
    assert "service:" in text


def test_faulted_workload_finishes_degraded_not_hung():
    plan = FaultPlan.from_seed(3, horizon_us=3000.0, count=8)
    report = run_workload(small_spec(seed=5, requests=30), fault_plan=plan)
    assert report.completed + report.errors == 30
    assert report.fault_lines  # the report shows what fired


def test_spec_validation_rejects_bad_shapes():
    """The traffic and keyspace groups check their own ranges when
    built, and so does every spec composed of them."""
    for group, knobs in (
            (Traffic, dict(transport="carrier-pigeon")),
            (Traffic, dict(arrival="poisson")),
            (Traffic, dict(nodes=5)),
            (Traffic, dict(concurrency=0)),
            (Traffic, dict(requests=0)),
            (Traffic, dict(arrival="open", load=0.0)),
            (Keyspace, dict(read_fraction=1.5)),
            (Keyspace, dict(read_fraction=0.9, scan_fraction=0.2)),
            (Keyspace, dict(keys=0)),
            (Keyspace, dict(key_distribution="pareto")),
            (Keyspace, dict(value_sizes=((0, 1.0),)))):
        with pytest.raises(ValueError):
            group(**knobs)
        with pytest.raises(ValueError):
            WorkloadSpec(**knobs)
    Traffic(arrival="closed", load=0.0)
