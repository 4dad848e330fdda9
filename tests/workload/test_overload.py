"""Acceptance tests for overload control (docs/OVERLOAD.md).

The committed ``BENCH_capacity.json`` is an overload A/B sweep: both
sides model contended node CPUs, only the B side arms admission
control, retry budgets, and backpressure.  The fast tests here pin the
acceptance criteria against that artifact; the live tests re-run the
engine and check the invariants the JSON cannot carry — conservation
of requests at every load point, and that the sweep is reproducible
from its own config block.
"""

import json
import os

import pytest

from repro.bench.capacity import overload_pair, paired_capacity_sweep
from repro.workload import WorkloadSpec
from repro.workload.engine import run_workload

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "BENCH_capacity.json")


def bench_payload():
    with open(BENCH_PATH) as fh:
        return json.load(fh)


def spec_from_config(config):
    config = dict(config)
    config["value_sizes"] = tuple(
        (int(size), float(weight)) for size, weight in config["value_sizes"])
    return WorkloadSpec(**config)


def points_by_load(sweep):
    return {pt["offered_load"]: pt for pt in sweep["points"]}


class TestCommittedBench:
    """The acceptance criteria, pinned against BENCH_capacity.json."""

    def test_artifact_is_an_overload_pair(self):
        payload = bench_payload()
        assert payload["mode"] == "ab"
        assert payload["overload"] is True
        assert payload["config"]["admission"] is True
        assert payload["config"]["slo_latency_us"] > 0.0

    def test_goodput_survives_twice_the_knee(self):
        """At 2x the knee's offered load the controlled side keeps
        >= 90% of knee goodput while the uncontrolled side collapses."""
        payload = bench_payload()
        knee = payload["mitigated"]["knee_load"]
        assert knee is not None
        controlled = points_by_load(payload["mitigated"])
        baseline = points_by_load(payload["baseline"])
        twice = 2.0 * knee
        assert twice in controlled, "sweep must include 2x the knee"
        knee_goodput = controlled[knee]["goodput"]
        assert knee_goodput > 0.0
        assert controlled[twice]["goodput"] >= 0.90 * knee_goodput
        # The whole point of the pair: same load, no controls, collapse.
        assert baseline[twice]["goodput"] < 0.33 * knee_goodput

    def test_accepted_p99_stays_inside_the_slo_at_twice_the_knee(self):
        payload = bench_payload()
        slo = payload["config"]["slo_latency_us"]
        knee = payload["mitigated"]["knee_load"]
        controlled = points_by_load(payload["mitigated"])
        assert controlled[2.0 * knee]["p99_us"] <= slo
        # ...where the uncontrolled tail is far beyond it.
        baseline = points_by_load(payload["baseline"])
        assert baseline[2.0 * knee]["p99_us"] > 3.0 * slo

    def test_controls_engage_past_the_knee(self):
        """The survival is bought with explicit rejections, not magic:
        the controlled side sheds past the knee, the baseline never
        does (it has no admission layer), and neither side errors."""
        payload = bench_payload()
        knee = payload["mitigated"]["knee_load"]
        for pt in payload["mitigated"]["points"]:
            assert pt["errors"] == 0
            if pt["offered_load"] > knee:
                assert pt["rejected"] > 0
        for pt in payload["baseline"]["points"]:
            assert pt["rejected"] == 0
            assert pt["errors"] == 0


class TestConservation:
    """accepted + rejected + errors == offered, at every load point."""

    @pytest.mark.parametrize("load", [30_000, 60_000, 90_000])
    def test_every_request_is_accounted_for(self, load):
        spec = WorkloadSpec(
            seed=7, requests=300, concurrency=8, load=load,
            cpu_slots=1, cpu_op_us=50.0, slo_latency_us=1000.0,
            admission=True, admit_queue=8, admit_deadline_us=400.0,
            retry_budget=1, retry_base_us=50.0, backpressure=True)
        rep = run_workload(spec)
        assert rep.completed + rep.errors + rep.rejected == spec.requests
        assert "[OK]" in "\n".join(rep.overload_lines)
        if load >= 90_000:
            assert rep.rejected > 0, "admission must engage at 2x capacity"

    def test_rejections_never_leak_into_errors(self):
        """A shed request is a typed rejection, not an ST_ERROR: deep
        overload produces rejects while the error count stays zero."""
        spec = WorkloadSpec(
            seed=3, requests=300, concurrency=8, load=150_000,
            cpu_slots=1, cpu_op_us=50.0, slo_latency_us=1000.0,
            admission=True, admit_queue=4, admit_deadline_us=200.0,
            retry_budget=0)
        rep = run_workload(spec)
        assert rep.rejected > 0
        assert rep.errors == 0
        assert rep.completed + rep.rejected == spec.requests


@pytest.mark.parametrize("backpressure", [False, True])
def test_backpressure_sheds_what_waited_out_the_deadline(backpressure):
    """Far past the knee the backlog sits in the client's dispatch
    queue, where admission cannot see it.  With backpressure on, a
    request that waited longer than ``admit_deadline_us`` for a worker
    is shed undispatched: it counts as rejected and opens no
    ``kv.client`` root, and no dispatched request queued longer."""
    spec = WorkloadSpec(
        seed=11, requests=300, concurrency=16, load=120_000,
        cpu_slots=1, cpu_op_us=50.0, slo_latency_us=1000.0,
        admission=True, admit_queue=8, admit_deadline_us=400.0,
        retry_budget=1, retry_base_us=50.0, backpressure=backpressure,
        trace=True)
    rep = run_workload(spec)
    roots = [s for s in rep.spans
             if s.category == "kv.client" and s.parent is None]
    waits = [s.start - s.data["arrival"] for s in roots
             if "arrival" in s.data]
    assert rep.completed + rep.errors + rep.rejected == spec.requests
    undispatched = spec.requests - len(roots)
    if backpressure:
        assert undispatched > 0
        assert max(waits) <= spec.admit_deadline_us
    else:
        assert undispatched == 0
        assert max(waits) > spec.admit_deadline_us


@pytest.mark.slow
def test_committed_bench_reproduces_from_its_own_config():
    """make capacity-overload-json is deterministic: re-running the
    sweep from the committed config block reproduces the committed
    points exactly (same sim, same seed, same floats)."""
    payload = bench_payload()
    spec = spec_from_config(payload["config"])
    pair = overload_pair(spec, cpu_slots=spec.cpu_slots,
                         cpu_op_us=spec.cpu_op_us,
                         slo_latency_us=spec.slo_latency_us,
                         admit_queue=spec.admit_queue,
                         admit_deadline_us=spec.admit_deadline_us,
                         retry_budget=spec.retry_budget,
                         retry_base_us=spec.retry_base_us,
                         backpressure=spec.backpressure)
    assert pair[1] == spec, "the config block is the pair's B side"
    result = paired_capacity_sweep(payload["loads"], *pair)
    fresh = result.to_payload()
    assert fresh["baseline"] == payload["baseline"]
    assert fresh["mitigated"] == payload["mitigated"]
    assert "overload verdict" in result.report()
