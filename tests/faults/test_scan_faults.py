"""Scatter-gather scans under seeded faults that strike requests.

The datapath goldens' sockets workload (60 closed-loop requests, one
in ten a scan across every shard) runs on the service's AU-2copy
sockets under plans drawn over the sites that path reaches and shifted
into the request window (``harness.plan_on_requests``).  Scans now
keep four legs in flight on four connections at once, so a lost ack
on any of them must be replayed while its socket is itself sending
(docs/FAULTS.md): every request completes, none errs and no corrupt
value reaches the client.
"""

import pytest

from repro.workload import run_workload
from tests.faults import harness
from tests.hardware.test_datapath_goldens import SOCKETS_SPEC

pytestmark = pytest.mark.slow

SEEDS = range(30)


@pytest.mark.parametrize("seed", SEEDS)
def test_scans_and_point_ops_complete_under_faults_on_requests(seed):
    plan = harness.plan_on_requests(SOCKETS_SPEC, seed,
                                    harness.AU_SOCKET_SITES)
    report = run_workload(SOCKETS_SPEC, fault_plan=plan)
    assert (report.completed, report.errors, report.corruptions) == \
        (SOCKETS_SPEC.requests, 0, 0)
    start = harness.first_request_us(SOCKETS_SPEC)
    inside = [f for f in plan if f.fired_at is not None
              and start <= f.fired_at <= start + report.duration_us]
    assert inside, "no fault struck a request"
