"""Pipelined SHRIMP RPC under seeded fault schedules.

Out-of-order reply matching is the property faults stress hardest:
with ``window`` sequence-numbered calls in flight, a dropped call or
reply triggers per-frame retransmission, and a retransmitted call whose
reply was already produced must be answered by *replaying* the logged
reply image — never by re-executing the procedure or by handing one
ticket another ticket's reply.  The harness checks every finished value
against the expected function of its own arguments, so cross-matched
replies fail as corruption rather than passing by luck.
"""

from dataclasses import replace

import pytest

from repro.sim.faults import FaultPlan
from repro.workload import WorkloadSpec, run_workload
from tests.faults import harness

pytestmark = pytest.mark.slow


def _check(outcome, sides):
    assert sorted(outcome) == sorted(sides), "a side exited without outcome"
    assert set(outcome.values()) <= {"ok", "timeout"}


@pytest.mark.parametrize("seed", range(400, 420))
def test_pipelined_calls_complete_or_raise(seed):
    outcome, _system = harness.run_srpc_pipelined_exchange(seed)
    _check(outcome, ["client", "server"])


@pytest.mark.parametrize("seed,window", [(430, 2), (431, 2), (432, 8),
                                         (433, 8), (434, 3), (435, 5)])
def test_pipelined_window_shapes(seed, window):
    outcome, _system = harness.run_srpc_pipelined_exchange(seed,
                                                           window=window)
    _check(outcome, ["client", "server"])


@pytest.mark.parametrize("seed", range(440, 446))
def test_pipelined_dense_fault_schedule(seed):
    """A denser schedule (12 faults over a short horizon) leans on the
    replay path: most calls see at least one retransmission."""
    outcome, _system = harness.run_srpc_pipelined_exchange(
        seed, count=12, horizon_us=1500.0)
    _check(outcome, ["client", "server"])


@pytest.mark.parametrize("seed", [450, 451, 452])
def test_pipelined_same_seed_is_deterministic(seed):
    first, _ = harness.run_srpc_pipelined_exchange(seed)
    second, _ = harness.run_srpc_pipelined_exchange(seed)
    assert first == second


PIPELINED_KV = WorkloadSpec(transport="srpc", arrival="open",
                            load=100_000.0, concurrency=4, requests=60,
                            keys=64, pipeline_window=4)


@pytest.mark.parametrize("seed", range(460, 490))
def test_pipelined_kv_resolves_every_request_under_faults(seed):
    """The KV service over 4-deep SHRIMP RPC windows under a seeded
    fault plan: pipelined submits, synchronous calls and the hardened
    server loop meet the faults together, and the replica walk still
    answers every request."""
    plan = FaultPlan.from_seed(seed, horizon_us=3000.0, count=8)
    report = run_workload(replace(PIPELINED_KV, seed=seed), fault_plan=plan)
    assert (report.completed + report.errors + report.rejected
            == PIPELINED_KV.requests)
    assert report.errors == 0
    assert report.corruptions == 0
