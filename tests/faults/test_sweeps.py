"""Seeded FaultPlan sweeps across every hardened library.

130 distinct seeds (>= the 50 the acceptance bar asks for), each driving
a full transfer pattern under a different randomized fault schedule;
the multi-client VRPC sweep also runs the server's multi-transport
wait under faults.
The harness asserts the recovery contract: intact payload or a typed
timeout, never a hang (run_processes' bounded-sim-time watchdog raises
RuntimeError if a protocol stops making progress) and never silent
corruption (payload equality is checked on every success path).
"""

import pytest

from tests.faults import harness

pytestmark = pytest.mark.slow


def _check(outcome, sides):
    assert sorted(outcome) == sorted(sides), "a side exited without outcome"
    assert set(outcome.values()) <= {"ok", "timeout"}


@pytest.mark.parametrize("variant,seed",
                         [("AU-1copy", s) for s in range(0, 10)]
                         + [("DU-2copy", s) for s in range(10, 20)])
def test_nx_transfer_completes_or_raises(variant, seed):
    outcome, _system = harness.run_nx_exchange(seed, variant=variant)
    _check(outcome, ["rank0", "rank1"])


@pytest.mark.parametrize("variant,seed",
                         [("AU-2copy", s) for s in range(100, 110)]
                         + [("DU-1copy", s) for s in range(110, 120)])
def test_socket_transfer_completes_or_raises(variant, seed):
    outcome, _system = harness.run_socket_exchange(seed, variant=variant)
    _check(outcome, ["client", "server"])


@pytest.mark.parametrize("automatic,seed",
                         [(True, s) for s in range(200, 209)]
                         + [(False, s) for s in range(210, 219)])
def test_vrpc_calls_complete_or_raise(automatic, seed):
    outcome, _system = harness.run_vrpc_exchange(seed, automatic=automatic)
    _check(outcome, ["client", "server"])


@pytest.mark.parametrize("seed", range(300, 312))
def test_srpc_calls_complete_or_raise(seed):
    outcome, _system = harness.run_srpc_exchange(seed)
    _check(outcome, ["client", "server"])


@pytest.mark.parametrize("automatic,seed",
                         [(True, s) for s in range(500, 530)]
                         + [(False, s) for s in range(530, 560)])
def test_vrpc_multiclient_calls_complete_or_raise(automatic, seed):
    """Three clients on one svc_run: the multi-transport wait, replay
    and idle bound under faults.  The harness checks every reply
    against its own call."""
    outcome, _system = harness.run_vrpc_multiclient(seed,
                                                    automatic=automatic)
    _check(outcome, ["client0", "client2", "client3", "server"])
