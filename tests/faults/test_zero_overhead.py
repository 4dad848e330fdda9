"""Fault machinery is free when disabled — byte-identical latencies.

Every hardware fault site and every library hardening path is guarded
by a single attribute check (``faults.enabled`` at the sites,
``hardened`` in the protocols).  With no armed plan, a run must
schedule exactly the same events as before the fault subsystem existed,
so the figure benchmarks reproduce the pre-fault goldens *exactly* —
``==`` on floats, not ``approx``.  Any drift here means the fault code
leaked simulated time or reordered events into fault-free runs.
"""

from repro.bench.libraries import (
    nx_pingpong,
    socket_pingpong,
    srpc_inout_rtt,
    vrpc_pingpong,
)
from repro.bench.pingpong import one_word_latency
from repro.sim.faults import FaultPlan
from repro.testbed import make_system


def test_faults_disarmed_by_default():
    system = make_system()
    assert system.faults.enabled is False
    assert system.faults.firing_log() == []


def test_armed_plan_enables_the_sites():
    plan = FaultPlan.from_seed(0, count=2)
    system = make_system(fault_plan=plan)
    assert system.faults.enabled is True


def test_one_word_latency_goldens():
    assert one_word_latency(automatic=True) == 4.745229110512355
    assert one_word_latency(automatic=False) == 7.574172506738478


def test_nx_pingpong_golden():
    assert nx_pingpong("AU-1copy", 64) == 21.25241078167128


def test_socket_pingpong_golden():
    assert socket_pingpong("DU-1copy", 256) == 50.688927223720064


def test_vrpc_pingpong_golden():
    assert vrpc_pingpong(64) == 46.108657681937984


def test_srpc_inout_rtt_golden():
    assert srpc_inout_rtt(16) == 13.269460916440039
