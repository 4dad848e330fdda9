"""Property test: the NIC arbiter grants exactly as ``Resource(capacity=1)``.

:class:`~repro.hardware.nic.arbiter.Arbiter` is a purpose-built
single-slot lock with two priority classes whose claimants are
callbacks, not processes.  :class:`~repro.sim.Resource` stays in the
codebase (the CPU scheduler uses it), so it is a free oracle: the same
random schedule of claims — arrival instant, priority, hold time — is
fed to the lock as scheduled callbacks and to a one-slot ``Resource``
as the processes the NIC used to run, and everything observable must
match exactly, floats included:

* which claim is granted, in what order, at what instant;
* the queue length, busy time and wait time seen at every grant;
* the final ``busy_time``, ``wait_time`` and ``grants``, and the
  metrics snapshot the utilization report renders.

Arrival and hold times come from a coarse grid so same-instant ties
(and zero holds) are common.  ``derandomize=True`` keeps the sweep
fixed-seed, like the seeded fault schedules.
"""

from hypothesis import given, settings, strategies as st

from repro.hardware.nic.arbiter import Arbiter
from repro.sim import Resource, Simulator, spawn

claims = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40).map(lambda n: n * 0.25),
        st.sampled_from([0, 1]),
        st.sampled_from([0.0, 0.2, 0.25, 0.7, 1.0, 1.2, 3.1]),
    ),
    min_size=1,
    max_size=40,
)


def run_oracle(schedule):
    sim = Simulator()
    port = Resource(sim, capacity=1, name="arbiter-n0")
    seen = []

    def claimant(i, at, priority, hold):
        yield sim.timeout(at)
        request = port.request(priority=priority)
        if not request.triggered:
            yield request
        seen.append((i, sim.now, port.queue_length, port.busy_time,
                     port.wait_time))
        yield sim.timeout(hold)
        port.release(request)

    for i, (at, priority, hold) in enumerate(schedule):
        spawn(sim, claimant(i, at, priority, hold))
    sim.run()
    return seen, port


def run_lock(schedule):
    sim = Simulator()
    port = Arbiter(sim, node_id=0)
    seen = []

    def granted(i, hold):
        seen.append((i, sim.now, port.queue_length, port.busy_time,
                     port.wait_time))
        sim.schedule_call(hold, port.release)

    def claim(i, priority, hold):
        if port.acquire(priority, granted, i, hold):
            granted(i, hold)

    for i, (at, priority, hold) in enumerate(schedule):
        sim.schedule_call(at, claim, i, priority, hold)
    sim.run()
    return seen, port


@given(claims)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_lock_grants_like_a_one_slot_resource(schedule):
    expected, oracle = run_oracle(schedule)
    got, lock = run_lock(schedule)
    assert got == expected
    assert len(got) == len(schedule)
    assert (lock.busy_time, lock.wait_time, lock.grants) == (
        oracle.busy_time, oracle.wait_time, oracle.grants)
    assert lock.metrics_snapshot() == oracle.metrics_snapshot()
    assert lock.queue_length == 0


def test_incoming_claim_overtakes_queued_outgoing_claims():
    """Priority 0 (incoming) is served before older priority-1 claims."""
    sim = Simulator()
    port = Arbiter(sim, node_id=3)
    order = []
    assert port.acquire(1, order.append, "holder")
    assert not port.acquire(1, order.append, "out-a")
    assert not port.acquire(1, order.append, "out-b")
    assert not port.acquire(0, order.append, "in")
    assert port.queue_length == 3
    for _ in range(3):
        port.release()
        sim.run()
    assert order == ["in", "out-a", "out-b"]
    port.release()
    assert port.metrics_snapshot()["count"] == 4
    assert port.acquire(0, order.append, "free again")
