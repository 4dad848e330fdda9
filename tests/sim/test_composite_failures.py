"""Regression tests: AllOf child-failure semantics.

A child that fails *before* a composite triggers fails the composite
(and the exception is owned by whoever waits on the composite).  A child
that fails *after* the composite already triggered used to be silently
swallowed; it must now be re-raised out of the event loop unless some
other consumer defuses it — the same "bugs never pass silently"
discipline Process._crash applies.
"""

import pytest

from repro.sim import AllOf, Simulator, spawn


class Boom(RuntimeError):
    pass


def test_all_of_second_failure_surfaces():
    sim = Simulator()
    first = sim.event()
    second = sim.event()
    composite = AllOf(sim, [first, second])
    seen = []
    composite.add_callback(lambda e: seen.append(e.ok))
    sim.schedule_call(1.0, lambda: first.fail(Boom("first")))
    sim.schedule_call(2.0, lambda: second.fail(Boom("second")))
    with pytest.raises(Boom, match="second"):
        sim.run()
    assert seen == [False]


def _failed_all_of(sim, late):
    """An AllOf that a first child fails at t=1, before ``late`` does."""
    first = sim.event()
    AllOf(sim, [first, late])
    sim.schedule_call(1.0, lambda: first.fail(Boom("first")))


def test_late_failure_consumed_by_waiting_process_does_not_surface():
    sim = Simulator()
    bad = sim.event()
    _failed_all_of(sim, bad)
    caught = []

    def watcher():
        try:
            yield bad
        except Boom as exc:
            caught.append(str(exc))

    spawn(sim, watcher())
    sim.schedule_call(5.0, lambda: bad.fail(Boom("handled elsewhere")))
    sim.run()  # must not raise: the watcher consumed the failure
    assert caught == ["handled elsewhere"]


def test_manual_defuse_suppresses_late_failure():
    sim = Simulator()
    bad = sim.event()
    _failed_all_of(sim, bad)

    def fail_defused():
        bad.fail(Boom("deliberate"))
        bad.defuse()

    sim.schedule_call(5.0, fail_defused)
    sim.run()  # must not raise


def test_early_child_failure_still_fails_composite_and_is_defused():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(10.0)
    composite = AllOf(sim, [bad, slow])
    caught = []

    def waiter():
        try:
            yield composite
        except Boom as exc:
            caught.append(str(exc))

    spawn(sim, waiter())
    sim.schedule_call(1.0, lambda: bad.fail(Boom("early")))
    sim.run()
    assert caught == ["early"]
    assert bad.defused  # the composite took ownership of the failure


def test_process_wait_defuses_failed_event():
    sim = Simulator()
    bad = sim.event()
    caught = []

    def waiter():
        try:
            yield bad
        except Boom:
            caught.append(True)

    spawn(sim, waiter())
    sim.schedule_call(1.0, lambda: bad.fail(Boom()))
    sim.run()
    assert caught == [True]
    assert bad.defused
