"""Unit tests for the simulation event loop and event primitives."""

import pytest

from repro.sim import (
    AllOf,
    Event,
    SimulationError,
    Simulator,
    Timeout,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_and_run_advances_time():
    sim = Simulator()
    seen = []
    sim.schedule_call(5.0, lambda: seen.append(sim.now))
    sim.schedule_call(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0, 5.0]
    assert sim.now == 5.0


def test_same_time_callbacks_run_in_scheduling_order():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule_call(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_call(-1.0, lambda: None)


def test_schedule_at_uses_the_deadline_verbatim():
    """``schedule_at(t)`` dispatches at exactly ``t``; the relative form
    ``schedule_call(t - now)`` would land on ``now + (t - now)``."""
    sim = Simulator()
    seen = []
    sim.schedule_call(0.1, lambda: sim.schedule_at((sim.now + 0.2) + 0.15,
                                                   lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [(0.1 + 0.2) + 0.15]
    with pytest.raises(ValueError):
        sim.schedule_at(sim.now - 1.0, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule_call(1.0, seen.append, "a")
    sim.schedule_call(10.0, seen.append, "b")
    sim.run(until=5.0)
    assert seen == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["a", "b"]


def test_step_on_empty_heap_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.schedule_call(3.0, lambda: None)
    assert sim.peek() == 3.0


def test_event_succeed_delivers_value_to_callback():
    sim = Simulator()
    ev = sim.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callback_added_after_trigger_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_timeout_fires_at_correct_time():
    sim = Simulator()
    times = []
    t = Timeout(sim, 7.5, value="x")
    t.add_callback(lambda e: times.append((sim.now, e.value)))
    sim.run()
    assert times == [(7.5, "x")]


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeout(sim, -0.1)


def test_all_of_waits_for_every_child():
    sim = Simulator()
    events = [sim.timeout(t, t) for t in (3.0, 1.0, 2.0)]
    composite = AllOf(sim, events)
    got = []
    composite.add_callback(lambda e: got.append((sim.now, e.value)))
    sim.run()
    assert got == [(3.0, [3.0, 1.0, 2.0])]


def test_composite_requires_children():
    sim = Simulator()
    with pytest.raises(ValueError):
        AllOf(sim, [])


def test_all_of_fails_if_child_fails():
    sim = Simulator()
    good = sim.timeout(1.0)
    bad = sim.event()
    composite = AllOf(sim, [good, bad])
    got = []
    composite.add_callback(lambda e: got.append(e.ok))
    bad.fail(RuntimeError("boom"))
    sim.run()
    assert got == [False]


def test_stop_simulation_returns_value():
    sim = Simulator()
    sim.schedule_call(2.0, lambda: sim.stop("answer"))
    sim.schedule_call(9.0, lambda: pytest.fail("should not run"))
    assert sim.run() == "answer"
    assert sim.now == 2.0
