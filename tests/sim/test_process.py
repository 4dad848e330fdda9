"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Interrupt, Process, SimulationError, Simulator, spawn


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(3.0)
        return "done"

    proc = spawn(sim, worker())
    sim.run()
    assert proc.triggered
    assert proc.ok
    assert proc.value == "done"
    assert sim.now == 3.0


def test_yield_from_subroutine_composes_time():
    sim = Simulator()

    def step(duration):
        yield sim.timeout(duration)
        return duration * 2

    def worker():
        a = yield from step(1.0)
        b = yield from step(2.0)
        return a + b

    proc = spawn(sim, worker())
    sim.run()
    assert proc.value == 6.0
    assert sim.now == 3.0


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return "child-result"

    def parent():
        result = yield spawn(sim, child())
        return result

    proc = spawn(sim, parent())
    sim.run()
    assert proc.value == "child-result"


def test_spawning_plain_function_raises():
    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_yielding_non_event_crashes_process():
    sim = Simulator()

    def worker():
        yield 42  # not an Event

    spawn(sim, worker())
    with pytest.raises(TypeError):
        sim.run()


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()

    def worker():
        try:
            yield ev
        except RuntimeError as exc:
            return "caught:%s" % exc
        return "not raised"

    proc = spawn(sim, worker())
    sim.schedule_call(1.0, lambda: ev.fail(RuntimeError("boom")))
    sim.run()
    assert proc.value == "caught:boom"


def test_uncaught_exception_with_no_waiter_surfaces():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        raise ValueError("bug in process")

    spawn(sim, worker())
    with pytest.raises(ValueError, match="bug in process"):
        sim.run()


def test_uncaught_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child bug")

    def parent():
        try:
            yield spawn(sim, child())
        except ValueError:
            return "parent saw it"

    proc = spawn(sim, parent())
    sim.run()
    assert proc.value == "parent saw it"


def test_interrupt_wakes_blocked_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    proc = spawn(sim, sleeper())
    sim.schedule_call(5.0, proc.interrupt, "wake up")
    sim.run()
    assert proc.value == ("interrupted", "wake up", 5.0)


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick():
        return "fast"
        yield  # pragma: no cover

    proc = spawn(sim, quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_event_does_not_resume_twice():
    sim = Simulator()
    resumed = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
            yield sim.timeout(50.0)  # outlive the original timeout
            resumed.append("after")

    proc = spawn(sim, sleeper())
    sim.schedule_call(1.0, proc.interrupt)
    sim.run()
    assert resumed == ["interrupt", "after"]


def test_process_is_alive_until_done():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)

    proc = spawn(sim, worker())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(ident, period):
        for _ in range(3):
            yield sim.timeout(period)
            order.append((sim.now, ident))

    spawn(sim, worker("a", 1.0))
    spawn(sim, worker("b", 1.5))
    sim.run()
    # At t=3.0 both fire; "b" resumed first because its timeout was
    # scheduled earlier (at t=1.5 vs t=2.0) — ties break by scheduling order.
    assert order == [
        (1.0, "a"),
        (1.5, "b"),
        (2.0, "a"),
        (3.0, "b"),
        (3.0, "a"),
        (4.5, "b"),
    ]


# -- plain sleeps ---------------------------------------------------------------
# A process may yield a float: an absolute deadline, slept with one
# heap entry and no Event.

def test_plain_sleep_resumes_at_its_deadline():
    sim = Simulator()

    def worker():
        yield 2.5
        first = sim.now
        yield sim.now + 1.0
        return first, sim.now

    proc = spawn(sim, worker())
    sim.run()
    assert proc.value == (2.5, 3.5)
    # Two sleeps and the start: one dispatch each.
    assert sim.events_executed == 3


def test_interrupt_cancels_a_plain_sleep():
    """Interrupted mid-sleep, the process resumes once, with Interrupt;
    the sleep's heap entry still dispatches at its deadline and is
    ignored."""
    sim = Simulator()
    resumed = []

    def sleeper():
        try:
            yield 10.0
            resumed.append(("woke", sim.now))
        except Interrupt as intr:
            resumed.append(("interrupt", intr.cause, sim.now))
        yield sim.timeout(40.0)  # an event wait across the stale entry at t=10
        resumed.append(("after", sim.now))

    proc = spawn(sim, sleeper())
    sim.schedule_call(1.0, proc.interrupt, "signal")
    sim.run()
    assert resumed == [("interrupt", "signal", 1.0), ("after", 41.0)]
    # start, interrupt, its delivery, the stale entry, the timeout
    assert sim.events_executed == 5


@pytest.mark.parametrize("sleep", ["deadline", "timeout"])
def test_sleeping_into_the_past_fails_the_process(sleep):
    """A deadline before now fails the process as a negative timeout()
    does: a ValueError at the sleep, which a waiter receives."""
    sim = Simulator()

    def child():
        yield 5.0
        if sleep == "deadline":
            yield 2.0
        else:
            yield sim.timeout(-3.0)

    def parent():
        try:
            yield spawn(sim, child())
        except ValueError:
            return ("failed", sim.now)

    proc = spawn(sim, parent())
    sim.run()
    assert proc.value == ("failed", 5.0)


@pytest.mark.parametrize("sleep", ["deadline", "timeout"])
def test_sleep_into_the_past_can_be_caught_at_the_sleep(sleep):
    sim = Simulator()

    def worker():
        yield 5.0
        try:
            if sleep == "deadline":
                yield 2.0
            else:
                yield sim.timeout(-3.0)
        except ValueError:
            return "caught"

    proc = spawn(sim, worker())
    sim.run()
    assert proc.value == "caught"


def test_sleeping_into_the_past_without_a_waiter_surfaces():
    sim = Simulator()

    def worker():
        yield 5.0
        yield 2.0

    spawn(sim, worker())
    with pytest.raises(ValueError, match="before now"):
        sim.run()


@pytest.mark.parametrize("kinds", ["sleep-first", "timeout-first"])
def test_plain_sleep_and_timeout_at_one_deadline_resume_in_push_order(kinds):
    sim = Simulator()
    order = []

    def worker(name, plain):
        if plain:
            yield 4.0
        else:
            yield sim.timeout(4.0)
        order.append(name)

    plain_first = kinds == "sleep-first"
    for i in range(4):
        plain = (i % 2 == 0) == plain_first
        spawn(sim, worker("%s%d" % ("sleep" if plain else "timeout", i), plain))
    sim.run()
    expected = ["sleep0", "timeout1", "sleep2", "timeout3"] if plain_first \
        else ["timeout0", "sleep1", "timeout2", "sleep3"]
    assert order == expected


def test_yielding_an_int_deadline_is_still_an_error():
    sim = Simulator()

    def worker():
        yield 4  # deadlines are floats; an int is not an event

    spawn(sim, worker())
    with pytest.raises(TypeError):
        sim.run()
