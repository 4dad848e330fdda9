"""Additional simulation-kernel edge cases."""

import pytest

from repro.sim import (
    AllOf,
    BandwidthChannel,
    Event,
    Interrupt,
    Resource,
    Simulator,
    Store,
    spawn,
)


def test_store_multiple_getters_fifo():
    """Waiting getters are served in arrival order."""
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(ident, delay):
        yield sim.timeout(delay)
        item = yield store.get()
        got.append((ident, item))

    spawn(sim, getter("first", 1.0))
    spawn(sim, getter("second", 2.0))

    def producer():
        yield sim.timeout(10.0)
        yield store.put("a")
        yield store.put("b")

    spawn(sim, producer())
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_all_of_with_already_triggered_child():
    sim = Simulator()
    done = Event(sim)
    done.succeed("early")
    pending = sim.timeout(100.0, "late")
    got = []

    def waiter():
        values = yield AllOf(sim, [done, pending])
        got.append((values, sim.now))

    spawn(sim, waiter())
    sim.run()
    assert got == [(["early", "late"], 100.0)]


def test_all_of_failure_propagates():
    sim = Simulator()
    bad = Event(sim)

    def waiter():
        try:
            yield AllOf(sim, [bad, sim.timeout(100.0)])
        except RuntimeError as exc:
            return str(exc)

    proc = spawn(sim, waiter())
    sim.schedule_call(1.0, lambda: bad.fail(RuntimeError("child failed")))
    sim.run()
    assert proc.value == "child failed"


def test_multiple_interrupts_queue():
    sim = Simulator()
    causes = []

    def victim():
        for _ in range(2):
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                causes.append(intr.cause)
        return causes

    proc = spawn(sim, victim())
    sim.schedule_call(1.0, proc.interrupt, "first")
    sim.schedule_call(1.0, proc.interrupt, "second")
    sim.run()
    assert proc.value == ["first", "second"]


def test_resource_with_statement_releases_on_exception():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        try:
            with res.request() as req:
                yield req
                raise ValueError("inner")
        except ValueError:
            pass
        return res.count

    proc = spawn(sim, worker())
    sim.run()
    assert proc.value == 0


def test_channel_zero_byte_transfer_costs_overhead_only():
    sim = Simulator()
    chan = BandwidthChannel(sim, bandwidth=10.0, overhead=3.0)
    done = []

    def worker():
        yield chan.transfer(0)
        done.append(sim.now)

    spawn(sim, worker())
    sim.run()
    assert done == [3.0]


def test_nested_yield_from_exception_unwinds():
    sim = Simulator()

    def level2():
        yield sim.timeout(1.0)
        raise KeyError("deep")

    def level1():
        yield from level2()

    def top():
        try:
            yield from level1()
        except KeyError:
            return "caught at top"

    proc = spawn(sim, top())
    sim.run()
    assert proc.value == "caught at top"


def test_event_names_in_repr():
    sim = Simulator()
    ev = sim.event("my-event")
    assert "my-event" in repr(ev)


def test_timeout_value_passthrough():
    sim = Simulator()

    def worker():
        value = yield sim.timeout(1.0, value={"payload": 1})
        return value

    proc = spawn(sim, worker())
    sim.run()
    assert proc.value == {"payload": 1}
