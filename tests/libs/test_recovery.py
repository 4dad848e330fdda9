"""The hardened protocols' shared layer: the retry loop and the
multi-buffer wait."""

import pytest

from repro.kernel import ShrimpSystem
from repro.libs.recovery import (
    IDLE_US,
    MAX_XMIT,
    RETRY_BASE_US,
    RETRY_PER_BYTE_US,
    retransmit,
)
from repro.vmmc import VmmcTransferError

PAGE = 4096


def run_program(program):
    system = ShrimpSystem()
    handle = system.spawn(0, program)
    system.run_processes([handle])
    return handle.value


class Link:
    """Scripted transmit/await_ack/on_miss callbacks on a live process.

    ``acks`` maps an attempt number to the ack its wait returns after
    ``ack_after_us``; every other wait sleeps its full budget and
    returns None.  ``aborts`` are the attempts whose transmit raises a
    DU abort.  ``log`` records each call with its start time.
    """

    def __init__(self, proc, acks=None, aborts=(), ack_after_us=1.0):
        self.proc = proc
        self.acks = acks or {}
        self.aborts = set(aborts)
        self.ack_after_us = ack_after_us
        self.log = []
        self.attempt = 0

    def transmit(self):
        self.log.append(("transmit", self.proc.sim.now))
        yield self.proc.sim.timeout(1.0)
        if self.attempt in self.aborts:
            self.attempt += 1
            raise VmmcTransferError("aborted")

    def await_ack(self, timeout_us):
        self.log.append(("wait", self.proc.sim.now, timeout_us))
        attempt, self.attempt = self.attempt, self.attempt + 1
        if attempt in self.acks:
            yield self.proc.sim.timeout(self.ack_after_us)
            return self.acks[attempt]
        yield self.proc.sim.timeout(timeout_us)
        return None

    def on_miss(self):
        self.log.append(("miss", self.proc.sim.now))
        yield self.proc.sim.timeout(0.5)

    def waits(self):
        return [entry[2] for entry in self.log if entry[0] == "wait"]


def test_shared_constants():
    assert (MAX_XMIT, RETRY_BASE_US, RETRY_PER_BYTE_US) == (6, 400.0, 0.1)
    # The idle bound sits far above a small message's whole retry budget.
    assert IDLE_US > RETRY_BASE_US * (2 ** MAX_XMIT - 1) * 10


def test_backoff_doubles_from_a_size_scaled_base():
    def program(proc):
        link = Link(proc)
        result = yield from retransmit(link.transmit, link.await_ack, 0)
        return result, link.waits()

    result, waits = run_program(program)
    assert result is None
    assert waits == [400.0 * 2 ** k for k in range(6)]
    assert sum(waits) == 25_200.0

    def sized(proc):
        link = Link(proc)
        yield from retransmit(link.transmit, link.await_ack, 1000)
        return link.waits()

    waits = run_program(sized)
    assert waits[0] == 400.0 + 0.1 * 1000
    assert waits == [waits[0] * 2 ** k for k in range(6)]


def test_budget_spent_returns_none_after_every_attempt():
    def program(proc):
        link = Link(proc)
        start = proc.sim.now
        result = yield from retransmit(link.transmit, link.await_ack, 0,
                                       on_miss=link.on_miss)
        return result, link.log, proc.sim.now - start

    result, log, elapsed = run_program(program)
    assert result is None
    kinds = [entry[0] for entry in log]
    assert kinds == ["transmit", "wait", "miss"] * MAX_XMIT
    # Each attempt: 1 us transmit, the wait, 0.5 us replay request.
    assert elapsed == pytest.approx(25_200.0 + MAX_XMIT * 1.5)


def test_returns_the_first_ack_and_stops():
    def program(proc):
        link = Link(proc, acks={2: ("reply", 7)})
        result = yield from retransmit(link.transmit, link.await_ack, 0,
                                       on_miss=link.on_miss)
        return result, [entry[0] for entry in link.log]

    result, kinds = run_program(program)
    assert result == ("reply", 7)
    assert kinds == ["transmit", "wait", "miss", "transmit", "wait", "miss",
                     "transmit", "wait"]


def test_sent_skips_only_the_first_transmit():
    def program(proc):
        link = Link(proc, acks={1: b"ok"})
        result = yield from retransmit(link.transmit, link.await_ack, 0,
                                       sent=True)
        return result, [entry[0] for entry in link.log]

    result, kinds = run_program(program)
    assert result == b"ok"
    assert kinds == ["wait", "transmit", "wait"]


def test_a_du_abort_uses_up_its_attempt_without_waiting():
    def program(proc):
        link = Link(proc, aborts={0, 1}, acks={2: True})
        result = yield from retransmit(link.transmit, link.await_ack, 0,
                                       on_miss=link.on_miss)
        return result, link.log

    result, log = run_program(program)
    assert result is True
    assert [entry[0] for entry in log] == [
        "transmit", "transmit", "transmit", "wait"]
    # The surviving attempt is attempt 2, with attempt 2's budget.
    assert log[-1][2] == 400.0 * 4


def test_all_aborted_spends_the_budget_without_waiting():
    def program(proc):
        link = Link(proc, aborts=set(range(MAX_XMIT)))
        result = yield from retransmit(link.transmit, link.await_ack, 0,
                                       on_miss=link.on_miss)
        return result, link.log

    result, log = run_program(program)
    assert result is None
    assert [entry[0] for entry in log] == ["transmit"] * MAX_XMIT


# -- UserProcess.wait_any ----------------------------------------------------

def _poke_at(proc, delay_us, vaddr, data):
    proc.sim.timeout(delay_us).add_callback(lambda _e: proc.poke(vaddr, data))


def test_wait_any_wakes_on_a_write_to_any_range():
    def program(proc):
        first = proc.space.mmap(PAGE)
        second = proc.space.mmap(PAGE)
        watches = proc.node.memory.watch_count
        start = proc.sim.now
        _poke_at(proc, 30.0, second + 64, b"\x01\x00\x00\x00")
        woke = yield from proc.wait_any(
            [(first, 4), (second + 64, 4)], lambda: False)
        return (woke, proc.sim.now - start,
                proc.node.memory.watch_count - watches,
                proc.config.costs.vmmc_poll_check)

    woke, elapsed, leaked, check = run_program(program)
    assert woke is True
    assert elapsed == pytest.approx(30.0 + check)
    assert leaked == 0


def test_wait_any_ignores_writes_outside_its_ranges():
    def program(proc):
        buf = proc.space.mmap(PAGE)
        start = proc.sim.now
        _poke_at(proc, 10.0, buf + 128, b"\xff" * 4)    # not watched
        _poke_at(proc, 50.0, buf, b"\x02\x00\x00\x00")  # watched
        woke = yield from proc.wait_any([(buf, 4)], lambda: False)
        return woke, proc.sim.now - start, proc.config.costs.vmmc_poll_check

    woke, elapsed, check = run_program(program)
    assert woke is True
    assert elapsed == pytest.approx(50.0 + check)


def test_wait_any_skips_the_sleep_when_already_arrived():
    def program(proc):
        buf = proc.space.mmap(PAGE)
        start = proc.sim.now
        woke = yield from proc.wait_any([(buf, 4)], lambda: True,
                                        timeout_us=500.0)
        return woke, proc.sim.now - start, proc.config.costs.vmmc_poll_check

    woke, elapsed, check = run_program(program)
    assert woke is True
    assert elapsed == check


def test_wait_any_times_out_without_a_charge_or_a_leftover_watch():
    def program(proc):
        buf = proc.space.mmap(PAGE)
        watches = proc.node.memory.watch_count
        start = proc.sim.now
        woke = yield from proc.wait_any([(buf, 4), (buf + 8, 4)],
                                        lambda: False, timeout_us=250.0)
        leaked = proc.node.memory.watch_count - watches
        return woke, proc.sim.now - start, leaked

    woke, elapsed, leaked = run_program(program)
    assert woke is False
    assert elapsed == 250.0
    assert leaked == 0
