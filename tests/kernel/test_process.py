"""Unit tests for UserProcess memory operations and polling."""

import pytest

from repro.hardware import CacheMode
from repro.kernel import ProtectionFault, ShrimpSystem

PAGE = 4096


def run_program(program, node=0):
    system = ShrimpSystem()
    proc_handle = system.spawn(node, program)
    system.run_processes([proc_handle])
    return proc_handle.value


def test_write_then_read_roundtrip():
    def program(proc):
        vaddr = proc.space.mmap(PAGE)
        yield from proc.write(vaddr + 8, b"kernel bytes")
        data = yield from proc.read(vaddr + 8, 12)
        return data

    assert run_program(program) == b"kernel bytes"


def test_write_charges_time():
    def program(proc):
        vaddr = proc.space.mmap(PAGE, cache_mode=CacheMode.WRITE_THROUGH)
        before = proc.sim.now
        yield from proc.write(vaddr, bytes(1000))
        return proc.sim.now - before

    elapsed = run_program(program)
    assert elapsed > 1000 * 0.03  # more than the cheapest per-byte rate


def test_read_of_unmapped_raises_protection_fault():
    def program(proc):
        try:
            yield from proc.read(0x10, 4)
        except ProtectionFault:
            return "faulted"
        return "no fault"

    assert run_program(program) == "faulted"


def test_copy_moves_bytes_and_charges_both_sides():
    def program(proc):
        src = proc.space.mmap(PAGE)
        dst = proc.space.mmap(PAGE)
        proc.poke(src, b"copy me around")
        before = proc.sim.now
        yield from proc.copy(src, dst, 14)
        elapsed = proc.sim.now - before
        return proc.peek(dst, 14), elapsed

    data, elapsed = run_program(program)
    assert data == b"copy me around"
    assert elapsed > 0


def test_write_spanning_scattered_pages():
    def program(proc):
        vaddr = proc.space.mmap(2 * PAGE)  # frames may be scattered
        payload = bytes(range(200)) * 30  # 6000 bytes, crosses the page
        yield from proc.write(vaddr + PAGE - 100, payload[: PAGE])
        data = yield from proc.read(vaddr + PAGE - 100, PAGE)
        return data == payload[:PAGE]

    assert run_program(program)


def test_poll_returns_when_flag_set_by_another_process():
    """Two processes on one node: one polls a shared physical page the
    other writes (stand-in for an incoming DMA write)."""
    system = ShrimpSystem()
    kernel = system.kernels[0]
    writer_proc = kernel.create_process("writer")
    flag_vaddr = writer_proc.space.mmap(PAGE, cache_mode=CacheMode.WRITE_THROUGH)

    times = {}

    def poller(proc):
        # Map the same frame into the poller's space.
        frame = writer_proc.space.frames_of(flag_vaddr, PAGE)[0]
        from repro.kernel.vm import PTE
        vaddr = 64 * PAGE
        proc.space.page_table[64] = PTE(frame=frame, cache_mode=CacheMode.WRITE_THROUGH)
        data = yield from proc.poll_flag(vaddr, b"\x01\x00\x00\x00")
        times["woke"] = proc.sim.now
        return data

    def writer(proc):
        yield from proc.compute(50.0)
        yield from proc.write(flag_vaddr, b"\x01\x00\x00\x00")
        times["wrote"] = proc.sim.now

    from repro.sim import spawn
    poll_handle = spawn(system.sim, poller(kernel.create_process("poller")))
    spawn(system.sim, writer(writer_proc))
    system.run_processes([poll_handle])
    assert poll_handle.value == b"\x01\x00\x00\x00"
    assert times["woke"] >= times["wrote"]
    # Wakeup is watch-driven: within a check cost of the write, not a spin.
    assert times["woke"] - times["wrote"] < 2.0


def test_poll_deadline_returns_none():
    def program(proc):
        vaddr = proc.space.mmap(PAGE)
        result = yield from proc.poll_flag(
            vaddr, b"\xff\xff\xff\xff", deadline=proc.sim.now + 100.0
        )
        return result, proc.sim.now

    result, now = run_program(program)
    assert result is None
    assert now >= 100.0


def _deadline_poll(write_before_deadline):
    """Poll a write-through flag word with a deadline 100 us out; when
    ``write_before_deadline`` is set, a second process stores the flag
    that long before the deadline.  Returns the poll's result, the
    instants and check costs involved, and what it left armed."""
    system = ShrimpSystem()
    kernel = system.kernels[0]
    poller_proc = kernel.create_process("poller")
    writer_proc = kernel.create_process("writer")
    flag = writer_proc.space.mmap(PAGE, cache_mode=CacheMode.WRITE_THROUGH)
    from repro.kernel.vm import PTE
    frame = writer_proc.space.frames_of(flag, PAGE)[0]
    poller_proc.space.page_table[64] = PTE(
        frame=frame, cache_mode=CacheMode.WRITE_THROUGH)
    config = system.config
    check_cost = (config.read_cost(CacheMode.WRITE_THROUGH, 4)
                  + config.costs.vmmc_poll_check)
    deadline = 100.0
    seen = {}

    def poller(proc):
        before = proc.poll_checks
        data = yield from proc.poll_flag(64 * PAGE, b"\x01\x00\x00\x00",
                                         deadline=deadline)
        seen["poll"] = (data, proc.sim.now, proc.poll_checks - before)

    def writer(proc):
        base, per_byte = config.write_rate(CacheMode.WRITE_THROUGH)
        yield (deadline - write_before_deadline) - (base + 4 * per_byte)
        yield from proc.write(flag, b"\x01\x00\x00\x00")
        seen["wrote"] = proc.sim.now

    from repro.sim import spawn
    handle = spawn(system.sim, poller(poller_proc))
    if write_before_deadline:
        spawn(system.sim, writer(writer_proc))
    system.run_processes([handle])
    data, returned, checks = seen["poll"]
    return dict(data=data, returned=returned, checks=checks,
                wrote=seen.get("wrote"), deadline=deadline,
                check_cost=check_cost,
                watches=system.machine.nodes[0].memory.watch_count,
                wheel=poller_proc._wheel.pending(deadline))


def test_poll_deadline_expiry_instant_and_cleanup():
    """Expiry: one check at the start, one after the deadline passes,
    then None at exactly deadline + check cost, leaving nothing armed."""
    out = _deadline_poll(write_before_deadline=0.0)
    assert out["data"] is None
    assert out["checks"] == 2
    assert out["returned"] == out["deadline"] + out["check_cost"]
    assert out["watches"] == 0
    assert out["wheel"] == 0


def test_poll_deadline_write_just_before_expiry_wins():
    """A write landing less than one check cost before the deadline
    still returns its bytes, one check cost after the write."""
    out = _deadline_poll(write_before_deadline=0.25)
    assert 0.0 < out["deadline"] - out["wrote"] < out["check_cost"]
    assert out["data"] == b"\x01\x00\x00\x00"
    assert out["checks"] == 2
    assert out["returned"] == out["wrote"] + out["check_cost"]
    assert out["watches"] == 0
    assert out["wheel"] == 0


def test_interrupted_deadline_poll_leaves_nothing_armed():
    """An interrupt thrown into a deadline poll's sleep disarms it: the
    poller sees the interrupt at its instant, and no watch or live
    wheel slot outlives the poll."""
    from repro.sim import Interrupt, spawn

    system = ShrimpSystem()
    proc = system.kernels[0].create_process("poller")
    vaddr = proc.space.mmap(PAGE)
    deadline = 100.0

    def poller():
        try:
            yield from proc.poll_flag(vaddr, b"\x01\x00\x00\x00",
                                      deadline=deadline)
        except Interrupt:
            return proc.sim.now

    handle = spawn(system.sim, poller())
    system.sim.schedule_call(10.0, handle.interrupt)
    system.run_processes([handle])
    assert handle.value == 10.0
    assert system.machine.nodes[0].memory.watch_count == 0
    assert proc._wheel.pending(deadline) == 0


def test_poll_immediate_success_costs_one_check():
    def program(proc):
        vaddr = proc.space.mmap(PAGE)
        proc.poke(vaddr, b"\x2a\x00\x00\x00")
        before = proc.poll_checks
        data = yield from proc.poll_flag(vaddr, b"\x2a\x00\x00\x00")
        return proc.poll_checks - before, data

    checks, data = run_program(program)
    assert checks == 1
    assert data == b"\x2a\x00\x00\x00"


def test_peek_poke_are_untimed():
    def program(proc):
        vaddr = proc.space.mmap(PAGE)
        before = proc.sim.now
        proc.poke(vaddr, b"abc")
        data = proc.peek(vaddr, 3)
        return data, proc.sim.now - before
        yield  # pragma: no cover

    data, elapsed = run_program(program)
    assert data == b"abc"
    assert elapsed == 0.0


def test_processes_get_distinct_pids():
    system = ShrimpSystem()
    a = system.kernels[0].create_process()
    b = system.kernels[0].create_process()
    assert a.pid != b.pid


# -- one-page accesses --------------------------------------------------------
# A range inside one page is translated with one page-table lookup; a
# fault or a straddling range takes AddressSpace.translate.  These pin
# the instants and bytes of both against the cost model.

def _faulting(op, setup_flags):
    """Run ``op(proc, vaddr, other)`` with ``vaddr`` on a page set up
    by ``setup_flags`` and ``other`` on a plain write-through page;
    returns (start instant, fault instant), the latter None when the op
    did not fault."""
    def program(proc):
        space = proc.space
        other = space.mmap(PAGE, cache_mode=CacheMode.WRITE_THROUGH)
        if setup_flags == "unmapped":
            vaddr = (space.BASE_PAGE - 1) * PAGE  # below the first mapping
        else:
            vaddr = space.mmap(PAGE, cache_mode=CacheMode.WRITE_BACK)
            readable, writable = {"read-only": (True, False),
                                  "unreadable": (False, False)}[setup_flags]
            space.protect(vaddr, PAGE, readable=readable, writable=writable)
        yield from proc.compute(3.0)
        start = proc.sim.now
        try:
            yield from op(proc, vaddr + 8, other + 8)
        except ProtectionFault:
            return start, proc.sim.now
        return start, None

    return run_program(program)


def _write_end(config, start, mode, n):
    base, per_byte = config.write_rate(mode)
    return (start + base) + n * per_byte


def _copy_end(config, start, src_mode, dst_mode, n):
    read_base, read_pb = config.read_rate(src_mode)
    write_base, write_pb = config.write_rate(dst_mode)
    return (start + (read_base + write_base)) + n * (read_pb + write_pb)


OPS = {
    "read": lambda proc, vaddr, other: proc.read(vaddr, 16),
    "write": lambda proc, vaddr, other: proc.write(vaddr, b"x" * 16),
    "copy from": lambda proc, vaddr, other: proc.copy(vaddr, other, 16),
    "copy into": lambda proc, vaddr, other: proc.copy(other, vaddr, 16),
    "poll": lambda proc, vaddr, other: proc.poll(vaddr, 4, lambda b: True),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_unmapped_one_page_access_faults_before_the_sleep(op):
    start, faulted = _faulting(OPS[op], "unmapped")
    assert faulted == start


@pytest.mark.parametrize("op", ["read", "poll"])
def test_unreadable_page_faults_a_load_before_the_sleep(op):
    start, faulted = _faulting(OPS[op], "unreadable")
    assert faulted == start


def test_read_only_page_faults_a_store_after_the_sleep():
    config = ShrimpSystem().config
    start, faulted = _faulting(OPS["write"], "read-only")
    assert faulted == _write_end(config, start, CacheMode.WRITE_BACK, 16)


@pytest.mark.parametrize("op,flags", [("copy into", "read-only"),
                                      ("copy from", "unreadable")])
def test_copy_faults_on_permissions_after_the_sleep(op, flags):
    config = ShrimpSystem().config
    start, faulted = _faulting(OPS[op], flags)
    src, dst = ((CacheMode.WRITE_THROUGH, CacheMode.WRITE_BACK)
                if op == "copy into"
                else (CacheMode.WRITE_BACK, CacheMode.WRITE_THROUGH))
    assert faulted == _copy_end(config, start, src, dst, 16)


@pytest.mark.parametrize("offset", [8, PAGE - 100], ids=["one-page", "straddling"])
def test_write_read_copy_bytes_and_end_times(offset):
    """The same bytes and deadlines inside one page and across two."""
    payload = bytes(range(200))

    def program(proc):
        src = proc.space.mmap(2 * PAGE, cache_mode=CacheMode.WRITE_THROUGH)
        dst = proc.space.mmap(2 * PAGE, cache_mode=CacheMode.WRITE_BACK)
        ends = {}
        start = proc.sim.now
        yield from proc.write(src + offset, payload)
        ends["write"] = (start, proc.sim.now)
        start = proc.sim.now
        yield from proc.copy(src + offset, dst + offset, len(payload))
        ends["copy"] = (start, proc.sim.now)
        start = proc.sim.now
        data = yield from proc.read(dst + offset, len(payload))
        ends["read"] = (start, proc.sim.now)
        return data, proc.peek(src + offset, len(payload)), ends

    config = ShrimpSystem().config
    data, written, ends = run_program(program)
    assert data == written == payload
    n = len(payload)
    start, end = ends["write"]
    assert end == _write_end(config, start, CacheMode.WRITE_THROUGH, n)
    start, end = ends["copy"]
    assert end == _copy_end(config, start, CacheMode.WRITE_THROUGH,
                            CacheMode.WRITE_BACK, n)
    start, end = ends["read"]
    assert end == start + config.read_cost(CacheMode.WRITE_BACK, n)


#: Measured on the general translate path before the one-page paths
#: existed: (sender bytes read, written; receiver bytes read, written;
#: snoop writes seen, matched; AU packets formed) and (receiver wake
#: instant, its poll checks, events dispatched).  The receiver reads 4
#: bytes fewer than it did then: its poll no longer re-loads the flag
#: between its check and arming the watch, where nothing can land.
AU_EXCHANGE_COUNTERS = (80, 168, 88, 88, 3, 4, 3)
AU_EXCHANGE_WAKE = (1101.0676554765994, 2, 44)


def test_au_exchange_counters():
    """Memory, snoop and poll counters of a small automatic-update
    exchange: one-page and straddling stores into a two-page binding,
    a copy through it, and a receiver polling the flag word."""
    from repro.testbed import Rendezvous
    from repro.vmmc import attach

    system = ShrimpSystem()
    rdv = Rendezvous(system)

    def receiver(proc):
        ep = attach(system, proc)
        buf = yield from ep.export_new(2 * PAGE)
        rdv.put("x", (proc.node.node_id, buf.export_id))
        yield from proc.poll(buf.vaddr + 2 * PAGE - 4, 4,
                             lambda b: b == b"END!")
        return ((proc.sim.now, proc.poll_checks),
                proc.peek(buf.vaddr + PAGE - 40, 80))

    def sender(proc):
        ep = attach(system, proc)
        node, xid = yield rdv.get("x")
        imported = yield from ep.import_buffer(node, xid)
        local = ep.alloc_buffer(2 * PAGE)
        staging = proc.space.mmap(PAGE)
        yield from ep.bind(local, imported)
        yield from proc.write(local, b"head")
        proc.poke(staging, bytes(range(80)))
        yield from proc.copy(staging, local + PAGE - 40, 80)
        yield from proc.write(local + 2 * PAGE - 4, b"END!")

    r = system.spawn(1, receiver)
    s = system.spawn(0, sender)
    system.run_processes([r, s])
    woke, landed = r.value
    assert landed == bytes(range(80))
    sent, got = system.machine.nodes[0], system.machine.nodes[1]
    counters = (
        sent.memory.bytes_read, sent.memory.bytes_written,
        got.memory.bytes_read, got.memory.bytes_written,
        sent.nic.snoop.writes_seen, sent.nic.snoop.writes_matched,
        sent.nic.packetizer.packets_formed,
    )
    assert counters == AU_EXCHANGE_COUNTERS
    assert woke + (system.sim.events_executed,) == AU_EXCHANGE_WAKE
