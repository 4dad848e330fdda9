"""User processes: the OS-level execution context of application code.

A :class:`UserProcess` owns an address space on one node and provides
the *timed* memory operations application and library code uses:
``write``/``read``/``copy`` (which go through the MMU, charge the cache
cost model, and feed the NIC snoop), ``poll`` (flag-waiting via memory
watchpoints, charging per-check costs), ``wait_any`` (the same sleep
over several buffers), and ``compute`` (pure CPU time).

All of these are generator methods — the caller's simulation process
pays the time, mirroring the fact that the libraries run entirely at
user level on the application's own CPU.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from ..hardware.node import Node
from ..sim import Event, Simulator
from ..sim.timers import TimerWheel
from .signals import SignalState
from .vm import AddressSpace

__all__ = ["UserProcess"]


class UserProcess:
    """One application process on one SHRIMP node."""

    def __init__(self, node: Node, address_space: AddressSpace, pid: int, name: str = ""):
        self.node = node
        self.space = address_space
        self.pid = pid
        self.name = name or "pid%d" % pid
        self.sim: Simulator = node.sim
        self.config = node.config
        self.signals = SignalState(self.sim)
        # Set by the VMMC layer when the process attaches an endpoint.
        self.vmmc = None
        self.poll_checks = 0
        # Cached for the one-attribute-check tracing guard on hot paths.
        self.tracer = node.tracer
        self.trace_track = "n%d.cpu.p%d" % (node.node_id, pid)
        # The causal trace context this process is currently working
        # under: ``(trace_id, parent_span_sid)`` or None.  Request
        # entry points (the KV client, RPC servers mid-dispatch) set
        # it; transport send paths read it to tag their spans and post
        # it to the receiver (Tracer.post).
        self.trace_ctx = None
        # Cached likewise so libraries can gate their recovery protocols
        # on faults.enabled with one attribute check (docs/FAULTS.md).
        self.faults = node.faults
        # Deferred CPU charge (see charge()): folded into the next timed
        # operation's deadline instead of costing its own scheduler wake.
        self._lead = 0.0
        # Deadline timers for bounded polls: one wheel slot per distinct
        # deadline, cancelled O(1) on early wake (repro.sim.timers).
        self._wheel = TimerWheel(self.sim)

    def charge(self, microseconds: float) -> None:
        """Defer a pure CPU charge into this process's next timed op.

        Semantically ``yield from compute(microseconds)`` — but instead
        of sleeping now, the charge is folded into the deadline of the
        next ``read``/``write``/``copy``/``poll``/``compute`` (or paid
        on its own before a ``wait_any``), saving
        one scheduler wake.  The deadline arithmetic repeats the
        two-sleep float operations ((now + charge) + cost), so the
        final instant is bit-exact with the separate-sleep form.  The
        op's CPU span is recorded from that computed start
        (``now + charge``), so a traced run takes the same one sleep.

        Only valid when ALL code between the charge and the process's
        next timed operation is side-effect free (no stores, sends,
        queue operations, or span emissions): anything in between runs
        at charge time rather than after the charge elapsed.  Callers
        are responsible for that proof (docs/SIMULATOR.md).
        """
        self._lead += microseconds

    def __repr__(self) -> str:  # pragma: no cover
        return "<UserProcess %s on node %d>" % (self.name, self.node.node_id)

    # -- memory operations -------------------------------------------------
    #
    # Every sleep below yields a plain float deadline (one heap entry,
    # no Event; see repro.sim.process).  Each deadline adds the cost
    # model's float costs, or the banked ``lead`` (always a float), to
    # ``sim.now``, so none is ever an int; with no lead banked,
    # ``now + 0.0`` is ``now`` exactly.  Wherever ``translate`` used to
    # run, a range inside one page takes one ``page_table`` lookup
    # instead; anything else (a straddling range, a fault) still takes
    # ``AddressSpace.translate``, which raises the same ProtectionFault
    # at the same point as ever.
    def write(self, vaddr: int, data: bytes):
        """Timed store of ``data`` at ``vaddr``; snooped by the NIC.

        Large writes stream in ``cpu_stream_chunk`` pieces so the NIC
        sees (and packetizes) the data as it is produced, pipelining an
        AU-bound copy with the network — the base cost is charged once,
        per-byte cost per chunk.  The cache mode is read before the
        sleep and the store is translated when it lands, after it.
        """
        sim = self.sim
        lead = self._lead
        if lead:
            self._lead = 0.0
        space = self.space
        pte = space.page_table.get(vaddr // self.config.page_size)
        mode = pte.cache_mode if pte is not None else space.cache_mode_of(vaddr)
        base, per_byte = self.config.write_rate(mode)
        nbytes = len(data)
        start = sim.now + lead
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin("cpu.store", "store %dB" % nbytes,
                                     track=self.trace_track,
                                     data={"bytes": nbytes}, start=start)
        if nbytes <= self.config.cpu_stream_chunk:
            # Single-chunk fast path: one wake instead of two.  The
            # deadline is computed with the same float operations the
            # two-sleep version performs ((now + base) + n*per_byte), so
            # the landing instant is bit-exact.
            yield (start + base) + nbytes * per_byte
            self._store(vaddr, data)
        else:
            yield start + base
            yield from self._stream_out(vaddr, data, per_byte)
        if span is not None:
            self.tracer.end(span)

    def _stream_out(self, vaddr: int, data: bytes, per_byte: float):
        """Chunked store loop: charge, land bytes, snoop — per chunk."""
        sim = self.sim
        chunk_size = self.config.cpu_stream_chunk
        for offset in range(0, len(data), chunk_size):
            piece = data[offset : offset + chunk_size]
            yield sim.now + len(piece) * per_byte
            self._store(vaddr + offset, piece)

    def _store(self, vaddr: int, data: bytes) -> None:
        """Land a CPU store now: translate, write memory, feed the snoop."""
        memory = self.node.memory
        nic = self.node.nic
        nbytes = len(data)
        page_size = self.config.page_size
        vpage, offset = divmod(vaddr, page_size)
        pte = self.space.page_table.get(vpage)
        if pte is not None and pte.writable and 0 < nbytes <= page_size - offset:
            paddr = pte.frame * page_size + offset
            memory.write(paddr, data)
            nic.snoop_write(paddr, data)
            return
        piece = data
        for paddr, length in self.space.translate(vaddr, nbytes, write=True):
            sub = piece[:length]
            memory.write(paddr, sub)
            nic.snoop_write(paddr, sub)
            piece = piece[length:]

    def read(self, vaddr: int, nbytes: int):
        """Timed load of ``nbytes`` at ``vaddr``; returns the bytes.

        Translated before the sleep, loaded after it.
        """
        sim = self.sim
        lead = self._lead
        if lead:
            self._lead = 0.0
        space = self.space
        page_size = self.config.page_size
        vpage, offset = divmod(vaddr, page_size)
        pte = space.page_table.get(vpage)
        if pte is not None and pte.readable and 0 < nbytes <= page_size - offset:
            yield (sim.now + lead) + self.config.read_cost(pte.cache_mode, nbytes)
            return self.node.memory.read(pte.frame * page_size + offset, nbytes)
        segments = space.translate(vaddr, nbytes, write=False)
        mode = space.cache_mode_of(vaddr)
        yield (sim.now + lead) + self.config.read_cost(mode, nbytes)
        memory = self.node.memory
        return b"".join(memory.read(paddr, length) for paddr, length in segments)

    def copy(self, src_vaddr: int, dst_vaddr: int, nbytes: int):
        """Timed memcpy; the destination stores are snooped, so copying
        into an AU-bound region *is* a send.

        Streams chunk by chunk (reading each chunk at its copy time, so
        a consumer copying out of a buffer still being DMA'd into sees
        the freshest bytes), charging read+write per-byte costs per
        chunk and the two base costs once.  Both cache modes are read
        before the first sleep; each chunk is translated, source then
        destination, when it is copied.
        """
        sim = self.sim
        lead = self._lead
        if lead:
            self._lead = 0.0
        space = self.space
        page_table = space.page_table
        page_size = self.config.page_size
        pte = page_table.get(src_vaddr // page_size)
        src_mode = pte.cache_mode if pte is not None else space.cache_mode_of(src_vaddr)
        pte = page_table.get(dst_vaddr // page_size)
        dst_mode = pte.cache_mode if pte is not None else space.cache_mode_of(dst_vaddr)
        read_base, read_pb = self.config.read_rate(src_mode)
        write_base, write_pb = self.config.write_rate(dst_mode)
        chunk_size = self.config.cpu_stream_chunk
        start = sim.now + lead
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin("cpu.copy", "copy %dB" % nbytes,
                                     track=self.trace_track,
                                     data={"bytes": nbytes}, start=start)
        if nbytes <= chunk_size:
            # Single-chunk fast path, bit-exact with the two-sleep form.
            yield ((start + (read_base + write_base))
                   + nbytes * (read_pb + write_pb))
            if nbytes:
                self._store(dst_vaddr, self.peek(src_vaddr, nbytes))
        else:
            yield start + (read_base + write_base)
            per_byte = read_pb + write_pb
            for offset in range(0, nbytes, chunk_size):
                length = min(chunk_size, nbytes - offset)
                yield sim.now + length * per_byte
                self._store(dst_vaddr + offset,
                            self.peek(src_vaddr + offset, length))
        if span is not None:
            self.tracer.end(span)

    def compute(self, microseconds: float, priority: Optional[int] = None):
        """Pure CPU time (library bookkeeping, marshaling logic, ...).

        With ``priority`` set *and* the node's CPU scheduler enabled
        (:meth:`~repro.hardware.node.Node.enable_cpu`), the time is
        charged while holding one CPU slot, so concurrent handlers on
        the node contend in (priority, FIFO) order.  Either condition
        absent, this is the historical uncontended sleep —
        byte-identical to the pre-scheduler model.
        """
        sim = self.sim
        cpu = self.node.cpu
        contended = cpu is not None and priority is not None
        lead = self._lead
        if lead:
            self._lead = 0.0
            if contended:
                # Paid as its own sleep: a contended charge is exactly
                # what the caller's separate compute() cost, before
                # queueing for a CPU slot.
                yield sim.now + lead
                lead = 0.0
        if not contended:
            yield (sim.now + lead) + microseconds
            return
        req = cpu.request(priority)
        yield req
        try:
            yield (sim.now + lead) + microseconds
        finally:
            cpu.release(req)

    # -- polling -----------------------------------------------------------------
    def poll(
        self,
        vaddr: int,
        nbytes: int,
        predicate: Callable[[bytes], bool],
        deadline: Optional[float] = None,
        wake: Sequence[Tuple[int, int]] = (),
    ):
        """Wait until ``predicate(bytes at vaddr)`` holds; returns the bytes.

        Models a user-level polling loop.  Each check charges a load of
        the polled bytes plus a compare; between checks the process is
        woken by memory watchpoints rather than timed spinning, so the
        simulated *cost structure* matches polling while the event count
        stays proportional to actual writes (DESIGN.md decision on
        polling).  Returns None if ``deadline`` (absolute sim time)
        passes first, after one last check.  The range is translated
        once, before the first check.

        ``wake`` lists further ``(vaddr, nbytes)`` ranges whose stores
        also end a sleep.  The check still loads only the polled range,
        so a predicate that must react to them peeks them itself.
        """
        space = self.space
        page_size = self.config.page_size
        vpage, offset = divmod(vaddr, page_size)
        pte = space.page_table.get(vpage)
        if pte is not None and pte.readable and 0 < nbytes <= page_size - offset:
            segments = [(pte.frame * page_size + offset, nbytes)]
            mode = pte.cache_mode
        else:
            segments = space.translate(vaddr, nbytes, write=False)
            mode = space.cache_mode_of(vaddr)
        watched = segments
        if wake:
            watched = segments + [segment for extra, length in wake
                                  for segment in space.translate(extra, length)]
        check_cost = (
            self.config.read_cost(mode, nbytes) + self.config.costs.vmmc_poll_check
        )
        memory = self.node.memory
        if len(segments) == 1:
            load = partial(memory.read, segments[0][0], nbytes)
        else:
            def load():
                return b"".join(memory.read(p, n) for p, n in segments)
        sim = self.sim
        # ``start`` is the instant the current check begins; a store's
        # wake already carries the check's charge (_sleep_until_write).
        start = sim.now + self._lead
        self._lead = 0.0
        charged = False
        while True:
            self.poll_checks += 1
            span = None
            if self.tracer.enabled:
                span = self.tracer.begin("cpu.poll", "poll check",
                                         track=self.trace_track,
                                         data={"bytes": nbytes}, start=start)
            if not charged:
                yield start + check_cost
            data = load()
            hit = predicate(data)
            if span is not None:
                self.tracer.end(span, data={"hit": hit})
            if hit:
                return data
            if deadline is not None and sim.now >= deadline:
                return None
            wrote = yield from self._sleep_until_write(watched, check_cost,
                                                       deadline)
            charged = wrote is not None
            start = wrote if charged else sim.now

    def poll_flag(self, vaddr: int, expected: bytes, deadline: Optional[float] = None):
        """Poll until the bytes at ``vaddr`` equal ``expected``."""
        result = yield from self.poll(
            vaddr, len(expected), lambda data: data == expected, deadline
        )
        return result

    def wait_any(
        self,
        ranges: Sequence[Tuple[int, int]],
        arrived: Callable[[], bool],
        timeout_us: Optional[float] = None,
    ):
        """Sleep until a write lands in any of ``ranges``; the multi-buffer
        sleep of a receiver that serves several peers (select() over
        mapped buffers).

        ``ranges`` are ``(vaddr, nbytes)`` pairs.  ``arrived()`` (an
        untimed check of the caller's own predicate) is checked first,
        so a write that landed since the caller's last scan is not
        slept through.  Returns True after charging one poll check,
        whether it slept or not; the caller then rescans.  Returns
        False, with no charge, when ``timeout_us`` passes first.
        """
        sim = self.sim
        lead = self._lead
        if lead:
            self._lead = 0.0
            yield sim.now + lead
        segments = [segment for vaddr, nbytes in ranges
                    for segment in self.space.translate(vaddr, nbytes)]
        check_cost = self.config.costs.vmmc_poll_check
        if arrived():
            yield sim.now + check_cost
            return True
        wrote = yield from self._sleep_until_write(
            segments, check_cost,
            None if timeout_us is None else sim.now + timeout_us)
        return wrote is not None

    def _sleep_until_write(
        self,
        segments: Sequence[Tuple[int, int]],
        charge: float,
        deadline: Optional[float],
    ):
        """The flag-wait sleep: until a store lands in any of ``segments``
        (physical ``(paddr, nbytes)`` pairs) or ``deadline`` passes.

        A store wakes the process ``charge`` after its instant with one
        scheduler entry (``Event.succeed_later``), bit-exact with
        wake-then-charge; the guard keeps further stores in that window
        from re-arming it.  ``deadline`` (absolute) is armed on the
        process's timer wheel — one slot per distinct deadline, shared
        by re-arms — and resumes the process at its instant, uncharged.
        Returns the instant the waking store landed, or None when the
        deadline passed first.  No watch or wheel timer outlives the
        sleep.
        """
        sim = self.sim
        memory = self.node.memory
        woke = Event(sim, name="flag-wake")
        armed = True

        def _wake(_paddr, _nbytes):
            nonlocal armed
            if armed:
                armed = False
                woke.succeed_later(charge, sim.now)

        watches = [memory.add_watch(paddr, length, _wake)
                   for paddr, length in segments]
        timer = None
        if deadline is not None:
            def _expire():
                nonlocal armed
                if armed:
                    armed = False
                    woke.succeed(None)

            timer = self._wheel.at(deadline, _expire)
        try:
            return (yield woke)
        finally:
            # finally: an interrupt thrown in at the yield must disarm
            # the sleep too.
            for watch in watches:
                memory.remove_watch(watch)
            if timer is not None:
                self._wheel.cancel(timer)

    # -- zero-cost debug access -----------------------------------------------------
    def peek(self, vaddr: int, nbytes: int) -> bytes:
        """Untimed read, translated now (test assertions, flag peeks,
        and the load half of :meth:`copy`)."""
        page_size = self.config.page_size
        vpage, offset = divmod(vaddr, page_size)
        pte = self.space.page_table.get(vpage)
        if pte is not None and pte.readable and 0 < nbytes <= page_size - offset:
            return self.node.memory.read(pte.frame * page_size + offset, nbytes)
        memory = self.node.memory
        segments = self.space.translate(vaddr, nbytes, write=False)
        return b"".join(memory.read(p, length) for p, length in segments)

    def poke(self, vaddr: int, data: bytes) -> None:
        """Untimed, un-snooped write for test setup."""
        segments = self.space.translate(vaddr, len(data), write=True)
        offset = 0
        for paddr, length in segments:
            self.node.memory.write(paddr, data[offset : offset + length])
            offset += length
