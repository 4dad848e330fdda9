"""Stream sockets library tests: rings, connections, stream semantics."""

import pytest

from repro.hardware.config import CacheMode
from repro.libs.sockets import SOCKET_VARIANTS, RecordRing, SocketError, SocketLib
from repro.libs.sockets.circular import record_bytes
from repro.testbed import make_system

PAGE = 4096


class TestRecordRing:
    def test_space_accounting(self):
        ring = RecordRing(1024)
        assert ring.free == 1024
        ring.place_record(100)
        assert ring.used == record_bytes(100) == 104  # 4-byte header + payload
        ring.consume_record(100)
        assert ring.used == 0

    def test_padding_keeps_word_alignment(self):
        ring = RecordRing(1024)
        for payload in (1, 2, 3, 5, 7):
            header, segments, _ = ring.place_record(payload)
            assert all(seg.ring_offset % 4 == 0 for seg in segments)
            ring.consume_record(payload)

    def test_wraparound_splits_segments(self):
        ring = RecordRing(256)
        ring.place_record(200)
        ring.consume_record(200)
        _, segments, _ = ring.place_record(100)  # wraps past 256
        assert len(segments) == 2
        assert sum(s.length for s in segments) == 100

    def test_overfill_rejected(self):
        ring = RecordRing(128)
        with pytest.raises(ValueError):
            ring.place_record(200)

    def test_max_payload_fitting(self):
        ring = RecordRing(128)
        assert ring.max_payload_fitting() == 124
        ring.place_record(60)
        assert ring.max_payload_fitting() == 128 - 64 - 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RecordRing(130)  # not a word multiple... (130 % 4 != 0)


def echo_pair(system, variant, client_body, server_body=None, port=7):
    """Spawn a server (accept) on node 1 and a client on node 0."""
    results = {}

    def server(proc):
        lib = SocketLib(system, proc, variant=SOCKET_VARIANTS[variant])
        listener = lib.listen(port)
        sock = yield from listener.accept()
        result = yield from server_body(proc, sock)
        results["server"] = result

    def client(proc):
        lib = SocketLib(system, proc, variant=SOCKET_VARIANTS[variant])
        sock = yield from lib.connect(1, port)
        result = yield from client_body(proc, sock)
        results["client"] = result

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return results


def default_echo_server(total_bytes):
    def body(proc, sock):
        buf = proc.space.mmap(max(total_bytes, PAGE))
        got = yield from sock.recv_exactly(buf, total_bytes)
        yield from sock.send(buf, got)
        yield from sock.close()
        return got

    return body


@pytest.mark.parametrize("variant", ["AU-2copy", "DU-1copy", "DU-2copy"])
def test_echo_roundtrip_all_variants(variant):
    system = make_system()
    payload = bytes(range(256)) * 4  # 1 KB

    def client_body(proc, sock):
        src = proc.space.mmap(PAGE)
        dst = proc.space.mmap(PAGE)
        proc.poke(src, payload)
        yield from sock.send(src, len(payload))
        got = yield from sock.recv_exactly(dst, len(payload))
        yield from sock.close()
        return proc.peek(dst, got)

    results = echo_pair(system, variant, client_body,
                        default_echo_server(len(payload)))
    assert results["client"] == payload
    assert results["server"] == len(payload)


def test_large_stream_crosses_ring_capacity():
    """Stream far more data than the ring holds: flow control must cycle."""
    system = make_system()
    total = 48 * 4096  # 192 KB >> the 32 KB ring
    pattern = bytes((i * 11) % 256 for i in range(4096))

    def client_body(proc, sock):
        src = proc.space.mmap(4096)
        proc.poke(src, pattern)
        for _ in range(total // 4096):
            yield from sock.send(src, 4096)
        yield from sock.close()
        return total

    def server_body(proc, sock):
        buf = proc.space.mmap(4096)
        received = 0
        ok = True
        while True:
            got = yield from sock.recv(buf, 4096)
            if got == 0:
                break
            # Verify stream contents chunk-relative.
            start = received % 4096
            expect = (pattern * 3)[start : start + got]
            if proc.peek(buf, got) != expect:
                ok = False
            received += got
        return received, ok

    results = echo_pair(system, "DU-1copy", client_body, server_body)
    received, ok = results["server"]
    assert received == total
    assert ok


def test_unaligned_send_falls_back_but_delivers():
    system = make_system()
    payload = b"unaligned payload bytes!!"

    def client_body(proc, sock):
        region = proc.space.mmap(PAGE)
        src = region + 1  # break word alignment
        proc.poke(src, payload)
        yield from sock.send(src, len(payload))
        yield from sock.close()

    def server_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        got = yield from sock.recv_exactly(buf, len(payload))
        return proc.peek(buf, got)

    results = echo_pair(system, "DU-1copy", client_body, server_body)
    assert results["server"] == payload


def test_odd_sizes_byte_exact_stream():
    """Sizes that defeat word alignment everywhere: 1, 3, 5, 7, 13 bytes."""
    system = make_system()
    sizes = [1, 3, 5, 7, 13]

    def client_body(proc, sock):
        src = proc.space.mmap(PAGE)
        for i, size in enumerate(sizes):
            proc.poke(src, bytes([65 + i]) * size)
            yield from sock.send(src, size)
        yield from sock.close()

    def server_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        total = sum(sizes)
        got = yield from sock.recv_exactly(buf, total)
        return proc.peek(buf, got)

    results = echo_pair(system, "DU-2copy", client_body, server_body)
    expected = b"".join(bytes([65 + i]) * s for i, s in enumerate(sizes))
    assert results["server"] == expected


def test_recv_returns_available_not_waiting_for_max():
    system = make_system()

    def client_body(proc, sock):
        src = proc.space.mmap(PAGE)
        proc.poke(src, b"short")
        yield from sock.send(src, 5)
        yield from proc.compute(10000.0)
        yield from sock.close()

    def server_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        got = yield from sock.recv(buf, PAGE)  # must not wait for PAGE bytes
        return got, proc.sim.now

    results = echo_pair(system, "AU-2copy", client_body, server_body)
    got, when = results["server"]
    assert got == 5
    assert when < 10000.0


def test_partial_record_consumption():
    """recv with a tiny buffer consumes one record across several calls."""
    system = make_system()

    def client_body(proc, sock):
        src = proc.space.mmap(PAGE)
        proc.poke(src, b"abcdefghij")
        yield from sock.send(src, 10)
        yield from sock.close()

    def server_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        pieces = []
        for _ in range(4):
            got = yield from sock.recv(buf, 3)
            pieces.append(proc.peek(buf, got))
        return pieces

    results = echo_pair(system, "DU-1copy", client_body, server_body)
    assert results["server"] == [b"abc", b"def", b"ghi", b"j"]


def test_eof_after_peer_close():
    system = make_system()

    def client_body(proc, sock):
        src = proc.space.mmap(PAGE)
        proc.poke(src, b"last words")
        yield from sock.send(src, 10)
        yield from sock.close()

    def server_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        first = yield from sock.recv_exactly(buf, 10)
        eof = yield from sock.recv(buf, 100)
        return first, eof

    results = echo_pair(system, "AU-2copy", client_body, server_body)
    assert results["server"] == (10, 0)


def test_send_on_closed_socket_raises():
    system = make_system()

    def client_body(proc, sock):
        yield from sock.close()
        src = proc.space.mmap(PAGE)
        try:
            yield from sock.send(src, 4)
        except SocketError:
            return "raised"

    def server_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        got = yield from sock.recv(buf, 4)
        return got

    results = echo_pair(system, "DU-1copy", client_body, server_body)
    assert results["client"] == "raised"
    assert results["server"] == 0


def test_connect_to_nobody_blocks_forever_is_not_tested_but_two_clients_work():
    """Two sequential connections to one listener port."""
    system = make_system()
    results = {}

    def server(proc):
        lib = SocketLib(system, proc)
        listener = lib.listen(9)
        total = 0
        for _ in range(2):
            sock = yield from listener.accept()
            buf = proc.space.mmap(PAGE)
            total += yield from sock.recv_exactly(buf, 4)
            yield from sock.close()
        results["server"] = total

    def client(proc, node=0):
        lib = SocketLib(system, proc)
        sock = yield from lib.connect(1, 9)
        src = proc.space.mmap(PAGE)
        proc.poke(src, b"ping")
        yield from sock.send(src, 4)
        yield from sock.close()

    s = system.spawn(1, server)
    c1 = system.spawn(0, client)
    c2 = system.spawn(2, client)
    system.run_processes([s, c1, c2])
    assert results["server"] == 8


def _blocked_recv(client_consumes):
    """The server sends a record, then blocks in ``recv`` until the
    client's send lands 200 us later; meanwhile the client reads the
    server's record (so its consumed-counter store lands on the server's
    control page) or leaves it unread.  Returns the server's poll checks
    and ``cpu.poll`` spans during that ``recv``, and the machine config."""
    system = make_system()
    tracer = system.machine.tracer
    tracer.enabled = True

    def client_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        yield from proc.compute(100.0)
        if client_consumes:
            yield from sock.recv(buf, PAGE)
        yield from proc.compute(100.0)
        yield from sock.send(buf, 4)
        yield from sock.close()

    def server_body(proc, sock):
        buf = proc.space.mmap(PAGE)
        yield from sock.send(buf, 4)
        checks, start = proc.poll_checks, proc.sim.now
        assert (yield from sock.recv(buf, PAGE)) == 4
        spans = [span for span in tracer.spans
                 if span.category == "cpu.poll" and span.start >= start
                 and span.track == proc.trace_track]
        return proc.poll_checks - checks, spans

    checks, spans = echo_pair(system, "AU-2copy", client_body,
                              server_body)["server"]
    return checks, spans, system.config


def test_a_consumed_ack_does_not_wake_a_blocked_receiver():
    acked, _, _ = _blocked_recv(client_consumes=True)
    quiet, _, _ = _blocked_recv(client_consumes=False)
    assert acked == quiet


def test_a_blocked_receivers_poll_check_loads_the_produced_and_fin_pair():
    checks, spans, config = _blocked_recv(client_consumes=True)
    cost = (config.read_cost(CacheMode.WRITE_THROUGH, 8)
            + config.costs.vmmc_poll_check)
    assert len(spans) == checks > 0
    assert all(span.data["bytes"] == 8 for span in spans)
    assert all(span.duration() == pytest.approx(cost, abs=1e-9)
               for span in spans)
