"""The KV service's socket transport: its variant choice, its frame
reads and its scans.

Every send the KV socket protocol makes is bounded by the wire
protocol, so the service's variant must be the faster one over that
whole range (Figure 7's AU-2copy / DU-1copy crossover lies at 2-4 KB).
Each point op reads its frame with one ``recv``; a frame split across
two ring records still parses.  A scan sends every shard its leg
before reading any, each shard streams only the keys it is primary
for, staged into as few sends as ``SCAN_SEND_BYTES`` allows, and the
client reads each leg with whole-buffer ``recv``s.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kv import KVClient, KVService, KvRejectedError, ST_MISS, ST_OK
from repro.apps.kv import protocol as wire
from repro.apps.kv.admission import LANE_BULK
from repro.apps.kv.server import _ShardImpl
from repro.bench.libraries import socket_pingpong
from repro.libs.sockets import ShrimpSocket
from repro.testbed import make_system

#: The smallest and largest frames the KV socket protocol sends: a
#: response with no value, and a PUT request at both bounds.  The
#: largest send of all is a scan leg's staged records.
FRAME_BOUNDS = (wire.RESP_HEADER.size,
                wire.REQ_HEADER.size + wire.KEY_BOUND + wire.VALUE_BOUND,
                wire.SCAN_SEND_BYTES)


@pytest.mark.parametrize("size", FRAME_BOUNDS)
def test_service_socket_variant_beats_du_1copy_at_the_frame_bounds(size):
    ours = socket_pingpong(KVService.socket_variant.name, size)
    assert ours < socket_pingpong("DU-1copy", size)


def test_the_variant_guard_fails_past_the_crossover():
    """A scan send bound of 4 KB would lie past the crossover, and the
    guard above would catch it."""
    ours = socket_pingpong(KVService.socket_variant.name, 4096)
    assert ours > socket_pingpong("DU-1copy", 4096)


def _boot(data=None, replicas=1):
    system = make_system()
    service = KVService(system, replicas=replicas)
    service.preload(data or {"k%02d" % i: b"value-%02d" % i
                             for i in range(8)})
    service.start(socket_handlers=1)
    return system, service


def _drive(system, service, node, program):
    handle = system.spawn(node, program, name="kv-sock-test")
    system.run_processes([handle])
    service.shutdown()
    system.run_processes(service.handles)
    return handle.value


def test_get_round_trip_makes_one_recv_on_each_side(monkeypatch):
    calls = []
    real_recv = ShrimpSocket.recv

    def counted(sock, vaddr, max_bytes):
        got = yield from real_recv(sock, vaddr, max_bytes)
        calls.append((sock, sock.proc.sim.now, got))
        return got

    monkeypatch.setattr(ShrimpSocket, "recv", counted)
    system, service = _boot()
    key = "k03"
    (shard,) = service.replicas_for(key)
    window = {}

    def program(proc):
        client = KVClient(service, proc, "sockets")
        yield from client.connect()
        window["sock"] = client.socks[shard]
        window["start"] = proc.sim.now
        status, value = yield from client.get(key)
        window["end"] = proc.sim.now
        yield from client.shutdown()
        return status, bytes(value)

    client_node = (shard + 1) % len(service.nodes)
    assert _drive(system, service, client_node, program) == \
        (ST_OK, b"value-03")
    during = [(sock, got) for sock, now, got in calls
              if window["start"] <= now <= window["end"]]
    client_side = [got for sock, got in during if sock is window["sock"]]
    server_side = [got for sock, got in during
                   if sock is not window["sock"]
                   and sock.proc.node.node_id == shard]
    request = wire.encode_request(wire.OP_GET, key)
    response = wire.encode_response(ST_OK, b"value-03")
    assert server_side == [len(request)]
    assert client_side == [len(response)]


@pytest.mark.parametrize("cut", [2, 9])
def test_point_op_frame_split_across_two_records_still_parses(monkeypatch,
                                                               cut):
    """Every socket send goes out as two records, ``cut`` bytes and the
    rest, with a gap between them, as a nearly full ring splits a
    frame: the receiver's first ``recv`` sees only the first record
    (inside the header at 2 bytes, inside the body at 9)."""
    real_send = ShrimpSocket.send
    recvs = []
    real_recv = ShrimpSocket.recv

    def split(sock, vaddr, nbytes):
        head = min(cut, nbytes - 1)
        if head <= 0:
            return (yield from real_send(sock, vaddr, nbytes))
        yield from real_send(sock, vaddr, head)
        yield from sock.proc.compute(20.0)
        yield from real_send(sock, vaddr + head, nbytes - head)
        return nbytes

    def counted(sock, vaddr, max_bytes):
        got = yield from real_recv(sock, vaddr, max_bytes)
        recvs.append(got)
        return got

    monkeypatch.setattr(ShrimpSocket, "send", split)
    monkeypatch.setattr(ShrimpSocket, "recv", counted)
    system, service = _boot()

    def program(proc):
        client = KVClient(service, proc, "sockets")
        yield from client.connect()
        seen = []
        status, value = yield from client.get("k05")
        seen.append((status, bytes(value)))
        seen.append((yield from client.put("k05", b"x" * 40)))
        status, value = yield from client.get("k05")
        seen.append((status, bytes(value)))
        seen.append((yield from client.delete("k05")))
        seen.append((yield from client.get("k05")))
        yield from client.shutdown()
        return seen

    assert _drive(system, service, 0, program) == [
        (ST_OK, b"value-05"), ST_OK, (ST_OK, b"x" * 40), ST_OK,
        (ST_MISS, None)]
    # The split reached the frame reads: some recv returned just the
    # first record.
    assert cut in recvs


#: Enough keys that every shard holds at least eight under prefix "k".
SCAN_DATA = {"k%03d" % i: b"v-%03d" % i for i in range(64)}


def _scan_client(service, out, limit=8):
    """A client program: one scan of ``limit`` ``k`` records into
    ``out``."""

    def program(proc):
        client = KVClient(service, proc, "sockets")
        yield from client.connect()
        out["client"] = client
        out["scan"] = yield from client.scan("k", limit)
        yield from client.shutdown()

    return program


def _first(data):
    """What a scan of eight ``k`` records over ``data`` answers."""
    return [(key, data[key]) for key in sorted(data)[:8]]


def test_every_shard_serves_its_leg_before_the_first_leg_is_read():
    system, service = _boot(SCAN_DATA)
    tracer = system.machine.tracer
    tracer.enabled = True
    out = {}
    _drive(system, service, 0, _scan_client(service, out))
    assert out["scan"] == (ST_OK, _first(SCAN_DATA))
    calls = [s for s in tracer.spans
             if s.category == "kv.call" and s.name == "scan"]
    serves = [s for s in tracer.spans if s.category == "kv.serve"
              and s.name == "sock op %d" % wire.OP_SCAN]
    assert len(calls) == len(serves) == len(service.nodes)
    first_read = min(s.end for s in calls)
    assert all(s.start < first_read for s in serves)


def _scan_sends(monkeypatch, data):
    """Scan ``data`` once from node 0; returns the byte counts of the
    client's sends and of the shards' sends."""
    sends = []
    real_send = ShrimpSocket.send

    def counted(sock, vaddr, nbytes):
        sends.append((sock.proc, nbytes))
        return (yield from real_send(sock, vaddr, nbytes))

    monkeypatch.setattr(ShrimpSocket, "send", counted)
    system, service = _boot(data)
    out = {}
    _drive(system, service, 0, _scan_client(service, out))
    assert out["scan"] == (ST_OK, _first(data))
    client_proc = out["client"].proc
    return ([n for proc, n in sends if proc is client_proc],
            [n for proc, n in sends if proc is not client_proc])


def test_a_scan_makes_one_server_send_per_leg_of_small_records(monkeypatch):
    client, server = _scan_sends(monkeypatch, SCAN_DATA)
    # Four requests and four QUITs; one send per leg.
    assert len(client) == 8
    assert len(server) == 4
    assert max(server) <= wire.SCAN_SEND_BYTES


@given(keys=st.sets(st.tuples(st.sampled_from("jk"), st.integers(0, 99)),
                   min_size=1, max_size=48),
       replicas=st.integers(1, 4), limit=st.integers(1, 16))
@settings(max_examples=30, deadline=None)
def test_a_scan_answers_the_first_keys_and_ships_each_key_once(
        keys, replicas, limit):
    """Whatever the keys and the replica count, a scan answers exactly
    the first ``limit`` preloaded ``k`` keys with their values, and the
    shards' sends carry each key once: a shard streams only the keys it
    is primary for."""
    data = {"%s%02d" % key: ("value-%s%02d" % key).encode() for key in keys}
    streams = {}
    real_send = ShrimpSocket.send

    def recorded(sock, vaddr, nbytes):
        streams[sock.proc] = (streams.get(sock.proc, b"")
                              + sock.proc.peek(vaddr, nbytes))
        return (yield from real_send(sock, vaddr, nbytes))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShrimpSocket, "send", recorded)
        system, service = _boot(data, replicas)
        out = {}
        _drive(system, service, 0, _scan_client(service, out, limit))
    first = sorted(key for key in data if key.startswith("k"))[:limit]
    assert out["scan"] == (ST_OK, [(key, data[key]) for key in first])
    shipped = []
    for proc, stream in streams.items():
        if proc is out["client"].proc:
            continue
        found, sentinel, used = wire.parse_scan_records(stream)
        assert (sentinel, used) == (wire.SCAN_END, len(stream))
        shipped += [key for key, _value in found]
    assert len(shipped) == len(set(shipped))


def test_a_shed_leg_drains_the_others_before_the_next_op(monkeypatch):
    """Shard 0 sheds its leg; the client must still read shards 1-3 to
    their sentinels, or the next GET on each of those connections
    would read this scan's records instead of its own reply."""
    shedding = [True]
    real_admit = _ShardImpl._admit

    def shed_scans_on_shard0(impl, lane, cost, defer=False):
        if shedding[0] and impl.node_id == 0 and lane == LANE_BULK:
            return False
        return (yield from real_admit(impl, lane, cost, defer))

    monkeypatch.setattr(_ShardImpl, "_admit", shed_scans_on_shard0)
    system, service = _boot(SCAN_DATA)
    owned = {}
    for key in sorted(SCAN_DATA):
        owned.setdefault(service.replicas_for(key)[0], key)
    gets = []

    def program(proc):
        client = KVClient(service, proc, "sockets")
        yield from client.connect()
        try:
            yield from client.scan("k", 8)
        except KvRejectedError:
            gets.append("rejected")
        shedding[0] = False
        for node in service.nodes[1:]:
            status, value = yield from client.get(owned[node])
            gets.append((status, bytes(value)))
        yield from client.shutdown()

    _drive(system, service, 0, program)
    # Shards 1-3 were sent their legs and served them.
    assert [service.stores[node].scans for node in service.nodes] == \
        [0, 1, 1, 1]
    assert gets == ["rejected"] + [(ST_OK, SCAN_DATA[owned[node]])
                                   for node in service.nodes[1:]]


BIG_DATA = {"k%03d" % i: bytes([65 + i % 26]) * wire.VALUE_BOUND
            for i in range(40)}


def _scan_stream(records):
    return b"".join(wire.encode_scan_record(key, value)
                    for key, value in records) + wire.scan_end_record()


def test_the_scan_parser_takes_records_cut_anywhere():
    records = _first(BIG_DATA)
    stream = _scan_stream(records)
    for cut in range(0, len(stream) + 1, 7):
        got, held = [], b""
        for chunk in (stream[:cut], stream[cut:]):
            found, sentinel, used = wire.parse_scan_records(held + chunk)
            got += found
            held = (held + chunk)[used:]
        assert (got, sentinel, held) == (records, wire.SCAN_END, b"")


def test_the_scan_parser_reports_the_reject_sentinel():
    assert wire.parse_scan_records(wire.scan_reject_record()) == \
        ([], wire.SCAN_REJECT, wire.SCAN_RECORD.size)
    partial = wire.encode_scan_record("k1", b"abc")[:-1]
    assert wire.parse_scan_records(partial) == ([], None, 0)


def test_a_leg_of_1kb_values_spans_sends_and_straddles_recvs(monkeypatch):
    tails = []
    real_parse = wire.parse_scan_records

    def parse(data):
        found, sentinel, used = real_parse(data)
        tails.append(len(data) - used)
        return found, sentinel, used

    monkeypatch.setattr(wire, "parse_scan_records", parse)
    _client, server = _scan_sends(monkeypatch, BIG_DATA)
    assert len(server) > 4
    assert max(server) <= wire.SCAN_SEND_BYTES
    # Some read ended inside a record, which the next read completed.
    assert any(tails)
