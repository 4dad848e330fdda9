"""The KV service's socket transport: its variant choice and its frame
reads.

Every frame the KV socket protocol sends is bounded by the wire
protocol, so the service's variant must be the faster one over that
whole range (Figure 7's AU-2copy / DU-1copy crossover lies at 2-4 KB).
Each point op reads its frame with one ``recv``; a frame split across
two ring records still parses.
"""

import pytest

from repro.apps.kv import KVClient, KVService, ST_MISS, ST_OK
from repro.apps.kv import protocol as wire
from repro.bench.libraries import socket_pingpong
from repro.libs.sockets import ShrimpSocket
from repro.testbed import make_system

#: The smallest and largest frames the KV socket protocol sends: a
#: response with no value, and a PUT request at both bounds.
FRAME_BOUNDS = (wire.RESP_HEADER.size,
                wire.REQ_HEADER.size + wire.KEY_BOUND + wire.VALUE_BOUND)


@pytest.mark.parametrize("size", FRAME_BOUNDS)
def test_service_socket_variant_beats_du_1copy_at_the_frame_bounds(size):
    ours = socket_pingpong(KVService.socket_variant.name, size)
    assert ours < socket_pingpong("DU-1copy", size)


def _boot():
    system = make_system()
    service = KVService(system, replicas=1)
    service.preload({"k%02d" % i: b"value-%02d" % i for i in range(8)})
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
