"""The KV client's one failover walk, driven deterministically.

Every request path — synchronous point ops, pipelined submits, quorum
reads and writes, batched reads, socket ops — walks the replica set
through ``KVClient._walk``.  These tests strike or break one replica's
connection by hand (no fault plan, so nothing else perturbs the run)
and check that each path fails over, serves the same answers, and
counts ``failovers`` by the same rule: one per struck connection, plus
one per request served only after skipping a connection already struck.
"""

from repro.apps.kv import KVClient, KVService, ST_ERROR, ST_MISS, ST_OK
from repro.apps.kv.config import Consistency, Mitigations
from repro.testbed import make_system
from repro.vmmc import VmmcError


class Broken:
    """A connection whose listed methods fail with a typed VmmcError."""

    def __init__(self, inner, methods):
        self._inner = inner
        self._methods = set(methods)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in self._methods:
            return attr

        def fail(*_args, **_kwargs):
            raise VmmcError("injected: connection lost")
            yield  # pragma: no cover - generator protocol

        return fail


def run(body, transport="srpc", replicas=2, mitigations=Mitigations(),
        consistency=Consistency()):
    """Run ``body(client, service, out)`` in one client; return
    ``(out, stats)``.  Server handlers of struck nodes never see a
    ``stop``, so the service is not drained."""
    system = make_system()
    service = KVService(system, replicas, mitigations=mitigations,
                        consistency=consistency)
    sockets = transport == "sockets"
    service.start(srpc_handlers=0 if sockets else 1,
                  socket_handlers=1 if sockets else 0)
    service.preload({"k%d" % i: b"v%d" % i for i in range(8)})
    out = []

    def program(proc):
        client = KVClient(service, proc, transport,
                          consistency=consistency)
        yield from client.connect()
        yield from body(client, service, out)
        yield from client.shutdown()
        return client.stats()

    handle = system.spawn(0, program, name="kv-failover-test")
    system.run_processes([handle], timeout=50_000_000.0)
    return out, handle.value


def primary(service, key):
    return service.replicas_for(key)[0]


def strike(client, service, key):
    """Mark the RPC connection to ``key``'s primary dead."""
    client.dead.add(("rpc", primary(service, key)))


def test_point_ops_skip_a_struck_primary():
    def body(client, service, out):
        strike(client, service, "k1")
        out.append((yield from client.get("k1")))
        out.append((yield from client.put("k1", b"x")))
        out.append((yield from client.get("k1")))

    out, stats = run(body)
    assert out == [(ST_OK, b"v1"), ST_OK, (ST_OK, b"x")]
    assert stats["failovers"] == 3  # every op served past the struck node
    assert stats["errors"] == 0


def test_a_failed_call_strikes_its_connection_once():
    def body(client, service, out):
        node = primary(service, "k1")
        client.rpc[node] = Broken(client.rpc[node], ["get", "put", "stop"])
        out.append((yield from client.get("k1")))
        out.append(("rpc", node) in client.dead)
        out.append((yield from client.put("k1", b"x")))

    out, stats = run(body)
    assert out == [(ST_OK, b"v1"), True, ST_OK]
    # The strike counts once; the PUT then skips the struck node.
    assert stats["failovers"] == 2


def test_exhausted_replica_set_errors_without_failover():
    def body(client, service, out):
        for node in service.nodes:
            client.dead.add(("rpc", node))
        out.append((yield from client.get("k1")))
        out.append((yield from client.put("k1", b"x")))

    out, stats = run(body)
    assert out == [(ST_ERROR, None), ST_ERROR]
    assert stats["errors"] == 2
    assert stats["failovers"] == 0


def test_pipelined_ops_count_like_synchronous_ones():
    keys = ["k1", "k3", "k1"]

    def pipelined(client, service, out):
        strike(client, service, "k1")
        handles = [(yield from client.get_begin(keys[0])),
                   (yield from client.put_begin(keys[1], b"y")),
                   (yield from client.delete_begin(keys[2]))]
        for handle in handles:
            out.append((yield from client.collect(handle)))

    def synchronous(client, service, out):
        strike(client, service, "k1")
        out.append((yield from client.get(keys[0])))
        out.append(((yield from client.put(keys[1], b"y")), None))
        out.append(((yield from client.delete(keys[2])), None))

    piped, piped_stats = run(pipelined,
                             mitigations=Mitigations(pipeline_window=4))
    plain, plain_stats = run(synchronous)
    assert piped == plain == [(ST_OK, b"v1"), (ST_OK, None), (ST_OK, None)]
    assert piped_stats["failovers"] == plain_stats["failovers"] > 0


def test_pipelined_submit_failure_moves_to_the_next_replica():
    def body(client, service, out):
        node = primary(service, "k1")
        client.rpc[node] = Broken(client.rpc[node],
                                  ["get_begin", "put_begin", "stop"])
        handles = [(yield from client.get_begin("k1")),
                   (yield from client.put_begin("k1", b"y"))]
        for handle in handles:
            out.append((yield from client.collect(handle)))

    out, stats = run(body, mitigations=Mitigations(pipeline_window=4))
    assert out == [(ST_OK, b"v1"), (ST_OK, None)]
    assert stats["failovers"] == 2  # the strike, then one skip


def test_lost_ticket_retries_through_the_walk():
    def body(client, service, out):
        node = primary(service, "k1")
        client.rpc[node] = Broken(client.rpc[node], ["finish", "stop"])
        handle = yield from client.get_begin("k1")
        out.append((yield from client.collect(handle)))

    out, stats = run(body, mitigations=Mitigations(pipeline_window=4))
    assert out == [(ST_OK, b"v1")]
    assert stats["ops"] == 1
    assert stats["failovers"] == 2  # the lost ticket, then the skip


def test_quorum_walk_collects_r_answers_past_a_struck_replica():
    def body(client, service, out):
        strike(client, service, "k1")
        out.append((yield from client.put("k1", b"q")))
        out.append((yield from client.get("k1")))
        out.append((yield from client.delete("k1")))
        out.append((yield from client.get("k1")))

    out, stats = run(body, replicas=3,
                     consistency=Consistency(consistency="quorum"))
    assert out == [ST_OK, (ST_OK, b"q"), ST_OK, (ST_MISS, None)]
    assert stats["failovers"] == 4
    assert stats["errors"] == 0


def test_quorum_falls_short_when_too_few_replicas_answer():
    def body(client, service, out):
        for node in service.replicas_for("k1")[:2]:
            client.dead.add(("rpc", node))
        out.append((yield from client.put("k1", b"q")))
        out.append((yield from client.get("k1")))

    out, stats = run(body, replicas=3,
                     consistency=Consistency(consistency="quorum"))
    assert out == [ST_ERROR, (ST_ERROR, None)]
    assert stats["errors"] == 2


def test_batched_read_falls_back_to_per_key_walks():
    keys = ["k%d" % i for i in range(8)]

    def body(client, service, out):
        node = primary(service, "k1")
        client.rpc[node] = Broken(client.rpc[node],
                                  ["multi_get", "get", "stop"])
        out.append((yield from client.multi_get(keys)))

    out, stats = run(body, mitigations=Mitigations(batch_keys=4))
    assert out == [[(ST_OK, b"v%d" % i) for i in range(8)]]
    assert stats["failovers"] >= 1
    assert stats["errors"] == 0


def test_socket_walk_and_scan_after_a_lost_connection():
    def body(client, service, out):
        node = primary(service, "k1")
        client.socks[node] = Broken(client.socks[node], ["send", "close"])
        out.append((yield from client.get("k1")))
        status, rows = yield from client.scan("k", 8)
        out.append((status, [key for key, _ in rows]))
        out.append(["k%d" % i for i in range(8)
                    if primary(service, "k%d" % i) != node])

    out, stats = run(body, transport="sockets")
    assert out[0] == (ST_OK, b"v1")
    # The scan still merges every live shard but reports the gap: each
    # shard sends only the keys it is primary for, so the struck
    # shard's primary keys are missing even where a replica holds them.
    status, keys = out[1]
    assert status == ST_ERROR
    assert keys == out[2] and keys
    assert stats["failovers"] == 1
