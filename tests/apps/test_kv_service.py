"""End-to-end tests of the sharded KV service: both transports,
replication fan-out over NX, failover under an armed fault plan."""

from repro.apps.kv import KVClient, KVService, ST_ERROR, ST_MISS, ST_OK
from repro.sim.faults import FaultPlan
from repro.testbed import make_system


def boot(srpc_handlers=1, socket_handlers=0, fault_plan=None, **kv_kwargs):
    system = make_system(fault_plan=fault_plan)
    service = KVService(system, **kv_kwargs)
    service.start(srpc_handlers=srpc_handlers,
                  socket_handlers=socket_handlers)
    return system, service


def drive(system, service, programs, timeout=30_000_000.0):
    handles = [system.spawn(node, program, name="kv-test-%d" % i)
               for i, (node, program) in enumerate(programs)]
    system.run_processes(handles, timeout=timeout)
    service.shutdown()
    system.run_processes(service.handles, timeout=timeout)
    return [h.value for h in handles]


def test_srpc_put_get_delete_roundtrip():
    system, service = boot()
    seen = {}

    def client_program(proc):
        client = KVClient(service, proc)
        yield from client.connect()
        status = yield from client.put("alpha", b"value-alpha")
        seen["put"] = status
        status, value = yield from client.get("alpha")
        seen["get"] = (status, bytes(value))
        status, value = yield from client.get("nope")
        seen["miss"] = status
        status = yield from client.delete("alpha")
        seen["delete"] = status
        status, _ = yield from client.get("alpha")
        seen["get_after_delete"] = status
        yield from client.shutdown()

    drive(system, service, [(0, client_program)])
    assert seen["put"] == ST_OK
    assert seen["get"] == (ST_OK, b"value-alpha")
    assert seen["miss"] == ST_MISS
    assert seen["delete"] == ST_OK
    assert seen["get_after_delete"] == ST_MISS


def test_socket_transport_and_scan():
    system, service = boot(srpc_handlers=0, socket_handlers=1)
    service.preload({"pre/%03d" % i: b"v%03d" % i for i in range(12)})
    seen = {}

    def client_program(proc):
        client = KVClient(service, proc, "sockets")
        yield from client.connect()
        status, value = yield from client.get("pre/004")
        seen["get"] = (status, bytes(value))
        status = yield from client.put("pre/new", b"fresh")
        seen["put"] = status
        status, records = yield from client.scan("pre/", 6)
        seen["scan"] = (status, [k for k, _ in records])
        yield from client.shutdown()

    drive(system, service, [(1, client_program)])
    assert seen["get"] == (ST_OK, b"v004")
    assert seen["put"] == ST_OK
    status, keys = seen["scan"]
    assert status == ST_OK
    # Scatter-gather across replicas must dedupe: sorted, no repeats.
    assert keys == sorted(set(keys)) and len(keys) == 6
    assert keys[0] == "pre/000"


def test_replication_reaches_replicas_and_reduce_totals():
    system, service = boot(replicas=2)

    def client_program(proc):
        client = KVClient(service, proc)
        yield from client.connect()
        for i in range(6):
            status = yield from client.put("rep/%d" % i, b"payload-%d" % i)
            assert status == ST_OK
        yield from client.shutdown()

    drive(system, service, [(0, client_program)])
    # Every write landed on its full replica set...
    for i in range(6):
        key = "rep/%d" % i
        for node in service.replicas_for(key):
            assert service.stores[node].data[key] == b"payload-%d" % i
    # ...and the shutdown reduce agreed with the per-store counters.
    applied = sum(s.repl_applied for s in service.stores.values())
    assert service.repl_applied_total == applied == 6
    assert service.repl_send_failures == 0
    assert service.map_mismatches == []


def test_concurrent_clients_each_get_a_handler():
    system, service = boot(srpc_handlers=2)
    results = []

    def make_client(cid):
        def client_program(proc):
            client = KVClient(service, proc, client_id=cid)
            yield from client.connect()
            status = yield from client.put("c%d" % cid, b"x" * (cid + 1))
            results.append(status)
            yield from client.shutdown()

        return client_program

    drive(system, service, [(0, make_client(0)), (2, make_client(1))])
    assert results == [ST_OK, ST_OK]


def test_faulted_run_completes_with_failover():
    """Under an armed fault plan the client's replica walk must finish
    every request — degraded (errors allowed), never hung."""
    plan = FaultPlan.from_seed(11, horizon_us=2000.0, count=10)
    system, service = boot(fault_plan=plan)
    tally = {"done": 0, "errors": 0}

    def client_program(proc):
        client = KVClient(service, proc)
        yield from client.connect()
        for i in range(12):
            key = "f/%d" % i
            if i % 3 == 0:
                status = yield from client.put(key, b"v%d" % i)
            else:
                status, _ = yield from client.get(key)
            tally["done"] += 1
            if status == ST_ERROR:
                tally["errors"] += 1
        yield from client.shutdown()
        return client.stats()

    stats = drive(system, service, [(0, client_program)],
                  timeout=120_000_000.0)[0]
    assert tally["done"] == 12
    assert system.faults.stats()["fired"] > 0
    # The reduce is skipped under faults (a rank may have died) — the
    # service must record that rather than a bogus total.
    assert service.repl_applied_total is None
    assert stats["failovers"] == tally["errors"] or stats["failovers"] >= 0

