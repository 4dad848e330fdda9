"""Hot-key mitigation layer: client cache, read-spreading, batching,
and the pipelined submit/collect path of the KV client.

The correctness bar (docs/WORKLOADS.md): mitigations may change *when*
a value is read and *which replica* serves it, but never *what* a
client observes for its own writes — a client that wrote a key must
not subsequently read an older value from its cache, and pipelined
writes to the same key must apply in submission order.
"""

from dataclasses import replace

import pytest

from repro.apps.kv import KVClient, KVService, ST_MISS, ST_OK
from repro.apps.kv.config import Mitigations
from repro.apps.kv.protocol import MULTI_GET_MAX
from repro.testbed import make_system
from repro.workload import WorkloadSpec, run_workload


def boot(srpc_handlers=1, replicas=2, **knobs):
    system = make_system()
    service = KVService(system, replicas, mitigations=Mitigations(**knobs))
    service.start(srpc_handlers=srpc_handlers)
    return system, service


def drive(system, service, programs, timeout=30_000_000.0):
    handles = [system.spawn(node, program, name="mitig-test-%d" % i)
               for i, (node, program) in enumerate(programs)]
    system.run_processes(handles, timeout=timeout)
    service.shutdown()
    system.run_processes(service.handles, timeout=timeout)


def mitigated_spec(**overrides):
    base = dict(seed=1, transport="srpc", arrival="open", load=6000.0,
                concurrency=4, requests=40, keys=50, read_fraction=0.8,
                pipeline_window=4, batch_keys=4, cache_keys=32,
                cache_ttl_us=5000.0, read_spread=True)
    base.update(overrides)
    return WorkloadSpec(**base)


# ------------------------------------------------------- client layer


def test_cache_never_serves_stale_after_own_write():
    """Write-invalidate before the wire: a client that put a new value
    must never read its older cached one, however hot the key."""
    system, service = boot()
    seen = {}

    def program(proc):
        client = KVClient(service, proc, mitigations=Mitigations(
            cache_keys=16, cache_ttl_us=1e9))
        yield from client.connect()
        yield from client.put("hot", b"v1")
        status, value = yield from client.get("hot")   # populates cache
        seen["first"] = (status, bytes(value))
        status, value = yield from client.get("hot")   # cache hit
        seen["hit"] = (status, bytes(value))
        yield from client.put("hot", b"v2")            # must invalidate
        status, value = yield from client.get("hot")
        seen["after_write"] = (status, bytes(value))
        yield from client.delete("hot")                # must invalidate
        status, _ = yield from client.get("hot")
        seen["after_delete"] = status
        seen["hits"] = client.cache_hits
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    assert seen["first"] == (ST_OK, b"v1")
    assert seen["hit"] == (ST_OK, b"v1")
    assert seen["after_write"] == (ST_OK, b"v2")
    assert seen["after_delete"] == ST_MISS
    assert seen["hits"] >= 1


def test_cache_ttl_expires_entries():
    system, service = boot()
    seen = {}

    def program(proc):
        client = KVClient(service, proc, mitigations=Mitigations(
            cache_keys=16, cache_ttl_us=50.0))
        yield from client.connect()
        yield from client.put("k", b"v")
        yield from client.get("k")                     # populate
        yield proc.sim.timeout(1000.0)                 # let the TTL lapse
        lookups_before = client.cache_lookups
        hits_before = client.cache_hits
        yield from client.get("k")
        seen["lookups"] = client.cache_lookups - lookups_before
        seen["hits"] = client.cache_hits - hits_before
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    assert seen["lookups"] == 1
    assert seen["hits"] == 0


def test_read_spread_rotates_over_replicas():
    system, service = boot(replicas=2)
    # Preload rather than put: replication fan-out is asynchronous, so
    # a spread read right after a put could catch a replica that has
    # not applied it yet.  Preload lands on every replica up front.
    service.preload({"hot": b"v"})
    seen = {}

    def program(proc):
        client = KVClient(service, proc,
                          mitigations=Mitigations(read_spread=True))
        yield from client.connect()
        for _ in range(6):
            status, value = yield from client.get("hot")
            assert (status, bytes(value)) == (ST_OK, b"v")
        seen["spread"] = client.spread_reads
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    # Round-robin over 2 replicas: half the reads land off-primary.
    assert seen["spread"] == 3


def test_pipelined_writes_same_key_apply_in_order():
    system, service = boot(pipeline_window=4)
    seen = {}

    def program(proc):
        client = KVClient(service, proc)
        yield from client.connect()
        handles = []
        for i in range(3):
            h = yield from client.put_begin("seq", b"v%d" % i)
            handles.append(h)
        for h in handles:
            status, _ = yield from client.collect(h)
            assert status == ST_OK
        status, value = yield from client.get("seq")
        seen["final"] = (status, bytes(value))
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    assert seen["final"] == (ST_OK, b"v2")


def test_pipelined_read_after_write_sees_own_write():
    """With read-spreading on, a GET submitted while the same client's
    write to that key is still in flight must pin to the written node
    (the binding FIFO orders them) — never race to a replica that has
    not applied the write yet."""
    system, service = boot(pipeline_window=4, replicas=2)
    seen = {}

    def program(proc):
        client = KVClient(service, proc, mitigations=Mitigations(
            read_spread=True, cache_keys=8))
        yield from client.connect()
        yield from client.put("raw", b"OLD")
        hw = yield from client.put_begin("raw", b"NEW")
        hr = yield from client.get_begin("raw")
        status, _ = yield from client.collect(hw)
        assert status == ST_OK
        status, value = yield from client.collect(hr)
        seen["read"] = (status, bytes(value))
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    assert seen["read"] == (ST_OK, b"NEW")


def test_multi_get_batches_and_matches_per_key_gets():
    system, service = boot(batch_keys=4)
    service.preload({"b%02d" % i: b"val-%02d" % i for i in range(10)})
    seen = {}

    def program(proc):
        client = KVClient(service, proc)
        yield from client.connect()
        keys = ["b%02d" % i for i in range(10)] + ["absent"]
        results = yield from client.multi_get(keys)
        seen["results"] = [(s, bytes(v) if v is not None else None)
                           for s, v in results]
        seen["batch_calls"] = client.batch_calls
        seen["batched_keys"] = client.batched_keys
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    expected = [(ST_OK, b"val-%02d" % i) for i in range(10)]
    expected.append((ST_MISS, None))
    assert seen["results"] == expected
    assert seen["batch_calls"] >= 2   # 11 keys span shards and chunks
    assert seen["batched_keys"] == 11


# ------------------------------------------------------- engine layer


def _cpu_busy_us(report):
    """Per-node CPU busy time from the utilization table."""
    return {row.split()[0]: float(row.split()[2])
            for row in report.utilization.splitlines()
            if row.split() and row.split()[0].endswith(".cpu")}


def test_batched_gets_pay_the_handler_cpu_tax_per_key():
    """A batched GET charges each key what an unbatched GET charges
    (``op_cost(0)``, handler tax included), so batching moves no CPU
    work off the node (docs/OVERLOAD.md)."""
    spec = WorkloadSpec(seed=11, transport="srpc", arrival="open",
                        load=100_000.0, concurrency=8, requests=120,
                        keys=64, cpu_slots=1, cpu_op_us=50.0)
    unbatched = _cpu_busy_us(run_workload(spec))
    batched = _cpu_busy_us(run_workload(replace(spec, batch_keys=4)))
    assert sorted(unbatched) == ["n0.cpu", "n1.cpu", "n2.cpu", "n3.cpu"]
    assert batched == pytest.approx(unbatched, abs=0.01)


def test_mitigated_workload_completes_without_errors():
    report = run_workload(mitigated_spec())
    assert report.completed == 40
    assert report.errors == 0
    assert report.corruptions == 0


def test_mitigated_workload_is_deterministic():
    first = run_workload(mitigated_spec()).report()
    second = run_workload(mitigated_spec()).report()
    assert first == second


def test_mitigation_annotations_only_when_enabled():
    mitigated = run_workload(mitigated_spec()).report()
    plain = run_workload(mitigated_spec(
        pipeline_window=1, batch_keys=1, cache_keys=0,
        cache_ttl_us=0.0, read_spread=False)).report()
    assert "pipeline=4 batch=4 cache=32" in mitigated
    assert "mitigation:" in mitigated
    assert "kv-mitigation" in mitigated
    assert "pipeline=" not in plain
    assert "mitigation" not in plain


def test_spec_rejects_mitigation_on_sockets():
    with pytest.raises(ValueError):
        WorkloadSpec(transport="sockets", pipeline_window=4).validate()
    with pytest.raises(ValueError):
        WorkloadSpec(transport="sockets", batch_keys=4).validate()


def test_spec_rejects_out_of_range_knobs():
    """The mitigation group checks its own ranges when it is built."""
    for knobs in (dict(pipeline_window=0), dict(pipeline_window=65),
                  dict(batch_keys=0), dict(batch_keys=MULTI_GET_MAX + 1),
                  dict(cache_keys=-1), dict(cache_ttl_us=-1.0)):
        with pytest.raises(ValueError):
            Mitigations(**knobs)
    Mitigations(pipeline_window=64, batch_keys=MULTI_GET_MAX)
