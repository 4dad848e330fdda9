"""Client consistency modes end to end (docs/REPLICATION.md).

One lossy service (bounded replication queue, so a write burst leaves
some replicas stale) observed through each of the three client modes:

* ``eventual`` + read spreading *sees* the staleness — and with read
  repair armed it detects every stale answer by its version dot and
  heals the serving replica off the request path;
* ``session`` pins reads of this client's own keys to the node that
  acked the write, so read-your-writes holds even over stale replicas;
* ``quorum`` (R + W > N) never serves a stale read at all: every read
  quorum intersects the last write's ack set.
"""

import pytest

from repro.apps.kv import KVClient, KVService, ST_MISS, ST_OK
from repro.apps.kv.config import Consistency, Mitigations
from repro.testbed import make_system

KEYS = ["c/%02d" % i for i in range(20)]


#: Read repair serves version dots, so a service built with it speaks
#: the versioned interface every client mode below needs.
VERSIONED = Consistency(read_repair=True)


def boot_lossy():
    """A versioned service whose replication queue drops under bursts."""
    system = make_system()
    service = KVService(system, 2, consistency=Consistency(
        read_repair=True, repl_queue_cap=1))
    service.start(srpc_handlers=1)
    return system, service


def drive(system, service, programs, timeout=30_000_000.0):
    handles = [system.spawn(node, program, name="kv-mode-%d" % i)
               for i, (node, program) in enumerate(programs)]
    system.run_processes(handles, timeout=timeout)
    service.shutdown()
    system.run_processes(service.handles, timeout=timeout)
    return [h.value for h in handles]


def write_burst(client):
    """Two writes per key, so each key's final value is round two's."""
    for rnd in range(2):
        for i, key in enumerate(KEYS):
            status = yield from client.put(key, b"r%d-%02d" % (rnd, i))
            assert status == ST_OK


def final_value(key):
    return b"r1-%02d" % KEYS.index(key)


def test_eventual_spread_detects_and_repairs_stale_replicas():
    system, service = boot_lossy()
    seen = {}

    def program(proc):
        client = KVClient(service, proc,
                          mitigations=Mitigations(read_spread=True),
                          consistency=VERSIONED)
        yield from client.connect()
        yield from write_burst(client)
        # Two spread reads per key visit both replicas; any replica
        # still holding round one's value answers with an older dot
        # than the write ack proved, and gets a repair queued.
        for key in KEYS:
            for _ in range(2):
                yield from client.get(key)
        yield from client.flush_repairs()
        seen["stats"] = client.stats()
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    stats = seen["stats"]
    # The queue bound really dropped records, and the spread reads
    # caught every resulting stale answer and repaired it.
    assert sum(service.repl_drops.values()) > 0
    assert stats["stale_detected"] > 0
    assert stats["repairs"] == stats["stale_detected"]
    # After repair both replicas hold the final round's bytes.
    for key in KEYS:
        for node in service.replicas_for(key):
            assert service.stores[node].data[key] == final_value(key)


def test_session_mode_reads_your_writes_over_stale_replicas():
    system, service = boot_lossy()
    seen = {}

    def program(proc):
        client = KVClient(service, proc,
                          mitigations=Mitigations(read_spread=True),
                          consistency=Consistency(consistency="session"))
        yield from client.connect()
        yield from write_burst(client)
        wrong = 0
        for key in KEYS:
            for _ in range(2):
                status, value = yield from client.get(key)
                if status != ST_OK or bytes(value) != final_value(key):
                    wrong += 1
        seen["wrong"] = wrong
        seen["stats"] = client.stats()
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    # Replication still dropped records, but the pin means this client
    # never observed them: every read returned its own last write.
    assert sum(service.repl_drops.values()) > 0
    assert seen["wrong"] == 0
    assert seen["stats"]["stale_detected"] == 0


def test_quorum_mode_serves_zero_stale_reads():
    system, service = boot_lossy()
    seen = {}

    def program(proc):
        client = KVClient(service, proc,
                          consistency=Consistency(consistency="quorum"))
        yield from client.connect()
        yield from write_burst(client)
        wrong = 0
        for key in KEYS:
            status, value = yield from client.get(key)
            if status != ST_OK or bytes(value) != final_value(key):
                wrong += 1
        seen["wrong"] = wrong
        seen["stats"] = client.stats()
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    stats = seen["stats"]
    assert seen["wrong"] == 0
    assert stats["quorum_writes"] == 2 * len(KEYS)
    assert stats["quorum_reads"] == len(KEYS)


def test_quorum_delete_wins_and_misses_everywhere():
    system, service = boot_lossy()
    seen = {}

    def program(proc):
        client = KVClient(service, proc,
                          consistency=Consistency(consistency="quorum"))
        yield from client.connect()
        assert (yield from client.put("gone", b"soon")) == ST_OK
        assert (yield from client.delete("gone")) == ST_OK
        status, value = yield from client.get("gone")
        seen["after"] = (status, value)
        yield from client.shutdown()

    drive(system, service, [(0, program)])
    assert seen["after"] == (ST_MISS, None)
    # The tombstone's dot reached the write quorum: no replica still
    # serves the deleted bytes.
    for node in service.replicas_for("gone"):
        assert "gone" not in service.stores[node].data


def test_unknown_consistency_mode_is_rejected():
    system = make_system()
    service = KVService(system, 2, consistency=VERSIONED)
    service.start(srpc_handlers=1)

    def program(proc):
        with pytest.raises(ValueError):
            KVClient(service, proc,
                     consistency=Consistency(consistency="linearizable"))
        # A well-formed client still works, and retires the handlers.
        client = KVClient(service, proc)
        yield from client.connect()
        yield from client.shutdown()

    drive(system, service, [(0, program)])
