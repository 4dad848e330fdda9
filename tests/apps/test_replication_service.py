"""Service-level replica-correctness tests (docs/REPLICATION.md).

Three layers of the anti-entropy story, each end to end on a booted
service:

* a bounded replication queue under a write burst drops records
  *visibly* — counted per origin and surfaced through the metrics
  registry — and really does leave replicas divergent (the silent-loss
  bug this subsystem replaced);
* the Merkle anti-entropy sweeper heals exactly that divergence: after
  a drained run every replica pair agrees byte for byte and both twin
  trees show equal roots;
* the torture sweep: a replica crash injected mid-burst on twenty
  different seeds (different key sets, victims, crash windows) must
  always end converged — equal pair digests, equal store contents,
  zero divergent keys in the sweeper's last round.
"""

import random

from repro.apps.kv import KVClient, KVService, ST_OK
from repro.apps.kv.config import Consistency
from repro.sim.faults import Fault, FaultPlan, FaultKind, FaultSite
from repro.testbed import make_system


def boot(fault_plan=None, **knobs):
    """A two-replica service on the versioned interface (read repair
    serves version dots), with the given consistency ``knobs``."""
    system = make_system(fault_plan=fault_plan)
    service = KVService(system, 2, consistency=Consistency(
        read_repair=True, **knobs))
    service.start(srpc_handlers=1)
    return system, service


def drive(system, service, programs, timeout=30_000_000.0):
    handles = [system.spawn(node, program, name="kv-repl-%d" % i)
               for i, (node, program) in enumerate(programs)]
    system.run_processes(handles, timeout=timeout)
    service.shutdown()
    system.run_processes(service.handles, timeout=timeout)
    return [h.value for h in handles]


def make_burst(service, writes):
    """A client program performing ``writes`` (key, value) puts."""

    def program(proc):
        client = KVClient(service, proc)
        yield from client.connect()
        for key, value in writes:
            status = yield from client.put(key, value)
            assert status == ST_OK
        yield from client.shutdown()

    return program


def divergent_keys(service, keys):
    """Keys whose replicas disagree on the stored bytes."""
    out = []
    for key in keys:
        values = {bytes(service.stores[n].data.get(key) or b"")
                  for n in service.replicas_for(key)}
        if len(values) > 1:
            out.append(key)
    return out


def twin_roots_agree(service):
    """Every pair tree matches its twin on the peer node."""
    return all(service.merkle[a][b].root() == service.merkle[b][a].root()
               for a in service.merkle for b in service.merkle[a])


BURST = [("k%02d" % (i % 20), b"v%02d" % i) for i in range(40)]
BURST_KEYS = sorted({k for k, _ in BURST})


def test_bounded_queue_overflow_drops_visibly_and_diverges():
    """A full replication queue loses records, but never silently:
    the drop is counted per origin and exported as a registry row."""
    system, service = boot(repl_queue_cap=1)
    drive(system, service, [(0, make_burst(service, BURST))])

    drops = sum(service.repl_drops.values())
    assert drops > 0
    # The loss is real: at least one key's replicas now disagree.
    assert divergent_keys(service, BURST_KEYS)
    # And it is visible in the machine metrics registry.
    rows = {row["name"]: row for row in system.machine.metrics.snapshot()}
    assert rows["kv-repl-drops"]["count"] == drops
    assert any(name.startswith("kv-repl-q-") for name in rows)


def test_antientropy_repairs_queue_overflow_drops():
    """The same burst with the sweeper armed ends converged: every
    dropped record is re-shipped and the pair digests agree."""
    system, service = boot(repl_queue_cap=1, antientropy=True,
                           antientropy_interval_us=500.0)
    drive(system, service, [(0, make_burst(service, BURST))])

    assert sum(service.repl_drops.values()) > 0
    ae = service.ae_stats
    assert ae.rounds > 0
    assert ae.repaired > 0
    assert ae.divergent_last == 0
    assert divergent_keys(service, BURST_KEYS) == []
    assert twin_roots_agree(service)
    assert ae.converged_at is not None
    rows = {row["name"]: row for row in system.machine.metrics.snapshot()}
    assert rows["kv-antientropy"]["kind"] == "antientropy"


def test_replica_crash_torture_converges_on_every_seed():
    """Twenty seeded replica-crash schedules, all of which must heal.

    Each seed draws its own key set, write order, victim node, crash
    time, and outage length; the victim's apply loop discards incoming
    replication records for the window (counted, not raised).  After
    the drained run the sweeper must report zero divergence and the
    stores must agree byte for byte — on every seed.
    """
    total_crash_drops = 0
    for seed in range(1, 21):
        rng = random.Random(seed)
        keys = ["t%d/k%02d" % (seed, i) for i in range(rng.randint(12, 24))]
        writes = [(rng.choice(keys), b"s%d-%03d" % (seed, i))
                  for i in range(40)]
        plan = FaultPlan([Fault(
            time=rng.uniform(100.0, 1500.0),
            site=FaultSite.KV_REPLICA,
            kind=FaultKind.CRASH,
            params={"node": rng.randrange(4),
                    "duration_us": rng.uniform(500.0, 4000.0)})])
        system, service = boot(fault_plan=plan, antientropy=True,
                               antientropy_interval_us=500.0)
        drive(system, service, [(0, make_burst(service, writes))])

        total_crash_drops += service.repl_crash_drops
        ae = service.ae_stats
        assert ae.rounds > 0, "seed %d: sweeper never ran" % seed
        assert ae.divergent_last == 0, \
            "seed %d: ended divergent" % seed
        assert divergent_keys(service, sorted({k for k, _ in writes})) \
            == [], "seed %d: stores disagree" % seed
        assert twin_roots_agree(service), \
            "seed %d: pair digests disagree" % seed
        assert ae.sweep_failures == 0, \
            "seed %d: sweep died to faults" % seed
    # The sweep as a whole must actually have exercised the fault:
    # most windows land inside the burst and discard records.
    assert total_crash_drops > 0
