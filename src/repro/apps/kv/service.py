"""Service orchestration: boot shard servers, manage replication, stop.

:class:`KVService` owns the shared state — the hash ring, the per-node
:class:`ShardStore`\\ s, the replication queues — and spawns the server
programs of ``server.py``.  The caller (a test, the workload engine,
``python -m repro serve``) decides how many client bindings and socket
connections each node should expect; handler processes are pre-spawned
to match, so accept ordering is a deterministic FIFO.

Lifecycle::

    service = KVService(system, replicas=2)
    service.preload({...})                  # untimed bulk load
    service.start(srpc_handlers=W, socket_handlers=W)
    ... run client processes to completion ...
    service.shutdown()                      # queue replication sentinels
    system.run_processes(service.handles)   # drain fan-out, collect ranks

The replication queues register themselves in the machine metrics
registry, so the conftest invariant audit (and the utilization report)
sees service-level queues exactly like hardware FIFOs.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ...kernel.system import ShrimpSystem
from ...libs.nx import VARIANTS, nx_world
from ...libs.onesided import (
    RegionAdvert,
    RegionFormat,
    RegionWriter,
    SlotHints,
)
from ...libs.sockets import SOCKET_VARIANTS
from ...sim import Event, Store
from ...testbed import Rendezvous
from ...vmmc import attach
from . import protocol as wire
from .admission import AdmissionController
from .config import Consistency, Mitigations, OverloadControl
from .hashing import HashRing
from .replication import (
    AntiEntropyStats,
    MerkleTree,
    make_antientropy_program,
)
from .server import (
    apply_cost,
    make_repl_program,
    socket_server_program,
    srpc_server_program,
)
from .store import ShardStore

__all__ = ["KVService", "region_name"]


class _ReplDropMetrics:
    """Registry adapter surfacing dropped replication records.

    Only registered when a replication queue bound is set — the default
    unbounded queue cannot drop, and the registry (and its report)
    stays byte-identical.
    """

    name = "kv-repl-drops"

    def __init__(self, service: "KVService"):
        self._service = service

    def metrics_snapshot(self, now: Optional[float] = None) -> dict:
        total = sum(self._service.repl_drops.values())
        return {
            "name": self.name,
            "kind": "counter",
            "count": total,
            "mean_depth": 0.0,
            "high_water": total,
        }


def region_name(node: int) -> str:
    """The rendezvous key a shard's one-sided region is advertised under."""
    return "kv-region-n%d" % node


class KVService:
    """A sharded KV service over every node of one simulated machine."""

    #: Ports the shard servers serve SRPC bindings and sockets on.
    srpc_port = 7000
    socket_port = 7100
    #: Library variants: client sockets, and the NX world that carries
    #: replication fan-out and anti-entropy exchanges.  Sockets use
    #: AU-2copy because every frame the KV protocol sends is at most
    #: REQ_HEADER + KEY_BOUND + VALUE_BOUND = 1,095 bytes, below the
    #: 2-4 KB size where Figure 7's DU-1copy overtakes AU-2copy; under
    #: it the copy into the AU-bound ring costs less than the
    #: deliberate updates (up to three per record) it replaces.
    socket_variant = SOCKET_VARIANTS["AU-2copy"]
    nx_variant = VARIANTS["AU-1copy"]
    #: Slots of each node's one-sided region (library-default slot size).
    onesided_slots = 1024
    #: Sweeps an anti-entropy process runs before it gives up.
    antientropy_max_rounds = 64

    def __init__(self, system: ShrimpSystem, replicas: int = 2,
                 mitigations: Mitigations = Mitigations(),
                 overload: OverloadControl = OverloadControl(),
                 consistency: Consistency = Consistency()):
        self.system = system
        # Serving-stack knobs both sides of an SRPC binding must agree
        # on: ``batch`` selects the v2 interface (multi_get available),
        # ``srpc_window`` the pipelining depth.  Defaults reproduce the
        # v1 single-call protocol bit for bit.
        self.batch = mitigations.batch_keys > 1
        self.srpc_window = mitigations.pipeline_window
        # One-sided bypass reads (docs/ONESIDED.md): each node exports
        # a slot-table region mirroring its shard; clients discover the
        # export ids through the rendezvous and GET straight from
        # remote memory.  Off by default — with the knob off no region
        # is exported, no writer hook runs, and every timed path is
        # byte-identical to the RPC-only service.
        self.onesided = onesided = mitigations.onesided_reads
        self.writers: Dict[int, RegionWriter] = {}
        self.region_rendezvous = Rendezvous(system) if onesided else None
        self.sim = system.sim
        # Shard n is NX rank n: the NX world spans nodes 0..N-1.
        self.nodes = list(range(system.config.n_nodes))
        self.replicas = max(1, min(replicas, len(self.nodes)))
        self.ring = HashRing(self.nodes)
        # Each key's replica set, memoized: the ring and the replica
        # count never change after construction.
        self._replica_sets: Dict[str, Tuple[int, ...]] = {}
        self.stores: Dict[int, ShardStore] = {
            node: ShardStore(node) for node in self.nodes}
        # Each client host's one-sided slot-occupancy cache (shard node
        # -> SlotHints): the clients of one node pool what their reads
        # and writes learn about each shard's region, like any per-host
        # client-library cache.
        self.slot_hints: Dict[int, Dict[int, SlotHints]] = {
            node: {} for node in self.nodes}
        # Replica correctness (docs/REPLICATION.md): ``versioned``
        # switches the SRPC servers to the v3 interface (version dots on
        # every op), ``repl_queue_cap`` bounds the fan-out queues (0 =
        # unbounded, the historical behavior), and ``antientropy`` arms
        # the background Merkle sweeper.  All default off.
        self.versioned = consistency.versioned()
        self.repl_queue_cap = repl_queue_cap = consistency.repl_queue_cap
        self.antientropy = consistency.antientropy
        self.antientropy_interval_us = consistency.antientropy_interval_us
        self.repl_queues: Dict[int, Store] = {}
        for node in self.nodes:
            queue = Store(self.sim,
                          capacity=repl_queue_cap or float("inf"),
                          name="kv-repl-q-n%d" % node)
            system.machine.metrics.register(queue)
            self.repl_queues[node] = queue
        self.handles: List = []
        self.started = False
        self.socket_handlers = 0
        self.repl_send_failures = 0
        self.repl_applied_total: Optional[int] = None
        self.map_mismatches: List[int] = []
        self.repl_drops: Dict[int, int] = {node: 0 for node in self.nodes}
        self.repl_crash_drops = 0
        if repl_queue_cap:
            system.machine.metrics.register(_ReplDropMetrics(self))
        # Per-pair Merkle trees: ``merkle[a][b]`` on node ``a`` covers
        # exactly the keys whose replica set contains both ``a`` and
        # ``b``, so it and its twin ``merkle[b][a]`` digest the same
        # key range and equal roots mean the pair is in sync.
        self.merkle: Dict[int, Dict[int, MerkleTree]] = {}
        self.ae_stats: Optional[AntiEntropyStats] = None
        self.ae_stop = False
        if self.antientropy:
            for a in self.nodes:
                self.merkle[a] = {b: MerkleTree() for b in self.nodes
                                  if b != a}
                self.stores[a].on_mutate = self._mutation_noter(a)
            self.ae_stats = AntiEntropyStats()
            system.machine.metrics.register(self.ae_stats)
        # Overload control (docs/OVERLOAD.md): ``handler_cpu_us`` is
        # the per-op CPU charge added on top of ``apply_cost`` once the
        # node CPU schedulers are enabled (``cpu_slots``), and with
        # ``admission`` on each node gets an AdmissionController
        # fronting its CPU.  Both default off: op_cost == apply_cost
        # and the admission map stays empty, so every default-path
        # timing is untouched.
        self.handler_cpu_us = (overload.cpu_op_us if overload.cpu_slots > 0
                               else 0.0)
        self.admission: Dict[int, AdmissionController] = {}
        if overload.admission:
            for node in self.nodes:
                controller = AdmissionController(
                    system, node, system.machine.nodes[node].cpu,
                    bound=overload.admit_queue,
                    deadline_us=overload.admit_deadline_us)
                system.machine.metrics.register(controller)
                self.admission[node] = controller

    def op_cost(self, nbytes: int) -> float:
        """One op's server CPU charge: apply cost plus the handler tax."""
        return apply_cost(nbytes) + self.handler_cpu_us

    # ---------------------------------------------------------- helpers

    def sim_event(self, name: str) -> Event:
        """A named raw event on this service's simulator."""
        return Event(self.sim, name=name)

    def shard_map_blob(self) -> bytes:
        """The shard map as bytes, for the startup broadcast: node
        count, replica count, and each node's vnode count."""
        return struct.pack("<HH", len(self.nodes), self.replicas) + b"".join(
            struct.pack("<HH", node, self.ring.vnodes) for node in self.nodes)

    def replicas_for(self, key: str) -> List[int]:
        """The replica set of ``key``, primary first, as a fresh list
        the caller may keep or change."""
        reps = self._replica_sets.get(key)
        if reps is None:
            reps = self._replica_sets[key] = tuple(
                self.ring.replicas(key, self.replicas))
        return list(reps)

    def _mutation_noter(self, node: int):
        """The store hook keeping node ``node``'s pair trees current.

        Host-level (untimed) on purpose: the tree update is O(log
        leaves) dict-and-XOR work, the simulated cost of divergence
        detection is charged where bytes move — in the sweeper's NX
        exchanges.
        """
        trees = self.merkle[node]

        def note(key, version, value):
            reps = self.replicas_for(key)
            if node not in reps:
                return  # stray failover write; not in any pair range
            for peer in reps:
                if peer != node:
                    trees[peer].update(key, version, value)

        return note

    # ------------------------------------------------------- lifecycle

    def preload(self, items: Dict[str, bytes]) -> None:
        """Bulk-load key/value pairs into every replica, untimed.

        Models a dataset that existed before the measurement window —
        loading through the timed path would just measure warmup.
        """
        for key, value in items.items():
            for node in self.replicas_for(key):
                self.stores[node].preload(key, value)

    def start(self, srpc_handlers: int = 0, socket_handlers: int = 0) -> None:
        """Spawn all server processes.

        ``srpc_handlers``/``socket_handlers`` are per node: spawn
        exactly as many binding/connection handlers as clients that
        will connect, so every accept pairs deterministically.  With
        socket handlers running, every client connects a stream to
        each shard (:meth:`KVClient.connect`).
        """
        if self.started:
            raise RuntimeError("service already started")
        self.started = True
        self.socket_handlers = socket_handlers
        if self.onesided:
            for node in self.nodes:
                self.handles.append(self.system.spawn(
                    node, self._region_export_program(node),
                    name="kv-region-n%d" % node))
        for node in self.nodes:
            for i in range(srpc_handlers):
                self.handles.append(self.system.spawn(
                    node, srpc_server_program(self, node),
                    name="kv-srpc-n%d-h%d" % (node, i)))
            for i in range(socket_handlers):
                self.handles.append(self.system.spawn(
                    node, socket_server_program(self, node),
                    name="kv-sock-n%d-h%d" % (node, i)))
        if len(self.nodes) > 1:
            self.handles.extend(nx_world(
                self.system,
                [make_repl_program(self, rank) for rank in self.nodes],
                variant=self.nx_variant))
        if self.antientropy and len(self.nodes) > 1:
            # The sweeper gets its own NX world (own rendezvous, own
            # connections): digest pages and replication records never
            # share a receive queue.
            self.handles.extend(nx_world(
                self.system,
                [make_antientropy_program(self, rank)
                 for rank in self.nodes],
                variant=self.nx_variant))

    def _region_export_program(self, node: int):
        """The per-node one-sided bootstrap: export, fill, advertise.

        Runs once at service start.  The exporting process pins the
        region's frames and hands the shard's handlers a
        :class:`RegionWriter` over them; the region stays exported for
        the life of the run (readers hold imports into it), so the
        program simply returns after publishing the advert.
        """

        def program(proc):
            fmt = RegionFormat(self.onesided_slots,
                               page_size=proc.config.page_size)
            endpoint = attach(self.system, proc)
            region = yield from endpoint.export_new(fmt.nbytes)
            # Register the region with the NIC's snoop-fed serve cache;
            # if it fits, remote reads never touch this host's bus.  A
            # region over the shadow's capacity still works — its reads
            # are served by host DMA instead.
            shadow = proc.node.nic.shadow
            if not shadow.register(region.record.frames):
                shadow = None
            writer = RegionWriter(proc.node.memory, region.record.frames,
                                  fmt, proc.config, shadow=shadow)
            # Mirror the preloaded shard before advertising, so no
            # reader can import a region that lags the store.
            for key, value in self.stores[node].data.items():
                writer.preload(key, value)
            self.writers[node] = writer
            self.region_rendezvous.put(region_name(node), RegionAdvert(
                node_id=node, export_id=region.record.export_id,
                slots=fmt.slots, slot_size=fmt.slot_size))
            return fmt.slots

        return program

    def region_store(self, node: int, proc, key: str,
                     value: Optional[bytes]):
        """Mirror one applied write into the node's exported region.

        Generator; called by whichever handler applied the write (RPC,
        socket, or replication), charging the seqlock update there.  A
        no-op while the one-sided knob is off or before the node's
        bootstrap has run (nothing can be imported before the advert is
        published, so readers never observe the gap).
        """
        writer = self.writers.get(node)
        if writer is None:
            return
        if value is None:
            yield from writer.clear(proc, key)
        else:
            yield from writer.store(proc, key, value)

    def enqueue_replication(self, origin: int, key: str,
                            value: Optional[bytes],
                            trace_ctx=None, version=None) -> None:
        """Queue an upsert/delete for fan-out to the other replicas.

        Called by whichever server applied a client write — normally
        the primary, but under failover any replica (or even a
        non-replica the client fell back to) accepts the write and
        fans it out, Dynamo-style sloppy ownership.  ``trace_ctx`` is
        the serving span's (trace_id, sid): the sender process adopts
        it around the fan-out ``csend`` so the replication messages
        stay causally linked to the request that triggered them.

        A full (bounded) queue drops the record *visibly*: the drop is
        counted, marked with a ``kv.repl.drop`` instant, and left for
        anti-entropy to repair — the silent-loss path this used to be.
        """
        targets = [node for node in self.replicas_for(key) if node != origin]
        if targets and origin in self.repl_queues and len(self.nodes) > 1:
            if version is not None:
                record = wire.encode_vrepl_record(key, version, value)
            else:
                record = wire.encode_repl_record(wire.REPL_DATA, key, value)
            if not self.repl_queues[origin].try_put(
                    (targets, record, trace_ctx)):
                self.repl_drops[origin] += 1
                tracer = self.system.machine.tracer
                if tracer.enabled:
                    tracer.instant(
                        "kv.repl.drop", "queue full on n%d" % origin,
                        track="n%d.kv.repl" % origin,
                        data={"node": origin, "key": key})

    def shutdown(self) -> None:
        """Queue the replication shutdown sentinels (host-level).

        After this, run ``system.run_processes(service.handles)`` to
        drain the fan-out queues and retire the NX ranks.  The
        anti-entropy sweeper is asked to stop too; it exits after its
        next *clean* (zero-divergence) round, so a drained run always
        ends converged unless the sweep itself died to faults.
        """
        self.ae_stop = True
        for node in self.nodes:
            if self.repl_queue_cap:
                # A full bounded queue must not drop the sentinel: park
                # it as a pending putter, delivered as the drain frees
                # a slot (drops only ever lose data records).
                self.repl_queues[node].put(None)
            else:
                self.repl_queues[node].try_put(None)

    # --------------------------------------------------------- figures

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-node store counters, keyed ``"n<id>"`` in node order."""
        return {"n%d" % node: self.stores[node].counters()
                for node in self.nodes}

    def total_keys(self) -> int:
        """Keys stored service-wide, replicas counted separately."""
        return sum(len(s.data) for s in self.stores.values())
