"""The KV client: transport-pluggable request path with replica failover.

One :class:`KVClient` belongs to one simulated process (a workload
worker) and holds one connection per shard server — SHRIMP RPC
bindings for request/response, or stream sockets when the caller wants
the streaming transport (SCAN always uses sockets).  All connections
share a single VMMC endpoint, like a real process would.

Failover: every operation walks the key's replica set in ring order
through one loop, :meth:`KVClient._walk`.  A typed
``VmmcTimeoutError``/``VmmcError`` from a connection (only possible
under an armed fault plan, where the hardened libraries bound every
wait) strikes that connection dead and the walk moves on to the next
replica.  Point ops stop at the first answer, quorum reads and writes
at the R-th or W-th; a request that exhausts the replica set returns
``ST_ERROR`` rather than raising, so a worker keeps serving.

Every synchronous request — point op, quorum read or write, scan —
runs in one frame, :meth:`KVClient._request`: it counts the op,
records the root span, tries the one-sided bypass once, and owns the
rejection retry loop.

Hot-key mitigation (docs/WORKLOADS.md "Mitigation knobs"):

* **client cache** — ``cache_keys`` bounds an LRU of recently read
  values, aged out after ``cache_ttl_us`` and invalidated immediately
  by this client's own writes (a per-key write epoch guards against a
  concurrent fetch re-inserting a value the write just invalidated);
* **read-spreading** — with ``read_spread`` GETs rotate over the key's
  replica set instead of always hitting the primary (writes stay
  primary-first, and a read of a key with an in-flight pipelined write
  is pinned to that write's node so the binding's FIFO serializes it);
* **pipelining** — when the service's SRPC window is > 1, ``*_begin``
  submits a point op without waiting and ``collect`` redeems the
  handle; ``multi_get`` packs up to ``MULTI_GET_MAX`` keys into one
  batched RPC when the service speaks the v2 interface.

All knobs default off, leaving the request path byte-identical to the
unmitigated client.

Each completed request records a ``kv.client`` span via
``Tracer.complete`` (stack-free, so interleaved requests from many
workers never unbalance a track).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from ...libs.onesided import RegionReader, SlotHints
from ...libs.sockets import SocketLib
from ...vmmc import VmmcError, VmmcTimeoutError, attach
from . import protocol as wire
from .admission import KvRejectedError
from .config import Consistency, Mitigations, OverloadControl
from .replication.versions import (
    VERSION_ZERO,
    pack_version,
    unpack_version,
    wins,
)
from .server import recv_frame, shard_interface
from .service import region_name

__all__ = ["KVClient", "KvRejectedError"]


class KVClient:
    """A per-worker handle on the whole sharded service.

    Routing: keys map to their replica set via the service's
    ``HashRing``; point ops go over SHRIMP RPC (or sockets), scans
    stream over sockets, and a failed node is struck from the
    connection table and the next replica tried.  ``failovers`` counts
    every strike, plus one per request a walk served only after
    skipping a connection already struck.

    Hot-key mitigations, all off by default:

    * ``cache_keys``/``cache_ttl_us`` — a bounded LRU of GET results,
      aged by simulated time; the client's own ``put``/``delete``
      invalidates the entry *before* touching the wire, so a client
      can never read its own stale write back.
    * ``read_spread`` — rotate GETs round-robin over the key's replica
      set instead of always hitting the primary.  A GET for a key this
      client still has a write in flight for pins to the written node.
    * pipelining — ``get_begin``/``put_begin``/``delete_begin`` return
      tickets that ``collect`` finishes in any order, riding the SRPC
      binding's ``window`` (docs/PROTOCOLS.md).
    * batching — ``multi_get`` packs up to ``MULTI_GET_MAX`` keys per
      shard call on the v2 program (a service built with
      ``batch_keys > 1``).

    Counters (``ops``, ``misses``, ``cache_hits``, ``spread_reads``,
    ``batch_calls`` ...) feed the workload report's mitigation line.
    """

    def __init__(self, service, proc, transport: str = "srpc",
                 client_id: int = 0,
                 mitigations: Mitigations = Mitigations(),
                 overload: OverloadControl = OverloadControl(),
                 consistency: Consistency = Consistency()):
        self.service = service
        self.system = service.system
        self.proc = proc
        self.transport = transport
        self.client_id = client_id
        self.track = "n%d.kv.client%d" % (proc.node.node_id, client_id)
        self.endpoint = attach(self.system, proc)
        self.rpc: Dict[int, object] = {}
        self.socks: Dict[int, object] = {}
        self.dead: Set[Tuple[str, int]] = set()
        self._sbuf = proc.space.mmap(_BUF_BYTES)
        self._rbuf = proc.space.mmap(_BUF_BYTES)
        self.ops = 0
        self.misses = 0
        self.errors = 0
        self.failovers = 0
        self.corruptions = 0
        # Mitigation state: the bounded LRU (key -> (value, stored_us)),
        # per-key write epochs, the read-spread rotation counter, and
        # pipelined-write pinning for read-after-write on one client.
        self.cache_keys = mitigations.cache_keys
        self.cache_ttl_us = mitigations.cache_ttl_us
        self.read_spread = mitigations.read_spread
        self._cache: "OrderedDict[str, Tuple[bytes, float]]" = OrderedDict()
        self._wepoch: Dict[str, int] = {}
        self._rr = 0
        self._pending_writes: Dict[str, int] = {}
        self._pending_write_node: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_lookups = 0
        self.spread_reads = 0
        self.batch_calls = 0
        self.batched_keys = 0
        # One-sided bypass state (docs/ONESIDED.md): per-shard region
        # readers over one locally exported reply page.  Populated by
        # connect() when the knob is on and the transport is SRPC; with
        # it off the GET path is byte-identical to the RPC-only client.
        # The readers share the service's occupancy cache for this
        # client's host (``KVService.slot_hints``).
        self.onesided = mitigations.onesided_reads
        self._readers: Dict[int, RegionReader] = {}
        self.onesided_hits = 0
        self.onesided_fallbacks = 0
        # Overload cooperation (docs/OVERLOAD.md): a request answered
        # ``ST_REJECTED`` is retried up to ``retry_budget`` times with
        # exponential backoff (``retry_base_us * 2**(attempt-1)``) plus
        # deterministic jitter; past the budget the typed
        # :class:`KvRejectedError` surfaces to the caller.  Budget 0
        # (the default) raises on the first rejection.
        self.retry_budget = overload.retry_budget
        self.retry_base_us = overload.retry_base_us
        self.retry_jitter = overload.retry_jitter
        self._retry_rng = random.Random(0x4B56 * 2654435761
                                        + 1_000_003 * client_id)
        self.rejected = 0
        self.retries = 0
        # Consistency modes (docs/REPLICATION.md).  ``eventual`` is the
        # historical client, byte-identical.  ``session`` pins reads of
        # keys this client wrote to the node that acked the write
        # (write-epoch pinning: the ack means the dot is durably
        # applied there, so the pinned read is read-your-writes).
        # ``quorum`` reads R and writes W replicas synchronously with
        # R + W > N, so every read quorum intersects the last write's
        # ack set.  ``read_repair`` queues a versioned overwrite for
        # any replica observed returning a stale dot; the engine
        # flushes the queue *off* the request's latency path.
        self.consistency = consistency.consistency
        self.read_repair = consistency.read_repair
        self.versioned = service.versioned
        majority = service.replicas // 2 + 1
        self.quorum_r = consistency.quorum_r or majority
        self.quorum_w = consistency.quorum_w or majority
        self._floor: Dict[str, Tuple[int, int]] = {}
        self._floor_node: Dict[str, int] = {}
        self._seen: Dict[str, Tuple[Tuple[int, int], Optional[bytes]]] = {}
        self._repairs: List[tuple] = []
        self.last_version: Tuple[int, int] = VERSION_ZERO
        self._last_get_node: Optional[int] = None
        self._last_ctx: Optional[Tuple[int, int]] = None
        self.repairs = 0
        self.stale_detected = 0
        self.quorum_reads = 0
        self.quorum_writes = 0
        # The most recent request's root span (tracing on only):
        # the profiler's ``tag_root`` hook stamps the arrival onto it
        # after the engine records the latency.
        self.last_span = None

    # ------------------------------------------------------ connections

    def connect(self):
        """Open one connection per shard server (generator).

        The SRPC client class and pipelining window follow the
        service's ``batch``/``srpc_window`` settings, so both sides of
        every binding agree on the interface version and frame layout.
        A service that runs socket handlers spawned one per client, so
        the client connects a stream to every shard there (the point-op
        transport, or the path scans ride beside SHRIMP RPC).
        """
        if self.transport == "srpc":
            client_cls, _server_cls = shard_interface(self.service)
            for node in self.service.nodes:
                client = client_cls(self.system, self.proc,
                                    endpoint=self.endpoint,
                                    window=self.service.srpc_window)
                yield from client.bind(node, self.service.srpc_port)
                self.rpc[node] = client
        if self.service.socket_handlers:
            lib = SocketLib(self.system, self.proc,
                            variant=self.service.socket_variant,
                            endpoint=self.endpoint)
            for node in self.service.nodes:
                sock = yield from lib.connect(node, self.service.socket_port)
                self.socks[node] = sock
        if self.onesided and self.transport == "srpc":
            yield from self._open_onesided()

    def _open_onesided(self):
        """Import every shard's slot region for bypass reads (generator).

        Exports one local reply page (the target NIC's reply packets
        must pass this node's Incoming Page Table), then completes the
        rendezvous handshake per shard: wait for the region advert,
        import the export, build a :class:`RegionReader` over it.  A
        blocking client has one read outstanding at a time, so one
        reply page serves every region.
        """
        reply = yield from self.endpoint.export_new(
            self.proc.config.page_size)
        reply_vaddr = reply.record.vaddr
        host_hints = self.service.slot_hints[self.proc.node.node_id]
        for node in self.service.nodes:
            advert = yield self.service.region_rendezvous.get(
                region_name(node))
            imported = yield from self.endpoint.import_buffer(
                advert.node_id, advert.export_id)
            self._readers[node] = RegionReader(
                self.endpoint, imported,
                advert.format(self.proc.config.page_size), reply_vaddr,
                hints=host_hints.setdefault(node, SlotHints()))

    def shutdown(self):
        """Release every server-side handler this client owns."""
        for node in self.service.nodes:
            if node in self.rpc and ("rpc", node) not in self.dead:
                try:
                    yield from self.rpc[node].stop()
                except (VmmcTimeoutError, VmmcError):
                    self.dead.add(("rpc", node))
            if node in self.socks and ("sock", node) not in self.dead:
                try:
                    yield from self._sock_send(
                        self.socks[node],
                        wire.encode_request(wire.OP_QUIT, ""))
                    yield from self.socks[node].close()
                except (VmmcTimeoutError, VmmcError):
                    self.dead.add(("sock", node))

    # ------------------------------------------------------- operations

    def get(self, key: str):
        """Generator returning ``(status, value-or-None)``.

        Served from the client cache when enabled and fresh; a miss
        takes the network path and inserts the fetched value (unless a
        write to the key raced the fetch)."""
        if self.consistency == "quorum":
            result = yield from self._request(
                wire.OP_GET, key, attempt=lambda: self._quorum_read(key))
            return result
        value = self._cache_get(key)
        if value is not None:
            self.ops += 1
            self._span("get", self.sim_now())
            return wire.ST_OK, value
        epoch = self._wepoch.get(key, 0)
        status, value = yield from self._request(
            wire.OP_GET, key,
            first=self._bypass if self._bypassable(key) else None)
        if self.versioned and status in (wire.ST_OK, wire.ST_MISS):
            self._observe_read(key, self.last_version, value,
                               self._last_get_node)
        self._cache_put(key, value, epoch)
        return status, value

    def put(self, key: str, value: bytes):
        """Generator returning a status code.  Invalidates the key's
        cache entry *before* the network write, so no later read on
        this client can observe the pre-write cached value."""
        return self._write(wire.OP_PUT, key, value)

    def delete(self, key: str):
        """Generator returning a status code (cache-invalidating, like
        :meth:`put`)."""
        return self._write(wire.OP_DELETE, key, None)

    def _write(self, op: int, key: str, value: Optional[bytes]):
        """One PUT (``value`` bytes) or DELETE (``value`` None) request
        (generator returning a status code): replicated through the
        primary, or written to a W-quorum in quorum mode."""
        self._cache_invalidate(key)
        attempt = ((lambda: self._quorum_write(key, value))
                   if self.consistency == "quorum" else None)
        status, _ = yield from self._request(op, key, value, attempt=attempt)
        self._wrote(key, value, status)
        return status

    def multi_get(self, keys: List[str]):
        """Generator returning ``[(status, value-or-None), ...]``
        aligned with ``keys``.

        Cache hits are peeled off first; the remainder is grouped by
        routing node and fetched with batched v2 ``multi_get`` calls
        (up to ``MULTI_GET_MAX`` keys each) when the service speaks the
        batch interface, else with individual GETs.  A node failure
        mid-batch falls back to per-key replica walks."""
        results: List[Optional[Tuple[int, Optional[bytes]]]] = \
            [None] * len(keys)
        fetch = []
        for i, key in enumerate(keys):
            value = self._cache_get(key)
            if value is not None:
                results[i] = (wire.ST_OK, value)
            else:
                fetch.append(i)
        if not self._batched():
            for i in fetch:
                results[i] = yield from self.get(keys[i])
            return results
        start = self.sim_now()
        root = self._root_begin() if fetch else None
        try:
            groups: Dict[Optional[int], List[int]] = {}
            epochs: Dict[int, int] = {}
            for i in fetch:
                key = keys[i]
                epochs[i] = self._wepoch.get(key, 0)
                node = next((n for n in self._candidates(wire.OP_GET, key)
                             if ("rpc", n) not in self.dead), None)
                groups.setdefault(node, []).append(i)
            for node, indices in groups.items():
                if node is None:
                    for i in indices:
                        self.ops += 1
                        self.errors += 1
                        results[i] = (wire.ST_ERROR, None)
                    continue
                for lo in range(0, len(indices), wire.MULTI_GET_MAX):
                    chunk = indices[lo:lo + wire.MULTI_GET_MAX]
                    blob = wire.encode_multi_get_request(
                        [keys[i] for i in chunk])
                    resp = yield from self._call(
                        "rpc", node, self.rpc[node].multi_get(blob))
                    entries = (None if resp is _DOWN
                               else wire.decode_multi_get_response(resp))
                    if entries is None or len(entries) != len(chunk):
                        for i in chunk:  # per-key replica walk, dead skipped
                            results[i] = yield from self.get(keys[i])
                        continue
                    self.ops += 1
                    self.batch_calls += 1
                    self.batched_keys += len(chunk)
                    for i, (status, value) in zip(chunk, entries):
                        if status == wire.ST_MISS:
                            self.misses += 1
                            self._teach(keys[i], None)
                        elif status == wire.ST_OK:
                            self._cache_put(keys[i], value, epochs[i])
                            self._teach(keys[i], len(value))
                        results[i] = (status, value)
        finally:
            if fetch:
                self._span("multi_get", start, root)
        return results

    # ------------------------------------------- pipelined point ops

    def get_begin(self, key: str):
        """Submit a GET without waiting; redeem with :meth:`collect`.
        Falls back to a deferred synchronous GET when the binding is
        not pipelined (handle semantics are identical)."""
        value = self._cache_get(key)
        if value is not None:
            self.ops += 1
            return ("done", wire.OP_GET, self.sim_now(), wire.ST_OK, value,
                    None)
        if self._bypassable(key):
            # The bypass is already the low-latency path; take it
            # synchronously rather than submitting into the pipeline
            # (it never occupies a binding slot).
            epoch = self._wepoch.get(key, 0)
            status, value = yield from self._request(wire.OP_GET, key,
                                                     first=self._bypass)
            self._cache_put(key, value, epoch)
            return ("ready", status, value)
        handle = yield from self._begin(wire.OP_GET, key)
        return handle

    def put_begin(self, key: str, value: bytes):
        """Submit a PUT without waiting (cache-invalidating at submit,
        like :meth:`put`); redeem with :meth:`collect`."""
        self._cache_invalidate(key)
        handle = yield from self._begin(wire.OP_PUT, key, value)
        return handle

    def delete_begin(self, key: str):
        """Submit a DELETE without waiting; redeem with :meth:`collect`."""
        self._cache_invalidate(key)
        handle = yield from self._begin(wire.OP_DELETE, key)
        return handle

    def _begin(self, op: int, key: str, value: Optional[bytes] = None):
        """Submit one point op into the first live replica's pipeline
        (generator returning a :meth:`collect` handle).

        A write pins its key to the node that took it until collected,
        so a read of the key rides the same binding FIFO."""
        if not self._pipelined():
            return ("lazy", op, key, value)
        self.ops += 1
        start = self.sim_now()
        root = self._root_begin()
        epoch = self._wepoch.get(key, 0) if op == wire.OP_GET else 0
        try:
            answers = yield from self._walk(
                "rpc", self._candidates(op, key),
                lambda node: self._stub(node, op, key, value, begin=True))
        finally:
            self._root_detach(root)
        if not answers:
            self.errors += 1
            return ("done", op, start, wire.ST_ERROR, None, root)
        node, ticket = answers[0]
        if op != wire.OP_GET:
            self._pending_writes[key] = self._pending_writes.get(key, 0) + 1
            self._pending_write_node[key] = node
        return ("rpc", op, start, node, ticket, key, value, epoch, root)

    def collect(self, handle):
        """Complete a ``*_begin`` handle: ``(status, value-or-None)``.

        Handles may be collected in any order.  A node that dies while
        its ticket is outstanding is marked dead and the operation
        retries synchronously through the surviving replicas."""
        kind = handle[0]
        if kind == "ready":
            # A one-sided bypass GET completed at submit time; its span
            # and counters were recorded there.
            _, status, value = handle
            return status, value
        if kind == "done":
            _, op, start, status, value, root = handle
            self._span(_OP_NAMES[op], start, root)
            return status, value
        if kind == "lazy":
            _, op, key, value = handle
            if op == wire.OP_GET:
                result = yield from self.get(key)
                return result
            status = yield from self._write(op, key, value)
            return status, None
        _, op, start, node, ticket, key, value, epoch, root = handle
        if op != wire.OP_GET:
            self._unpin_write(key)
        raw = yield from self._call("rpc", node, self.rpc[node].finish(ticket))
        status, out = ((None, None) if raw is _DOWN
                       else self._answer(op, key, raw))
        if status is None or status == wire.ST_REJECTED:
            # The node died with the ticket outstanding, or the attempt
            # was shed.  Close the abandoned attempt's root first — its
            # sid was posted to the server, so children already point at
            # it — and hand the request to the synchronous path, whose
            # walk and retry loop own failover, backoff and the typed
            # KvRejectedError.
            self._span(_OP_NAMES[op], start, root)
            status, out = yield from self._request(op, key, value)
            self.ops -= 1  # _request re-counts the op begin counted
            return status, out
        if status == wire.ST_MISS:
            self.misses += 1
        if op == wire.OP_GET:
            self._cache_put(key, out, epoch)
        else:
            self._wrote(key, value, status)
        self._span(_OP_NAMES[op], start, root)
        return status, out

    def scan(self, prefix: str, limit: int):
        """Generator returning ``(status, [(key, value), ...])``.

        Scatter-gathers over *every* live shard (a prefix's keys are
        hash-distributed): each is sent its leg before any is read, so
        the shards serve at once.  Each shard streams only the keys it
        is primary for, so every key arrives once, valued as its
        primary holds it.  Merges in key order and truncates to
        ``limit``.  Always streams over sockets.
        """
        return self._request(wire.OP_SCAN, prefix,
                             attempt=lambda: self._scan_once(prefix, limit))

    def _scan_once(self, prefix: str, limit: int):
        """One scatter-gather scan attempt (generator).

        Scatter: every live shard is sent its leg first.  Gather: the
        sent legs are read in node order, each to its sentinel, so each
        leg's ``kv.call`` span runs from its send to the end of its
        stream and the spans overlap.  A failed send or read strikes
        that shard and the attempt answers ``ST_ERROR``.

        Any shard shedding its leg rejects the whole attempt — a
        partial merge would silently under-report the prefix, which is
        worse than an honest rejection.  The other legs are still read
        to their ends first, or the next op on those connections would
        read this scan's records."""
        status = wire.ST_OK
        sent = []
        for node in self.service.nodes:
            if ("sock", node) in self.dead:
                status = wire.ST_ERROR
                continue
            call = yield from self._call(
                "sock", node, self._scan_send(node, prefix, limit))
            if call is _DOWN:
                status = wire.ST_ERROR
            else:
                sent.append((node, call))
        merged: List[Tuple[str, bytes]] = []
        rejected = False
        for node, call in sent:
            records = yield from self._call(
                "sock", node, self._scan_gather(node, call))
            if records is _DOWN:
                status = wire.ST_ERROR
            elif records is None:
                rejected = True
            else:
                merged += records
        if rejected:
            return wire.ST_REJECTED, []
        return status, sorted(merged)[:limit]

    # -------------------------------------------------------- internals

    def sim_now(self) -> float:
        """The current simulated time (microseconds)."""
        return self.system.sim.now

    def _span(self, name: str, start: float, root=None) -> None:
        """Record the request's ``kv.client`` root span.

        With a ``root`` token from :meth:`_root_begin` the span is
        recorded under the sid posted to the servers (and the
        process context is restored first, idempotently)."""
        self._root_detach(root)
        tracer = self.system.machine.tracer
        if not tracer.enabled:
            return
        if root is None:
            self.last_span = tracer.complete("kv.client", name, start,
                                             track=self.track)
        else:
            self.last_span = tracer.complete("kv.client", name, start,
                                             track=self.track,
                                             data={"tid": root[0]},
                                             sid=root[1])

    def _root_begin(self):
        """Open a causal-trace root for one client request.

        Allocates a fresh trace id and reserves the root span's sid so
        both can be posted to servers at once; installs them as the
        process trace context and returns a mutable token
        ``[tid, sid, prev_ctx, detached]`` that :meth:`_span` (or
        :meth:`_root_detach`) must see again, or None when tracing is
        off."""
        tracer = self.system.machine.tracer
        if not tracer.enabled:
            return None
        tid = tracer.new_trace_id()
        sid = tracer.reserve_sid()
        token = [tid, sid, self.proc.trace_ctx, False]
        self.proc.trace_ctx = (tid, sid)
        return token

    def _root_detach(self, root) -> None:
        """Restore the process trace context saved by :meth:`_root_begin`
        (idempotent; None is a no-op)."""
        if root is not None and not root[3]:
            self.proc.trace_ctx = root[2]
            root[3] = True

    def _sock_trace(self, sock):
        """Hand the next socket request's context to the server.

        Posts the trace id and a freshly reserved *per-attempt* span sid
        under the request's stream offset — each replica-walk attempt
        (and each node of a scan fan-out) must name a distinct wire
        parent, or retried requests would produce serve spans that
        collide in the duplicate-delivery audit.  Returns the
        ``(ctx, sid, start)`` token :meth:`_sock_span` completes, or
        None when the process carries no context."""
        ctx = self.proc.trace_ctx
        tracer = self.system.machine.tracer
        if ctx is None or not tracer.enabled:
            return None
        sid = tracer.reserve_sid()
        tracer.post(sock.out_key + (sock.bytes_sent,), (ctx[0], sid))
        return (ctx, sid, self.sim_now())

    def _sock_send(self, sock, frame: bytes):
        """Stage ``frame`` in the send buffer and send it on ``sock``
        (generator): every socket request and QUIT."""
        yield from self.proc.write(self._sbuf, frame)
        yield from sock.send(self._sbuf, len(frame))

    def _sock_span(self, call, name: str) -> None:
        """Complete the per-attempt ``kv.call`` span opened by
        :meth:`_sock_trace` (None is a no-op)."""
        if call is not None:
            ctx, sid, start = call
            self.system.machine.tracer.complete(
                "kv.call", name, start, track=self.track,
                data={"tid": ctx[0], "cparent": ctx[1]}, sid=sid)

    def _pipelined(self) -> bool:
        """True when point ops can ride a multi-call SRPC window."""
        return self.transport == "srpc" and self.service.srpc_window > 1

    def _batched(self) -> bool:
        """True when the service speaks the v2 (multi_get) interface."""
        return self.transport == "srpc" and self.service.batch

    def _cache_get(self, key: str) -> Optional[bytes]:
        """A fresh cached value, or None (expired entries are evicted;
        with the cache off nothing is looked up)."""
        if self.cache_keys <= 0:
            return None
        self.cache_lookups += 1
        entry = self._cache.get(key)
        if entry is None:
            return None
        value, stored = entry
        if self.cache_ttl_us > 0 and self.sim_now() - stored > self.cache_ttl_us:
            del self._cache[key]
            return None
        self._cache.move_to_end(key)
        self.cache_hits += 1
        return value

    def _cache_put(self, key: str, value: Optional[bytes], epoch: int) -> None:
        """Insert a fetched value unless a write raced the fetch."""
        if self.cache_keys <= 0 or value is None:
            return
        if self._wepoch.get(key, 0) != epoch:
            return  # invalidated while the fetch was in flight: stale
        self._cache[key] = (bytes(value), self.sim_now())
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_keys:
            self._cache.popitem(last=False)

    def _cache_invalidate(self, key: str) -> None:
        """Drop the key's entry and bump its write epoch."""
        if self.cache_keys > 0:
            self._wepoch[key] = self._wepoch.get(key, 0) + 1
            self._cache.pop(key, None)

    def _unpin_write(self, key: str) -> None:
        """Retire one pending pipelined write of ``key``."""
        count = self._pending_writes.get(key, 0) - 1
        if count > 0:
            self._pending_writes[key] = count
        else:
            self._pending_writes.pop(key, None)
            self._pending_write_node.pop(key, None)

    def _candidates(self, op: int, key: str) -> List[int]:
        """The node order an operation tries, failover included.

        Writes walk the replica set primary-first.  Reads do too,
        unless read-spreading rotates the set — except that a read of a
        key with an in-flight pipelined write is pinned to that write's
        node, where the binding's FIFO serializes it after the write.
        """
        reps = self.service.replicas_for(key)
        if op == wire.OP_GET and self.consistency == "session":
            # Read-your-writes: a key this client has written reads
            # from the node that acked the write — the dot is durably
            # applied there, whatever the replication fan-out is up to.
            pin = self._floor_node.get(key)
            if pin is not None:
                return [pin] + [n for n in reps if n != pin]
        if op != wire.OP_GET or not self.read_spread or len(reps) < 2:
            return reps
        pin = self._pending_write_node.get(key)
        if pin is not None:
            return [pin] + [n for n in reps if n != pin]
        r = self._rr % len(reps)
        self._rr += 1
        if r == 0:
            return reps
        self.spread_reads += 1
        return reps[r:] + reps[:r]

    def _teach(self, key: str, nbytes: Optional[int],
               write: bool = False) -> None:
        """Teach the bypass readers a key's occupancy (``nbytes`` None
        for an absent key) from an RPC GET's answer, or with ``write``
        from a write this client completed (no-op with one-sided reads
        off).  Read lessons never clear a skip mark — see
        :meth:`RegionReader.note_size`."""
        if not self._readers:
            return
        for node in self.service.replicas_for(key):
            reader = self._readers.get(node)
            if reader is not None:
                if write:
                    reader.note_write(key, nbytes)
                else:
                    reader.note_size(key, nbytes)

    def _wrote(self, key: str, value: Optional[bytes], status: int) -> None:
        """Teach the bypass readers a completed PUT's value size, or a
        DELETE's (``value`` None) empty slot — ``ST_MISS`` included."""
        if status in (wire.ST_OK, wire.ST_MISS):
            self._teach(key, None if value is None else len(value),
                        write=True)

    def _bypassable(self, key: str) -> bool:
        """Whether a GET of ``key`` may take the one-sided bypass.

        A key with a pipelined write still in flight is excluded: the
        bypass does not ride the binding's FIFO, so only the RPC path
        (pinned to the written node) can serialize read-after-write.
        """
        return bool(self._readers) and key not in self._pending_writes

    def _bypass(self, key: str):
        """The one-sided GET (generator): ``(ST_OK, value)`` on a hit,
        None to fall through to the RPC walk.

        Walks the same candidate order as the RPC path (read-spreading
        composes) and fetches the key's slot straight from the first
        candidate's exported region — no server handler runs.  Any
        non-hit — empty or colliding slot, oversize value, bounded
        seqlock retries exhausted — falls through, because only the
        server can distinguish a true miss; its answer then teaches the
        occupancy cache (:meth:`_answer`), so the next GET of this key
        can take an exact-size bypass read (or skip the region for a
        missing key until someone writes it).
        """
        reader = next((self._readers[node]
                       for node in self._candidates(wire.OP_GET, key)
                       if node in self._readers
                       and self._readers[node].knows(key)), None)
        if reader is not None:
            # One lookup: absent there means absent everywhere it can
            # answer, and a stalled writer or lost replies ask the server.
            try:
                found, value = yield from reader.lookup(key)
            except VmmcTimeoutError:
                found = False
            if found:
                self.onesided_hits += 1
                return wire.ST_OK, value
        self.onesided_fallbacks += 1
        return None

    def _request(self, op: int, key: str, value: Optional[bytes] = None,
                 attempt=None, first=None):
        """One client request: the only synchronous request frame.

        Counts the op and records ONE ``kv.client`` root span, however
        the request is served.  ``first(key)`` (the one-sided bypass)
        runs once and may answer outright; otherwise the replica walk
        runs — or ``attempt()``, one quorum read, quorum write or scan
        scatter — under the rejection retry loop.  An ``ST_REJECTED``
        answer (admission control shed the request) is retried after
        exponential backoff until the retry budget runs out, at which
        point the typed :class:`KvRejectedError` surfaces; each backoff
        records one ``kv.retry`` span so a causal trace counts attempts
        exactly."""
        name = _OP_NAMES[op]
        self.ops += 1
        start = self.sim_now()
        root = self._root_begin()
        self._last_ctx = (root[0], root[1]) if root is not None else None
        if self.transport == "sockets":
            kind, op_at = "sock", self._sock_op
        else:
            kind = "rpc"
            op_at = self._ver_op if self.versioned else self._rpc_op
        tries = 0
        try:
            if first is not None:
                hit = yield from first(key)
                if hit is not None:
                    return hit
            while True:
                if attempt is not None:
                    status, out = yield from attempt()
                else:
                    # A rejection is an answer, so it ends the walk:
                    # every replica applies the same admission policy,
                    # and hammering the next one during an overload
                    # would defeat the shed (this loop, with backoff, is
                    # the sanctioned second chance).
                    answers = yield from self._walk(
                        kind, self._candidates(op, key),
                        lambda node: op_at(node, op, key, value))
                    if not answers:
                        self.errors += 1
                        return wire.ST_ERROR, None
                    status, out = answers[0][1]
                if status == wire.ST_MISS:
                    self.misses += 1
                if status != wire.ST_REJECTED:
                    return status, out
                if tries >= self.retry_budget:
                    self.rejected += 1
                    raise KvRejectedError(name, key, tries + 1)
                tries += 1
                self.retries += 1
                yield from self._backoff(tries)
        finally:
            self._span(name, start, root)

    def _walk(self, kind: str, nodes: List[int], attempt, want: int = 1):
        """The failover walk: every request path's replica loop (generator).

        Runs ``attempt(node)`` — a generator — on each of ``nodes``
        whose ``kind`` connection is alive, in order, until ``want``
        attempts have answered, and returns the ``[(node, answer)]``
        list (shorter than ``want`` when the set ran out).  An attempt
        answering None (a replica that shed the request) does not
        count.  A failed attempt strikes its connection
        (:meth:`_strike`); a walk that answered only after skipping a
        connection already struck counts one failover — a fallback
        replica served it."""
        answers = []
        skipped = False
        for node in nodes:
            if (kind, node) in self.dead:
                skipped = True
                continue
            try:
                answer = yield from attempt(node)
            except (VmmcTimeoutError, VmmcError):
                self._strike(kind, node)
                continue
            if answer is None:
                continue
            answers.append((node, answer))
            if len(answers) >= want:
                break
        if skipped and answers:
            self.failovers += 1
        return answers

    def _call(self, kind: str, node: int, call):
        """Run one call on ``node``'s ``kind`` connection (generator).

        Returns the call's result, or :data:`_DOWN` after a typed VMMC
        failure, which strikes the connection (:meth:`_strike`)."""
        try:
            return (yield from call)
        except (VmmcTimeoutError, VmmcError):
            self._strike(kind, node)
            return _DOWN

    def _strike(self, kind: str, node: int) -> None:
        """Mark ``node``'s ``kind`` connection dead after a typed VMMC
        failure; every strike counts one failover."""
        self.dead.add((kind, node))
        self.failovers += 1

    def _backoff(self, attempt: int):
        """Sleep the attempt's backoff (generator): exponential in the
        attempt number, with deterministic per-client jitter."""
        delay = self.retry_base_us * (2.0 ** (attempt - 1))
        delay *= 1.0 + self.retry_jitter * self._retry_rng.random()
        start = self.sim_now()
        yield self.system.sim.timeout(delay)
        tracer = self.system.machine.tracer
        if tracer.enabled:
            data = {"attempt": attempt, "delay_us": delay}
            ctx = self.proc.trace_ctx
            if ctx is not None:
                data["tid"] = ctx[0]
                data["cparent"] = ctx[1]
            tracer.complete("kv.retry", "backoff %d" % attempt, start,
                            track=self.track, data=data)

    def _rpc_op(self, node: int, op: int, key: str,
                value: Optional[bytes]):
        """The v1/v2 point op on ``node`` (generator returning
        ``(status, value-or-None)``)."""
        raw = yield from self._stub(node, op, key, value)
        return self._answer(op, key, raw)

    def _stub(self, node: int, op: int, key: str, value: Optional[bytes],
              begin: bool = False):
        """The v1/v2 stub call of ``op`` on ``node`` — with ``begin``
        its pipelined submit — as the stub's generator."""
        client = self.rpc[node]
        if op == wire.OP_GET:
            return client.get_begin(key) if begin else client.get(key)
        if op == wire.OP_PUT:
            return (client.put_begin(key, value) if begin
                    else client.put(key, value))
        return client.delete_begin(key) if begin else client.delete(key)

    def _answer(self, op: int, key: str, raw) -> Tuple[int, Optional[bytes]]:
        """Decode a v1/v2 reply to ``(status, value-or-None)``.  A GET
        answer teaches the bypass readers the key's occupancy."""
        if op != wire.OP_GET:
            return raw, None
        if raw and raw[0] == wire.ST_REJECTED:
            return wire.ST_REJECTED, None
        if not raw or raw[0] != wire.ST_OK:
            self._teach(key, None)
            return wire.ST_MISS, None
        value = bytes(raw[1:])
        self._teach(key, len(value))
        return wire.ST_OK, value

    def _ver_op(self, node: int, op: int, key: str, value: Optional[bytes]):
        """The v3 (versioned) point ops (generator).

        Every answer carries the shard's winning dot; reads feed it to
        :meth:`_observe_read` (staleness detection, read repair), writes
        raise the client's per-key floor — the basis of session mode's
        read-your-writes pinning.  Writes propose ``VERSION_ZERO`` so
        the owning shard coordinates the epoch (quorum mode is the one
        place the client proposes a real dot, in
        :meth:`_quorum_write`)."""
        if op == wire.OP_GET:
            answer = yield from self._vget_at(node, key)
            if answer is None:
                return wire.ST_REJECTED, None
            self.last_version, value = answer
            self._last_get_node = node
            return (wire.ST_MISS if value is None else wire.ST_OK), value
        blob = yield from self._vwrite(node, key, pack_version(VERSION_ZERO),
                                       value)
        if blob and blob[0] == wire.ST_REJECTED:
            return wire.ST_REJECTED, None
        if not blob:
            return wire.ST_ERROR, None
        version = unpack_version(bytes(blob[1:9]))
        self.last_version = version
        if version > self._floor.get(key, VERSION_ZERO):
            self._floor[key] = version
        if self.consistency == "session":
            self._floor_node[key] = node
        self._seen[key] = (version, value)
        return blob[0], None

    def _observe_read(self, key: str, version: Tuple[int, int],
                      value: Optional[bytes], node: Optional[int]) -> None:
        """Track the newest dot this client has proven per key.

        A replica answering with an *older* dot than one already proven
        is caught red-handed serving a stale read; with read repair on,
        a versioned overwrite of that replica is queued (applied off
        the request path by :meth:`flush_repairs`)."""
        seen = self._seen.get(key)
        if seen is None or version > seen[0]:
            self._seen[key] = (version, value)
            return
        if version < seen[0]:
            self.stale_detected += 1
            if self.read_repair and node is not None:
                self._queue_repair(node, key, seen[0], seen[1])

    def _queue_repair(self, node: int, key: str,
                      version: Tuple[int, int],
                      value: Optional[bytes]) -> None:
        """Queue one repair write, remembering the detecting request's
        trace context so the repair span joins its causal tree."""
        self._repairs.append((node, key, version, value, self._last_ctx))

    def flush_repairs(self):
        """Apply queued read repairs (generator) — off the hot path.

        Each repair overwrites the stale replica with the newest dot
        this client has proven for the key; shard-side LWW makes the
        write idempotent and safe against racing fresher writes.  The
        repair RPC runs *outside* any trace context, so the detecting
        request's causal tree ends at the ``kv.repair`` span — the
        shape docs/REPLICATION.md's explain example pins."""
        while self._repairs:
            node, key, version, value, ctx = self._repairs.pop(0)
            if node not in self.rpc or ("rpc", node) in self.dead:
                continue
            start = self.sim_now()
            prev = self.proc.trace_ctx
            self.proc.trace_ctx = None
            try:
                blob = yield from self._call("rpc", node, self._vwrite(
                    node, key, pack_version(version), value))
            finally:
                self.proc.trace_ctx = prev
            if blob is _DOWN:
                continue
            if blob and blob[0] != wire.ST_REJECTED:
                self.repairs += 1
            tracer = self.system.machine.tracer
            if tracer.enabled and ctx is not None:
                tracer.complete("kv.repair", key, start, track=self.track,
                                data={"tid": ctx[0], "cparent": ctx[1],
                                      "node": node})

    def _vget_at(self, node: int, key: str):
        """One replica's versioned answer (generator): ``(version,
        value)``, value None for a miss, or None when the replica shed
        the read — the shape :meth:`_walk` counts toward a quorum."""
        blob = yield from self.rpc[node].vget(key)
        if not blob or blob[0] == wire.ST_REJECTED:
            return None
        version = unpack_version(bytes(blob[1:9]))
        if blob[0] != wire.ST_OK:
            return version, None
        return version, bytes(blob[9:])

    def _vwrite(self, node: int, key: str, wire_v: bytes,
                value: Optional[bytes]):
        """A versioned write on ``node`` (generator returning the raw
        status + winning-dot blob); a None value deletes."""
        if value is None:
            blob = yield from self.rpc[node].vdelete(key, wire_v)
        else:
            blob = yield from self.rpc[node].vput(key, wire_v, value)
        return blob

    def _quorum_read(self, key: str):
        """One R-replica read attempt (generator).

        Asks replicas in placement order until R answer, takes the
        winning dot, and (with read repair on) queues repairs for every
        laggard that answered.  With R + W > N every read quorum
        intersects the last acknowledged write's ack set, so the winner
        is at least as new as that write — zero stale reads by
        construction, the property the eventual-vs-quorum experiment in
        docs/REPLICATION.md measures.  The walk follows placement
        order, never :meth:`_candidates`: read-spreading neither
        rotates nor counts a quorum read."""
        self.quorum_reads += 1
        answers = yield from self._walk(
            "rpc", self.service.replicas_for(key),
            lambda node: self._vget_at(node, key), want=self.quorum_r)
        if len(answers) < self.quorum_r:
            self.errors += 1
            return wire.ST_ERROR, None
        best_v, best_val = answers[0][1]
        for _, (version, value) in answers[1:]:
            if wins(version, value, best_v, best_val):
                best_v, best_val = version, value
        self.last_version = best_v
        seen = self._seen.get(key)
        if seen is None or best_v > seen[0]:
            self._seen[key] = (best_v, best_val)
        if self.read_repair:
            for node, (version, value) in answers:
                if version < best_v:
                    self.stale_detected += 1
                    self._queue_repair(node, key, best_v, best_val)
        if best_val is None:
            return wire.ST_MISS, None
        return wire.ST_OK, best_val

    def _quorum_write(self, key: str, value: Optional[bytes]):
        """One W-replica synchronous write attempt (generator); a None
        value deletes.

        The client coordinates the dot itself: one epoch past the
        newest it has seen or written for the key, with a writer id
        disjoint from the shards' (100 + client id) so concurrent
        writers tie-break deterministically.  Success requires W acks;
        the proposed dot then becomes the client's floor, which is what
        a later quorum read proves freshness against."""
        self.quorum_writes += 1
        base = self._floor.get(key, VERSION_ZERO)
        seen = self._seen.get(key)
        if seen is not None and seen[0] > base:
            base = seen[0]
        proposed = (base[0] + 1, 100 + self.client_id)
        wire_v = pack_version(proposed)

        def ack(node):
            blob = yield from self._vwrite(node, key, wire_v, value)
            return None if blob and blob[0] == wire.ST_REJECTED else blob

        acks = yield from self._walk("rpc", self.service.replicas_for(key),
                                     ack, want=self.quorum_w)
        if len(acks) < self.quorum_w:
            self.errors += 1
            return wire.ST_ERROR, None
        self._floor[key] = proposed
        self._seen[key] = (proposed, value)
        self.last_version = proposed
        return wire.ST_OK, None

    def _sock_op(self, node: int, op: int, key: str,
                 value: Optional[bytes]):
        sock = self.socks[node]
        call = None
        try:
            call = self._sock_trace(sock)
            yield from self._sock_send(
                sock, wire.encode_request(op, key, value or b""))
            fields = yield from recv_frame(
                sock, self._rbuf, wire.RESP_HEADER.size + wire.VALUE_BOUND,
                wire.RESP_HEADER, lambda f: f[1])
            if fields is None:
                raise VmmcTimeoutError("kv: response cut short")
            status, value_len = fields
            out = None
            if value_len:
                out = self.proc.peek(self._rbuf + wire.RESP_HEADER.size,
                                     value_len)
            return status, out
        finally:
            self._sock_span(call, _OP_NAMES[op])

    def _scan_send(self, node: int, prefix: str, limit: int):
        """Send ``node`` its SCAN leg (generator returning the leg's
        :meth:`_sock_trace` token for :meth:`_scan_gather`)."""
        sock = self.socks[node]
        call = self._sock_trace(sock)
        try:
            yield from self._sock_send(sock, wire.encode_request(
                wire.OP_SCAN, prefix, scan_limit=limit))
        except (VmmcTimeoutError, VmmcError):
            self._sock_span(call, "scan")
            raise
        return call

    def _scan_gather(self, node: int, call):
        """Read ``node``'s SCAN leg to its sentinel (generator returning
        the leg's records, or None when the shard shed it).

        Each ``recv`` takes up to the whole receive buffer and every
        complete record in it is parsed.  A record the read cut short
        moves to the buffer's front and the next read completes it."""
        sock = self.socks[node]
        records: List[Tuple[str, bytes]] = []
        held = 0
        try:
            while True:
                got = yield from sock.recv(self._rbuf + held,
                                           _BUF_BYTES - held)
                if got == 0:
                    raise VmmcTimeoutError("kv: scan stream cut short")
                held += got
                found, sentinel, used = wire.parse_scan_records(
                    self.proc.peek(self._rbuf, held))
                records += found
                if sentinel == wire.SCAN_REJECT:
                    return None  # the shard shed this leg at admission
                if sentinel is not None:
                    return records
                held -= used
                if held and used:
                    yield from self.proc.copy(self._rbuf + used,
                                              self._rbuf, held)
        finally:
            self._sock_span(call, "scan")

    def stats(self) -> Dict[str, int]:
        """This client's request counters (mitigation counters included)."""
        return {
            "ops": self.ops,
            "misses": self.misses,
            "errors": self.errors,
            "failovers": self.failovers,
            "corruptions": self.corruptions,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "spread_reads": self.spread_reads,
            "batch_calls": self.batch_calls,
            "batched_keys": self.batched_keys,
            "onesided_hits": self.onesided_hits,
            "onesided_fallbacks": self.onesided_fallbacks,
            "rejected": self.rejected,
            "retries": self.retries,
            "repairs": self.repairs,
            "stale_detected": self.stale_detected,
            "quorum_reads": self.quorum_reads,
            "quorum_writes": self.quorum_writes,
        }


_OP_NAMES = {wire.OP_GET: "get", wire.OP_PUT: "put",
             wire.OP_DELETE: "delete", wire.OP_SCAN: "scan"}

#: What :meth:`KVClient._call` returns for a call whose connection died.
_DOWN = object()

#: Bytes of each client's send and receive buffer.
_BUF_BYTES = 4096
