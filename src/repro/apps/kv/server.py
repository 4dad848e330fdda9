"""Shard-server programs: the processes a KV node runs.

One mesh node hosts one shard server, modeled as a multi-threaded
process: each accepted client binding/connection gets its own handler
generator, all sharing the node's :class:`ShardStore`.  CPU contention
between handlers is not modeled (only the shared buses, NIC engines,
and mesh links contend) — docs/WORKLOADS.md discusses the limitation.

Three transports, per the tentpole split:

* **SHRIMP RPC** for request/response — the ``KvShard`` IDL below;
* **sockets** for the streamed SCAN of ``protocol.py``, and for framed
  GET/PUT/DELETE when the client's transport is sockets; every frame is
  at most 1,095 bytes and a SCAN leg goes out in sends of at most
  ``SCAN_SEND_BYTES`` (2 KB), so they run the AU-2copy variant
  (``KVService.socket_variant``);
* **NX** for replication fan-out — a per-node sender drains the
  service's replication queue and ``csend``s records to the other
  replicas, while the NX rank program receives and applies.  The
  collectives library brackets the replication lifecycle: a binomial
  ``broadcast`` distributes the shard map at startup and a
  ``reduce_int`` sums applied-record counts at shutdown.

Every long-running loop here catches the typed ``VmmcTimeoutError``
family: under an armed :class:`~repro.sim.faults.FaultPlan` the
hardened libraries bound all waits, and a handler whose peer died must
exit cleanly instead of crashing the event loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...libs import collectives
from ...libs.shrimp_rpc import SrpcTimeoutError, compile_stubs
from ...libs.sockets import SocketLib, SocketTimeoutError
from ...sim.faults import FaultKind, FaultSite
from ...vmmc import VmmcError, VmmcTimeoutError
from . import protocol as wire
from .admission import LANE_BACKGROUND, LANE_BULK, LANE_CHEAP
from .replication.versions import (
    VERSION_ZERO, pack_version, unpack_version,
)

if TYPE_CHECKING:
    from .service import KVService

__all__ = [
    "KV_IDL", "KvShardClient", "KvShardServer", "KV_INTERFACE",
    "KV_BATCH_IDL", "KvBatchClient", "KvBatchServer", "KV_BATCH_INTERFACE",
    "KV_VER_IDL", "KvVerClient", "KvVerServer", "KV_VER_INTERFACE",
    "shard_interface",
    "REPL_TYPE", "srpc_server_program", "socket_server_program",
    "make_repl_program",
]

# The request/response contract.  GET returns a status byte followed by
# the value (opaque length covers both), so a miss and an empty value
# are distinguishable; the int-returning procedures use the ST_* codes.
KV_IDL = """
program KvShard version 1 {
    opaque<%d> get(in string<%d> key);
    int put(in string<%d> key, in opaque<%d> value);
    int delete(in string<%d> key);
    int stop();
}
""" % (wire.VALUE_BOUND + 1, wire.KEY_BOUND, wire.KEY_BOUND,
       wire.VALUE_BOUND, wire.KEY_BOUND)

KvShardClient, KvShardServer, KV_INTERFACE = compile_stubs(KV_IDL)

# The batched contract: everything v1 has plus multi_get, which carries
# up to MULTI_GET_MAX keys per call (protocol.py packs the blobs).  A
# separate interface *version* because the bigger opaque slots change
# the binding's buffer layout — v1 timing stays bit-identical.  The
# entries travel in an OUT parameter, not the return slot: a bounded
# return is read back whole (all MG_RESP_BOUND bytes), while an OUT
# slot reads its length word and only the bytes actually present, so a
# short batch costs what it carries.
KV_BATCH_IDL = """
program KvShard version 2 {
    opaque<%d> get(in string<%d> key);
    int put(in string<%d> key, in opaque<%d> value);
    int delete(in string<%d> key);
    int stop();
    void multi_get(in opaque<%d> keys, out opaque<%d> entries);
}
""" % (wire.VALUE_BOUND + 1, wire.KEY_BOUND, wire.KEY_BOUND,
       wire.VALUE_BOUND, wire.KEY_BOUND,
       wire.MG_REQ_BOUND, wire.MG_RESP_BOUND)

KvBatchClient, KvBatchServer, KV_BATCH_INTERFACE = compile_stubs(KV_BATCH_IDL)

# The versioned contract (consistency modes — docs/REPLICATION.md).
# vget returns status byte + 8-byte version dot + value; vput/vdelete
# carry the client's proposed dot (VERSION_ZERO asks the server to
# assign the next epoch) and return status + the winning dot.  A third
# interface *version* for the same reason v2 was: new buffer layouts
# must never perturb v1/v2 timing.
KV_VER_IDL = """
program KvShard version 3 {
    opaque<%d> vget(in string<%d> key);
    opaque<9> vput(in string<%d> key, in opaque<8> version, in opaque<%d> value);
    opaque<9> vdelete(in string<%d> key, in opaque<8> version);
    int stop();
}
""" % (wire.VGET_BOUND, wire.KEY_BOUND, wire.KEY_BOUND,
       wire.VALUE_BOUND, wire.KEY_BOUND)

KvVerClient, KvVerServer, KV_VER_INTERFACE = compile_stubs(KV_VER_IDL)


def shard_interface(service: "KVService"):
    """The ``(client stub, server stub)`` pair of the interface version
    ``service`` speaks: v3 when versioned, v2 with batching, else v1.
    Both ends of every binding pick their stubs here, so they agree."""
    if service.versioned:
        return KvVerClient, KvVerServer
    if service.batch:
        return KvBatchClient, KvBatchServer
    return KvShardClient, KvShardServer

# NX message type carrying replication records; data and stop records
# share it so per-connection FIFO ordering makes the stop a barrier.
REPL_TYPE = 0x6B760001

# The explicit apply-cost model: what the server charges for hashing
# into the shard and touching the value, per operation and per byte.
# Transport time dominates by design — the paper's question is the
# communication stack, not dict performance.
APPLY_US = 0.8
APPLY_PER_BYTE_US = 0.0005


def apply_cost(nbytes: int) -> float:
    """Simulated CPU time to apply one operation on ``nbytes`` of value."""
    return APPLY_US + APPLY_PER_BYTE_US * nbytes


class _ShardImpl:
    """The RPC server implementation: one instance per binding handler.

    Reads run one :meth:`_read` body and writes one :meth:`_write`
    body whatever the interface version; the socket handler shares
    the :meth:`_admit` and :meth:`apply` steps."""

    def __init__(self, service: "KVService", node_id: int, proc):
        self.service = service
        self.store = service.stores[node_id]
        self.node_id = node_id
        self.proc = proc
        self.stopped = False
        # The node's admission controller, or None (admission off).
        # Lane priorities still apply to the bare CPU scheduler when
        # only cpu modeling is enabled (docs/OVERLOAD.md).
        self.admission = service.admission.get(node_id)

    def _admit(self, lane, cost, defer=False):
        """Charge the op's CPU cost, through admission when enabled.

        Generator returning False when the request was shed — the
        caller must answer ``ST_REJECTED`` without running the handler.
        With admission off this is exactly the historical
        ``proc.compute(cost)`` (contended only if the CPU scheduler is
        on), so the default path stays byte-identical.

        ``defer=True`` is set by read-only handlers whose remaining
        work until the reply write is pure (store lookup + encode): the
        charge then rides the reply write's deadline via
        :meth:`~repro.kernel.process.UserProcess.charge`, saving a wake
        at a bit-exact instant.  Mutating handlers must not defer —
        their replication enqueue would run before the charge elapsed.
        """
        if self.admission is not None:
            ok = yield from self.admission.admit(self.proc, lane, cost)
            return ok
        if defer and self.proc.node.cpu is None:
            self.proc.charge(cost)
        else:
            yield from self.proc.compute(cost, priority=lane)
        return True

    def _op_span(self, name):
        """Open the handler span for an *admitted* op (None when off).

        Only emitted under admission control, so default-path traces
        are unchanged; its absence from a rejected request's tree is
        what the shed-tree golden pins.
        """
        tracer = self.proc.tracer
        if self.admission is None or not tracer.enabled:
            return None
        data = {"node": self.node_id}
        ctx = self.proc.trace_ctx
        if ctx is not None:
            data["tid"] = ctx[0]
            data["cparent"] = ctx[1]
        return tracer.begin("kv.server", name, track=self.proc.trace_track,
                            data=data)

    # The procedures hand the stub skeleton their body's generator.

    def get(self, key):
        return self._read(key, versioned=False)

    def put(self, key, value):
        return self._write("put", key, bytes(value))

    def delete(self, key):
        return self._write("delete", key, None)

    def stop(self):
        self.stopped = True
        return wire.ST_OK
        yield  # pragma: no cover - generator protocol

    def multi_get(self, keys_blob, entries):
        """The v2 batched read: N keys in, N (status, value) entries
        written into the OUT slot (propagated back by automatic update
        as they are set).  Each key pays a GET's CPU charge, handler
        tax included.  Batching never runs under admission control
        (:class:`~repro.apps.kv.service.KVService` refuses the pair)."""
        keys = wire.decode_multi_get_request(keys_blob)
        found = []
        for key in keys:
            yield from self.proc.compute(self.service.op_cost(0),
                                         priority=LANE_CHEAP)
            value = self.store.get(key)
            found.append((wire.ST_MISS, None) if value is None
                         else (wire.ST_OK, value))
        yield from entries.set(wire.encode_multi_get_response(found))

    # --------------------------------------------- versioned ops (v3)

    def vget(self, key):
        """GET with the record's version dot (status, version, value)."""
        return self._read(key, versioned=True)

    def vput(self, key, version, value):
        """PUT through the LWW guard; returns status + the winning dot.

        A ``VERSION_ZERO`` proposal asks this server to coordinate: it
        assigns the key's next epoch with its own writer id.  A losing
        proposal still answers ``ST_OK`` — last-writer-wins means the
        write *happened*, it was just superseded; the returned dot
        tells the client who won.
        """
        return self._write("vput", key, bytes(value), version)

    def vdelete(self, key, version):
        """DELETE through the LWW guard (leaves a versioned tombstone)."""
        return self._write("vdelete", key, None, version)

    # ----------------------------------------------------------- bodies

    def _read(self, key, versioned):
        """The read body of ``get`` (v1: status + value) and ``vget``
        (v3: status + the record's dot + value) (generator)."""
        ok = yield from self._admit(LANE_CHEAP, self.service.op_cost(0),
                                    defer=True)
        if not ok:
            return bytes([wire.ST_REJECTED]) + (
                pack_version(VERSION_ZERO) if versioned else b"")
        span = self._op_span("vget" if versioned else "get")
        try:
            value = self.store.get(key)
            stamp = (pack_version(self.store.version_of(key)) if versioned
                     else b"")
            if value is None:
                return bytes([wire.ST_MISS]) + stamp
            return bytes([wire.ST_OK]) + stamp + value
        finally:
            self.proc.tracer.end(span)

    def _write(self, name, key, value, version=None):
        """The write body of ``put``/``delete`` (v1: a status code) and
        ``vput``/``vdelete`` (v3: status + the key's winning dot, given
        the wire-packed proposed ``version``) (generator).  A None
        ``value`` deletes; deleting an absent key answers ``ST_MISS``."""
        nbytes = 0 if value is None else len(value)
        ok = yield from self._admit(LANE_BULK, self.service.op_cost(nbytes))
        if not ok:
            if version is None:
                return wire.ST_REJECTED
            return bytes([wire.ST_REJECTED]) + pack_version(VERSION_ZERO)
        span = self._op_span(name)
        try:
            dot = None if version is None else unpack_version(version)
            status = yield from self.apply(key, value, dot)
            if version is None:
                return status
            return bytes([status]) + pack_version(self.store.version_of(key))
        finally:
            self.proc.tracer.end(span)

    def apply(self, key, value, version=None):
        """Apply one client write on this shard: store it, mirror it
        into the one-sided region, and queue its replication fan-out
        (generator returning the status, ``ST_MISS`` for a DELETE of an
        absent key).  A None ``value`` deletes.

        With a ``version`` dot the write goes through the LWW guard
        (``VERSION_ZERO`` asks this shard to assign the key's next
        epoch); a write the guard refuses is counted but neither
        mirrored nor replicated."""
        store = self.store
        status = (wire.ST_OK if value is not None or key in store.data
                  else wire.ST_MISS)
        if version is None:
            if value is None:
                store.delete(key)
            else:
                store.put(key, value)
        else:
            if value is None:
                store.deletes += 1
            else:
                store.puts += 1
            if version == VERSION_ZERO:
                version = store.assign_version(key, self.node_id + 1)
            if not store.apply_versioned(key, version, value):
                return status
        yield from self.service.region_store(self.node_id, self.proc, key,
                                             value)
        self.service.enqueue_replication(self.node_id, key, value,
                                         trace_ctx=self.proc.trace_ctx,
                                         version=version)
        return status


def srpc_server_program(service: "KVService", node_id: int):
    """One SHRIMP RPC binding handler: accept one client, serve until
    its ``stop()`` call (or the hardened idle bound under faults).

    The service's ``batch``/``srpc_window`` knobs pick the interface
    version (v2 adds multi_get) and the pipelining window; clients must
    be built with the same settings, which the workload plumbing and
    :class:`~repro.apps.kv.client.KVClient` guarantee."""

    def program(proc):
        impl = _ShardImpl(service, node_id, proc)
        _client_cls, server_cls = shard_interface(service)
        server = server_cls(service.system, proc, impl,
                            window=service.srpc_window)
        yield from server.serve_binding(service.srpc_port)
        try:
            while not impl.stopped:
                yield from server.run(max_calls=1)
        except (SrpcTimeoutError, VmmcTimeoutError):
            pass  # client died mid-binding; bounded wait, clean exit
        return server.calls_served

    return program


#: The admission lane of each socket request op.
_SOCKET_LANES = {wire.OP_GET: LANE_CHEAP, wire.OP_PUT: LANE_BULK,
                 wire.OP_DELETE: LANE_BULK, wire.OP_SCAN: LANE_BULK}


def recv_frame(sock, buf: int, limit: int, header, body_bytes):
    """Read one point-op frame into ``buf`` (generator returning the
    unpacked ``header`` fields, or None when the stream ends first).

    One ``recv`` of up to ``limit`` bytes takes the whole frame.  It
    cannot take a second frame's bytes: a connection carries one point
    op at a time (sockets never pipeline), so nothing follows the frame
    until it is answered.  ``recv_exactly`` runs only for bytes the
    frame still lacks, which happens when a nearly full ring split it
    into two records.  ``body_bytes(fields)`` is the frame's length
    past its header.
    """
    got = yield from sock.recv(buf, limit)
    if 0 < got < header.size:
        got += yield from sock.recv_exactly(buf + got, header.size - got)
    if got < header.size:
        return None
    fields = header.unpack(sock.proc.peek(buf, header.size))
    need = header.size + body_bytes(fields)
    if got < need:
        got += yield from sock.recv_exactly(buf + got, need - got)
        if got < need:
            return None
    return fields


def socket_server_program(service: "KVService", node_id: int):
    """One socket connection handler: accept once, serve framed
    requests (and streamed SCANs) until QUIT/EOF."""

    def program(proc):
        lib = SocketLib(service.system, proc, variant=service.socket_variant)
        listener = lib.listen(service.socket_port)
        sock = yield from listener.accept()
        # The RPC handler's admission and write-apply steps, shared.
        impl = _ShardImpl(service, node_id, proc)
        store = impl.store
        buf = proc.space.mmap(4096)
        out = proc.space.mmap(4096)
        served = 0

        def reply(frame):
            """Stage ``frame`` and send it to the client (generator)."""
            yield from proc.write(out, frame)
            yield from sock.send(out, len(frame))

        def stage(staged, record):
            """Append a scan ``record`` to the ``staged`` bytes, sending
            them first if it would take them past ``SCAN_SEND_BYTES``
            (generator returning the bytes now staged)."""
            if len(staged) + len(record) > wire.SCAN_SEND_BYTES:
                yield from reply(staged)
                staged = b""
            return staged + record

        try:
            while True:
                # The request's stream offset: its trace hand-off key.
                offset = sock.bytes_received
                fields = yield from recv_frame(
                    sock, buf, 4096, wire.REQ_HEADER,
                    lambda f: f[1] + (f[2] if f[0] == wire.OP_PUT else 0))
                if fields is None:
                    break  # EOF: peer closed without QUIT
                op, key_len, third = fields
                if op == wire.OP_QUIT:
                    break
                body = buf + wire.REQ_HEADER.size
                key = proc.peek(body, key_len).decode()
                served += 1
                span = ctx = None
                if proc.tracer.enabled:
                    span = proc.tracer.begin(
                        "kv.serve", "sock op %d" % op,
                        track=proc.trace_track, data={"op": op})
                    ctx = proc.tracer.claim(sock.in_key + (offset,), span)
                prev_ctx = proc.trace_ctx
                if ctx is not None:
                    proc.trace_ctx = ctx
                try:
                    if op not in _SOCKET_LANES:
                        yield from reply(wire.encode_response(wire.ST_ERROR))
                        continue
                    value = (proc.peek(body + key_len, third)
                             if op == wire.OP_PUT else None)
                    ok = yield from impl._admit(
                        _SOCKET_LANES[op],
                        service.op_cost(0 if value is None else len(value)))
                    if not ok:
                        # Streams have no response header; a distinguished
                        # sentinel record tells the client a whole scan
                        # was shed.
                        yield from reply(
                            wire.scan_reject_record() if op == wire.OP_SCAN
                            else wire.encode_response(wire.ST_REJECTED))
                        continue
                    if op == wire.OP_GET:
                        value = store.get(key)
                        yield from reply(wire.encode_response(
                            wire.ST_MISS if value is None else wire.ST_OK,
                            value or b""))
                    elif op == wire.OP_SCAN:
                        # The leg carries only the records this shard is
                        # primary for, so every key arrives once; it
                        # goes out in as few sends as the bound allows,
                        # the end sentinel riding the last one.
                        staged = b""
                        for rec_key, rec_value in store.scan(key, third):
                            if service.replicas_for(rec_key)[0] != node_id:
                                continue
                            yield from proc.compute(
                                apply_cost(len(rec_value)),
                                priority=LANE_BULK)
                            staged = yield from stage(
                                staged,
                                wire.encode_scan_record(rec_key, rec_value))
                        staged = yield from stage(staged,
                                                  wire.scan_end_record())
                        yield from reply(staged)
                    else:
                        status = yield from impl.apply(key, value)
                        yield from reply(wire.encode_response(status))
                finally:
                    proc.trace_ctx = prev_ctx
                    proc.tracer.end(span)
            yield from sock.close()
        except (SocketTimeoutError, VmmcTimeoutError):
            pass  # peer died; the hardened recv bounded the wait
        return served

    return program


def make_repl_program(service: "KVService", rank: int):
    """The NX rank program for node ``rank``: replication receive loop.

    Startup: participate in the shard-map broadcast (root 0).  Then
    spawn the sender co-process (it shares this rank's NXProcess; the
    send and receive halves keep disjoint state) and apply incoming
    records until every peer's stop has arrived.  Shutdown: wait for
    the local sender, then reduce applied-record counts to rank 0 —
    skipped under an armed fault plan, where a dead peer would turn
    the collective into a bounded-timeout cascade.
    """
    system = service.system
    size = len(service.nodes)

    def program(nx):
        proc = nx.proc
        page = proc.space.mmap(4096)
        blob = service.shard_map_blob()
        try:
            if rank == 0:
                proc.poke(page, blob)
            yield from collectives.broadcast(nx, page, len(blob), root=0)
            if proc.peek(page, len(blob)) != blob:
                service.map_mismatches.append(rank)
        except VmmcTimeoutError:
            pass  # faulted startup: fall back to the local map copy
        sender_done = service.sim_event("kv-repl-tx-done-n%d" % rank)
        service.handles.append(system.spawn(
            rank, _sender_program(service, nx, rank, sender_done),
            name="kv-repl-tx-n%d" % rank))
        stops = 0
        applied = 0
        down_until = 0.0
        hardened = system.faults.enabled
        rbuf = proc.space.mmap(4096)
        try:
            while stops < size - 1:
                nbytes = yield from nx.crecv(REPL_TYPE, rbuf, 2048)
                blob = proc.peek(rbuf, nbytes)
                kind = blob[0]
                # Stops pass first — a crashed replica still shuts down
                # cleanly; only *data* records are lost while it is gone.
                if kind == wire.REPL_STOP:
                    stops += 1
                    continue
                if hardened:
                    fault = system.faults.draw(FaultSite.KV_REPLICA,
                                               node=rank)
                    if fault is not None and fault.kind == FaultKind.CRASH:
                        down_until = proc.sim.now + float(
                            fault.params.get("duration_us", 0.0))
                    if proc.sim.now < down_until:
                        # The replica is "down": records arrive but the
                        # apply side discards them — the silent
                        # divergence anti-entropy exists to repair.
                        service.repl_crash_drops += 1
                        continue
                # Replication apply rides the background lane: it only
                # gets the CPU when no client op is waiting, so fan-out
                # work cannot steal capacity from the request path.
                if kind == wire.REPL_VDATA:
                    key, version, value = wire.decode_vrepl_record(blob)
                else:
                    _kind, key, value = wire.decode_repl_record(blob)
                    version = None
                yield from proc.compute(
                    service.op_cost(0 if value is None else len(value)),
                    priority=LANE_BACKGROUND)
                service.stores[rank].apply_replication(key, value,
                                                       version=version)
                yield from service.region_store(rank, proc, key, value)
                applied += 1
        except VmmcTimeoutError:
            pass  # a peer died; its stop will never come
        yield sender_done
        if not system.faults.enabled:
            total = yield from collectives.reduce_int(
                nx, applied, lambda a, b: a + b, root=0)
            if rank == 0:
                service.repl_applied_total = total
        return applied

    return program


def _sender_program(service: "KVService", nx, rank: int, done):
    """Drain this node's replication queue into NX point-to-point sends.

    Runs as its own simulated process but drives the *rank's* NX send
    half (slot acquisition and credit reclaim never touch the receive
    half the rank program is blocked in).  A per-target send failure
    under faults is counted and skipped — replication is best-effort
    once the fabric is faulty; the client-visible contract is the
    synchronous request path, not the fan-out.
    """
    queue = service.repl_queues[rank]
    system = service.system

    def program(_proc):
        sbuf = nx.proc.space.mmap(4096)

        def fan_out(targets, nbytes):
            """csend the staged ``nbytes`` record to every target in
            order (generator returning how many sends succeeded)."""
            sent = 0
            for target in targets:
                try:
                    yield from nx.csend(REPL_TYPE, sbuf, nbytes, to=target)
                    sent += 1
                except (VmmcTimeoutError, VmmcError):
                    service.repl_send_failures += 1
            return sent

        sent = 0
        try:
            while True:
                item = yield queue.get()
                if item is None:
                    break
                targets, record, ctx = item
                yield from nx.proc.write(sbuf, record)
                # Adopt the serving span's context around the fan-out so
                # each csend parents under the request that queued it.
                prev_ctx = nx.proc.trace_ctx
                nx.proc.trace_ctx = ctx
                try:
                    sent += yield from fan_out(targets, len(record))
                finally:
                    nx.proc.trace_ctx = prev_ctx
            stop = wire.encode_repl_record(wire.REPL_STOP)
            yield from nx.proc.write(sbuf, stop)
            yield from fan_out([peer for peer in service.nodes if peer != rank],
                               len(stop))
        finally:
            done.succeed()
        return sent

    return program
