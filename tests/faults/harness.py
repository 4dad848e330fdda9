"""Shared builders for the seeded fault sweeps.

Each ``run_*`` helper builds a system armed with ``FaultPlan.from_seed``,
drives one transfer pattern through a hardened library, and returns
``(outcome, system)``.  Outcomes are ``"ok"`` (payload verified intact)
or ``"timeout"`` (a typed :class:`~repro.vmmc.errors.VmmcTimeoutError`
subclass surfaced).  Anything else — an untyped exception, a corrupt
payload reaching the application, or a hang past ``WATCHDOG_US`` of
simulated time — propagates and fails the calling test.
"""

from dataclasses import replace
from functools import lru_cache

from repro.libs.nx import ANY_TYPE, VARIANTS, nx_world
from repro.libs.rpc import VrpcServer, clnt_create
from repro.libs.rpc.vrpc import RpcTimeout
from repro.libs.shrimp_rpc import SrpcTimeoutError, compile_stubs
from repro.libs.sockets import SOCKET_VARIANTS, SocketLib
from repro.sim.faults import (
    DEFAULT_SITE_KINDS, Fault, FaultKind, FaultPlan, FaultSite,
)
from repro.testbed import make_system
from repro.vmmc import VmmcTimeoutError
from repro.workload import run_workload

PAGE = 4096

# Simulated-time bound: a protocol that stops making progress trips
# run_processes' watchdog (RuntimeError naming the stuck processes)
# long before any wall-clock timeout would.
WATCHDOG_US = 20_000_000.0

VRPC_PROG, VRPC_VERS = 0x20000A11, 1

CALC_IDL = """
program Calc version 1 {
    int add(in int a, in int b);
    void touch(inout opaque<200> buf);
    string<64> greet(in string<32> name);
    void fill(out opaque[8] pattern, in int seed);
}
"""


#: The sites a KV sockets run on the service's AU-2copy reaches: every
#: default site but the deliberate-update engine, which it never drives.
AU_SOCKET_SITES = tuple(site for site in sorted(DEFAULT_SITE_KINDS)
                        if site != FaultSite.NIC_DU)


@lru_cache(maxsize=None)
def first_request_us(spec):
    """When ``spec``'s first request starts in a hardened run in which
    no fault fires (its plan's one fault lies past the end of time).

    A workload connects every client before its first request, and a
    hardened connection takes thousands of microseconds, so a plan
    drawn over [0, horizon) spends its faults on setup.  A plan shifted
    by this instant strikes requests instead; the faulted run is this
    run until its first fault fires.
    """
    never = FaultPlan([Fault(time=float("inf"), site=FaultSite.MESH_LINK,
                             kind=FaultKind.DROP)])
    report = run_workload(replace(spec, trace=True), fault_plan=never)
    return min(s.start for s in report.spans if s.category == "kv.client")


def plan_on_requests(spec, seed, sites, horizon_us=3000.0, count=8):
    """``FaultPlan.from_seed`` over ``sites``, every fault shifted by
    :func:`first_request_us` into ``spec``'s request window."""
    start = first_request_us(spec)
    drawn = FaultPlan.from_seed(seed, horizon_us=horizon_us, count=count,
                                sites=sites)
    return FaultPlan([replace(fault, time=fault.time + start)
                      for fault in drawn], seed=seed)


def payload_for(seed, nbytes):
    """A deterministic, seed-distinct test payload."""
    return bytes((seed * 37 + i * 17 + 5) % 256 for i in range(nbytes))


def run_nx_exchange(seed, variant="AU-1copy", nbytes=512, count=6,
                    horizon_us=3000.0):
    """One NX ping-pong (csend/crecv both directions) under faults."""
    plan = FaultPlan.from_seed(seed, horizon_us=horizon_us, count=count)
    system = make_system(fault_plan=plan)
    ping = payload_for(seed, nbytes)
    pong = payload_for(seed + 1, nbytes)
    outcome = {}
    room = max(nbytes, PAGE)

    def rank0(nx):
        src = nx.proc.space.mmap(room)
        dst = nx.proc.space.mmap(room)
        nx.proc.poke(src, ping)
        try:
            yield from nx.csend(7, src, nbytes, to=1)
            size = yield from nx.crecv(8, dst, room)
            assert nx.proc.peek(dst, size) == pong, "corrupt payload at rank 0"
            outcome["rank0"] = "ok"
        except VmmcTimeoutError:
            outcome["rank0"] = "timeout"

    def rank1(nx):
        src = nx.proc.space.mmap(room)
        dst = nx.proc.space.mmap(room)
        nx.proc.poke(src, pong)
        try:
            size = yield from nx.crecv(7, dst, room)
            assert nx.proc.peek(dst, size) == ping, "corrupt payload at rank 1"
            yield from nx.csend(8, src, nbytes, to=0)
            outcome["rank1"] = "ok"
        except VmmcTimeoutError:
            outcome["rank1"] = "timeout"

    handles = nx_world(system, [rank0, rank1], variant=VARIANTS[variant])
    system.run_processes(handles, timeout=WATCHDOG_US)
    return outcome, system


def run_socket_exchange(seed, variant="AU-1copy", nbytes=1024, count=6,
                        horizon_us=3000.0, plan=None):
    """One socket echo (client sends, server echoes back) under faults:
    ``plan``, or else the seed's plan."""
    if plan is None:
        plan = FaultPlan.from_seed(seed, horizon_us=horizon_us, count=count)
    system = make_system(fault_plan=plan)
    data = payload_for(seed, nbytes)
    outcome = {}
    room = max(nbytes, PAGE)

    def server(proc):
        lib = SocketLib(system, proc, variant=SOCKET_VARIANTS[variant])
        sock = yield from lib.listen(7).accept()
        buf = proc.space.mmap(room)
        try:
            got = yield from sock.recv_exactly(buf, nbytes)
            yield from sock.send(buf, got)
            outcome["server"] = "ok"
        except VmmcTimeoutError:
            outcome["server"] = "timeout"

    def client(proc):
        lib = SocketLib(system, proc, variant=SOCKET_VARIANTS[variant])
        sock = yield from lib.connect(1, 7)
        buf = proc.space.mmap(room)
        proc.poke(buf, data)
        try:
            yield from sock.send(buf, nbytes)
            echo = proc.space.mmap(room)
            got = yield from sock.recv_exactly(echo, nbytes)
            assert proc.peek(echo, got) == data, "corrupt payload at client"
            outcome["client"] = "ok"
        except VmmcTimeoutError:
            outcome["client"] = "timeout"

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c], timeout=WATCHDOG_US)
    return outcome, system


def run_vrpc_exchange(seed, automatic=True, calls=3, count=6,
                      horizon_us=4000.0):
    """A few VRPC string-reversal calls under faults."""
    plan = FaultPlan.from_seed(seed, horizon_us=horizon_us, count=count)
    system = make_system(fault_plan=plan)
    outcome = {}

    def server(proc):
        srv = VrpcServer(system, proc, VRPC_PROG, VRPC_VERS,
                         automatic=automatic)
        srv.register(
            1,
            lambda s: s[::-1],
            decode_args=lambda dec: dec.unpack_string(),
            encode_result=lambda enc, v: enc.pack_string(v),
        )
        ok = yield from srv.accept_binding()
        assert ok
        try:
            yield from srv.svc_run(max_calls=calls)
            outcome["server"] = "ok"
        except RpcTimeout:
            outcome["server"] = "timeout"

    def client(proc):
        handle = yield from clnt_create(system, proc, 1, VRPC_PROG, VRPC_VERS,
                                        automatic=automatic)
        try:
            for i in range(calls):
                msg = "call-%d-%s" % (i, payload_for(seed, 12).hex())
                result = yield from handle.call(
                    1, msg,
                    encode_args=lambda enc, v: enc.pack_string(v),
                    decode_result=lambda dec: dec.unpack_string(),
                )
                assert result == msg[::-1], "corrupt reply at client"
            outcome["client"] = "ok"
        except RpcTimeout:
            outcome["client"] = "timeout"

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c], timeout=WATCHDOG_US)
    return outcome, system


def _plan(seed, horizon_us, count):
    """A seeded plan, or None (fault-free) when ``seed`` is None."""
    if seed is None:
        return None
    return FaultPlan.from_seed(seed, horizon_us=horizon_us, count=count)


def run_vrpc_multiclient(seed=None, automatic=True, clients=3, calls=5,
                         count=8, horizon_us=4000.0, gap_us=17.0):
    """``clients`` VRPC clients calling one ``svc_run`` server.

    The server (node 1) binds every client before serving, so each
    wait multiplexes all the transports.  Client ``k`` sits on its own
    node and computes ``gap_us * node`` between calls, staggering the
    arrivals.  ``seed=None`` runs fault-free.
    """
    system = make_system(fault_plan=_plan(seed, horizon_us, count))
    nodes = [n for n in range(clients + 1) if n != 1]
    outcome = {}

    def server(proc):
        srv = VrpcServer(system, proc, VRPC_PROG, VRPC_VERS,
                         automatic=automatic)
        srv.register(
            1,
            lambda s: s[::-1],
            decode_args=lambda dec: dec.unpack_string(),
            encode_result=lambda enc, v: enc.pack_string(v),
        )
        for _ in nodes:
            ok = yield from srv.accept_binding()
            assert ok
        try:
            yield from srv.svc_run(max_calls=clients * calls)
            outcome["server"] = "ok"
        except RpcTimeout:
            outcome["server"] = "timeout"

    def client(node):
        def body(proc):
            handle = yield from clnt_create(system, proc, 1, VRPC_PROG,
                                            VRPC_VERS, automatic=automatic)
            try:
                for i in range(calls):
                    msg = "n%d-call-%d-%s" % (
                        node, i, payload_for((seed or 0) + node, 8).hex())
                    result = yield from handle.call(
                        1, msg,
                        encode_args=lambda enc, v: enc.pack_string(v),
                        decode_result=lambda dec: dec.unpack_string(),
                    )
                    assert result == msg[::-1], \
                        "reply for another call at node %d" % node
                    yield from proc.compute(gap_us * node)
                outcome["client%d" % node] = "ok"
            except RpcTimeout:
                outcome["client%d" % node] = "timeout"

        return body

    handles = [system.spawn(1, server)]
    handles += [system.spawn(n, client(n), name="vrpc-client-%d" % n)
                for n in nodes]
    system.run_processes(handles, timeout=WATCHDOG_US)
    return outcome, system


def run_nx_ring(seed=None, variant="AU-1copy", ranks=4, rounds=3,
                nbytes=256, count=8, horizon_us=4000.0):
    """An NX ring: each rank sends to the next and receives from any
    source, for ``rounds`` rounds.

    Even ranks send first and odd ranks receive first, so two messages
    travel at once without the ring deadlocking on hardened
    (synchronous) sends.  Every blocking receive sleeps on all the
    rank's connections.  ``seed=None`` runs fault-free.
    """
    system = make_system(fault_plan=_plan(seed, horizon_us, count))
    room = max(nbytes, PAGE)
    outcome = {}

    def message(rank, rnd):
        return payload_for((seed or 0) + 10 * rank + rnd, nbytes)

    def program(rank):
        def body(nx):
            src = nx.proc.space.mmap(room)
            dst = nx.proc.space.mmap(room)
            prev, nxt = (rank - 1) % ranks, (rank + 1) % ranks
            try:
                # Start together: connection setup staggers the ranks by
                # milliseconds, which would leave early ones idle.
                yield from nx.gsync()
                for rnd in range(rounds):
                    nx.proc.poke(src, message(rank, rnd))
                    if rank % 2 == 0:
                        yield from nx.csend(rnd, src, nbytes, to=nxt)
                    size = yield from nx.crecv(ANY_TYPE, dst, room)
                    assert (nx.infonode(), nx.infotype()) == (prev, rnd), \
                        "out-of-order message at rank %d" % rank
                    assert nx.proc.peek(dst, size) == message(prev, rnd), \
                        "corrupt payload at rank %d" % rank
                    if rank % 2 == 1:
                        yield from nx.csend(rnd, src, nbytes, to=nxt)
                outcome["rank%d" % rank] = "ok"
            except VmmcTimeoutError:
                outcome["rank%d" % rank] = "timeout"

        return body

    handles = nx_world(system, [program(r) for r in range(ranks)],
                       variant=VARIANTS[variant])
    system.run_processes(handles, timeout=WATCHDOG_US)
    return outcome, system


def run_srpc_pipelined_exchange(seed, window=4, count=6, horizon_us=3000.0):
    """Eight pipelined SHRIMP RPC calls finished out of order, under
    faults.

    The client keeps ``window`` sequence-numbered calls in flight and
    finishes each batch newest-first, so reply matching (and, in
    hardened mode, per-frame retransmission and reply replay) is
    exercised against the fault schedule.  Every finished call's value
    is checked against the expected function of its arguments — a
    reply matched to the wrong ticket shows up as corruption, not luck.
    """
    plan = FaultPlan.from_seed(seed, horizon_us=horizon_us, count=count)
    system = make_system(fault_plan=plan)
    client_cls, server_cls, _idl = compile_stubs(CALC_IDL)
    outcome = {}

    def server(proc):
        srv = server_cls(system, proc, _CalcImpl(), window=window)
        yield from srv.serve_binding(port=5)
        try:
            yield from srv.run(max_calls=8)
            outcome["server"] = "ok"
        except SrpcTimeoutError:
            outcome["server"] = "timeout"

    def client(proc):
        cl = client_cls(system, proc, window=window)
        yield from cl.bind(1, port=5)
        try:
            for base in (0, 4):
                tickets = []
                for i in range(base, base + 4):
                    t = yield from cl.add_begin(i, seed)
                    tickets.append((i, t))
                for i, t in reversed(tickets):
                    r = yield from cl.finish(t)
                    assert r == i + seed, \
                        "reply matched to wrong ticket (%d != %d)" \
                        % (r, i + seed)
            outcome["client"] = "ok"
        except SrpcTimeoutError:
            outcome["client"] = "timeout"

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c], timeout=WATCHDOG_US)
    return outcome, system


class _CalcImpl:
    """Server-side implementation exercising IN, INOUT, and OUT slots."""

    def add(self, a, b):
        return a + b
        yield  # pragma: no cover

    def touch(self, buf):
        data = yield from buf.get()
        if data.startswith(b"flip"):
            yield from buf.set(data[::-1])

    def greet(self, name):
        return "hello, %s!" % name
        yield  # pragma: no cover

    def fill(self, pattern, seed):
        yield from pattern.set(bytes((seed + i) % 256 for i in range(8)))


def run_srpc_exchange(seed, count=6, horizon_us=3000.0):
    """Four SHRIMP RPC calls (IN/INOUT/string/OUT) under faults."""
    plan = FaultPlan.from_seed(seed, horizon_us=horizon_us, count=count)
    system = make_system(fault_plan=plan)
    client_cls, server_cls, _idl = compile_stubs(CALC_IDL)
    outcome = {}

    def server(proc):
        srv = server_cls(system, proc, _CalcImpl())
        yield from srv.serve_binding(port=5)
        try:
            yield from srv.run(max_calls=4)
            outcome["server"] = "ok"
        except SrpcTimeoutError:
            outcome["server"] = "timeout"

    def client(proc):
        cl = client_cls(system, proc)
        yield from cl.bind(1, port=5)
        try:
            r = yield from cl.add(20, 22)
            assert r == 42, "corrupt int result"
            blob = b"flip" + payload_for(seed, 96)
            r = yield from cl.touch(blob)
            assert r == blob[::-1], "corrupt INOUT result"
            r = yield from cl.greet("shrimp-%d" % seed)
            assert r == "hello, shrimp-%d!" % seed, "corrupt string result"
            r = yield from cl.fill(seed)
            assert r == bytes((seed + i) % 256 for i in range(8)), \
                "corrupt OUT result"
            outcome["client"] = "ok"
        except SrpcTimeoutError:
            outcome["client"] = "timeout"

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c], timeout=WATCHDOG_US)
    return outcome, system
