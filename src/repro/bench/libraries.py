"""Measurement drivers for the four communication libraries.

Each function boots a fresh prototype system, runs the paper's
methodology (ping-pong round trips, or a one-way pump), and returns the
averaged latency in microseconds: one-way for the message-passing
drivers, the round trip for the RPC ones (the paper plots RPC round
trips).  These are the building blocks the figure harnesses
(:mod:`repro.bench.figures`) sweep.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hardware.config import MachineConfig
from ..libs.nx import NXVariant, VARIANTS as NX_VARIANTS, nx_world
from ..libs.rpc import VrpcServer, clnt_create
from ..libs.rpc.xdr import XdrDecoder, XdrEncoder
from ..libs.shrimp_rpc import compile_stubs
from ..libs.sockets import SOCKET_VARIANTS, SocketLib
from ..testbed import make_system

__all__ = [
    "nx_pingpong",
    "socket_pingpong",
    "socket_oneway",
    "vrpc_pingpong",
    "srpc_inout_rtt",
]

PAGE = 4096
_FIG8_IDL = "program Fig8 version 1 {\nvoid touch(inout opaque<1000> buf);\n}"


def nx_pingpong(variant_name: str, size: int, iterations: int = 10,
                warmup: int = 2, config: Optional[MachineConfig] = None,
                **world_kwargs) -> float:
    """NX csend/crecv ping-pong (Figure 4); returns one-way latency."""
    system = make_system(config)
    timing: Dict[str, float] = {}
    buf_pages = max(4, -(-size // PAGE) + 1)

    def make(initiator: bool):
        def program(nx):
            src = nx.proc.space.mmap(buf_pages * PAGE)
            dst = nx.proc.space.mmap(buf_pages * PAGE)
            nx.proc.poke(src, bytes((i * 17) % 256 for i in range(size)))
            peer = 1 if initiator else 0
            for i in range(warmup + iterations):
                if i == warmup and initiator:
                    timing["start"] = nx.proc.sim.now
                if initiator:
                    yield from nx.csend(1, src, size, to=peer)
                    yield from nx.crecv(1, dst, buf_pages * PAGE)
                else:
                    yield from nx.crecv(1, dst, buf_pages * PAGE)
                    yield from nx.csend(1, src, size, to=peer)
            if initiator:
                timing["end"] = nx.proc.sim.now

        return program

    handles = nx_world(system, [make(True), make(False)],
                       variant=NX_VARIANTS[variant_name], **world_kwargs)
    system.run_processes(handles)
    return (timing["end"] - timing["start"]) / (2 * iterations)


def socket_pingpong(variant_name: str, size: int, iterations: int = 10,
                    warmup: int = 2, ring_bytes: int = 8192,
                    config: Optional[MachineConfig] = None) -> float:
    """Socket send/recv ping-pong (Figure 7); returns one-way latency."""
    system = make_system(config)
    timing: Dict[str, float] = {}
    variant = SOCKET_VARIANTS[variant_name]

    def server(proc):
        lib = SocketLib(system, proc, variant=variant, ring_bytes=ring_bytes)
        sock = yield from lib.listen(5).accept()
        buf = proc.space.mmap(max(size, PAGE))
        for _ in range(warmup + iterations):
            yield from sock.recv_exactly(buf, size)
            yield from sock.send(buf, size)

    def client(proc):
        lib = SocketLib(system, proc, variant=variant, ring_bytes=ring_bytes)
        sock = yield from lib.connect(1, 5)
        src = proc.space.mmap(max(size, PAGE))
        dst = proc.space.mmap(max(size, PAGE))
        proc.poke(src, bytes((i * 7) % 256 for i in range(size)))
        for i in range(warmup + iterations):
            if i == warmup:
                timing["start"] = proc.sim.now
            yield from sock.send(src, size)
            yield from sock.recv_exactly(dst, size)
        timing["end"] = proc.sim.now

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return (timing["end"] - timing["start"]) / (2 * iterations)


def socket_oneway(variant_name: str, size: int, count: int = 40,
                  ring_bytes: int = 8192, per_write_overhead: float = 0.0,
                  config: Optional[MachineConfig] = None) -> float:
    """One-way socket pump (the ttcp methodology); returns MB/s.

    ``per_write_overhead`` models benchmark-side bookkeeping per write
    call (ttcp's buffer management), which is what separates ttcp from
    the bare microbenchmark in the paper (``PAPER_TABLE``).
    """
    system = make_system(config)
    timing: Dict[str, float] = {}
    variant = SOCKET_VARIANTS[variant_name]

    def sink(proc):
        lib = SocketLib(system, proc, variant=variant, ring_bytes=ring_bytes)
        sock = yield from lib.listen(5).accept()
        buf = proc.space.mmap(max(size, PAGE))
        total = 0
        while True:
            got = yield from sock.recv(buf, max(size, PAGE))
            if got == 0:
                break
            total += got
        timing["end"] = proc.sim.now
        return total

    def pump(proc):
        lib = SocketLib(system, proc, variant=variant, ring_bytes=ring_bytes)
        sock = yield from lib.connect(1, 5)
        src = proc.space.mmap(max(size, PAGE))
        timing["start"] = proc.sim.now
        for _ in range(count):
            if per_write_overhead:
                yield from proc.compute(per_write_overhead)
            yield from sock.send(src, size)
        yield from sock.close()

    s = system.spawn(1, sink)
    c = system.spawn(0, pump)
    system.run_processes([s, c])
    return size * count / (timing["end"] - timing["start"])


_VRPC_PROG, _VRPC_VERS = 0x20000F16, 1


def vrpc_pingpong(size: int, automatic: bool = True, iterations: int = 8,
                  warmup: int = 2, config: Optional[MachineConfig] = None) -> float:
    """VRPC call with ``size``-byte argument and result (Figure 5);
    returns *round-trip* latency (the paper plots RPC round trips)."""
    system = make_system(config)
    timing: Dict[str, float] = {}
    payload = bytes((i * 11) % 256 for i in range(size))

    encode = lambda enc, v: enc.pack_opaque(v)
    decode = lambda dec: dec.unpack_opaque()

    def server(proc):
        srv = VrpcServer(system, proc, _VRPC_PROG, _VRPC_VERS, automatic=automatic)
        srv.register(1, lambda data: data, decode_args=decode, encode_result=encode)
        yield from srv.accept_binding()
        yield from srv.svc_run(max_calls=warmup + iterations)

    def client(proc):
        handle = yield from clnt_create(system, proc, 1, _VRPC_PROG, _VRPC_VERS,
                                        automatic=automatic)
        for i in range(warmup + iterations):
            if i == warmup:
                timing["start"] = proc.sim.now
            result = yield from handle.call(1, payload, encode, decode)
            assert result == payload
        timing["end"] = proc.sim.now

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return (timing["end"] - timing["start"]) / iterations


def srpc_inout_rtt(size: int, iterations: int = 8, warmup: int = 2,
                   config: Optional[MachineConfig] = None) -> float:
    """Specialized SHRIMP RPC: null call with one INOUT argument of
    ``size`` bytes (Figure 8); returns round-trip latency."""
    if size > 1000:
        raise ValueError("Figure 8 sweeps 0..1000 bytes")
    system = make_system(config)
    client_cls, server_cls, _ = compile_stubs(_FIG8_IDL)
    timing: Dict[str, float] = {}

    class NullImpl:
        def touch(self, buf):
            return None
            yield  # pragma: no cover

    def server(proc):
        srv = server_cls(system, proc, NullImpl())
        yield from srv.serve_binding(port=8)
        yield from srv.run(max_calls=warmup + iterations)

    def client(proc):
        handle = client_cls(system, proc)
        yield from handle.bind(1, port=8)
        payload = bytes(size)
        for i in range(warmup + iterations):
            if i == warmup:
                timing["start"] = proc.sim.now
            yield from handle.touch(payload)
        timing["end"] = proc.sim.now

    s = system.spawn(1, server)
    c = system.spawn(0, client)
    system.run_processes([s, c])
    return (timing["end"] - timing["start"]) / iterations
