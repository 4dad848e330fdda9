"""Direct unit tests of the NX connection layer (no nx_world)."""

import pytest

from repro.libs.nx import VARIANTS
from repro.libs.nx.connection import Connection, HEADER_BYTES, _pad4
from repro.testbed import Rendezvous, make_system
from repro.vmmc import attach

PAGE = 4096


def test_pad4():
    assert [_pad4(n) for n in (0, 1, 2, 3, 4, 5, 8)] == [0, 4, 4, 4, 4, 8, 8]


def test_slot_geometry():
    system = make_system()
    proc = system.kernels[0].create_process()
    ep = attach(system, proc)
    conn = Connection(proc, ep, peer_node=1, peer_rank=1,
                      variant=VARIANTS["AU-1copy"], slots=8, payload_bytes=2048)
    assert conn.slot_bytes == 2048 + HEADER_BYTES
    assert conn.slot_offset(0) == 0
    assert conn.slot_offset(3) == 3 * conn.slot_bytes
    assert conn.data_bytes % PAGE == 0
    assert conn.data_bytes >= 8 * conn.slot_bytes


def test_send_small_rejects_oversize():
    system = make_system()

    def driver(proc):
        ep = attach(system, proc)
        conn = Connection(proc, ep, peer_node=1, peer_rank=7,
                          variant=VARIANTS["AU-1copy"], slots=4,
                          payload_bytes=1024)
        # establish needs a peer: export only our half and skip the
        # peer exchange by pairing with ourselves via the rendezvous.
        rdv2 = Rendezvous(system)

        def fake_peer(peer_proc):
            peer_ep = attach(system, peer_proc)
            peer_conn = Connection(peer_proc, peer_ep, peer_node=0, peer_rank=0,
                                   variant=VARIANTS["AU-1copy"], slots=4,
                                   payload_bytes=1024)
            yield from peer_conn.establish(rdv2, 7)

        handle = system.spawn(1, fake_peer)
        yield from conn.establish(rdv2, 0)
        src = proc.space.mmap(2 * PAGE)
        with pytest.raises(ValueError):
            yield from conn.send_small(src, 2000, mtype=1)  # > 1024 payload
        return "rejected"

    d = system.spawn(0, driver)
    system.run_processes([d], timeout=1e6)
    assert d.value == "rejected"


def test_peek_payload_reads_slot():
    system = make_system()
    rdv = Rendezvous(system)
    out = {}

    def sender(proc):
        ep = attach(system, proc)
        conn = Connection(proc, ep, peer_node=1, peer_rank=1,
                          variant=VARIANTS["AU-1copy"], slots=4, payload_bytes=256)
        yield from conn.establish(rdv, 0)
        src = proc.space.mmap(PAGE)
        proc.poke(src, b"slot-payload")
        yield from conn.send_small(src, 12, mtype=5)

    def receiver(proc):
        ep = attach(system, proc)
        conn = Connection(proc, ep, peer_node=0, peer_rank=0,
                          variant=VARIANTS["AU-1copy"], slots=4, payload_bytes=256)
        yield from conn.establish(rdv, 1)
        while True:
            parsed = yield from conn.scan_descriptor()
            if parsed is not None:
                break
            yield proc.sim.timeout(10.0)
        slot, mtype, size, _seq = parsed
        out["peek"] = conn.peek_payload(slot, size)
        out["mtype"] = mtype

    s = system.spawn(0, sender)
    r = system.spawn(1, receiver)
    system.run_processes([s, r])
    assert out["peek"] == b"slot-payload"
    assert out["mtype"] == 5
