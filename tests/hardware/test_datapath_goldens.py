"""Exactness goldens for the NIC datapath paths the report goldens miss.

``tests/workload/test_zero_regression.py`` pins two SRPC reports.  These
pin what those runs never reach: the deliberate-update engine under
sockets traffic (the KV service's sockets run AU-2copy, which makes no
deliberate update, so the two sockets runs here use DU-1copy), the one-sided remote-read serve path (DMA and shadow,
single-packet and chunked, denied and malformed),
a seeded fault plan's stalls, aborts and bus degradation, and FIFO and
incoming-queue backpressure.  Each golden holds the report text (where
there is one), the final simulated time, and every registered
contention counter and NIC counter, floats written with ``repr`` so a
one-ulp drift shows.

Regenerate only for an intended timing change, and say so in the
commit::

    PYTHONPATH=src python tests/hardware/test_datapath_goldens.py
"""

import pathlib
from contextlib import contextmanager

from repro import testbed
from repro.apps.kv import KVService
from repro.hardware import CacheMode, Machine, MachineConfig
from repro.hardware.nic import OPTEntry
from repro.hardware.router.packet import encode_read_request
from repro.libs.sockets import SOCKET_VARIANTS
from repro.sim import spawn
from repro.sim.faults import FaultPlan, FaultSite
from repro.workload import WorkloadSpec, run_workload

GOLDENS = pathlib.Path(__file__).parent / "goldens"
PAGE = 4096

SOCKETS_SPEC = WorkloadSpec(
    seed=7, transport="sockets", arrival="closed", concurrency=8,
    requests=60, keys=40, read_fraction=0.45, scan_fraction=0.1,
    scan_limit=8)

ONESIDED_SPEC = WorkloadSpec(
    seed=7, transport="srpc", arrival="open", load=200000.0,
    concurrency=8, requests=80, keys=40, read_fraction=0.95,
    onesided_reads=True)

# Seed 11 fires every NIC and bus fault kind on the sockets run: DU
# stall and abort, incoming-DMA stall, EISA degrade, mesh corrupt/delay.
FAULT_PLAN_ARGS = dict(seed=11, horizon_us=40000.0, count=12,
                       sites=[FaultSite.NIC_DU, FaultSite.NIC_DMA_IN,
                              FaultSite.BUS_EISA, FaultSite.MESH_LINK])


def _run(spec, plan=None):
    """``run_workload`` plus the system it booted, read back through
    the testbed's audit registry (installed by tests/conftest.py)."""
    created = testbed._audit_registry
    own = created is None
    if own:
        testbed._audit_registry = created = []
    try:
        report = run_workload(spec, fault_plan=plan)
    finally:
        if own:
            testbed._audit_registry = None
    return report, created[-1]


@contextmanager
def _du_sockets():
    """Run the KV service's sockets on DU-1copy, so the run drives the
    deliberate-update engine and the fault plan's ``nic.du`` faults
    find a transfer to stall or abort."""
    saved = KVService.socket_variant
    KVService.socket_variant = SOCKET_VARIANTS["DU-1copy"]
    try:
        yield
    finally:
        KVService.socket_variant = saved


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def _machine_lines(machine):
    """Final time, every registered contention counter, NIC counters."""
    lines = ["final t=%r" % machine.sim.now]
    for snap in machine.metrics.snapshot():
        lines.append("metric " + " ".join(
            "%s=%s" % (key, _fmt(snap[key])) for key in sorted(snap)))
    for node in machine.nodes:
        nic = node.nic
        stats = dict(nic.stats(), du_stalls=nic.du_engine.stalls,
                     du_aborts=nic.du_engine.aborts,
                     dma_in_stalls=nic.incoming.stalls,
                     packets_discarded=nic.incoming.packets_discarded,
                     eisa_degrade_windows=node.eisa.degrade_windows)
        lines.append("nic n%d " % node.node_id + " ".join(
            "%s=%s" % (key, _fmt(stats[key])) for key in sorted(stats)))
    return lines


def render_sockets():
    with _du_sockets():
        report, system = _run(SOCKETS_SPEC)
    return "\n".join([report.report()] + _machine_lines(system.machine))


def render_onesided():
    report, system = _run(ONESIDED_SPEC)
    return "\n".join([report.report()] + _machine_lines(system.machine))


def render_fault_plan():
    plan = FaultPlan.from_seed(**FAULT_PLAN_ARGS)
    with _du_sockets():
        report, system = _run(SOCKETS_SPEC, plan)
    return "\n".join([report.report(), system.faults.report()]
                     + _machine_lines(system.machine))


def render_backpressure():
    """A 3-page deliberate update through a 2-packet outgoing FIFO into
    a 1-packet incoming queue, racing an uncombined automatic-update
    stream (one packet per word) into the same receiver and the
    receiver's own uncombined stream out: both FIFOs fill, the incoming
    queue overflows, and the arbiter is contended.  Every landing
    instant on both receivers, in order."""
    machine = Machine(MachineConfig(outgoing_fifo_packets=2,
                                    incoming_queue_packets=1))
    landings = []
    for node, first_page, npages in ((1, 50, 3), (1, 70, 1), (3, 80, 1)):
        for i in range(npages):
            machine.node(node).nic.ipt.enable(first_page + i)
        machine.node(node).memory.add_watch(
            first_page * PAGE, npages * PAGE,
            lambda paddr, n, node=node: landings.append(
                "land n%d %#x +%d at %r" % (node, paddr, n, machine.sim.now)))
    proxy = machine.node(0).nic.opt.allocate_proxy(
        [OPTEntry(dst_node=1, dst_page=50 + i) for i in range(3)])
    machine.node(2).nic.opt.bind_page(
        16, OPTEntry(dst_node=1, dst_page=70, combining=False))
    machine.node(1).nic.opt.bind_page(
        16, OPTEntry(dst_node=3, dst_page=80, combining=False))
    size = 3 * PAGE
    machine.node(0).poke(4 * PAGE, bytes((i * 7) % 256 for i in range(size)))

    def du_sender():
        yield machine.node(0).nic.initiate_deliberate_update(
            [(4 * PAGE, size)], proxy, 0, size)

    def au_sender(node_id):
        node = machine.node(node_id)
        for i in range(6):
            yield from node.cpu_write(16 * PAGE + 64 * i, bytes([i + 1]) * 64,
                                      CacheMode.WRITE_THROUGH)
        node.nic.packetizer.flush()

    spawn(machine.sim, du_sender())
    spawn(machine.sim, au_sender(2))
    spawn(machine.sim, au_sender(1))
    machine.run()
    return "\n".join(landings + _machine_lines(machine))


def render_remote_reads():
    """Node 0 fires one-sided READ_REQUESTs at node 1, back to back:
    single-packet and chunked replies served by DMA under an arbiter
    grant and from the on-card shadow, a request the IPT denies, and
    a corrupt descriptor, all while node 2 streams into node 1.  Every
    reply landing instant, in order."""
    machine = Machine()
    reader, target = machine.node(0), machine.node(1)
    landings = []
    for page in range(40, 44):
        reader.nic.ipt.enable(page)
    reader.memory.add_watch(40 * PAGE, 4 * PAGE, lambda paddr, n: landings.append(
        "land n0 %#x +%d at %r" % (paddr, n, machine.sim.now)))
    for page in (60, 61, 62, 63, 70):
        target.nic.ipt.enable(page)
    data = bytes((i * 13) % 256 for i in range(2 * PAGE))
    target.poke(60 * PAGE, data)
    target.poke(62 * PAGE, data)
    assert target.nic.shadow.register([62, 63])
    target.nic.shadow.write(62 * PAGE, data)
    machine.node(2).nic.opt.bind_page(16, OPTEntry(dst_node=1, dst_page=70))
    requests = [
        (60 * PAGE, 200, 40 * PAGE),          # DMA, header + data in one
        (60 * PAGE + 100, 3000, 41 * PAGE),   # DMA, chunked
        (62 * PAGE, 200, 42 * PAGE),          # shadow, one packet
        (62 * PAGE + 100, 3000, 43 * PAGE),   # shadow, chunked
        (90 * PAGE, 64, 40 * PAGE + 2048),    # IPT-denied: dropped
    ]

    def requester():
        for seq, (src, nbytes, reply) in enumerate(requests, 1):
            reader.nic.packetizer.request_emit(
                1, encode_read_request(seq, src, nbytes, reply))
            yield machine.sim.timeout(3.0)
        bad = bytearray(encode_read_request(9, 60 * PAGE, 64, 40 * PAGE))
        bad[-1] ^= 0xFF
        reader.nic.packetizer.request_emit(1, bytes(bad))

    def streamer():
        for i in range(8):
            yield from machine.node(2).cpu_write(
                16 * PAGE + 256 * i, bytes([i + 1]) * 256,
                CacheMode.WRITE_THROUGH)
        machine.node(2).nic.packetizer.flush()

    spawn(machine.sim, requester())
    spawn(machine.sim, streamer())
    machine.run()
    return "\n".join(landings + _machine_lines(machine))


RENDERERS = {
    "sockets_closed_seed7": render_sockets,
    "onesided_open_seed7": render_onesided,
    "faultplan_sockets_seed11": render_fault_plan,
    "backpressure_du_landings": render_backpressure,
    "remote_read_landings": render_remote_reads,
}


def _golden(name):
    return (GOLDENS / ("%s.txt" % name)).read_text()


def test_sockets_closed_loop_is_byte_identical():
    assert render_sockets() + "\n" == _golden("sockets_closed_seed7")


def test_onesided_open_loop_is_byte_identical():
    assert render_onesided() + "\n" == _golden("onesided_open_seed7")


def test_seeded_fault_plan_run_is_byte_identical():
    assert render_fault_plan() + "\n" == _golden("faultplan_sockets_seed11")


def test_backpressure_landing_times_are_byte_identical():
    assert render_backpressure() + "\n" == _golden("backpressure_du_landings")



def test_remote_read_serve_landing_times_are_byte_identical():
    assert render_remote_reads() + "\n" == _golden("remote_read_landings")


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name, render in RENDERERS.items():
        (GOLDENS / ("%s.txt" % name)).write_text(render() + "\n")
        print("wrote", GOLDENS / ("%s.txt" % name))
