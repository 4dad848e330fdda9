"""Property tests: the mesh delivers everything, in per-pair order.

'The backplane... preserves the order of messages from each sender to
each receiver' — the property every library's flag-after-data protocol
depends on.  Checked over random traffic on the 2x2 and 4x4 meshes.
"""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.hardware import MachineConfig
from repro.hardware.router import MeshBackplane, Packet, PacketKind
from repro.sim import Simulator


def run_traffic(n_nodes, mesh_w, mesh_h, traffic):
    """traffic: list of (src, dst, size, delay_us). Returns arrivals
    per destination in arrival order as (src, seq)."""
    sim = Simulator()
    config = MachineConfig(n_nodes=n_nodes, mesh_width=mesh_w, mesh_height=mesh_h)
    mesh = MeshBackplane(sim, config)
    arrivals = defaultdict(list)
    for node in range(n_nodes):
        mesh.attach(node, lambda p, node=node: arrivals[node].append((p.src_node, p.seq)))
    injected = []
    for number, (src, dst, size, delay) in enumerate(traffic, 1):
        packet = Packet(src_node=src, dst_node=dst, dst_paddr=0x10000,
                        payload=bytes(size), kind=PacketKind.DELIBERATE_UPDATE,
                        seq=number)
        injected.append(packet)
        sim.schedule_call(delay, mesh.inject, packet)
    sim.run()
    return arrivals, injected


traffic_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),    # src
        st.integers(min_value=0, max_value=3),    # dst
        st.integers(min_value=1, max_value=1024), # size
        st.floats(min_value=0.0, max_value=50.0), # injection delay
    ),
    min_size=1,
    max_size=40,
)


@given(traffic_strategy)
@settings(max_examples=60, deadline=None)
def test_every_packet_delivered_exactly_once(traffic):
    arrivals, injected = run_traffic(4, 2, 2, traffic)
    delivered = [seq for node in arrivals.values() for _src, seq in node]
    assert sorted(delivered) == sorted(p.seq for p in injected)


@given(traffic_strategy)
@settings(max_examples=60, deadline=None)
def test_per_pair_order_preserved(traffic):
    # Injection order per (src, dst) is the scheduled-time order with
    # stable tie-breaks; force distinct delays to make it unambiguous.
    traffic = [
        (src, dst, size, index * 0.25)
        for index, (src, dst, size, _delay) in enumerate(traffic)
    ]
    arrivals, injected = run_traffic(4, 2, 2, traffic)
    sent_order = defaultdict(list)
    for packet, (_s, _d, _z, _t) in zip(injected, traffic):
        sent_order[(packet.src_node, packet.dst_node)].append(packet.seq)
    for node, got in arrivals.items():
        per_src = defaultdict(list)
        for src, seq in got:
            per_src[src].append(seq)
        for src, seqs in per_src.items():
            assert seqs == sent_order[(src, node)]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=512),
            st.floats(min_value=0.0, max_value=30.0),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=30, deadline=None)
def test_sixteen_node_mesh_delivers_everything(traffic):
    arrivals, injected = run_traffic(16, 4, 4, traffic)
    delivered = [seq for node in arrivals.values() for _src, seq in node]
    assert sorted(delivered) == sorted(p.seq for p in injected)
