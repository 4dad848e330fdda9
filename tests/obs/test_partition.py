"""The slice partition every traced budget is built from, on synthetic
spans: :func:`repro.obs.assemble.partition` gives each instant of an
interval to exactly one span, by the stage rules ``explain`` and
``repro trace`` share."""

from repro.obs.assemble import STAGE_ORDER, partition
from repro.sim.trace import Span


def span(sid, category, track, start, end):
    return Span(sid, None, category, category, track, start, end)


def flat(span):
    return 0


def owners(segments):
    return [(seg.start, seg.end, seg.stage,
             seg.owner.sid if seg.owner is not None else None, seg.sid)
            for seg in segments]


def test_each_instant_is_owned_once_and_stages_sum_to_the_interval():
    members = [span(1, "kv.client", "n0.kv.client0", 0.0, 10.0),
               span(2, "srpc.call", "n0.cpu.p1", 0.5, 9.5),
               span(3, "cpu.store", "n0.cpu.p1", 1.0, 1.75),
               span(4, "srpc.serve", "n1.cpu.p1", 4.0, 6.0),
               span(5, "cpu.poll", "n0.cpu.p1", 8.0, 9.5)]
    hardware = [span(6, "nic.packetize", "n0.nic.pktz", 1.5, 2.5),
                span(7, "mesh.transit", "mesh.backplane", 2.5, 3.0),
                span(8, "nic.dma_in", "n1.nic.in", 3.0, 4.25),
                span(9, "bus", "n1.bus.eisa", 4.0, 4.25),
                span(10, "nic.dma_in", "n0.nic.in", 7.0, 8.5)]
    depths = {1: 0, 2: 1, 3: 2, 4: 2, 5: 2}
    segments, totals = partition(-1.0, 10.0, members, hardware,
                                 lambda s: depths[s.sid])
    assert segments[0].start == -1.0 and segments[-1].end == 10.0
    for prev, nxt in zip(segments, segments[1:]):
        assert prev.end == nxt.start
    assert sorted(totals) == sorted(STAGE_ORDER)
    assert sum(totals.values()) == 11.0
    for stage in STAGE_ORDER:
        assert totals[stage] == sum(seg.duration_us for seg in segments
                                    if seg.stage == stage)


def test_a_cpu_member_beats_an_active_nic_span():
    segments, totals = partition(
        0.0, 4.0, [span(1, "cpu.store", "n0.cpu.p1", 1.0, 3.0)],
        [span(2, "nic.packetize", "n0.nic.pktz", 0.0, 4.0)], flat)
    assert owners(segments) == [(0.0, 1.0, "nic", 2, None),
                                (1.0, 3.0, "vmmc", 1, 1),
                                (3.0, 4.0, "nic", 2, None)]
    assert totals["vmmc"] == 2.0 and totals["nic"] == 2.0


def test_mesh_beats_nic_beats_bus():
    hardware = [span(1, "bus", "n0.bus.eisa", 0.0, 6.0),
                span(2, "nic.dma_in", "n0.nic.in", 1.0, 5.0),
                span(3, "mesh.transit", "mesh.backplane", 2.0, 4.0)]
    segments, _ = partition(0.0, 6.0, [], hardware, flat)
    assert owners(segments) == [(0.0, 1.0, "bus", 1, None),
                                (1.0, 2.0, "nic", 2, None),
                                (2.0, 4.0, "mesh", 3, None),
                                (4.0, 5.0, "nic", 2, None),
                                (5.0, 6.0, "bus", 1, None)]


def test_an_uncovered_slice_queues_and_a_serve_side_member_is_library():
    members = [span(1, "srpc.serve", "n1.cpu.p1", 1.0, 2.0),
               span(2, "srpc.call", "n0.cpu.p1", 3.0, 4.0)]
    segments, totals = partition(0.0, 4.0, members, [], flat)
    assert owners(segments) == [(0.0, 1.0, "queueing", None, None),
                                (1.0, 2.0, "library", 1, 1),
                                (2.0, 3.0, "queueing", None, None),
                                (3.0, 4.0, "queueing", 2, 2)]
    assert segments[0].category == "(gap)"
    assert totals["queueing"] == 3.0 and totals["library"] == 1.0


def test_a_hardware_slice_names_its_span_and_keeps_the_members_sid():
    call = span(1, "srpc.call", "n0.cpu.p1", 0.0, 3.0)
    inject = span(2, "nic.inject", "n0.nic.inject", 1.0, 2.0)
    segments, _ = partition(0.0, 3.0, [call], [inject], flat)
    hw = segments[1]
    assert (hw.start, hw.end, hw.stage) == (1.0, 2.0, "nic")
    assert hw.owner is inject
    assert hw.category == "nic.inject"
    assert hw.sid == call.sid


def test_an_empty_interval_has_no_segments():
    segments, totals = partition(
        5.0, 5.0, [span(1, "cpu.store", "n0.cpu.p1", 4.0, 6.0)], [], flat)
    assert segments == []
    assert totals == {stage: 0.0 for stage in STAGE_ORDER}


def test_back_to_back_spans_of_one_stage_stay_two_segments():
    packetize = span(1, "nic.packetize", "n0.nic.pktz", 0.0, 1.0)
    inject = span(2, "nic.inject", "n0.nic.inject", 1.0, 2.0)
    segments, _ = partition(0.0, 2.0, [], [packetize, inject], flat)
    assert [seg.owner for seg in segments] == [packetize, inject]
