"""Record & replay fidelity: a frozen stream reproduces its source run.

The contract (docs/WORKLOADS.md, "Record & replay"): recording is a
pure re-derivation of the engine's sampler draws, saving round-trips
floats exactly, and replaying the artifact produces a byte-identical
report — so any report difference between two replays of one stream is
attributable to the serving config alone.
"""

import dataclasses

from repro.workload import (
    RecordedStream,
    WorkloadSpec,
    diurnal,
    flash_crowd,
    load_stream,
    record_stream,
    run_workload,
    save_stream,
    skew_shift,
)

import pytest


def test_open_replay_report_byte_identical(tmp_path):
    """Live sampling vs recorded replay: same report, byte for byte."""
    spec = WorkloadSpec(seed=9, arrival="open", load=25000.0,
                        concurrency=4, requests=80, keys=60)
    live = run_workload(spec).report()
    path = str(tmp_path / "stream.json")
    save_stream(record_stream(spec), path)
    replayed = run_workload(spec, stream=load_stream(path)).report()
    assert replayed == live


def test_closed_replay_report_byte_identical(tmp_path):
    """The closed loop replays per-worker sequences byte-identically."""
    spec = WorkloadSpec(seed=5, arrival="closed", concurrency=3,
                        requests=45, keys=40)
    live = run_workload(spec).report()
    path = str(tmp_path / "stream.json")
    save_stream(record_stream(spec), path)
    replayed = run_workload(spec, stream=load_stream(path)).report()
    assert replayed == live


def test_stream_round_trips_exactly(tmp_path):
    """save/load preserves every gap float and request tuple."""
    stream = record_stream(WorkloadSpec(seed=2, requests=120))
    path = str(tmp_path / "s.json")
    save_stream(stream, path)
    loaded = load_stream(path)
    assert loaded.arrival == stream.arrival
    assert loaded.requests == stream.requests
    assert loaded.meta == stream.meta


def test_replay_is_exactly_paired_across_configs(tmp_path):
    """An A/B replay offers bit-identical traffic to both sides.

    Replaying one stream against two transports must dispatch the same
    request multiset (the service op counters agree); only timing-side
    metrics may differ.
    """
    spec = WorkloadSpec(seed=7, arrival="open", load=20000.0,
                        concurrency=4, requests=60, keys=50)
    stream = record_stream(spec)
    report_a = run_workload(spec, stream=stream)
    report_b = run_workload(
        dataclasses.replace(spec, onesided_reads=True), stream=stream)
    total = report_a.completed + report_a.errors
    assert total == report_b.completed + report_b.errors == 60


def test_stream_spec_mismatches_are_rejected():
    """Arrival-shape and size mismatches fail loudly, not silently."""
    spec = WorkloadSpec(seed=1, requests=30, concurrency=2)
    stream = record_stream(spec)
    with pytest.raises(ValueError):
        run_workload(dataclasses.replace(spec, requests=31), stream=stream)
    with pytest.raises(ValueError):
        run_workload(dataclasses.replace(spec, arrival="closed",
                                         requests=30), stream=stream)
    closed = record_stream(dataclasses.replace(spec, arrival="closed"))
    with pytest.raises(ValueError):
        run_workload(dataclasses.replace(spec, arrival="closed",
                                         concurrency=3), stream=closed)


def test_bad_schema_rejected(tmp_path):
    """A wrong schema tag is an error, not a silent misparse."""
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "something/else", "arrival": "open"}')
    with pytest.raises(ValueError):
        load_stream(str(path))


def test_flash_crowd_compresses_only_the_window():
    """Gaps inside the surge window shrink by the factor; others don't."""
    spec = WorkloadSpec(seed=3, requests=200, load=10000.0)
    base = record_stream(spec)
    crowd = flash_crowd(base, start_us=3000.0, duration_us=4000.0,
                        factor=4.0)
    at = 0.0
    changed = unchanged = 0
    for (g0, *r0), (g1, *r1) in zip(base.requests, crowd.requests):
        at += g0
        assert r0 == r1  # ops/keys/sizes untouched
        if 3000.0 <= at < 7000.0:
            assert g1 == g0 / 4.0
            changed += 1
        else:
            assert g1 == g0
            unchanged += 1
    assert changed > 0 and unchanged > 0
    assert crowd.meta["scenarios"][0]["kind"] == "flash_crowd"


def test_diurnal_modulates_gaps_and_preserves_requests():
    """The sinusoid reshapes gaps only, and stays within (1±A) bounds."""
    base = record_stream(WorkloadSpec(seed=3, requests=150, load=10000.0))
    shaped = diurnal(base, period_us=5000.0, amplitude=0.5)
    for (g0, *r0), (g1, *r1) in zip(base.requests, shaped.requests):
        assert r0 == r1
        assert g0 / 1.5 <= g1 <= g0 / 0.5
    assert any(g1 != g0 for (g0, *_), (g1, *_)
               in zip(base.requests, shaped.requests))


def test_skew_shift_rekeys_only_past_the_cut():
    """Keys after the cut come from the new distribution; gaps/ops hold."""
    base = record_stream(WorkloadSpec(seed=3, requests=200, keys=100))
    shifted = skew_shift(base, at_request=100, key_distribution="uniform")
    for index, ((g0, op0, k0, s0, l0), (g1, op1, k1, s1, l1)) in enumerate(
            zip(base.requests, shifted.requests)):
        assert (g1, op1, s1, l1) == (g0, op0, s0, l0)
        if index < 100:
            assert k1 == k0
    tail_changed = sum(
        1 for (_, op, k0, _, _), (_, _, k1, _, _)
        in zip(base.requests[100:], shifted.requests[100:])
        if op in ("get", "put") and k1 != k0)
    assert tail_changed > 0


def test_scenarios_reject_closed_streams():
    """Gap-shaping transforms need arrival gaps to shape."""
    closed = record_stream(WorkloadSpec(seed=1, arrival="closed",
                                        requests=20, concurrency=2))
    with pytest.raises(ValueError):
        flash_crowd(closed, 0.0, 100.0, 2.0)
    with pytest.raises(ValueError):
        diurnal(closed, 100.0, 0.5)
    with pytest.raises(ValueError):
        skew_shift(closed, 10)


def test_shaped_replay_runs_end_to_end():
    """A flash-crowd stream drives a full run (surge shows in the tail)."""
    spec = WorkloadSpec(seed=11, requests=150, load=20000.0, concurrency=4)
    base = record_stream(spec)
    crowd = flash_crowd(base, start_us=1000.0, duration_us=3000.0,
                        factor=6.0)
    calm = run_workload(spec, stream=base)
    surged = run_workload(spec, stream=crowd)
    assert surged.completed + surged.errors == 150
    # The surge packs the same requests into less time overall.
    assert surged.duration_us < calm.duration_us


def test_stream_len_counts_both_shapes():
    """__len__ covers open entries and closed per-worker sequences."""
    assert len(record_stream(WorkloadSpec(seed=1, requests=33))) == 33
    assert len(record_stream(WorkloadSpec(
        seed=1, arrival="closed", requests=33, concurrency=4))) == 33
    assert len(RecordedStream("open")) == 0
