"""Fleet-wide profile folding: conservation, tagging, rendering.

The profiler's core contract (docs/OBSERVABILITY.md, "Profiles &
diffs"): per-request stage decompositions are an *exact* partition of
the recorded latency — the per-stage totals sum to the measured span
time with zero drift — and the folded stacks carry exactly the same
microseconds, so every rendering (table, flame, collapsed text) tells
one consistent story.
"""

import functools
import re

from repro.obs import (
    PROFILE_STAGES,
    build_profile,
    render_flame,
    render_folded,
    tag_root,
)
from repro.sim.trace import Span
from repro.workload import WorkloadSpec, run_workload


@functools.lru_cache(maxsize=None)
def traced_run(onesided=False, seed=7, load=20000.0):
    """One cached traced workload run per configuration."""
    spec = WorkloadSpec(
        seed=seed, transport="srpc", load=load, concurrency=4,
        requests=60, keys=48, read_fraction=0.7, trace=True,
        onesided_reads=onesided)
    return run_workload(spec)


@functools.lru_cache(maxsize=None)
def traced_profile(onesided=False, seed=7):
    report = traced_run(onesided=onesided, seed=seed)
    return build_profile(report.spans, metrics=report.metrics)


# ------------------------------------------------------------ real runs


def test_profile_covers_every_completed_request():
    report = traced_run()
    profile = traced_profile()
    assert len(profile.requests) == report.completed == 60
    assert profile.skipped_trees == 0
    assert profile.problems == []


def test_stage_totals_conserve_request_time_exactly():
    profile = traced_profile()
    # Exact, not approximate: explain slices partition each root
    # interval and dispatch wait is charged to queueing.
    assert profile.conservation_error == 0.0
    for req in profile.requests:
        attributed = sum(req.stages.values())
        assert abs(attributed - req.total_us) < 1e-6, req


def test_folded_stacks_carry_the_same_microseconds():
    profile = traced_profile()
    folded_total = sum(profile.folded.values())
    assert abs(folded_total - profile.total_us) < 1e-6


def test_profile_matches_the_reported_latency_histogram():
    """Profile means equal the engine's measured means on the plain
    path — the property the diff closure gate rests on."""
    report = traced_run()
    profile = traced_profile()
    assert abs(profile.mean_us() - report.overall.mean) < 1e-6
    total = sum(r.total_us for r in profile.requests)
    assert abs(total - report.overall.total) < 1e-3


def test_dispatch_wait_is_charged_to_queueing():
    # Past the knee (concurrency 4 at 120k ops/s) dispatch queues.
    report = traced_run(load=120000.0)
    profile = build_profile(report.spans, metrics=report.metrics)
    assert profile.conservation_error == 0.0
    waited = [r for r in profile.requests if r.dispatch_us > 0.0]
    assert waited, "open-loop bursts should queue at least one dispatch"
    for req in waited:
        assert req.stages["queueing"] >= req.dispatch_us
    assert abs(profile.mean_us() - report.overall.mean) < 1e-6


def test_profile_is_deterministic():
    report = traced_run()
    a = build_profile(report.spans, metrics=report.metrics)
    b = build_profile(report.spans, metrics=report.metrics)
    assert a.report() == b.report()
    assert render_folded(a) == render_folded(b)


def test_report_renders_all_sections():
    profile = traced_profile()
    text = profile.report()
    assert "per-stage totals" in text
    assert "flame (folded causal stacks" in text
    assert "contention (service vs queueing" in text
    assert "hot spans" in text
    for stage in PROFILE_STAGES:
        assert stage in text


def test_contention_table_sources_the_metrics_registry():
    profile = traced_profile()
    assert profile.contention, "traced reports must attach metrics"
    names = {row["name"] for row in profile.contention}
    # The DU engines and arbiters are always exercised by SRPC traffic.
    assert any("arbiter" in n or "du" in n for n in names)
    for row in profile.contention:
        assert row["count"] > 0
        assert row["service_us"] >= 0.0
        assert 0.0 <= row["utilization"] <= 1.0


def test_hot_spans_are_sorted_and_bounded():
    report = traced_run()
    profile = build_profile(report.spans, metrics=report.metrics,
                            top_k=2)
    assert profile.hot
    for stage, entries in profile.hot.items():
        assert stage in PROFILE_STAGES
        assert len(entries) <= 2
        durations = [e[0] for e in entries]
        assert durations == sorted(durations, reverse=True)


def test_cpu_share_is_split_out_of_vmmc():
    profile = traced_profile()
    # SRPC handlers burn cpu.store/cpu.poll time; the profiler must
    # report it under "cpu", not fold it into "vmmc".
    assert profile.stage_totals.get("cpu", 0.0) > 0.0


def test_render_folded_is_flamegraph_compatible():
    profile = traced_profile()
    for line in render_folded(profile).splitlines():
        stack, value = line.rsplit(" ", 1)
        assert int(value) > 0          # integer nanoseconds
        frames = stack.split(";")
        assert frames[-1].startswith("[") and frames[-1].endswith("]")
        assert not any(" " in f for f in frames)


def test_render_flame_respects_max_lines():
    profile = traced_profile()
    text = render_flame(profile, max_lines=5)
    lines = text.splitlines()
    assert len(lines) <= 6             # 5 + the "... folded" marker
    assert "stacks folded" in lines[-1]


# ------------------------------------------------------------- tag_root


class _FakeClient:
    def __init__(self, span):
        self.last_span = span


def test_tag_root_stamps_arrival():
    span = Span(1, None, "kv.client", "get", "n0.cpu.p1", 10.0, 50.0,
                data={"tid": 1})
    client = _FakeClient(span)
    tag_root(client, arrival=4.0)
    assert span.data == {"tid": 1, "arrival": 4.0}
    assert client.last_span is None    # cleared: no stale reuse


def test_tag_root_rejects_an_arrival_after_span_start():
    # A grouped/batched root can start before this request's arrival;
    # a negative dispatch wait must never be recorded.
    span = Span(1, None, "kv.client", "get", "n0.cpu.p1", 10.0, 50.0,
                data={"tid": 1})
    tag_root(_FakeClient(span), arrival=12.0)
    assert "arrival" not in span.data


def test_tag_root_tolerates_a_missing_root():
    client = _FakeClient(None)
    tag_root(client, arrival=1.0)      # must not raise
    assert client.last_span is None


# ------------------------------------------------------------ synthetic


def _synthetic_spans():
    """Two hand-built trees: root + nested child each."""
    return [
        Span(1, None, "kv.client", "get", "n0.cpu.p1", 0.0, 100.0,
             data={"tid": 1, "arrival": 0.0}),
        Span(2, 1, "srpc.call", "kv.get", "n0.cpu.p1", 10.0, 90.0),
        Span(3, None, "kv.client", "put", "n0.cpu.p2", 50.0, 130.0,
             data={"tid": 2, "arrival": 30.0}),
    ]


def test_synthetic_trees_fold_with_exact_conservation():
    profile = build_profile(_synthetic_spans())
    assert len(profile.requests) == 2
    assert profile.conservation_error == 0.0
    by_tid = {r.tid: r for r in profile.requests}
    assert by_tid[1].total_us == 100.0           # no dispatch wait
    assert by_tid[2].total_us == 100.0           # 20 us wait + 80 us span
    assert by_tid[2].dispatch_us == 20.0


def test_open_root_trees_are_skipped_not_crashed():
    spans = _synthetic_spans()
    spans[2].end = None
    profile = build_profile(spans)
    assert len(profile.requests) == 1
    assert profile.skipped_trees == 1


# ----------------------------------------------------- the span limit

def test_commands_report_spans_past_the_tracer_limit(monkeypatch, capsys):
    """A traced run that outgrows ``Tracer.limit`` says so, and counts
    each span a limitless run records past the limit exactly once."""
    from repro.__main__ import main
    from repro.hardware import machine
    from repro.sim import Tracer

    argv = ["--seed", "7", "--requests", "40", "--load", "20000"]
    main(["profile"] + argv)
    full = capsys.readouterr().out
    assert "tracer limit" not in full
    total = int(re.search(r"(\d+) spans", full).group(1))
    limit = total // 2
    monkeypatch.setattr(machine, "Tracer",
                        functools.partial(Tracer, limit=limit))
    for command in ("profile", "explain"):
        main([command] + argv)
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("tracer limit")]
        assert len(notes) == 1
        match = re.fullmatch(r"tracer limit of (\d+) spans reached: "
                             r"(\d+) more spans refused", notes[0])
        recorded, refused = int(match.group(1)), int(match.group(2))
        assert recorded == limit
        assert refused == total - limit
        assert recorded + refused == total
