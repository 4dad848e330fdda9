"""Cross-node trace assembly and stage-budget acceptance tests.

The headline acceptance criterion of the observability layer: a single
KV request from the paired-capacity workload (mitigations on, same as
the ``--ab`` B side) reconstructs as exactly one causal tree spanning
at least three mesh nodes, with a per-stage latency budget that sums
to the measured request latency within 1%.
"""

import functools

from repro.obs import assemble_traces, audit, explain_trace, format_tree
from repro.workload import WorkloadSpec, run_workload


@functools.lru_cache(maxsize=None)
def traced_run(transport="srpc", mitigated=False, seed=5):
    """One cached traced workload run per configuration."""
    spec = WorkloadSpec(
        seed=seed, transport=transport, load=20000.0, concurrency=4,
        requests=60, keys=48, read_fraction=0.6, trace=True)
    if mitigated:
        # The paired-capacity B side: pipelining, batching, caching,
        # read spread — the configuration the acceptance criterion names.
        spec = WorkloadSpec(
            seed=seed, transport=transport, load=20000.0, concurrency=4,
            requests=60, keys=48, read_fraction=0.6, trace=True,
            pipeline_window=4, batch_keys=4, cache_keys=64,
            cache_ttl_us=2000.0, read_spread=True)
    return run_workload(spec)


def test_traced_run_records_spans():
    report = traced_run()
    assert report.spans, "trace=True must capture spans on the report"
    assert report.completed == 60


def test_every_tree_has_a_client_root():
    report = traced_run()
    trees = assemble_traces(report.spans)
    assert trees
    for tree in trees.values():
        assert tree.root is not None
        assert tree.root.category in ("kv.client", "kv.call")
        assert not tree.problems, tree.problems


def test_audit_is_clean_on_a_healthy_run():
    report = traced_run()
    assert audit(report.spans) == []


def test_replicated_put_spans_three_nodes():
    report = traced_run()
    trees = assemble_traces(report.spans)
    widest = max(trees.values(), key=lambda t: (len(t.nodes()), len(t.spans)))
    # client node -> primary shard -> replica: three distinct mesh nodes.
    assert len(widest.nodes()) >= 3, widest.nodes()


def test_stage_budget_sums_to_measured_latency_within_one_percent():
    report = traced_run()
    trees = assemble_traces(report.spans)
    widest = max(trees.values(), key=lambda t: (len(t.nodes()), len(t.spans)))
    result = explain_trace(widest, report.spans)
    assert result.measured_us > 0.0
    assert result.budget.total > 0.0
    assert result.budget_error <= 0.01, (
        "stage sum %.3f vs measured %.3f"
        % (result.budget.total, result.measured_us))


def test_paired_capacity_workload_acceptance():
    """The ISSUE acceptance check, against the mitigated (B-side) spec."""
    report = traced_run(mitigated=True)
    trees = assemble_traces(report.spans)
    assert audit(report.spans) == []
    widest = max(trees.values(), key=lambda t: (len(t.nodes()), len(t.spans)))
    assert len(widest.nodes()) >= 3, widest.nodes()
    result = explain_trace(widest, report.spans)
    assert result.budget_error <= 0.01


def test_all_trees_budget_close_everywhere():
    """Not just the widest: every assembled tree explains to <= 1%."""
    report = traced_run()
    spans = report.spans
    for tree in assemble_traces(spans).values():
        result = explain_trace(tree, spans)
        assert result.budget_error <= 0.01, (
            "trace %d: sum %.3f vs measured %.3f"
            % (tree.tid, result.budget.total, result.measured_us))


def test_sockets_transport_assembles_too():
    report = traced_run(transport="sockets")
    trees = assemble_traces(report.spans)
    assert trees
    assert audit(report.spans) == []
    widest = max(trees.values(), key=lambda t: (len(t.nodes()), len(t.spans)))
    assert len(widest.nodes()) >= 2


def test_format_tree_is_renderable_and_mentions_wire_hops():
    report = traced_run()
    trees = assemble_traces(report.spans)
    widest = max(trees.values(), key=lambda t: (len(t.nodes()), len(t.spans)))
    text = format_tree(widest)
    assert "us" in text
    assert "<-wire-" in text  # at least one cross-node causal edge


def test_assembly_is_deterministic():
    a = traced_run()
    spec = WorkloadSpec(
        seed=5, transport="srpc", load=20000.0, concurrency=4,
        requests=60, keys=48, read_fraction=0.6, trace=True)
    b = run_workload(spec)
    ta, tb = assemble_traces(a.spans), assemble_traces(b.spans)
    assert sorted(ta) == sorted(tb)
    for tid in ta:
        assert len(ta[tid].spans) == len(tb[tid].spans)
        assert ta[tid].nodes() == tb[tid].nodes()


def test_no_span_takes_a_parent_another_process_opened(monkeypatch):
    """Same-track parent links stay inside one simulation process, even
    where two share a CPU track (a replication rank's NX receive loop
    and its sender co-process): the tracer keeps one open-span stack
    per process.  Records which process opened each span and checks
    every parent against it."""
    from repro.sim.trace import Tracer

    opener = {}

    def recording(method):
        def wrapped(self, *args, **kwargs):
            span = method(self, *args, **kwargs)
            if span is not None:
                opener[span.sid] = self.sim.active_process
            return span
        return wrapped

    for name in ("begin", "complete"):
        monkeypatch.setattr(Tracer, name, recording(getattr(Tracer, name)))
    spans = run_workload(WorkloadSpec(
        seed=1, load=20000.0, concurrency=4, requests=80, keys=64,
        read_fraction=0.7, trace=True)).spans
    shared = {(s.track, opener[s.sid]) for s in spans
              if opener[s.sid] is not None}
    assert len(shared) > len({track for track, _ in shared})
    for span in spans:
        if opener[span.sid] is not None and span.parent is not None:
            assert opener[span.parent] is opener[span.sid], span
