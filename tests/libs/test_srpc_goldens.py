"""Exactness goldens for the SHRIMP RPC call path.

The workload goldens pin fault-free window=1 reports; these pin what
they miss.  Hardened window=1 calls under seeded fault plans (outcome,
final simulated time and the injector's report), a fault-free
pipelined KV run that batches its reads, and the full span list of a
traced window=1 KV run (sid, parent, category, name, track, start,
end), floats written with ``repr`` so a one-ulp drift shows.

Regenerate only for an intended timing change, and say so in the
commit::

    PYTHONPATH=src python tests/libs/test_srpc_goldens.py
"""

import pathlib

from repro.workload import WorkloadSpec, run_workload
from tests.faults import harness

GOLDENS = pathlib.Path(__file__).parent / "goldens"

HARDENED_SEEDS = range(300, 312)

PIPELINED_BATCH_SPEC = WorkloadSpec(
    seed=11, transport="srpc", arrival="open", load=100_000.0,
    concurrency=8, requests=120, keys=64, pipeline_window=4, batch_keys=4)

TRACED_SPEC = WorkloadSpec(
    seed=11, transport="srpc", arrival="open", load=100_000.0,
    concurrency=2, requests=8, keys=64, trace=True)


def render_hardened():
    lines = []
    for seed in HARDENED_SEEDS:
        outcome, system = harness.run_srpc_exchange(seed)
        lines.append("seed %d %s final t=%r" % (
            seed, " ".join("%s=%s" % kv for kv in sorted(outcome.items())),
            system.sim.now))
        lines.append(system.faults.report())
    return "\n".join(lines)


def render_pipelined_batch():
    return run_workload(PIPELINED_BATCH_SPEC).report()


def render_traced_spans():
    return "\n".join(
        "%d %s %s %r %s %r %r" % (s.sid, s.parent, s.category, s.name,
                                  s.track, s.start, s.end)
        for s in run_workload(TRACED_SPEC).spans)


RENDERERS = {
    "srpc_hardened_seeds300": render_hardened,
    "kv_w4_batch4_seed11": render_pipelined_batch,
    "kv_w1_traced_spans_seed11": render_traced_spans,
}


def _golden(name):
    return (GOLDENS / ("%s.txt" % name)).read_text()


def test_hardened_calls_are_byte_identical():
    assert render_hardened() + "\n" == _golden("srpc_hardened_seeds300")


def test_pipelined_batched_kv_report_is_byte_identical():
    assert render_pipelined_batch() + "\n" == _golden("kv_w4_batch4_seed11")


def test_traced_kv_span_list_is_byte_identical():
    assert render_traced_spans() + "\n" == _golden(
        "kv_w1_traced_spans_seed11")


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name, render in RENDERERS.items():
        (GOLDENS / ("%s.txt" % name)).write_text(render() + "\n")
        print("wrote", GOLDENS / ("%s.txt" % name))
