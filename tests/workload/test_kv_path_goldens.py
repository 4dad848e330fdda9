"""Exactness goldens for the KV client paths the other goldens miss.

The zero-regression goldens pin the default SRPC and sockets runs, and
the SHRIMP RPC goldens pin a pipelined batched run and one traced
window=1 span list.  These pin the mitigation, bypass, consistency and
overload paths of ``KVClient`` and the shard server: pipelining with
batching, caching and read-spreading, one-sided reads with a window,
a cache and admission control, session and quorum reads with read
repair, SRPC and sockets requests shed and retried under admission,
and seeded fault plans over the pipelined, quorum and sockets paths.
The sockets plans are drawn over the sites its AU-2copy path reaches
and shifted into the request window, so their faults strike requests
rather than connection setup.

Every run is traced.  Tracing moves no simulated time and adds no
scheduler entry, so each entry's report and event count are also the
untraced run's (``test_traced_identity.py`` checks that).  Each entry
records the report, the run's dispatched event count, every ``kv.*`` span
(sid, parent, category, name, track, start, end and data, floats
written with ``repr`` so a one-ulp drift shows) and a digest of the
full span list, which covers the lower layers' spans too.

Regenerate only for an intended timing change, and say so in the
commit::

    PYTHONPATH=src python -m tests.workload.test_kv_path_goldens
"""

import hashlib
import pathlib
from dataclasses import replace

import pytest

from repro.sim.faults import FaultPlan
from repro.workload import WorkloadSpec, run_workload
from tests.faults import harness

GOLDENS = pathlib.Path(__file__).parent / "goldens"

BASE = WorkloadSpec(seed=11, transport="srpc", arrival="open",
                    load=100_000.0, concurrency=4, requests=40, keys=32,
                    trace=True)

OVERLOAD = dict(cpu_slots=1, cpu_op_us=150.0, admission=True, admit_queue=1,
                admit_deadline_us=50.0, retry_budget=2, retry_base_us=50.0,
                load=200_000.0)

SPECS = {
    "w4_batch4_cache_spread": replace(
        BASE, pipeline_window=4, batch_keys=4, cache_keys=8,
        cache_ttl_us=300.0, read_spread=True, read_fraction=0.8),
    "onesided_w4": replace(BASE, onesided_reads=True, pipeline_window=4,
                           read_fraction=0.8),
    "onesided_cache_spread": replace(BASE, onesided_reads=True,
                                     cache_keys=8, read_spread=True,
                                     read_fraction=0.8),
    "onesided_admission": replace(BASE, onesided_reads=True, **OVERLOAD),
    "session": replace(BASE, consistency="session", read_spread=True,
                       read_fraction=0.7, staleness=True),
    "quorum_r3_repair": replace(BASE, consistency="quorum", replicas=3,
                                quorum_r=3, read_repair=True,
                                staleness=True, read_fraction=0.7),
    "eventual_repair_spread": replace(BASE, read_repair=True,
                                      read_spread=True, staleness=True,
                                      read_fraction=0.7),
    "srpc_admission_retry": replace(BASE, backpressure=True, **OVERLOAD),
    "sockets_admission_retry": replace(
        BASE, transport="sockets", arrival="closed", read_fraction=0.7,
        scan_fraction=0.1, **OVERLOAD),
}

#: Specs run under a seeded fault plan, once per seed in FAULT_SEEDS.
FAULTED = {
    "w4_batch4": replace(BASE, pipeline_window=4, batch_keys=4),
    "quorum": replace(BASE, consistency="quorum", replicas=3,
                      read_fraction=0.7),
    "sockets": replace(BASE, transport="sockets", read_fraction=0.7,
                       scan_fraction=0.1),
}
FAULT_SEEDS = (3, 17)

#: Entry name -> (spec, fault-plan seed or None).
CASES = dict({name: (spec, None) for name, spec in SPECS.items()},
             **{"%s_fault%d" % (name, seed): (spec, seed)
                for name, spec in FAULTED.items() for seed in FAULT_SEEDS})


def fault_plan(spec, seed):
    """A fresh fault plan for an entry's ``seed`` (None for None).

    The sockets entries' plans strike requests: they are drawn over the
    sites its AU-2copy path reaches and shifted by the first request's
    start (``harness.plan_on_requests``).  The SRPC entries draw theirs
    over [0, 3,000) us."""
    if seed is None:
        return None
    if spec.transport == "sockets":
        return harness.plan_on_requests(spec, seed, harness.AU_SOCKET_SITES)
    return FaultPlan.from_seed(seed, horizon_us=3000.0, count=8)


def _span_line(s):
    return "%d %s %s %r %s %r %r %r" % (
        s.sid, s.parent, s.category, s.name, s.track, s.start, s.end,
        sorted((s.data or {}).items()))


def render(name):
    spec, seed = CASES[name]
    report = run_workload(spec, fault_plan=fault_plan(spec, seed))
    lines = [_span_line(s) for s in report.spans]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    kv_lines = [line for s, line in zip(report.spans, lines)
                if s.category.startswith("kv.")]
    return "\n".join(
        [report.report(),
         "events=%d spans=%d digest=%s" % (report.events_executed,
                                           len(lines), digest)]
        + kv_lines)


def _golden(name):
    return (GOLDENS / ("kv_path_%s.txt" % name)).read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_kv_path_run_is_byte_identical(name):
    assert render(name) + "\n" == _golden(name)


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDENS / ("kv_path_%s.txt" % case)
        path.write_text(render(case) + "\n")
        print("wrote", path)
