"""A traced run is the untraced run plus spans.

Trace context travels beside the simulated messages, in the machine
tracer's hand-off table, never in their bytes, and no timed path
branches on ``tracer.enabled``: a CPU span is recorded from the
instants the untraced sleep already computes.  So turning tracing on
adds spans and nothing else: the run dispatches exactly the untraced
run's scheduler entries, and every report line (latencies, event
counts, utilization, fault outcomes) stays byte-identical.  Each spec
below runs twice, untraced and traced.

The specs: the 15 ``kv_path`` golden cases (6 under seeded fault
plans), the two zero-regression workloads, the shed-tree spec, and the
ledger's three workloads at its reference seed and traced-run sizes.
"""

from dataclasses import replace

import pytest

from ledger.workloads import SIM_SEED, WORKLOADS
from repro.workload import WorkloadSpec, run_workload
from tests.workload import test_kv_path_goldens as kv_path
from tests.workload import test_zero_regression as zero_regression

#: Case name -> (spec, fault-plan seed or None).
CASES = dict(
    {"kv_path_%s" % name: case for name, case in kv_path.CASES.items()},
    **{name: (spec, None) for name, spec in zero_regression.SPECS.items()},
    shed_tree=(zero_regression.SHED_TREE_SPEC, None),
    **{"ledger_%s" % w.name: (
        WorkloadSpec(**dict(w.spec_at(SIM_SEED),
                            requests=w.traced_requests)), None)
       for w in WORKLOADS.values()})


def _report(spec, seed, trace):
    return run_workload(replace(spec, trace=trace),
                        fault_plan=kv_path.fault_plan(spec, seed))


def test_the_case_list_is_complete():
    assert len(CASES) == 21
    assert sum(seed is not None for _spec, seed in CASES.values()) == 6


@pytest.mark.parametrize("name", sorted(CASES))
def test_tracing_changes_no_report_line(name):
    spec, seed = CASES[name]
    untraced = _report(spec, seed, trace=False)
    traced = _report(spec, seed, trace=True)
    assert not untraced.spans and traced.spans
    assert traced.report() == untraced.report()
    assert traced.events_executed == untraced.events_executed
