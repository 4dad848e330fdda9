"""WorkloadSpec as the composition of one knob group per concern.

Each group (``repro.apps.kv.config`` and ``repro.workload.spec``) holds
its fields, its spec-line label and its own range checks;
``WorkloadSpec`` inherits them all, so its fields stay flat keywords —
the contract ``ledger/child.py`` relies on when it builds
``WorkloadSpec(**flat)`` and ``replace()``\\ s single fields.
"""

from dataclasses import asdict, fields, replace

import pytest

from repro.apps.kv.config import Consistency, Mitigations, OverloadControl
from repro.workload import WorkloadSpec
from repro.workload.spec import Keyspace, Observability, Traffic

GROUPS = (Traffic, Keyspace, Mitigations, OverloadControl, Consistency,
          Observability)


def _names(cls):
    return [f.name for f in fields(cls)]


def test_the_spec_is_every_group_and_declares_little_itself():
    spec = WorkloadSpec()
    for group in GROUPS:
        assert isinstance(spec, group)
    grouped = [name for group in GROUPS for name in _names(group)]
    assert len(grouped) == len(set(grouped)), "a field sits in two groups"
    own = set(_names(WorkloadSpec)) - set(grouped)
    assert own == {"seed", "replicas"}
    assert len(_names(WorkloadSpec)) == 44


def test_every_field_stays_a_flat_keyword():
    spec = WorkloadSpec(seed=3, transport="sockets", keys=50,
                        read_spread=True, cpu_slots=2, repl_queue_cap=4,
                        telemetry=True)
    flat = asdict(spec)
    assert set(flat) == set(_names(WorkloadSpec))
    assert WorkloadSpec(**flat) == spec
    assert replace(spec, load=1234.0).load == 1234.0
    assert WorkloadSpec(**dict(flat, onesided_reads=True)).onesided_reads


def test_overload_group_checks_its_ranges():
    for knobs in (dict(cpu_slots=-1), dict(cpu_op_us=-1.0),
                  dict(admit_queue=0), dict(admit_deadline_us=-1.0),
                  dict(retry_budget=-1), dict(retry_base_us=0.0),
                  dict(retry_jitter=1.5)):
        with pytest.raises(ValueError):
            OverloadControl(**knobs)
        with pytest.raises(ValueError):
            WorkloadSpec(**knobs)
    OverloadControl(cpu_op_us=0.0, admit_queue=1, retry_jitter=1.0)


def test_consistency_group_checks_its_ranges():
    for knobs, hint in (
            (dict(consistency="linearizable"), "unknown consistency"),
            (dict(consistency="quorum", quorum_r=-1), ">= 0"),
            (dict(quorum_w=2), "quorum mode only"),
            (dict(antientropy_interval_us=0.0), "must be positive"),
            (dict(repl_queue_cap=-1), ">= 0")):
        with pytest.raises(ValueError, match=hint):
            Consistency(**knobs)
    Consistency(consistency="quorum", quorum_r=5, quorum_w=5)


def test_observability_group_checks_its_ranges():
    for knobs in (dict(telemetry_interval_us=0.0),
                  dict(slo_latency_us=-1.0),
                  dict(slo_error_budget=1.0),
                  dict(slo_latency_us=100.0, slo_latency_budget=-0.1),
                  dict(slo_latency_budget=0.1)):
        with pytest.raises(ValueError):
            Observability(**knobs)
    Observability(slo_latency_us=100.0, slo_latency_budget=0.1)


@pytest.mark.parametrize("knobs,hint", [
    (dict(transport="sockets", pipeline_window=2), "srpc transport"),
    (dict(transport="sockets", onesided_reads=True), "srpc transport"),
    (dict(batch_keys=4, admission=True), "plain request path"),
    (dict(pipeline_window=2, retry_budget=1), "plain request path"),
    (dict(arrival="closed", backpressure=True), "open-loop"),
    (dict(replicas=3, consistency="quorum", quorum_r=1, quorum_w=2),
     "intersection"),
    (dict(replicas=2, consistency="quorum", quorum_w=3), "quorum sizes"),
    (dict(read_repair=True, transport="sockets"), "srpc"),
    (dict(staleness=True, batch_keys=2), "plain request path"),
    (dict(staleness=True, onesided_reads=True), "one-sided"),
    (dict(read_repair=True, cache_keys=8), "client cache"),
])
def test_validate_checks_the_rules_that_span_groups(knobs, hint):
    spec = WorkloadSpec(**knobs)    # every group is in range on its own
    with pytest.raises(ValueError, match=hint):
        spec.validate()


#: Group fields no spec-line label records: ``telemetry`` is the switch
#: whose label the line carries, and ``trace`` only adds spans — a
#: traced run reports exactly what the untraced run does
#: (tests/workload/test_traced_identity.py).
UNLABELED = {"telemetry", "trace"}

#: Off-default values for the string fields (numbers and switches are
#: moved off their default by type).
OFF_STRINGS = {"consistency": "session"}

#: Fields whose off-default value needs another field set first.
NEEDS = {"quorum_r": dict(consistency="quorum"),
         "quorum_w": dict(consistency="quorum"),
         "slo_latency_budget": dict(slo_latency_us=1.0)}


def _off(name, value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    return OFF_STRINGS[name]


@pytest.mark.parametrize("group,label", [
    (Mitigations, "mitigation_label"),
    (OverloadControl, "overload_label"),
    (Consistency, "consistency_label"),
    (Observability, "telemetry_label"),
])
def test_every_group_field_changes_its_label(group, label):
    """The spec line is the only record of a run's configuration, so a
    group field its label leaves out would go unrecorded."""
    for name in _names(group):
        if name in UNLABELED:
            continue
        base = group(**NEEDS.get(name, {}))
        moved = replace(base, **{name: _off(name, getattr(base, name))})
        assert getattr(moved, label)() != getattr(base, label)(), name
