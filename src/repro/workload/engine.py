"""The traffic engine: drive the KV service inside the DES and measure.

Workers are simulated processes placed round-robin over the mesh nodes,
each owning a :class:`~repro.apps.kv.KVClient` (so every worker talks
to every shard).  Arrivals are either:

* **open loop** — an arrival process stamps requests into a dispatch
  queue at the stream's gaps (Poisson at the offered load unless a
  scenario shaped them), independent of completions;
  latency is *completion minus arrival*, so queueing delay shows up in
  the tail and the saturation knee emerges past capacity; or
* **closed loop** — each worker issues its own sequence back to back,
  the classic fixed-concurrency load generator that can never overrun
  the service.

Every run replays a :class:`~repro.workload.RecordedStream`: the one
it is given, or else ``record_stream(spec)``, so the recorder is the
only request sampler and a live run is the replay of its own stream.
The engine is seed-deterministic end to end: the stream is a pure
function of the spec, the dispatch queue is FIFO, and the report
contains only simulated quantities.  Runs use
:func:`repro.testbed.make_system`, so every workload run is subject to
the conftest invariant audit (mesh conservation, span balance, queue
sanity) like any other test workload.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..apps.kv import (
    KVClient,
    KVService,
    KvRejectedError,
    ST_ERROR,
    ST_OK,
    VERSION_ZERO,
)
from ..analysis import LatencyHistogram
from ..hardware.config import MachineConfig
from ..obs import FlightRecorder, SloMonitor, TelemetrySampler
from ..obs import profile as profiling
from ..sim import Store
from ..sim.faults import FaultPlan
from ..testbed import Rendezvous, make_system
from .backpressure import BackpressureGovernor
from .recorder import RecordedStream, record_stream
from .report import WorkloadReport
from .spec import ValueSizeSampler, WorkloadSpec, key_name, value_bytes

__all__ = ["run_workload"]

_OPS = ("get", "put", "scan")

#: Simulated time a run's workers, and then its service drain, may take
#: before the run is declared hung.
_WATCHDOG_US = 120_000_000.0

#: The client counters the mitigation line and metrics entry sum.
_MITIGATION_COUNTERS = ("cache_lookups", "cache_hits", "spread_reads",
                        "batch_calls", "batched_keys", "onesided_hits",
                        "onesided_fallbacks")


def _mitigation_totals(clients) -> Dict[str, float]:
    """The workers' mitigation counters summed, plus their SRPC
    bindings' pipeline submits, mean depth and in-flight high-water
    mark."""
    totals: Dict[str, float] = {
        name: sum(getattr(c, name) for c in clients)
        for name in _MITIGATION_COUNTERS}
    submits = depth_total = high = 0
    for c in clients:
        for binding in c.rpc.values():
            submits += binding.submits
            depth_total += binding.mean_depth * binding.submits
            high = max(high, binding.inflight_high_water)
    totals.update(pipeline_submits=submits,
                  mean_depth=depth_total / submits if submits else 0.0,
                  high_water=high)
    return totals


def run_workload(spec: WorkloadSpec,
                 fault_plan: Optional[FaultPlan] = None,
                 stream: Optional[RecordedStream] = None) -> WorkloadReport:
    """Run one complete workload and return its report.

    Boots a machine, starts the KV service, pre-loads the keyspace,
    drives ``spec.requests`` requests through it, then drains the
    replication fan-out.  With ``fault_plan`` armed the run exercises
    the degraded mode: hardened transports retry, clients fail over to
    replicas, and the run completes (bounded by typed timeouts) rather
    than hanging.

    The engine replays ``stream`` (a :class:`~repro.workload.
    RecordedStream`), or without one ``record_stream(spec)``: gaps,
    ops, keys, and sizes come from the stream, so two replays under
    different serving configs see byte-identical offered traffic
    (docs/WORKLOADS.md, "Record & replay").  A given stream must match
    the spec's arrival shape and request count.
    """
    spec.validate()
    if stream is None:
        stream = record_stream(spec)
    elif stream.arrival != spec.arrival:
        raise ValueError("stream arrival %r does not match spec "
                         "arrival %r" % (stream.arrival, spec.arrival))
    elif len(stream) != spec.requests:
        raise ValueError("stream carries %d requests but the spec "
                         "expects %d" % (len(stream), spec.requests))
    elif spec.arrival == "closed" \
            and len(stream.workers) != spec.concurrency:
        raise ValueError("closed stream was recorded for %d workers, "
                         "spec has %d"
                         % (len(stream.workers), spec.concurrency))
    config = (MachineConfig.shrimp_prototype() if spec.nodes == 4
              else MachineConfig.sixteen_node())
    system = make_system(config=config, fault_plan=fault_plan)
    traced = spec.trace
    if traced:
        system.machine.tracer.enabled = True
    sim = system.sim

    # Overload modeling (docs/OVERLOAD.md): with ``cpu_slots`` the
    # node CPUs become contended resources every prioritized compute
    # charge queues on — enabled before the service boots, so its
    # admission controllers front the same schedulers.
    if spec.cpu_slots > 0:
        for node in system.machine.nodes:
            system.machine.metrics.register(node.enable_cpu(spec.cpu_slots))

    service = KVService(system, spec.replicas, mitigations=spec,
                        overload=spec, consistency=spec)
    prefill = random.Random(spec.seed * 7919 + 13)
    sizes = ValueSizeSampler(spec.value_sizes)
    service.preload({
        key_name(i): value_bytes(key_name(i), sizes.sample(prefill))
        for i in range(spec.keys)})

    workers = spec.concurrency
    service.start(
        srpc_handlers=workers if spec.transport == "srpc" else 0,
        socket_handlers=workers if spec.needs_sockets() else 0)

    dispatch = Store(sim, name="wl-dispatch-q")
    system.machine.metrics.register(dispatch)
    rdv = Rendezvous(system)
    ready = [0]
    window = {"start": 0.0, "end": 0.0}
    tally = {"completed": 0, "errors": 0, "rejected": 0, "in_slo": 0}
    overall = LatencyHistogram("overall")
    per_op: Dict[str, LatencyHistogram] = {
        op: LatencyHistogram(op) for op in _OPS}

    # Telemetry is strictly additive: the sampler is its own simulated
    # process spawned OUTSIDE the measured handle list (it never
    # finishes), and every hook below checks ``sampler is not None``.
    sampler = slo = recorder = None
    if spec.telemetry:
        if spec.slo_latency_budget > 0.0 or spec.slo_error_budget > 0.0:
            slo = SloMonitor.from_thresholds(
                latency_budget=spec.slo_latency_budget,
                error_budget=spec.slo_error_budget)
        sampler = TelemetrySampler(
            system, interval_us=spec.telemetry_interval_us,
            slow_threshold_us=spec.slo_latency_us, slo=slo)
        recorder = FlightRecorder(system.machine.tracer, sampler)
        sampler.recorder = recorder
        sampler.install()

    # Client-side cooperation: the governor stretches open-loop
    # inter-arrival gaps while rejections exceed its target fraction,
    # and a request that already waited out the queueing budget
    # (``admit_deadline_us``) for a free worker is shed undispatched —
    # a backlog in the dispatch queue is one admission cannot see.
    governor = BackpressureGovernor() if spec.backpressure else None
    shed_after = spec.admit_deadline_us if spec.backpressure else 0.0

    # Staleness accounting (``spec.staleness``): ``expected`` holds the
    # newest dot any client's write has been *acknowledged* at, per key,
    # snapshotted when a GET dispatches.  A read answering with an older
    # dot than the snapshot returned a value some acknowledged write
    # already superseded — the replication-lag reads the quorum
    # experiment in docs/REPLICATION.md must drive to zero.
    expected: Dict[str, tuple] = {}
    vreads = {"reads": 0, "stale": 0}

    def _execute(client, op, key, size, limit):
        """Run one request (generator returning its status, or None
        when the retry budget could not recover a rejection)."""
        try:
            if op == "get":
                snap = (expected.get(key, VERSION_ZERO) if spec.staleness
                        else None)
                status, value = yield from client.get(key)
                _check_value(client, key, status, value)
                if snap is not None and status != ST_ERROR:
                    vreads["reads"] += 1
                    if client.last_version < snap:
                        vreads["stale"] += 1
            elif op == "put":
                status = yield from client.put(key, value_bytes(key, size))
                if spec.staleness and status == ST_OK and \
                        client.last_version > expected.get(key, VERSION_ZERO):
                    expected[key] = client.last_version
            else:
                status, _records = yield from client.scan(key, limit)
        except KvRejectedError:
            return None
        return status

    def _record(op, latency, status):
        overall.record(latency)
        per_op[op].record(latency)
        if sampler is not None:
            sampler.window.record(latency, error=status == ST_ERROR)
        if governor is not None:
            governor.note(False)
        if status != ST_ERROR and spec.slo_latency_us > 0.0 \
                and latency <= spec.slo_latency_us:
            tally["in_slo"] += 1
        if status == ST_ERROR:
            tally["errors"] += 1
            # An ST_ERROR means the replica walk exhausted its typed
            # VmmcTimeoutError retries — exactly the incident the
            # flight recorder exists for.
            if recorder is not None:
                recorder.capture("request-error", sim.now)
        else:
            tally["completed"] += 1

    def _account(client, op, status, arrival):
        """Account one finished request: its latency from ``arrival``,
        or a rejection the retry budget could not recover (``status``
        None).  Traced runs stamp the root span with the arrival (a
        queue wait precedes the span), so per-request profile totals
        equal the recorded latency exactly."""
        if status is None:
            tally["rejected"] += 1
            if governor is not None:
                governor.note(True)
        else:
            _record(op, sim.now - arrival, status)
        if traced:
            profiling.tag_root(client, arrival=arrival)
        window["end"] = max(window["end"], sim.now)

    def _check_value(client, key, status, value):
        if status == ST_OK and value:
            if bytes(value) != value_bytes(key, len(value)):
                client.corruptions += 1

    # Mitigated open-loop workers drain the dispatch queue in groups of
    # up to ``group`` requests: GETs ride one multi_get batch (when
    # batching is on), other point ops are submitted through the SRPC
    # pipeline window and collected in order.  Latency is still
    # completion minus arrival per request.  ``_EMPTY`` disambiguates
    # "queue empty right now" from a buffered None stop sentinel.
    _EMPTY = object()
    group = max(spec.pipeline_window, spec.batch_keys)
    grouped = spec.arrival == "open" and group > 1 \
        and spec.transport == "srpc"

    def _execute_group(client, batch):
        get_items = []
        handles = []
        for item in batch:
            op, key, size, limit, arrival = item
            if op == "get" and spec.batch_keys > 1:
                get_items.append(item)
            elif op == "scan":
                status = yield from _execute(client, op, key, size, limit)
                _record(op, sim.now - arrival, status)
            elif op == "get":
                handle = yield from client.get_begin(key)
                handles.append((item, handle))
            else:
                handle = yield from client.put_begin(
                    key, value_bytes(key, size))
                handles.append((item, handle))
        if get_items:
            results = yield from client.multi_get(
                [item[1] for item in get_items])
            for item, (status, value) in zip(get_items, results):
                _, key, _, _, arrival = item
                _check_value(client, key, status, value)
                _record("get", sim.now - arrival, status)
        for item, handle in handles:
            op, key, _, _, arrival = item
            status, value = yield from client.collect(handle)
            if op == "get":
                _check_value(client, key, status, value)
            _record(op, sim.now - arrival, status)
        window["end"] = max(window["end"], sim.now)

    clients = []

    class _MitigationMetrics:
        """Metrics-registry adapter for the client-side mitigation layer.

        Registered only for mitigated specs, so unmitigated utilization
        tables (and their goldens) are untouched.  Aggregates over the
        worker clients and their SRPC bindings at snapshot time.
        """

        name = "kv-mitigation"

        def metrics_snapshot(self, now=None):
            totals = _mitigation_totals(clients)
            lookups = totals["cache_lookups"]
            hits = totals["cache_hits"]
            # ``count``/``mean_depth``/``high_water`` are the keys the
            # registry report renders; the rest ride along for
            # ``metrics.snapshot()`` consumers.
            return dict(
                name=self.name, kind="mitigation",
                count=lookups + totals["pipeline_submits"],
                mean_depth=totals["mean_depth"],
                high_water=totals["high_water"],
                cache_lookups=lookups, cache_hits=hits,
                cache_hit_rate=hits / lookups if lookups else 0.0,
                pipeline_submits=totals["pipeline_submits"],
                **{name: totals[name] for name in _MITIGATION_COUNTERS[2:]})

    if spec.mitigated():
        system.machine.metrics.register(_MitigationMetrics())

    def make_worker(wid):
        def worker(proc):
            client = KVClient(service, proc, spec.transport, wid,
                              mitigations=spec, overload=spec,
                              consistency=spec)
            clients.append(client)
            yield from client.connect()
            ready[0] += 1
            if ready[0] == workers:
                window["start"] = sim.now
                rdv.put("go", sim.now)
            yield rdv.get("go")
            if spec.arrival == "open":
                stopped = False
                while not stopped:
                    item = dispatch.try_get(_EMPTY)
                    if item is _EMPTY:
                        item = yield dispatch.get()
                    if item is None:
                        break
                    if grouped:
                        batch = [item]
                        while len(batch) < group:
                            more = dispatch.try_get(_EMPTY)
                            if more is _EMPTY:
                                break
                            if more is None:
                                stopped = True
                                break
                            batch.append(more)
                        yield from _execute_group(client, batch)
                        continue
                    op, key, size, limit, arrival = item
                    if shed_after and sim.now - arrival > shed_after:
                        _account(client, op, None, arrival)
                        continue
                    status = yield from _execute(client, op, key, size, limit)
                    _account(client, op, status, arrival)
                    if spec.read_repair:
                        # After the latency was recorded: repairs ride
                        # the worker's idle gap, not the request tail.
                        yield from client.flush_repairs()
            else:
                for op, key, size, limit in stream.workers[wid]:
                    issued = sim.now
                    status = yield from _execute(client, op, key, size, limit)
                    _account(client, op, status, issued)
                    if spec.read_repair:
                        yield from client.flush_repairs()
            yield from client.shutdown()
            return client.stats()

        return worker

    handles = [system.spawn(wid % spec.nodes, make_worker(wid),
                            name="wl-worker-%d" % wid)
               for wid in range(workers)]

    if spec.arrival == "open":
        def arrivals(_proc):
            yield rdv.get("go")
            for gap, op, key, size, limit in stream.requests:
                if governor is not None:
                    gap *= governor.gap_scale()
                yield sim.timeout(gap)
                dispatch.try_put((op, key, size, limit, sim.now))
            for _ in range(workers):
                dispatch.try_put(None)

        handles.append(system.spawn(0, arrivals, name="wl-arrivals"))

    system.run_processes(handles, timeout=_WATCHDOG_US)
    service.shutdown()
    system.run_processes(service.handles, timeout=_WATCHDOG_US)

    spec_line = ("workload seed=%d transport=%s arrival=%s load=%g "
                 "concurrency=%d requests=%d keys=%d dist=%s nodes=%d "
                 "replicas=%d read=%.2f scan=%.2f"
                 % (spec.seed, spec.transport, spec.arrival, spec.load,
                    spec.concurrency, spec.requests, spec.keys,
                    spec.key_distribution, spec.nodes, spec.replicas,
                    spec.read_fraction, spec.scan_fraction))
    if spec.mitigated():
        # Conditional so unmitigated reports stay byte-identical to the
        # pre-mitigation engine (the zero-regression goldens).
        spec_line += " " + spec.mitigation_label()
    if spec.telemetry:
        spec_line += " " + spec.telemetry_label()
    if spec.overloaded():
        spec_line += " " + spec.overload_label()
    if spec.consistent():
        # Conditional so eventually-consistent reports stay
        # byte-identical to the zero-regression goldens.
        spec_line += " " + spec.consistency_label()
    misses = sum(c.misses for c in clients)
    failovers = sum(c.failovers for c in clients)
    corruptions = sum(c.corruptions for c in clients)
    service_lines = [
        "service: keys=%d repl_applied_total=%s repl_send_failures=%d "
        "map_mismatches=%s"
        % (service.total_keys(), service.repl_applied_total,
           service.repl_send_failures, service.map_mismatches)]
    for node_label, counters in service.counters().items():
        service_lines.append(
            "  %s: keys=%d gets=%d hits=%d puts=%d deletes=%d scans=%d "
            "repl_applied=%d"
            % (node_label, counters["keys"], counters["gets"],
               counters["hits"], counters["puts"], counters["deletes"],
               counters["scans"], counters["repl_applied"]))
    if spec.mitigated():
        totals = _mitigation_totals(clients)
        lookups = totals["cache_lookups"]
        service_lines.append(
            "mitigation: cache_hits=%(cache_hits)d/%(cache_lookups)d "
            "(%(hit_pct).1f%%) spread_reads=%(spread_reads)d "
            "batch_calls=%(batch_calls)d batched_keys=%(batched_keys)d "
            "pipeline_submits=%(pipeline_submits)d "
            "mean_depth=%(mean_depth).2f onesided_hits=%(onesided_hits)d "
            "onesided_fallbacks=%(onesided_fallbacks)d"
            % dict(totals, hit_pct=(100.0 * totals["cache_hits"] / lookups
                                    if lookups else 0.0)))
    fault_lines = []
    if fault_plan is not None:
        fault_lines = system.faults.report().splitlines()
    telemetry_lines = []
    if sampler is not None:
        telemetry_lines.extend(sampler.report().splitlines())
        if slo is not None:
            telemetry_lines.extend(slo.report().splitlines())
        telemetry_lines.extend(recorder.report().splitlines())
    overload_lines = []
    if spec.overloaded():
        controllers = list(service.admission.values())
        overload_lines.append(
            "overload: served=%d shed_full=%d shed_brownout=%d "
            "shed_deadline=%d brownouts=%d retries=%d slowdown_peak=%.2f"
            % (sum(c.served for c in controllers),
               sum(c.rejected_full for c in controllers),
               sum(c.rejected_brownout for c in controllers),
               sum(c.shed_deadline for c in controllers),
               sum(c.brownouts for c in controllers),
               sum(c.retries for c in clients),
               governor.peak if governor is not None else 1.0))
        duration = max(0.0, window["end"] - window["start"])
        answered = tally["completed"] + tally["errors"]
        total = answered + tally["rejected"]
        overload_lines.append(
            "rejected: %d of %d offered (%.1f%%)"
            % (tally["rejected"], spec.requests,
               100.0 * tally["rejected"] / spec.requests))
        # The line names the threshold it scored against: the spec
        # line shows it only with telemetry on.
        if spec.slo_latency_us > 0.0:
            goodput = tally["in_slo"]
            scored = "%d in-slo (<= %g us) of %d completed" % (
                goodput, spec.slo_latency_us, tally["completed"])
        else:
            goodput = tally["completed"]
            scored = "%d of %d completed, no slo" % (goodput, goodput)
        overload_lines.append(
            "goodput: %s (%.0f ops/s); "
            "completed+errors+rejected = %d+%d+%d = %d of %d offered [%s]"
            % (scored, goodput * 1e6 / duration if duration > 0 else 0.0,
               tally["completed"], tally["errors"], tally["rejected"],
               total, spec.requests,
               "OK" if total == spec.requests else "VIOLATED"))

    staleness = convergence = None
    if spec.staleness:
        staleness = {"reads": vreads["reads"], "stale": vreads["stale"]}
    if spec.antientropy:
        ae = service.ae_stats
        convergence = {
            "rounds": ae.rounds,
            "repaired": ae.repaired,
            "divergent_last": ae.divergent_last,
            "divergent_high": ae.divergent_high,
            "converged_at_us": ae.converged_at,
            "sweep_failures": ae.sweep_failures,
            "series": ae.series_payload(),
        }
    consistency_lines = []
    if spec.consistent():
        if spec.staleness:
            reads = vreads["reads"]
            consistency_lines.append(
                "staleness: reads=%d stale=%d rate=%.4f"
                % (reads, vreads["stale"],
                   vreads["stale"] / reads if reads else 0.0))
        if spec.versioned():
            consistency_lines.append(
                "repair: detected=%d repaired=%d quorum_reads=%d "
                "quorum_writes=%d"
                % (sum(c.stale_detected for c in clients),
                   sum(c.repairs for c in clients),
                   sum(c.quorum_reads for c in clients),
                   sum(c.quorum_writes for c in clients)))
        if spec.repl_queue_cap > 0:
            consistency_lines.append(
                "repl drops: queue_full=%d crash_window=%d"
                % (sum(service.repl_drops.values()),
                   service.repl_crash_drops))
        if spec.antientropy:
            ae = service.ae_stats
            consistency_lines.append(
                "convergence: rounds=%d repaired=%d divergent=%d "
                "converged_at=%s"
                % (ae.rounds, ae.repaired, ae.divergent_last,
                   ("%.1f" % ae.converged_at)
                   if ae.converged_at is not None else "never"))
            if ae.series:
                consistency_lines.append(
                    "  series: " + " ".join(
                        "%.0f:%d" % (t, n) for t, n in ae.series))

    return WorkloadReport(
        spec_line=spec_line,
        transport=spec.transport,
        arrival=spec.arrival,
        offered_load=spec.load if spec.arrival == "open" else 0.0,
        duration_us=max(0.0, window["end"] - window["start"]),
        completed=tally["completed"],
        errors=tally["errors"],
        rejected=tally["rejected"],
        in_slo=tally["in_slo"],
        slo_latency_us=spec.slo_latency_us,
        misses=misses,
        failovers=failovers,
        corruptions=corruptions,
        overall=overall,
        per_op=per_op,
        utilization=system.machine.utilization_report(min_count=1),
        service_lines=service_lines,
        fault_lines=fault_lines,
        telemetry_lines=telemetry_lines,
        overload_lines=overload_lines,
        consistency_lines=consistency_lines,
        staleness=staleness,
        convergence=convergence,
        events_executed=sim.events_executed,
        spans=list(system.machine.tracer.spans) if spec.trace else None,
        spans_dropped=system.machine.tracer.dropped,
        metrics=({"now": sim.now,
                  "entries": system.machine.metrics.snapshot()}
                 if spec.trace else None),
    )
