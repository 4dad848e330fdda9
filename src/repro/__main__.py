"""Command-line interface: regenerate the paper's results from a shell.

    python -m repro scalars          # the paper-vs-measured table
    python -m repro fig3|fig4|fig5|fig7|fig8
    python -m repro budget           # analytic one-word latency budgets
    python -m repro trace            # traced one-word journey + Chrome JSON
    python -m repro faults --seed N  # replay a seeded fault schedule
    python -m repro serve            # scripted demo against the KV service
    python -m repro workload --seed N --load L   # one workload run
    python -m repro capacity         # offered load vs tail latency sweep
    python -m repro antientropy      # replica divergence + Merkle healing
    python -m repro explain          # one request's cross-node causal tree
    python -m repro profile          # fleet-wide flame profile of a traced run
    python -m repro diff             # A/B stage attribution, or bench diffs
    python -m repro all              # everything, in order

Each figure command prints the same rows the paper plots (and that
``pytest benchmarks/`` asserts the shape of).  ``trace`` runs a Figure 3
one-word transfer with tracing on, writes Chrome ``trace_event`` JSON
(loadable in chrome://tracing or https://ui.perfetto.dev), and prints the
measured-vs-analytic latency budget plus the utilization report; see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import replace

from .analysis import au_word_budget, du_word_budget, format_table
from .bench import (
    figure3_raw_vmmc,
    figure4_nx,
    figure5_vrpc,
    figure7_sockets,
    figure8_rpc_comparison,
    paper_table,
)
from .bench.capacity import MITIGATIONS
from .hardware.config import CacheMode
from .workload import WorkloadSpec


def _cmd_budget() -> None:
    print(au_word_budget(cache_mode=CacheMode.WRITE_THROUGH).report())
    print()
    print(au_word_budget(cache_mode=CacheMode.UNCACHED).report())
    print()
    print(du_word_budget().report())


def _cmd_faults(args) -> int:
    from .libs.nx import VARIANTS, nx_world
    from .sim.faults import FaultPlan
    from .testbed import make_system
    from .vmmc import VmmcTimeoutError

    plan = FaultPlan.from_seed(args.seed, horizon_us=args.horizon,
                               count=args.count)
    print(plan.describe())
    if args.plan_only:
        return 0

    system = make_system(fault_plan=plan)
    nbytes = 1024
    payload = bytes((args.seed * 37 + i * 17 + 5) % 256 for i in range(nbytes))
    outcome = {}

    def make_rank(me, peer, initiator):
        def program(nx):
            src = nx.proc.space.mmap(4096)
            dst = nx.proc.space.mmap(4096)
            nx.proc.poke(src, payload)
            try:
                if initiator:
                    yield from nx.csend(7, src, nbytes, to=peer)
                    size = yield from nx.crecv(8, dst, 4096)
                else:
                    size = yield from nx.crecv(7, dst, 4096)
                    yield from nx.csend(8, src, nbytes, to=peer)
                intact = nx.proc.peek(dst, size) == payload
                outcome[me] = "ok" if intact else "CORRUPT PAYLOAD"
            except VmmcTimeoutError as exc:
                outcome[me] = "typed timeout (%s)" % type(exc).__name__

        return program

    handles = nx_world(system, [make_rank(0, 1, True), make_rank(1, 0, False)],
                       variant=VARIANTS[args.variant])
    system.run_processes(handles, timeout=20_000_000.0)
    print()
    print(system.faults.report())
    print()
    print("workload: NX %s ping-pong, %d bytes each way" % (args.variant, nbytes))
    for rank in sorted(outcome):
        print("  rank %d: %s" % (rank, outcome[rank]))
    return 0 if all(v.startswith(("ok", "typed")) for v in outcome.values()) else 1


def _cmd_trace(args) -> int:
    from .bench.tracing import trace_one_word
    from .sim import validate_chrome_trace

    if args.check is not None:
        try:
            with open(args.check) as fh:
                text = fh.read()
        except OSError as exc:
            print("cannot read %s: %s" % (args.check, exc.strerror))
            return 1
        problems = validate_chrome_trace(text)
        if problems:
            for problem in problems:
                print("INVALID: %s" % problem)
            return 1
        print("%s: valid Chrome trace_event JSON" % args.check)
        return 0

    cache_mode = CacheMode.UNCACHED if args.uncached else CacheMode.WRITE_THROUGH
    result = trace_one_word(mode=args.mode, cache_mode=cache_mode)
    print(result.report())
    print()
    print(result.utilization_report())
    if args.out:
        try:
            path = result.write_chrome_trace(args.out)
        except OSError as exc:
            print("cannot write %s: %s" % (args.out, exc.strerror))
            return 1
        problems = validate_chrome_trace(result.chrome_json())
        if problems:
            for problem in problems:
                print("INVALID: %s" % problem)
            return 1
        print()
        print("wrote %s (open in chrome://tracing or https://ui.perfetto.dev)"
              % path)
    return 0 if result.agreement_error <= 0.01 else 1


#: Each WorkloadSpec field's scalar type; None for the fields the command
#: line cannot set (``value_sizes``).
_FIELD_TYPES = {name: hint if hint in (bool, int, float, str) else None
                for name, hint in typing.get_type_hints(WorkloadSpec).items()}


def _flag(field, text, **options):
    """A spec-flag table entry: value flags parse as the field's type."""
    if "action" not in options:
        options["type"] = _FIELD_TYPES[field]
    return field, dict(options, dest=field, help=text)


#: Every spec flag, declared once: flag -> (WorkloadSpec field, argparse
#: keywords).  Subcommands take their flags from here by name.
_SPEC_FLAGS = {
    "--seed": _flag("seed", "workload seed (same seed => same run)"),
    "--transport": _flag("transport", "client transport",
                         choices=["srpc", "sockets"]),
    "--arrival": _flag("arrival", "arrival process",
                       choices=["open", "closed"]),
    "--load": _flag("load", "open-loop offered load (ops/s)"),
    "--concurrency": _flag("concurrency", "worker processes"),
    "--requests": _flag("requests", "requests per run"),
    "--keys": _flag("keys", "keyspace size"),
    "--read-fraction": _flag("read_fraction",
                             "fraction of requests that are GETs"),
    "--scan-fraction": _flag("scan_fraction",
                             "fraction that are scans (uses sockets)"),
    "--dist": _flag("key_distribution", "key popularity",
                    choices=["zipf", "uniform"]),
    "--zipf-s": _flag("zipf_s", "Zipf skew exponent (hotter keys as s grows)"),
    "--nodes": _flag("nodes", "machine size", choices=[4, 16]),
    "--replicas": _flag("replicas", "replicas per key"),
    "--pipeline-window": _flag(
        "pipeline_window", "SRPC multi-call window per binding (1 = off)"),
    "--batch-keys": _flag("batch_keys",
                          "group GETs into multi_get batches (1 = off)"),
    "--cache-keys": _flag("cache_keys", "client LRU cache entries (0 = off)"),
    "--cache-ttl": _flag("cache_ttl_us",
                         "cache entry lifetime in us (0 = no TTL)"),
    "--read-spread": _flag("read_spread", "rotate reads over the replica set",
                           action="store_true"),
    "--onesided": _flag("onesided_reads",
                        "one-sided bypass GETs from exported shard regions "
                        "(docs/ONESIDED.md)", action="store_true"),
    "--cpu-slots": _flag("cpu_slots",
                         "per-node CPU scheduler slots (0 = off)"),
    "--cpu-op-us": _flag("cpu_op_us",
                         "handler CPU charge per op once --cpu-slots is set"),
    "--admission": _flag("admission",
                         "server-side admission control (docs/OVERLOAD.md)",
                         action="store_true"),
    "--admit-queue": _flag("admit_queue",
                           "bounded accept-queue occupancy per node"),
    "--admit-deadline": _flag("admit_deadline_us",
                              "queueing-delay budget in us (0 = none)"),
    "--retry-budget": _flag("retry_budget",
                            "client retries after a rejection"),
    "--retry-base": _flag("retry_base_us",
                          "backoff base in us (doubles per attempt)"),
    "--retry-jitter": _flag("retry_jitter",
                            "jitter fraction on each backoff"),
    "--backpressure": _flag("backpressure",
                            "adaptive open-loop rate trimming on rejections",
                            action="store_true"),
    "--no-backpressure": _flag("backpressure",
                               "disable the adaptive rate trimming",
                               action="store_false"),
    "--slo-latency": _flag("slo_latency_us",
                           "per-request slow and goodput threshold in us "
                           "(0 = off)"),
    "--slo-latency-budget": _flag("slo_latency_budget",
                                  "allowed slow-request fraction"),
    "--slo-error-budget": _flag("slo_error_budget", "allowed error fraction"),
    "--no-telemetry": _flag("telemetry",
                            "skip the time-series sampler and SLO report",
                            action="store_false"),
    "--consistency": _flag("consistency",
                           "client consistency mode (docs/REPLICATION.md)",
                           choices=["eventual", "session", "quorum"]),
    "--quorum-r": _flag("quorum_r", "read quorum size (0 = majority)"),
    "--quorum-w": _flag("quorum_w", "write quorum size (0 = majority)"),
    "--read-repair": _flag("read_repair",
                           "repair stale replicas off the request path",
                           action="store_true"),
    "--staleness": _flag("staleness",
                         "score every GET against the newest acknowledged "
                         "write", action="store_true"),
    "--antientropy": _flag("antientropy",
                           "run the background Merkle anti-entropy sweeper",
                           action="store_true"),
    "--antientropy-interval": _flag("antientropy_interval_us",
                                    "gap between anti-entropy sweeps (us)"),
    "--interval": _flag("antientropy_interval_us",
                        "gap between anti-entropy sweeps (us)"),
    "--repl-queue-cap": _flag("repl_queue_cap",
                              "bound the replication queues (0 = unbounded; "
                              "full queues drop and count)"),
}

# The spec flags each subcommand takes.  A recorded stream carries the
# _STREAM_FLAGS fields (its meta, arrival and length), so replay and
# diff rebuild its spec from them.
_STREAM_FLAGS = ("--seed --arrival --load --concurrency --requests --keys "
                 "--read-fraction --scan-fraction --dist --zipf-s")
_MITIGATION_FLAGS = ("--pipeline-window --batch-keys --cache-keys "
                     "--cache-ttl --read-spread --onesided")
_WORKLOAD_FLAGS = (
    "--seed --transport --arrival --load --concurrency --requests --keys "
    "--read-fraction --scan-fraction --dist --zipf-s --nodes --replicas "
    + _MITIGATION_FLAGS + " --cpu-slots --cpu-op-us --admission "
    "--admit-queue --admit-deadline --retry-budget --retry-base "
    "--retry-jitter --backpressure --slo-latency --consistency --quorum-r "
    "--quorum-w --read-repair --staleness --antientropy "
    "--antientropy-interval --repl-queue-cap")
_CAPACITY_FLAGS = ("--seed --transport --concurrency --requests --keys "
                   "--read-fraction --dist --zipf-s")
_OVERLOAD_FLAGS = ("--cpu-slots --cpu-op-us --admit-queue --admit-deadline "
                   "--retry-budget --retry-base --no-backpressure "
                   "--slo-latency")
_QUORUM_FLAGS = "--quorum-r --quorum-w"
_ANTIENTROPY_FLAGS = ("--seed --load --concurrency --requests --keys "
                      "--read-fraction --interval --repl-queue-cap")
_TRACED_FLAGS = ("--seed --transport --load --concurrency --requests "
                 "--keys --read-fraction --onesided")
_EXPLAIN_FLAGS = _TRACED_FLAGS + (" --no-telemetry --slo-latency "
                                  "--slo-latency-budget --slo-error-budget")


def _add_spec_flags(parser, flags: str, **presets) -> None:
    """Declare ``flags`` from the table on ``parser``.

    ``presets`` are the subcommand's own defaults, by field.  Any other
    flag defaults to unset (None): the WorkloadSpec default applies, or
    for capacity's pair flags the pair builder's preset.
    """
    for flag in flags.split():
        field, options = _SPEC_FLAGS[flag]
        parser.add_argument(flag, default=presets.get(field), **options)


def _fields_set(values, flags: str) -> dict:
    """The fields of ``flags`` that ``values`` sets, as their types.

    ``values`` is the parsed arguments (``vars(args)``) or a recorded
    stream's ``meta``; a missing or None value is unset.
    """
    names = (_SPEC_FLAGS[flag][0] for flag in flags.split())
    return {name: _FIELD_TYPES[name](values[name]) for name in names
            if values.get(name) is not None}


def _spec_from(values, flags: str, **fixed) -> WorkloadSpec:
    """The one spec builder: the fields ``flags`` set in ``values``,
    then the subcommand's ``fixed`` fields."""
    return WorkloadSpec(**dict(_fields_set(values, flags), **fixed))


def _cmd_workload(args) -> int:
    from .sim.faults import FaultPlan
    from .workload import run_workload

    spec = _spec_from(vars(args), _WORKLOAD_FLAGS)
    plan = None
    if args.fault_seed is not None:
        plan = FaultPlan.from_seed(args.fault_seed,
                                   horizon_us=args.fault_horizon,
                                   count=args.fault_count)
        print(plan.describe())
        print()
    report = run_workload(spec, fault_plan=plan)
    print(report.report())
    return 0


def _coerce_spec_field(name: str, raw: str):
    """Coerce a ``field=value`` CLI override to the spec field's type."""
    if name not in _FIELD_TYPES:
        raise SystemExit("unknown WorkloadSpec field %r" % name)
    kind = _FIELD_TYPES[name]
    if kind is None:
        raise SystemExit("field %s cannot be set from the command line"
                         % name)
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise SystemExit("boolean field %s takes true/false, not %r"
                         % (name, raw))
    return kind(raw)


def _spec_overrides(pairs):
    """Parse repeated ``field=value`` arguments into a replace() dict."""
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit("expected field=value, got %r" % pair)
        name, raw = pair.split("=", 1)
        overrides[name] = _coerce_spec_field(name, raw)
    return overrides


def _cmd_record(args) -> int:
    from .workload import (diurnal, flash_crowd, record_stream, save_stream,
                           skew_shift)

    stream = record_stream(_spec_from(vars(args), _STREAM_FLAGS))
    for scenario in args.scenario or []:
        if scenario == "flash_crowd":
            stream = flash_crowd(stream, start_us=args.flash_at,
                                 duration_us=args.flash_duration,
                                 factor=args.flash_factor)
        elif scenario == "diurnal":
            stream = diurnal(stream, period_us=args.diurnal_period,
                             amplitude=args.diurnal_amplitude)
        else:
            stream = skew_shift(stream, at_request=args.shift_at,
                                key_distribution=args.shift_dist,
                                zipf_s=args.shift_zipf_s)
    save_stream(stream, args.out)
    print(stream.describe())
    print("wrote %s" % args.out)
    return 0


def _replay_spec(args, stream):
    """The replay spec: stream provenance + CLI serving overrides."""
    spec = _spec_from(stream.meta, _STREAM_FLAGS, arrival=stream.arrival,
                      requests=len(stream))
    return replace(spec, **_spec_overrides(args.set))


def _plain_path(spec) -> bool:
    """Whether the engine serves this spec request-per-request.

    Grouped dispatch (an SRPC pipeline window or GET batching under
    open arrivals, workload/engine.py) covers several requests with
    one root span, so per-request arrival tagging — and hence stage
    attribution — only applies to the plain path.
    """
    return not (spec.arrival == "open"
                and max(spec.pipeline_window, spec.batch_keys) > 1
                and spec.transport == "srpc")


_GROUPED_NOTE = ("(stage attribution skipped: grouped dispatch — an SRPC "
                 "pipeline window or GET batch — folds several requests "
                 "into one root span, so per-stage totals cannot close "
                 "against per-request latency; see docs/OBSERVABILITY.md)")


def _cmd_replay(args) -> int:
    from .workload import load_stream, run_workload

    stream = load_stream(args.stream)
    print(stream.describe())
    print()
    spec = _replay_spec(args, stream)
    report_a = run_workload(spec, stream=stream)
    if not args.ab:
        print(report_a.report())
        return 0
    spec_b = replace(spec, **_spec_overrides(args.ab))
    report_b = run_workload(spec_b, stream=stream)
    print("== A: baseline ==")
    print(report_a.report())
    print()
    print("== B: %s ==" % " ".join(args.ab))
    print(report_b.report())
    print()
    print("== paired A/B (same offered traffic, request for request) ==")
    rows = [["metric", "A", "B"]]
    rows.append(["completed", "%d" % report_a.completed,
                 "%d" % report_b.completed])
    rows.append(["errors", "%d" % report_a.errors, "%d" % report_b.errors])
    rows.append(["throughput ops/s", "%.0f" % report_a.throughput_ops_s,
                 "%.0f" % report_b.throughput_ops_s])
    for p in (50.0, 95.0, 99.0):
        rows.append(["p%g us" % p, "%.1f" % report_a.percentile(p),
                     "%.1f" % report_b.percentile(p)])
    print("\n".join(format_table(rows)))
    print()
    if _plain_path(spec) and _plain_path(spec_b):
        from .bench.attribution import attribute_pair
        result = attribute_pair(spec, spec_b, stream=stream,
                                label=" ".join(args.ab))
        print(result.report())
    else:
        print(_GROUPED_NOTE)
    return 0


def _print_dropped_spans(report) -> None:
    """Say so when a traced run outgrew the tracer's span limit."""
    if report.spans_dropped:
        print("tracer limit of %d spans reached: %d more spans refused"
              % (len(report.spans), report.spans_dropped))


def _cmd_profile(args) -> int:
    from .obs import build_profile, render_folded
    from .workload import run_workload

    report = run_workload(_spec_from(vars(args), _TRACED_FLAGS,
                                     arrival="open", trace=True))
    _print_dropped_spans(report)
    profile = build_profile(report.spans or [], metrics=report.metrics,
                            top_k=args.top)
    if not profile.requests:
        print("no request traces recorded (is tracing enabled?)")
        return 1
    print(profile.report(top=args.top))
    if args.folded:
        try:
            with open(args.folded, "w") as fh:
                fh.write(render_folded(profile))
                fh.write("\n")
        except OSError as exc:
            print("cannot write %s: %s" % (args.folded, exc.strerror))
            return 1
        print()
        print("wrote %s (collapsed stacks, flamegraph.pl-compatible)"
              % args.folded)
    ok = not profile.problems and profile.conservation_error <= 0.01
    return 0 if ok else 1


def _cmd_diff(args) -> int:
    if args.bench:
        from .bench.report import load_bench_json
        from .obs import diff_bench_payloads

        try:
            payload_a = load_bench_json(args.bench[0])
            payload_b = load_bench_json(args.bench[1])
        except (OSError, ValueError) as exc:
            print("cannot load bench artifact: %s" % exc)
            return 1
        print(diff_bench_payloads(payload_a, payload_b))
        return 0
    if not args.stream or not args.ab:
        print("diff needs either --bench A.json B.json or "
              "--stream PATH with --ab FIELD=VALUE")
        return 2
    from .bench.attribution import attribute_pair
    from .workload import load_stream

    stream = load_stream(args.stream)
    print(stream.describe())
    print()
    spec = _replay_spec(args, stream)
    spec_b = replace(spec, **_spec_overrides(args.ab))
    result = attribute_pair(spec, spec_b, stream=stream,
                            label=" ".join(args.ab))
    print(result.report())
    return 0 if result.ok else 1


def _cmd_capacity(args) -> int:
    from .bench.capacity import (capacity_payload, capacity_sweep,
                                 consistency_pair, mitigation_pair,
                                 overload_pair, paired_capacity_sweep)

    loads = [float(x) for x in args.loads.split(",")]
    values = vars(args)
    spec = _spec_from(values, _CAPACITY_FLAGS, arrival="open")
    mitigations = _fields_set(values, _MITIGATION_FLAGS)
    # A mode flag sweeps a pair whose unset flags take the pair
    # builder's preset; without one the mitigation flags set the spec.
    pair = None
    if args.consistency:
        pair = consistency_pair(spec, **_fields_set(values, _QUORUM_FLAGS))
    elif args.overload:
        pair = overload_pair(spec, **_fields_set(values, _OVERLOAD_FLAGS))
    elif args.ab:
        pair = mitigation_pair(spec, **mitigations)
    if pair is None:
        result = capacity_sweep(loads, replace(spec, **mitigations))
    else:
        result = paired_capacity_sweep(loads, *pair)
    print(result.report())
    if pair is not None and result.kind == "mitigation":
        # Auto-emit the stage attribution for the mitigation A/B: one
        # traced paired run at the most interesting load (the baseline
        # knee if the sweep found one) explains *where* the knee moved.
        attr_load = (result.baseline.knee_load
                     or result.mitigated.knee_load or max(loads))
        print()
        if all(_plain_path(side) for side in pair):
            from .bench.attribution import attribute_pair
            attr = attribute_pair(
                *(side.with_load(attr_load) for side in pair),
                label="capacity --ab at %.0f ops/s" % attr_load)
            print("== stage attribution at %.0f ops/s ==" % attr_load)
            print(attr.report())
        else:
            print(_GROUPED_NOTE)
    if args.json:
        from .bench.report import write_bench_json
        try:
            write_bench_json(args.json, capacity_payload(result))
        except OSError as exc:
            print("cannot write %s: %s" % (args.json, exc.strerror))
            return 1
        except ValueError as exc:
            print(exc)
            return 1
        print()
        print("wrote %s" % args.json)
    return 0


def _cmd_antientropy(args) -> int:
    from .sim.faults import Fault, FaultKind, FaultPlan, FaultSite
    from .workload import run_workload

    spec = _spec_from(vars(args), _ANTIENTROPY_FLAGS, arrival="open",
                      staleness=True, antientropy=True)
    plan = None
    if args.crash_node >= 0:
        # One explicit replica-crash fault: the victim's apply loop
        # silently discards incoming replication records for the
        # window, so its shard diverges until anti-entropy repairs it.
        plan = FaultPlan([Fault(time=args.crash_at,
                                site=FaultSite.KV_REPLICA,
                                kind=FaultKind.CRASH,
                                params={"node": args.crash_node,
                                        "duration_us": args.crash_for})])
        print(plan.describe())
        print()
    report = run_workload(spec, fault_plan=plan)
    print(report.report())
    conv = report.convergence or {}
    if args.json:
        payload = {
            "schema": "repro.antientropy.convergence/v1",
            "seed": spec.seed,
            "interval_us": spec.antientropy_interval_us,
            "repl_queue_cap": spec.repl_queue_cap,
            "fault": ({"site": FaultSite.KV_REPLICA,
                       "kind": FaultKind.CRASH,
                       "node": args.crash_node,
                       "time_us": args.crash_at,
                       "duration_us": args.crash_for}
                      if plan is not None else None),
            "staleness": report.staleness,
            "convergence": conv,
            "spec_line": report.spec_line,
        }
        from .bench.report import write_bench_json
        try:
            write_bench_json(args.json, payload)
        except OSError as exc:
            print("cannot write %s: %s" % (args.json, exc.strerror))
            return 1
        except ValueError as exc:
            print(exc)
            return 1
        print()
        print("wrote %s" % args.json)
    # Success means the sweeper drove the divergence back to zero.
    return 0 if conv.get("divergent_last", 1) == 0 and conv.get("rounds") \
        else 1


def _cmd_explain(args) -> int:
    from .obs import assemble_traces, audit, explain_trace, format_tree
    from .workload import run_workload

    report = run_workload(_spec_from(vars(args), _EXPLAIN_FLAGS,
                                     arrival="open", trace=True))
    _print_dropped_spans(report)
    spans = report.spans or []
    trees = assemble_traces(spans)
    if not trees:
        print("no request traces recorded (is tracing enabled?)")
        return 1
    problems = audit(spans)
    if args.trace_id is not None:
        tree = trees.get(args.trace_id)
        if tree is None:
            print("trace id %d not found (%d traces recorded: %d..%d)"
                  % (args.trace_id, len(trees), min(trees), max(trees)))
            return 1
    else:
        # Default to the widest tree: most mesh nodes touched, then
        # most spans — a replicated PUT rather than a cache-local GET.
        tree = max(trees.values(),
                   key=lambda t: (len(t.nodes()), len(t.spans), -t.tid))
    result = explain_trace(tree, spans)
    print("assembled %d request traces from %d spans (%d audit problems)"
          % (len(trees), len(spans), len(problems)))
    print()
    print(format_tree(tree))
    print()
    print(result.budget.report())
    print("measured %.2f us  stage sum %.2f us  error %.2f%%"
          % (result.measured_us, result.budget.total,
             100.0 * result.budget_error))
    if problems:
        print()
        print("audit problems:")
        for problem in problems:
            print("  " + problem)
    if report.telemetry_lines:
        print()
        print("\n".join(report.telemetry_lines))
    ok = result.budget_error <= 0.01 and not problems and not tree.problems
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    from .apps.kv import KVClient, KVService, ST_MISS, ST_OK
    from .testbed import make_system

    system = make_system()
    service = KVService(system)
    service.preload({"boot/%02d" % i: b"seed-%02d" % i for i in range(8)})
    service.start(srpc_handlers=1, socket_handlers=1)
    lines = []

    def driver(proc):
        client = KVClient(service, proc, args.transport)
        yield from client.connect()
        status = yield from client.put("demo/alpha", b"first value")
        lines.append("put demo/alpha -> status %d" % status)
        status, value = yield from client.get("demo/alpha")
        lines.append("get demo/alpha -> status %d value %r"
                     % (status, bytes(value) if value else None))
        status, value = yield from client.get("demo/missing")
        lines.append("get demo/missing -> %s"
                     % ("miss" if status == ST_MISS else "status %d" % status))
        status, records = yield from client.scan("boot/", 4)
        lines.append("scan boot/ limit 4 -> %d records: %s"
                     % (len(records), [k for k, _ in records]))
        status = yield from client.delete("demo/alpha")
        lines.append("delete demo/alpha -> status %d" % status)
        status, _ = yield from client.get("demo/alpha")
        lines.append("get demo/alpha -> %s (deleted)"
                     % ("miss" if status == ST_MISS else "UNEXPECTED HIT"))
        yield from client.shutdown()
        assert status == ST_MISS or status == ST_OK

    handle = system.spawn(0, driver, name="serve-demo")
    system.run_processes([handle], timeout=30_000_000.0)
    service.shutdown()
    system.run_processes(service.handles, timeout=30_000_000.0)

    print("KV service demo: %d nodes, %d replicas, transport %s"
          % (len(service.nodes), service.replicas, args.transport))
    for line in lines:
        print("  " + line)
    print()
    for node_label, counters in service.counters().items():
        print("  %s: %s" % (node_label,
                            " ".join("%s=%d" % kv
                                     for kv in sorted(counters.items()))))
    print()
    print(system.machine.utilization_report(min_count=1))
    return 0


_FIGURES = {
    "fig3": figure3_raw_vmmc,
    "fig4": figure4_nx,
    "fig5": figure5_vrpc,
    "fig7": figure7_sockets,
    "fig8": figure8_rpc_comparison,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the SHRIMP paper's evaluation results.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name in sorted(_FIGURES) + ["scalars", "budget", "all"]:
        sub.add_parser(name, help="run the %r experiment" % name)
    faults = sub.add_parser(
        "faults",
        help="replay a seeded fault schedule against an NX ping-pong",
    )
    faults.add_argument("--seed", type=int, default=0,
                        help="fault plan seed (same seed => same run)")
    faults.add_argument("--count", type=int, default=8,
                        help="number of faults in the plan")
    faults.add_argument("--horizon", type=float, default=4000.0,
                        help="schedule faults over [0, horizon) microseconds")
    faults.add_argument("--variant", default="AU-1copy",
                        help="NX variant for the driven workload")
    faults.add_argument("--plan-only", action="store_true",
                        help="print the schedule without running a workload")
    trace = sub.add_parser(
        "trace",
        help="trace a Figure 3 one-word transfer and export Chrome JSON",
    )
    trace.add_argument("--mode", choices=["au", "du"], default="au",
                       help="transfer mode: automatic or deliberate update")
    trace.add_argument("--uncached", action="store_true",
                       help="uncached communication memory (the 3.7 us point)")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="Chrome trace output path ('' to skip writing)")
    trace.add_argument("--check", default=None, metavar="FILE",
                       help="only validate an existing trace JSON file")
    workload = sub.add_parser(
        "workload",
        help="run one deterministic workload against the KV service",
    )
    _add_spec_flags(workload, _WORKLOAD_FLAGS)
    workload.add_argument("--fault-seed", type=int, default=None,
                          help="arm a seeded fault plan")
    workload.add_argument("--fault-count", type=int, default=8,
                          help="faults in the armed plan")
    workload.add_argument("--fault-horizon", type=float, default=4000.0,
                          help="fault schedule horizon (us)")
    record = sub.add_parser(
        "record",
        help="freeze a workload's request stream into a JSON artifact",
    )
    record.add_argument("--out", default="stream.json", metavar="PATH",
                        help="stream artifact output path")
    _add_spec_flags(record, _STREAM_FLAGS)
    record.add_argument("--scenario", action="append",
                        choices=["flash_crowd", "diurnal", "skew_shift"],
                        help="shape the stream (repeatable, applied in "
                             "order; see docs/WORKLOADS.md)")
    record.add_argument("--flash-at", type=float, default=5000.0,
                        help="flash crowd: surge start (us)")
    record.add_argument("--flash-duration", type=float, default=3000.0,
                        help="flash crowd: surge length (us)")
    record.add_argument("--flash-factor", type=float, default=4.0,
                        help="flash crowd: arrival-rate multiplier")
    record.add_argument("--diurnal-period", type=float, default=10000.0,
                        help="diurnal: sinusoid period (us)")
    record.add_argument("--diurnal-amplitude", type=float, default=0.6,
                        help="diurnal: load swing fraction in [0, 1)")
    record.add_argument("--shift-at", type=int, default=200,
                        help="skew shift: request index of the hot-set cut")
    record.add_argument("--shift-dist", choices=["zipf", "uniform"],
                        default="zipf",
                        help="skew shift: post-cut key distribution")
    record.add_argument("--shift-zipf-s", type=float, default=1.1,
                        help="skew shift: post-cut Zipf exponent")
    replay = sub.add_parser(
        "replay",
        help="replay a recorded stream verbatim (optionally as a "
             "paired A/B)",
    )
    replay.add_argument("--stream", required=True, metavar="PATH",
                        help="stream artifact from 'record'")
    replay.add_argument("--set", action="append", metavar="FIELD=VALUE",
                        help="override a WorkloadSpec field for the run "
                             "(repeatable), e.g. --set transport=sockets")
    replay.add_argument("--ab", action="append", metavar="FIELD=VALUE",
                        help="run twice on the same stream: baseline vs "
                             "these overrides (repeatable)")
    capacity = sub.add_parser(
        "capacity",
        help="sweep offered load vs tail latency and find the knee",
        description="Without a mode flag, sweep one spec (the mitigation "
                    "flags set it).  --ab sweeps the mitigation pair: A "
                    "with every client-side mitigation off, B with the "
                    "mitigation flags over the preset (%s), or with "
                    "--onesided over all-off, isolating the bypass.  "
                    "--overload and --consistency sweep their pairs "
                    "(docs/OVERLOAD.md, docs/REPLICATION.md); unset pair "
                    "flags take the pair's preset."
                    % ", ".join("%s=%s" % kv for kv in MITIGATIONS.items()),
    )
    _add_spec_flags(capacity, _CAPACITY_FLAGS, requests=300)
    capacity.add_argument("--loads",
                          default="10000,20000,40000,80000,160000,320000",
                          help="comma-separated offered loads (ops/s)")
    capacity.add_argument("--ab", action="store_true",
                          help="paired A/B sweep: mitigations off, then on")
    capacity.add_argument("--overload", action="store_true",
                          help="overload-control A/B (docs/OVERLOAD.md): "
                               "both sides model contended CPUs, only B "
                               "arms admission + retry + backpressure")
    capacity.add_argument("--consistency", action="store_true",
                          help="consistency A/B (docs/REPLICATION.md): A "
                               "spreads reads under eventual consistency, "
                               "B runs quorum reads/writes + read repair "
                               "and must serve zero stale reads")
    _add_spec_flags(capacity, " ".join(
        (_MITIGATION_FLAGS, _OVERLOAD_FLAGS, _QUORUM_FLAGS)))
    capacity.add_argument("--json", default=None, metavar="PATH",
                          help="also write the machine-readable sweep "
                               "(knee, p50/p95/p99 per point, config, seed)")
    antientropy = sub.add_parser(
        "antientropy",
        help="provoke replica divergence and watch anti-entropy heal it",
    )
    _add_spec_flags(antientropy, _ANTIENTROPY_FLAGS, load=40000.0,
                    concurrency=4, requests=300, keys=80, read_fraction=0.60,
                    antientropy_interval_us=1500.0, repl_queue_cap=2)
    antientropy.add_argument("--crash-node", type=int, default=1,
                             help="replica whose apply loop crashes "
                                  "(-1 = no crash fault)")
    antientropy.add_argument("--crash-at", type=float, default=1500.0,
                             help="crash time (us)")
    antientropy.add_argument("--crash-for", type=float, default=4000.0,
                             help="crash window: incoming replication "
                                  "records are discarded this long (us)")
    antientropy.add_argument("--json", default=None, metavar="PATH",
                             help="also write the machine-readable "
                                  "convergence record (divergent-keys "
                                  "series, rounds, repairs)")
    explain = sub.add_parser(
        "explain",
        help="run a traced workload and explain one request's causal tree",
    )
    _add_spec_flags(explain, _EXPLAIN_FLAGS, concurrency=4, requests=80,
                    keys=64, read_fraction=0.70, telemetry=True,
                    slo_latency_us=400.0, slo_latency_budget=0.1,
                    slo_error_budget=0.01)
    explain.add_argument("--trace-id", type=int, default=None,
                         help="explain this trace id (default: the tree "
                              "touching the most mesh nodes)")
    profile = sub.add_parser(
        "profile",
        help="fold a traced workload into a fleet-wide flame profile",
    )
    _add_spec_flags(profile, _TRACED_FLAGS, concurrency=4, requests=120,
                    keys=64, read_fraction=0.70)
    profile.add_argument("--folded", default=None, metavar="PATH",
                         help="also write collapsed stacks "
                              "(flamegraph.pl-compatible)")
    profile.add_argument("--top", type=int, default=3,
                         help="hot spans listed per stage")
    diff = sub.add_parser(
        "diff",
        help="attribute an A/B latency delta to stages, or diff two "
             "bench artifacts",
    )
    diff.add_argument("--stream", default=None, metavar="PATH",
                      help="stream artifact from 'record' (both sides "
                           "replay it, op for op)")
    diff.add_argument("--set", action="append", metavar="FIELD=VALUE",
                      help="override a WorkloadSpec field on BOTH sides "
                           "(repeatable)")
    diff.add_argument("--ab", action="append", metavar="FIELD=VALUE",
                      help="the B side's overrides (repeatable); A is "
                           "the stream's baseline spec")
    diff.add_argument("--bench", nargs=2, default=None,
                      metavar=("A.json", "B.json"),
                      help="diff two bench artifacts (any BENCH_*.json "
                           "schema) instead of replaying a stream")
    serve = sub.add_parser(
        "serve",
        help="boot the sharded KV service and run a scripted demo client",
    )
    serve.add_argument("--transport", choices=["srpc", "sockets"],
                       default="srpc", help="transport for point ops")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "capacity":
        return _cmd_capacity(args)
    if args.command == "antientropy":
        return _cmd_antientropy(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command in _FIGURES:
        print(_FIGURES[args.command]().report())
    elif args.command == "scalars":
        print(paper_table())
    elif args.command == "budget":
        _cmd_budget()
    else:  # all
        _cmd_budget()
        print()
        print(paper_table())
        for name in sorted(_FIGURES):
            print()
            print(_FIGURES[name]().report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
