"""Command line: ``python -m ledger run|compare``.

``run`` measures the workloads, prints every metric as
``workload metric value unit``, names each failed correctness check,
writes one JSON file and ends with a one-line JSON summary; it exits 1
when a check fails and 2 when the simulator's sources are missing.
``compare`` reads run files of two sides split by ``--`` and prints one
verdict per (workload, metric).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .compare import compare, format_rows
from .runner import ROOT, ChildError, RunConfig, load_declared, run
from .workloads import SIM_SEED, WORKLOADS, select


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="measure the workloads")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: all, round-robin)")
    p.add_argument("--seed", type=int, default=SIM_SEED,
                   help="seed of the timed host unit's input")
    p.add_argument("--sim-seed", type=int, default=SIM_SEED,
                   help="seed of the reference input the simulated "
                        "metrics come from")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="host-unit time budget per workload")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics only, 1: per-layer only "
                        "(default: both)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny runs (200 requests, 2 sweep rates)")
    p.add_argument("--out", type=Path,
                   help="run file (default: ledger/results/run-<time>.json)")
    sub.add_parser("compare", help="verdicts between two sets of runs: "
                                   "compare A.json... -- B.json...")
    return parser


def _run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("ledger: no simulator sources at %s" % (ROOT / "src" / "repro"),
              file=sys.stderr)
        return 2
    declared = load_declared()
    kinds = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",),
             1: ("per_layer",)}[args.trace]
    config = RunConfig(workloads=select(args.workload), seed=args.seed,
                       sim_seed=args.sim_seed, seconds=args.seconds,
                       end_to_end="end_to_end" in kinds,
                       per_layer="per_layer" in kinds, smoke=args.smoke)
    try:
        outcomes = run(config, log=lambda line: print(line, file=sys.stderr))
    except ChildError as exc:
        print("ledger: %s" % exc, file=sys.stderr)
        return 1

    units = {entry["name"]: entry["unit"]
             for kind in kinds for entry in declared[kind]}
    per_workload = {}
    for name, outcome in outcomes.items():
        if set(outcome.values) != set(units):
            raise RuntimeError("%s: emitted metrics differ from BENCHMARK.json"
                               ": %s" % (name, sorted(
                                   set(outcome.values) ^ set(units))))
        metrics = {metric: {"value": outcome.values[metric],
                            "unit": units[metric]} for metric in units}
        for metric, entry in metrics.items():
            print("%s %s %r %s" % (name, metric, entry["value"], entry["unit"]))
        for check, ok, detail in outcome.checks:
            if not ok:
                print("FAIL %s %s: %s" % (name, check, detail))
        per_workload[name] = {
            "metrics": metrics,
            "samples": outcome.samples,
            "checks": [{"name": c, "ok": ok, "detail": d}
                       for c, ok, d in outcome.checks],
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "correct": outcome.correct,
        }
    correct = all(o.correct for o in outcomes.values())
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    out = args.out or (ROOT / "ledger" / "results" / (
        "run-%s-%d.json" % (time.strftime("%Y%m%dT%H%M%S"), os.getpid())))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"schema": "ledger.run/v1", "seed": args.seed,
                   "sim_seed": args.sim_seed, "seconds": args.seconds,
                   "smoke": args.smoke, "kinds": list(kinds),
                   "python": sys.version.split()[0], "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "workloads": per_workload}, handle, indent=1)
    print("wrote %s" % out, file=sys.stderr)
    metrics = (per_workload[args.workload]["metrics"] if args.workload
               else {name: entry["metrics"]
                     for name, entry in per_workload.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _compare(files) -> int:
    if "--" in files:
        split = files.index("--")
        base, head = files[:split], files[split + 1:]
    else:
        base, head = [], []
    if not base or not head:
        print("usage: python -m ledger compare A.json... -- B.json...",
              file=sys.stderr)
        return 2

    def load(paths):
        runs = []
        for path in paths:
            with open(path) as handle:
                runs.append(json.load(handle))
        return runs

    rows = compare(load(base), load(head), load_declared())
    for line in format_rows(rows):
        print(line)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        # Split by hand: argparse drops the "--" between the two sides.
        return _compare(argv[1:])
    args = _parser().parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
