"""Engine-speed benchmark: sim-events/sec and capacity-workload wall time.

Two measurements, one artifact (``BENCH_sim.json``):

* **dispatch** — a raw event-dispatch microbench: one process yielding
  ``sim.timeout(1.0)`` N times, so both the seed engine and the current
  engine execute *exactly N* scheduler entries and events/sec compares
  like for like.  This is the headline engine-speed number.
* **capacity** — the capacity workload (the docs/WORKLOADS.md knee
  specs) end to end: wall seconds and entries dispatched.  The current
  engine also *eliminates* entries (merged sleeps, synchronous store
  handoffs, coalesced timers — docs/SIMULATOR.md), so events/sec is
  reported as **seed-equivalent events/sec**: the seed engine's entry
  count for the identical workload divided by the current wall time.
  Raw counts for both engines are in the artifact so nobody has to
  take the normalization on faith.

``SEED_BASELINE`` holds the seed engine's numbers, measured
back-to-back with the current engine on the same idle machine (same
Python, best of the repeats) — wall-clock comparisons across *different*
machines are meaningless, which is also why the CI perf smoke guard
(tests/bench/test_perf_smoke.py) allows a wide margin and an opt-out.

Regenerate with ``make bench-sim-json`` (CI uploads the artifact).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..sim.core import Simulator
from ..sim.process import Process
from ..workload import WorkloadSpec, run_workload
from .report import write_bench_json

__all__ = ["SCHEMA", "SEED_BASELINE", "CAPACITY_SPECS", "dispatch_rate",
           "capacity_wall", "simspeed_payload", "write_simspeed_json"]

SCHEMA = "repro.bench.simspeed/v1"

#: Seed-engine reference numbers (commit ccfc236 lineage, before the
#: PR 9 engine work), measured back-to-back with the current engine on
#: the same idle machine: the dispatch microbench at its default size
#: and the capacity pass below, best of 3.  Update these only from a
#: paired same-machine measurement.
SEED_BASELINE: Dict[str, float] = {
    "dispatch_events": 200000,
    "dispatch_wall_s": 0.515,
    "dispatch_events_per_s": 388437.0,
    "capacity_events": 175813,
    "capacity_wall_s": 0.994,
}

#: The capacity pass: the knee neighbourhood of the docs/WORKLOADS.md
#: sweep — one run below the knee, one at it.
CAPACITY_SPECS: List[WorkloadSpec] = [
    WorkloadSpec(seed=11, transport="srpc", arrival="open",
                 load=20000.0, concurrency=8, requests=600, keys=200),
    WorkloadSpec(seed=11, transport="srpc", arrival="open",
                 load=40000.0, concurrency=8, requests=600, keys=200),
]


def _spin(sim: Simulator, n: int):
    for _ in range(n):
        yield sim.timeout(1.0)


def dispatch_rate(events: int = 200000, repeats: int = 3) -> Dict[str, float]:
    """Raw dispatch throughput: best-of-``repeats`` events/sec."""
    best = None
    executed = 0
    for _ in range(repeats):
        sim = Simulator()
        Process(sim, _spin(sim, events), name="simspeed-spin")
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        executed = sim.events_executed
        if best is None or wall < best:
            best = wall
    return {
        "events": executed,
        "best_wall_s": best,
        "events_per_s": executed / best,
    }


def capacity_wall(specs: Optional[List[WorkloadSpec]] = None,
                  repeats: int = 3) -> Dict[str, float]:
    """Capacity-workload wall time: best-of-``repeats`` for one pass.

    A pass runs every spec in ``specs`` once; ``events`` is the pass's
    total dispatched entry count (identical across repeats — the engine
    is deterministic).
    """
    specs = CAPACITY_SPECS if specs is None else specs
    best = None
    events = requests = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        events = requests = 0
        for spec in specs:
            report = run_workload(spec)
            events += report.events_executed
            requests += report.completed + report.errors + report.rejected
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    return {
        "specs": len(specs),
        "requests": requests,
        "events": events,
        "best_wall_s": best,
    }


def simspeed_payload(quick: bool = False) -> dict:
    """The full BENCH_sim.json payload: measurements + seed-relative ratios.

    ``quick`` shrinks the microbench and skips repeats — for CI smoke,
    not for committing.
    """
    dispatch = dispatch_rate(events=50000 if quick else 200000,
                             repeats=1 if quick else 3)
    capacity = capacity_wall(repeats=1 if quick else 3)
    base = SEED_BASELINE
    seed_equiv_eps = base["capacity_events"] / capacity["best_wall_s"]
    payload = {
        "schema": SCHEMA,
        "quick": quick,
        "baseline_seed_engine": dict(base),
        "dispatch": dispatch,
        "capacity": dict(capacity,
                         seed_equivalent_events_per_s=seed_equiv_eps),
        "speedup_vs_seed": {
            "dispatch_events_per_s":
                dispatch["events_per_s"] / base["dispatch_events_per_s"],
            "capacity_wall":
                base["capacity_wall_s"] / capacity["best_wall_s"],
            "capacity_events_eliminated":
                1.0 - capacity["events"] / base["capacity_events"],
            "capacity_seed_equivalent_events_per_s":
                seed_equiv_eps
                / (base["capacity_events"] / base["capacity_wall_s"]),
        },
        "methodology": (
            "dispatch: identical entry counts on both engines, so "
            "events/sec compares like for like.  capacity: the current "
            "engine eliminates entries for the same workload, so "
            "seed-equivalent events/sec = seed entry count / current "
            "wall.  Baselines are same-machine back-to-back; do not "
            "compare walls across machines."),
    }
    return payload


def write_simspeed_json(path: str, quick: bool = False) -> dict:
    """Measure and write ``path``; returns the payload.

    Goes through the shared schema'd writer so the artifact is
    guaranteed ingestible by ``python -m repro diff --bench``.
    """
    payload = simspeed_payload(quick=quick)
    return write_bench_json(path, payload)


def main(argv=None) -> int:
    """CLI: ``python -m repro.bench.simspeed [--json PATH] [--quick]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.simspeed",
        description="Measure sim-events/sec and capacity wall time.")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the BENCH_sim.json artifact here")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, no repeats (CI smoke)")
    args = parser.parse_args(argv)
    if args.json:
        payload = write_simspeed_json(args.json, quick=args.quick)
    else:
        payload = simspeed_payload(quick=args.quick)
    speed = payload["speedup_vs_seed"]
    print("dispatch: %d events in %.3f s -> %.0f events/s (%.2fx seed)"
          % (payload["dispatch"]["events"],
             payload["dispatch"]["best_wall_s"],
             payload["dispatch"]["events_per_s"],
             speed["dispatch_events_per_s"]))
    print("capacity: %d entries in %.3f s (seed: %d in %.3f s) -> "
          "wall %.2fx, %.0f%% entries eliminated"
          % (payload["capacity"]["events"],
             payload["capacity"]["best_wall_s"],
             payload["baseline_seed_engine"]["capacity_events"],
             payload["baseline_seed_engine"]["capacity_wall_s"],
             speed["capacity_wall"],
             100.0 * speed["capacity_events_eliminated"]))
    print("capacity seed-equivalent events/s: %.0f (%.2fx seed)"
          % (payload["capacity"]["seed_equivalent_events_per_s"],
             speed["capacity_seed_equivalent_events_per_s"]))
    if args.json:
        print("wrote %s" % args.json)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
