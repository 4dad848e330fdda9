"""Perf smoke guard: the engine must not quietly lose its speed.

The guard times the dispatch microbench of ``repro.bench.simspeed``
(one process yielding ``sim.timeout(1.0)`` N times) against a plain
``heapq`` + generator loop doing the same N timed resumptions, in one
process, alternating the two, and gates the ratio of their CPU times.
A slower or busier host slows both loops alike, so the ratio carries
from machine to machine where a frozen events/sec figure does not; an
accidentally quadratic hot path or a silently disabled fast path moves
only the engine.  A host where the ratio itself misreads can opt out
with ``REPRO_SKIP_PERF_SMOKE=1`` (see docs/SIMULATOR.md, "How to
profile").
"""

import gc
import heapq
import json
import os
import pathlib
import time

import pytest

from repro.bench.simspeed import _spin
from repro.sim.core import Simulator
from repro.sim.process import Process

BENCH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_sim.json"

#: Ceiling on the engine's CPU time for the spin loop over the plain
#: loop's, in the median of ``ROUNDS`` alternating pairs.  Measured on
#: a 2-core shared x86-64 Linux container under CPython 3.11.7: medians
#: 6.48-7.02 across nine processes (single pairs 4.1-9.9).  8.5 leaves
#: about 20% over the highest median and sits below the 9.1 an engine
#: 40% slower per dispatch reads.  Only 3.11 was measured; CI's 3.10
#: (no specializing interpreter) and 3.12 may read other ratios.
MAX_DISPATCH_RATIO = 8.5
EVENTS = 50_000
ROUNDS = 9
# CPython 3.11 runs a function specialized from its eighth call on;
# before that the plain loop runs about 1.5x slower, and the ratio with it.
WARMUP_CALLS = 10


def _engine_cpu_s(events):
    sim = Simulator()
    Process(sim, _spin(sim, events), name="perf-smoke-spin")
    t0 = time.process_time()
    sim.run()
    return time.process_time() - t0


def _plain_spin(n):
    for _ in range(n):
        yield 1.0


def _plain_cpu_s(events):
    """The same timed resumptions with nothing but a heap and a
    generator: pop the earliest entry, resume it, push its next wake."""
    heap = [(0.0, 0, _plain_spin(events))]
    seq = 1
    pop, push = heapq.heappop, heapq.heappush
    t0 = time.process_time()
    while heap:
        now, _, gen = pop(heap)
        for delay in gen:
            push(heap, (now + delay, seq, gen))
            seq += 1
            break
    return time.process_time() - t0


def _timed(loop, events):
    # Collect first and pause the collector, so garbage one loop leaves
    # behind is never billed to the other.
    gc.collect()
    gc.disable()
    try:
        return loop(events)
    finally:
        gc.enable()


def dispatch_ratios():
    """Engine/plain CPU-time ratios of ``ROUNDS`` alternating pairs."""
    for _ in range(WARMUP_CALLS):
        _engine_cpu_s(1000)
        _plain_cpu_s(1000)
    return sorted(_timed(_engine_cpu_s, EVENTS) / _timed(_plain_cpu_s, EVENTS)
                  for _ in range(ROUNDS))


@pytest.mark.skipif(os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
                    reason="perf smoke disabled for this host")
def test_dispatch_cost_stays_within_a_ratio_of_a_plain_heap_loop():
    """Median engine/plain ratio <= MAX_DISPATCH_RATIO."""
    ratios = dispatch_ratios()
    median = ratios[ROUNDS // 2]
    assert median <= MAX_DISPATCH_RATIO, (
        "the engine spends %.2fx the CPU time of a plain heapq loop per "
        "dispatch (ceiling %.1fx; pairs %s) — engine regression, or a "
        "host where the ratio misreads (set REPRO_SKIP_PERF_SMOKE=1 if "
        "it's the host)"
        % (median, MAX_DISPATCH_RATIO, " ".join("%.2f" % r for r in ratios)))


def test_bench_artifact_schema_and_claims():
    """The committed artifact is well-formed and self-consistent."""
    committed = json.loads(BENCH.read_text())
    assert committed["schema"] == "repro.bench.simspeed/v1"
    assert not committed["quick"], "commit full measurements, not --quick"
    base = committed["baseline_seed_engine"]
    dispatch = committed["dispatch"]
    speed = committed["speedup_vs_seed"]
    assert dispatch["events"] >= 200000
    ratio = dispatch["events_per_s"] / base["dispatch_events_per_s"]
    assert abs(ratio - speed["dispatch_events_per_s"]) < 1e-9
    # The PR 9 tentpole claim, pinned: >= 2x dispatch events/sec.
    assert speed["dispatch_events_per_s"] >= 2.0
    assert 0.0 < speed["capacity_events_eliminated"] < 1.0
