"""Perf smoke guard: the engine must not quietly lose its speed.

The guard times two engine loops against a plain ``heapq`` + generator
loop doing the same N timed resumptions, in one process, alternating
each pair, and gates the ratio of their CPU times:

* a dispatch microbench (one process yielding ``sim.timeout(1.0)``
  N times);
* the plain sleep of a user process (``UserProcess.compute(1.0)`` N
  times), so sleeps sent back through ``Timeout`` fail it.

A slower or busier host slows both loops alike, so the ratio carries
from machine to machine where a frozen events/sec figure does not; an
accidentally quadratic hot path or a silently disabled fast path moves
only the engine.  A host where the ratio itself misreads can opt out
with ``REPRO_SKIP_PERF_SMOKE=1`` (see docs/SIMULATOR.md, "How to
profile").
"""

import gc
import heapq
import os
import time

import pytest

from repro.kernel import ShrimpSystem
from repro.sim.core import Simulator
from repro.sim.process import Process

#: Ceiling on the engine's CPU time for the spin loop over the plain
#: loop's, in the median of ``ROUNDS`` alternating pairs.  Measured on
#: a 2-core shared x86-64 Linux container under CPython 3.11.7: medians
#: 6.48-7.02 across nine processes (single pairs 4.1-9.9).  8.5 leaves
#: about 20% over the highest median and sits below the 9.1 an engine
#: 40% slower per dispatch reads.  Only 3.11 was measured; CI's 3.10
#: (no specializing interpreter) and 3.12 may read other ratios.
MAX_DISPATCH_RATIO = 8.5
#: Ceiling on a user process's plain sleeps (``UserProcess.compute``)
#: over the plain loop, in the same median.  Measured on the same
#: container: medians 4.11-4.33 across three processes; the same loop
#: with ``compute`` sleeping through ``Timeout`` read 8.52-9.48.  5.5
#: leaves about 25% over the highest median and sits 35% below the
#: ``Timeout`` path.  Again only CPython 3.11 was measured.
MAX_SLEEP_RATIO = 5.5
EVENTS = 50_000
ROUNDS = 9
# CPython 3.11 runs a function specialized from its eighth call on;
# before that the plain loop runs about 1.5x slower, and the ratio with it.
WARMUP_CALLS = 10


def _spin(sim, n):
    for _ in range(n):
        yield sim.timeout(1.0)


def _engine_cpu_s(events):
    sim = Simulator()
    Process(sim, _spin(sim, events), name="perf-smoke-spin")
    t0 = time.process_time()
    sim.run()
    return time.process_time() - t0


def _sleep_spin(proc, n):
    for _ in range(n):
        yield from proc.compute(1.0)


def _sleep_cpu_s(events):
    proc = ShrimpSystem().kernels[0].create_process("perf-smoke")
    Process(proc.sim, _sleep_spin(proc, events), name="perf-smoke-sleep")
    t0 = time.process_time()
    proc.sim.run()
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


def ratios(engine_cpu_s):
    """Engine/plain CPU-time ratios of ``ROUNDS`` alternating pairs."""
    for _ in range(WARMUP_CALLS):
        engine_cpu_s(1000)
        _plain_cpu_s(1000)
    return sorted(_timed(engine_cpu_s, EVENTS) / _timed(_plain_cpu_s, EVENTS)
                  for _ in range(ROUNDS))


def _check(engine_cpu_s, ceiling, what):
    measured = ratios(engine_cpu_s)
    median = measured[ROUNDS // 2]
    assert median <= ceiling, (
        "the engine spends %.2fx the CPU time of a plain heapq loop per "
        "%s (ceiling %.1fx; pairs %s) — engine regression, or a host "
        "where the ratio misreads (set REPRO_SKIP_PERF_SMOKE=1 if it's "
        "the host)"
        % (median, what, ceiling, " ".join("%.2f" % r for r in measured)))


skip_on_request = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="perf smoke disabled for this host")


@skip_on_request
def test_dispatch_cost_stays_within_a_ratio_of_a_plain_heap_loop():
    """Median engine/plain ratio <= MAX_DISPATCH_RATIO."""
    _check(_engine_cpu_s, MAX_DISPATCH_RATIO, "dispatch")


@skip_on_request
def test_process_sleep_cost_stays_within_a_ratio_of_a_plain_heap_loop():
    """Median user-process-sleep/plain ratio <= MAX_SLEEP_RATIO."""
    _check(_sleep_cpu_s, MAX_SLEEP_RATIO, "user-process sleep")
