"""The ledger's workloads: what each runs and on which input.

A workload is plain data — the keyword arguments of a
``repro.workload.WorkloadSpec`` plus the sweep grid — so the parent
process never imports the simulator; each child builds the spec from
these dictionaries.

Two inputs per workload:

* the *host unit* — the timed, repeated run — takes its seed from the
  command line, so every run of the benchmark times a fresh input;
* the *reference* — the run the simulated metrics come from — keeps the
  pinned :data:`SIM_SEED` unless asked otherwise.  Simulated time is a
  deterministic function of code and input, so on a pinned input it
  repeats exactly and two commits compare exactly.  On a fresh input
  per run it would not: across seeds 1-12 the SRPC knee ranged 160k to
  240k ops/s and the p99 at the reference rate 151 to 269 us.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Seed of the reference input the simulated metrics are measured on.
SIM_SEED = 11

_KV_BASE = dict(nodes=4, replicas=2, transport="srpc", arrival="open",
                load=160000.0, concurrency=16, requests=3000, keys=200,
                key_distribution="zipf", zipf_s=1.1, read_fraction=0.90)


def _grid(low: int, high: int, step: int = 20000) -> Tuple[float, ...]:
    return tuple(float(rate) for rate in range(low, high + 1, step))


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its spec, its sweep, and its traced-run size."""

    name: str
    spec: Dict[str, object]
    #: Offered rates of the capacity sweep (open loop); empty for a
    #: closed loop, whose capacity is its own throughput.
    grid: Tuple[float, ...] = ()
    #: Requests in the traced run.  Folding a trace costs time in
    #: proportion to requests x spans, so the traced run stays small.
    traced_requests: int = 400

    def spec_at(self, seed: int) -> Dict[str, object]:
        """Spec keyword arguments of the run at ``seed``."""
        return dict(self.spec, seed=seed)

    def smoke(self) -> "Workload":
        """Toy sizes: 200-request runs, 20 traced requests, and a sweep
        of the reference rate and one rate far past any knee."""
        return replace(
            self, spec=dict(self.spec, requests=200), traced_requests=20,
            grid=(float(self.spec["load"]), 2.0e6) if self.grid else ())


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="kv-srpc-sweep",
        spec=dict(_KV_BASE),
        grid=_grid(140000, 300000),
    ),
    Workload(
        name="kv-onesided-sweep",
        spec=dict(_KV_BASE, onesided_reads=True, read_fraction=0.95),
        grid=_grid(160000, 380000),
    ),
    Workload(
        name="kv-sockets-mixed",
        spec=dict(_KV_BASE, transport="sockets", arrival="closed",
                  concurrency=8, requests=1500, keys=2000,
                  key_distribution="uniform", read_fraction=0.45,
                  scan_fraction=0.05, scan_limit=8),
        traced_requests=100,
    ),
)}


def select(name: Optional[str]) -> Tuple[Workload, ...]:
    """The named workload, or all of them in their fixed order."""
    return tuple(WORKLOADS.values()) if name is None else (WORKLOADS[name],)
