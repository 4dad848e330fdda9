"""Analytic latency decomposition and shared latency statistics.

Two halves live here.  The first builds the one-word latency budget
straight from :class:`~repro.hardware.config.MachineConfig` constants —
the same arithmetic a designer would do on a whiteboard — and names each
stage.  `tests/calibration/test_analysis.py` checks the analytic totals
against the simulated measurements, so the configuration, the simulator,
and the documentation cannot drift apart silently.

The second half is the repo-wide percentile toolkit: an exact
:func:`percentile` over a finite sample list, and a streaming
:class:`LatencyHistogram` with geometric buckets for workloads whose
sample counts would make keeping every latency wasteful.  Everything
that reports p50/p95/p99/p99.9 (``repro.workload``, the capacity sweep
in ``repro.bench``) goes through these two, so tail numbers are computed
one way everywhere — and :func:`format_table` lays out every text
table, so they print one way too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .hardware.config import CacheMode, MachineConfig

__all__ = [
    "Stage",
    "LatencyBudget",
    "LatencyHistogram",
    "TAIL_PERCENTILES",
    "au_word_budget",
    "du_word_budget",
    "format_table",
    "percentile",
]

# The canonical tail-latency report: median plus the three tails the
# serving literature quotes.  Reports iterate this tuple so every table
# lists the same columns in the same order.
TAIL_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)


def percentile(samples: Sequence[float], p: float) -> float:
    """Exact percentile of a finite sample, with linear interpolation.

    ``p`` is in percent (``percentile(xs, 99.9)``).  Uses the common
    "linear" definition (NumPy's default): rank ``p/100 * (n-1)`` into
    the sorted samples, interpolating between neighbors.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100], got %r" % p)
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return data[0]
    rank = (p / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


class LatencyHistogram:
    """A streaming latency histogram with geometric (log-scale) buckets.

    Memory is bounded by the *dynamic range* of the samples, not their
    count, so the workload engine can record one entry per request
    without keeping the requests.  Bucket ``i >= 1`` covers
    ``(resolution * growth**(i-1), resolution * growth**i]``; everything
    at or below ``resolution`` lands in bucket 0.  With the default
    ``growth`` of 1.02 a reported percentile is within 2% (one bucket)
    of the exact value, and the exact ``min``/``max`` are kept so the
    extreme percentiles are clamped to real samples.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_resolution", "_growth", "_log_growth", "_buckets")

    def __init__(self, name: str = "latency", resolution: float = 0.01,
                 growth: float = 1.02):
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._resolution = resolution
        self._growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        """Add one sample (non-negative; microseconds by convention)."""
        if value < 0.0:
            raise ValueError("latency samples cannot be negative: %r" % value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= self._resolution:
            index = 0
        else:
            index = 1 + int(math.log(value / self._resolution)
                            / self._log_growth)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        """Record every value in ``values``."""
        for value in values:
            self.record(value)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (other._resolution != self._resolution
                or other._growth != self._growth):
            raise ValueError("cannot merge histograms with different buckets")
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
            self.max = other.max if self.max is None else max(self.max, other.max)
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError("histogram %r has no samples" % self.name)
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """The latency at percentile ``p`` (upper bucket edge, clamped).

        Bounded above by the bucket width: at most ``growth``-times the
        exact sample, and never outside the observed ``[min, max]``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100], got %r" % p)
        if not self.count:
            raise ValueError("histogram %r has no samples" % self.name)
        assert self.min is not None and self.max is not None
        if p == 0.0:
            return self.min
        target = (p / 100.0) * self.count
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= target:
                edge = self._resolution * math.exp(self._log_growth * index)
                return max(self.min, min(self.max, edge))
        return self.max

    def percentiles(self, ps: Sequence[float] = TAIL_PERCENTILES) -> Dict[float, float]:
        """``{p: latency}`` for each requested percentile."""
        return {p: self.percentile(p) for p in ps}

    def summary(self) -> str:
        """One line: count, mean, and the canonical tail percentiles."""
        if not self.count:
            return "%s: no samples" % self.name
        tails = " ".join("p%s=%.2f" % (("%g" % p), self.percentile(p))
                         for p in TAIL_PERCENTILES)
        return "%s: n=%d mean=%.2f %s max=%.2f" % (
            self.name, self.count, self.mean, tails, self.max)


def format_table(rows: Sequence[Sequence[str]]) -> List[str]:
    """Align a list of string rows into fixed-width columns."""
    if not rows:
        return []
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rows
    ]


@dataclass
class Stage:
    name: str
    microseconds: float


@dataclass
class LatencyBudget:
    """A named decomposition of one transfer's latency."""

    title: str
    stages: List[Stage]

    @property
    def total(self) -> float:
        return sum(stage.microseconds for stage in self.stages)

    def report(self) -> str:
        """The budget as aligned text, one line per stage."""
        width = max(len(s.name) for s in self.stages)
        lines = [self.title]
        for stage in self.stages:
            lines.append("  %-*s %6.2f us" % (width, stage.name, stage.microseconds))
        lines.append("  %-*s %6.2f us" % (width, "TOTAL", self.total))
        return "\n".join(lines)


def _network_stages(config: MachineConfig, payload: int, hops: int) -> List[Stage]:
    wire_bytes = payload + config.packet_header_bytes
    return [
        Stage("packetize + FIFO entry", config.packetize_latency),
        Stage("arbiter + NIC injection", config.nic_injection_latency),
        Stage("NIC<->router handoffs", 2 * config.nic_link_latency),
        Stage("router hops (%d)" % hops, hops * config.router_hop_latency),
        Stage("wire time (%dB)" % wire_bytes, wire_bytes / config.link_bandwidth),
        Stage("IPT lookup", config.ipt_lookup),
        Stage("incoming DMA setup", config.incoming_dma_setup),
        Stage("EISA DMA write", payload / config.eisa_dma_bandwidth),
    ]


def _poll_stage(config: MachineConfig, mode: CacheMode) -> Stage:
    cost = config.read_cost(mode, config.word_size) + config.costs.vmmc_poll_check
    return Stage("receiver poll detect", cost)


def au_word_budget(config: Optional[MachineConfig] = None,
                   cache_mode: CacheMode = CacheMode.WRITE_THROUGH,
                   hops: int = 1) -> LatencyBudget:
    """The 4.75 us (write-through) / 3.7 us (uncached) decomposition.

    Assumes a non-combining page, as the latency-optimal configuration
    uses (a combining page would add its flush-timer wait).
    """
    config = config or MachineConfig.shrimp_prototype()
    word = config.word_size
    stages = [
        Stage("sender store (%s)" % cache_mode.value, config.write_cost(cache_mode, word)),
        Stage("snoop + OPT lookup", config.snoop_opt_lookup),
    ]
    stages += _network_stages(config, word, hops)
    stages.append(_poll_stage(config, cache_mode))
    return LatencyBudget("AU one-word transfer (%s)" % cache_mode.value, stages)


def du_word_budget(config: Optional[MachineConfig] = None,
                   cache_mode: CacheMode = CacheMode.WRITE_THROUGH,
                   hops: int = 1) -> LatencyBudget:
    """The 7.6 us deliberate-update decomposition."""
    config = config or MachineConfig.shrimp_prototype()
    word = config.word_size
    stages = [
        Stage("vmmc_send bookkeeping", config.costs.vmmc_send_call),
        Stage("2 EISA PIO accesses", 2 * config.eisa_pio_access),
        Stage("DU engine setup", config.du_engine_setup),
        Stage("DMA read setup", config.du_dma_read_setup),
        Stage("EISA DMA read", word / config.eisa_dma_bandwidth),
    ]
    stages += _network_stages(config, word, hops)
    stages.append(_poll_stage(config, cache_mode))
    return LatencyBudget("DU one-word transfer (%s)" % cache_mode.value, stages)
