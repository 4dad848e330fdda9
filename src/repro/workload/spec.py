"""Workload specification and the seed-deterministic samplers.

Everything random flows from ``random.Random(spec.seed)`` streams that
draw **only** ``rng.random()`` — no distribution helpers whose
algorithms could differ between Python releases — so the same spec
produces the same request sequence, byte for byte, everywhere.

The shapes:

* **arrivals** — open-loop Poisson (exponential inter-arrival gaps at
  the offered load) or closed-loop fixed concurrency;
* **key popularity** — Zipf(s) over the keyspace (rank 1 hottest) or
  uniform, sampled by inverse CDF from a precomputed table;
* **operation mix** — read fraction, scan fraction, remainder writes;
* **value sizes** — a discrete distribution of (size, weight) pairs.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from ..apps.kv import protocol as wire
from ..apps.kv.config import Consistency, Mitigations, OverloadControl

__all__ = [
    "Keyspace", "Observability", "Traffic", "WorkloadSpec",
    "KeySampler", "ValueSizeSampler", "exponential_gap_us", "key_name",
    "value_bytes",
]

#: (value size in bytes, relative weight) — a small-object serving mix.
DEFAULT_VALUE_SIZES: Tuple[Tuple[int, float], ...] = (
    (32, 0.50), (128, 0.35), (512, 0.12), (1024, 0.03),
)


def key_name(index: int) -> str:
    """The canonical key for keyspace index ``index``."""
    return "k%06d" % index


def value_bytes(key: str, size: int) -> bytes:
    """The deterministic value pattern for ``key`` at ``size`` bytes.

    A function of the key alone (cycled to length), so a reader can
    verify any fetched value against the pattern without knowing which
    write produced it — the workload's end-to-end integrity check.
    """
    if size <= 0:
        return b""
    unit = key.encode() + b"/"
    return (unit * (size // len(unit) + 1))[:size]


def exponential_gap_us(rng: random.Random, rate_per_s: float) -> float:
    """One Poisson inter-arrival gap (µs) at ``rate_per_s`` offered load."""
    if rate_per_s <= 0.0:
        raise ValueError("offered load must be positive")
    u = rng.random()
    while u <= 0.0:  # pragma: no cover - p < 2**-53
        u = rng.random()
    return -math.log(u) * 1e6 / rate_per_s


class KeySampler:
    """Inverse-CDF sampling of key indices, Zipfian or uniform."""

    def __init__(self, keys: int, distribution: str = "zipf",
                 zipf_s: float = 1.1):
        if keys < 1:
            raise ValueError("keyspace must hold at least one key")
        if distribution not in ("zipf", "uniform"):
            raise ValueError("unknown key distribution %r" % distribution)
        self.keys = keys
        self.distribution = distribution
        self._cdf: List[float] = []
        if distribution == "zipf":
            weights = [1.0 / (i + 1) ** zipf_s for i in range(keys)]
            total = sum(weights)
            acc = 0.0
            for w in weights:
                acc += w / total
                self._cdf.append(acc)
            self._cdf[-1] = 1.0  # guard against rounding shortfall

    def sample(self, rng: random.Random) -> int:
        """One key index (0 = most popular under Zipf)."""
        if self.distribution == "uniform":
            return min(int(rng.random() * self.keys), self.keys - 1)
        return bisect.bisect_left(self._cdf, rng.random())


class ValueSizeSampler:
    """Discrete (size, weight) sampling by inverse CDF."""

    def __init__(self, sizes: Sequence[Tuple[int, float]] = DEFAULT_VALUE_SIZES):
        if not sizes:
            raise ValueError("need at least one value size")
        total = float(sum(w for _, w in sizes))
        if total <= 0.0:
            raise ValueError("value-size weights must sum positive")
        self.sizes = [s for s, _ in sizes]
        for s in self.sizes:
            if not 0 < s <= wire.VALUE_BOUND:
                raise ValueError("value size %d outside (0, %d]"
                                 % (s, wire.VALUE_BOUND))
        self._cdf = []
        acc = 0.0
        for _, w in sizes:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        """One value size in bytes."""
        return self.sizes[bisect.bisect_left(self._cdf, rng.random())]


@dataclass(frozen=True)
class Traffic:
    """Transport and arrival: how requests reach the service."""

    transport: str = "srpc"          # "srpc" | "sockets"
    arrival: str = "open"            # "open" | "closed"
    load: float = 20000.0            # offered ops/s (open loop)
    concurrency: int = 8             # worker processes (both loops)
    requests: int = 400              # total requests in the run
    nodes: int = 4                   # 4 (2x2 prototype) or 16 (4x4)

    def __post_init__(self) -> None:
        if self.transport not in ("srpc", "sockets"):
            raise ValueError("unknown transport %r" % self.transport)
        if self.arrival not in ("open", "closed"):
            raise ValueError("unknown arrival process %r" % self.arrival)
        if self.nodes not in (4, 16):
            raise ValueError("nodes must be 4 or 16 (the two calibrated "
                             "machine configurations)")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.arrival == "open" and self.load <= 0.0:
            raise ValueError("open-loop load must be positive")


@dataclass(frozen=True)
class Keyspace:
    """Keys and values: the operation mix and what it touches."""

    read_fraction: float = 0.90
    scan_fraction: float = 0.0       # scans ride the socket transport
    scan_limit: int = 8
    keys: int = 200
    key_distribution: str = "zipf"   # "zipf" | "uniform"
    zipf_s: float = 1.1
    value_sizes: Tuple[Tuple[int, float], ...] = DEFAULT_VALUE_SIZES

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.scan_fraction <= 1.0 - self.read_fraction:
            raise ValueError("scan_fraction must fit beside read_fraction")
        KeySampler(self.keys, self.key_distribution, self.zipf_s)
        ValueSizeSampler(self.value_sizes)


@dataclass(frozen=True)
class Observability:
    """Spans, the time-series sampler and its SLO budgets.

    All default off: with them off the run, its wire traffic and its
    report are byte-identical to the pre-telemetry engine, which the
    zero-regression goldens pin.
    """

    trace: bool = False              # record kv.client spans
    telemetry: bool = False          # run the time-series sampler
    telemetry_interval_us: float = 500.0
    slo_latency_us: float = 0.0      # per-request "slow" threshold
    slo_latency_budget: float = 0.0  # allowed slow fraction (0 = off)
    slo_error_budget: float = 0.0    # allowed error fraction (0 = off)

    def __post_init__(self) -> None:
        if self.telemetry_interval_us <= 0.0:
            raise ValueError("telemetry_interval_us must be positive")
        if self.slo_latency_us < 0.0:
            raise ValueError("slo_latency_us must be >= 0")
        for budget in (self.slo_latency_budget, self.slo_error_budget):
            if budget and not 0.0 < budget < 1.0:
                raise ValueError("SLO budgets must be 0 (off) or in (0, 1)")
        if self.slo_latency_budget > 0.0 and self.slo_latency_us <= 0.0:
            raise ValueError("slo_latency_budget needs slo_latency_us")

    def telemetry_label(self) -> str:
        """The spec-line suffix describing the telemetry configuration."""
        return ("telemetry interval=%g slo_lat=%g lat_budget=%g "
                "err_budget=%g"
                % (self.telemetry_interval_us, self.slo_latency_us,
                   self.slo_latency_budget, self.slo_error_budget))


@dataclass(frozen=True)
class WorkloadSpec(Traffic, Keyspace, Mitigations, OverloadControl,
                   Consistency, Observability):
    """Everything that defines one workload run (hashable, replayable).

    The composition of one group per concern by dataclass inheritance:
    every group field is a flat field of the spec (its constructor,
    ``replace()`` and ``asdict()`` take and give them by name), and the
    spec can be passed wherever a group is wanted.  Each group checks
    its own ranges when the spec is built; :meth:`validate` checks the
    rules that tie one group to another.
    """

    seed: int = 1
    replicas: int = 2

    def __post_init__(self) -> None:
        for group in WorkloadSpec.__bases__:
            group.__post_init__(self)

    def validate(self) -> None:
        """Raise ValueError on knobs of different groups that conflict."""
        grouped = self.pipeline_window > 1 or self.batch_keys > 1
        if grouped and self.transport != "srpc":
            raise ValueError("pipelining and batching need the srpc "
                             "transport")
        if self.onesided_reads and self.transport != "srpc":
            raise ValueError("one-sided reads need the srpc transport "
                             "(their fallback path)")
        if grouped and (self.admission or self.retry_budget > 0
                        or self.backpressure):
            raise ValueError("overload control composes with the plain "
                             "request path only (pipeline_window=1, "
                             "batch_keys=1)")
        if self.backpressure and self.arrival != "open":
            raise ValueError("backpressure governs the open-loop arrival "
                             "process only")
        if self.consistency == "quorum":
            majority = self.replicas // 2 + 1
            r = self.quorum_r or majority
            w = self.quorum_w or majority
            if not 1 <= r <= self.replicas or not 1 <= w <= self.replicas:
                raise ValueError("quorum sizes must be in [1, replicas]")
            if r + w <= self.replicas:
                raise ValueError("quorum mode needs R + W > replicas "
                                 "(read/write quorum intersection)")
        if self.versioned():
            if self.transport != "srpc":
                raise ValueError("consistency modes need the srpc "
                                 "transport (the v3 shard interface)")
            if grouped:
                raise ValueError("consistency modes compose with the "
                                 "plain request path only "
                                 "(pipeline_window=1, batch_keys=1)")
            if self.onesided_reads:
                raise ValueError("one-sided reads bypass the versioned "
                                 "interface; disable them with "
                                 "consistency modes")
            if self.cache_keys > 0:
                raise ValueError("the client cache serves unversioned "
                                 "values; disable it with consistency "
                                 "modes")

    def needs_sockets(self) -> bool:
        """Whether workers must open stream sockets (transport or scans)."""
        return self.transport == "sockets" or self.scan_fraction > 0.0

    def with_load(self, load: float) -> "WorkloadSpec":
        """This spec at a different offered load (for capacity sweeps)."""
        return replace(self, load=load)
