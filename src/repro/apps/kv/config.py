"""The serving knobs of the KV service, one frozen group per concern.

:class:`Mitigations`, :class:`OverloadControl` and :class:`Consistency`
each hold one concern's fields and defaults, its on-predicate and
spec-line label, and its own range checks, which run when the group is
built: no group exists out of range.  :class:`KVService` and
:class:`KVClient` take the groups they read.

:class:`repro.workload.WorkloadSpec` is the composition of these groups
(plus the workload's own traffic, keyspace and observability groups)
by dataclass inheritance, so a spec *is* each group: the engine passes
the spec itself, and every field stays a flat keyword of the spec's
constructor.  Rules that tie one group to another (pipelining needs the
SHRIMP RPC transport, quorum sizes against the replica count...) are
checked by ``WorkloadSpec.validate``, the one place that sees them all.

Every default is off: with all three groups at their defaults the
service and client run the unmitigated, uncontrolled, eventually
consistent request path.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import protocol as wire

__all__ = ["Consistency", "Mitigations", "OverloadControl"]


@dataclass(frozen=True)
class Mitigations:
    """Hot-key and pipelining mitigations (docs/WORKLOADS.md)."""

    pipeline_window: int = 1         # SRPC multi-call window per binding
    batch_keys: int = 1              # >1 groups GETs into multi_get calls
    cache_keys: int = 0              # client LRU entries (0 = off)
    cache_ttl_us: float = 0.0        # cache entry lifetime (0 = no TTL)
    read_spread: bool = False        # rotate reads over the replica set
    onesided_reads: bool = False     # GETs bypass the server over VMMC

    def __post_init__(self) -> None:
        if not 1 <= self.pipeline_window <= 64:
            raise ValueError("pipeline_window must be in [1, 64]")
        if not 1 <= self.batch_keys <= wire.MULTI_GET_MAX:
            raise ValueError("batch_keys must be in [1, %d]"
                             % wire.MULTI_GET_MAX)
        if self.cache_keys < 0:
            raise ValueError("cache_keys must be >= 0")
        if self.cache_ttl_us < 0.0:
            raise ValueError("cache_ttl_us must be >= 0")

    def mitigated(self) -> bool:
        """Whether any hot-key/pipelining mitigation knob is non-default."""
        return (self.pipeline_window > 1 or self.batch_keys > 1
                or self.cache_keys > 0 or self.read_spread
                or self.onesided_reads)

    def mitigation_label(self) -> str:
        """The spec-line suffix describing the enabled mitigations."""
        return ("pipeline=%d batch=%d cache=%d ttl=%g spread=%d onesided=%d"
                % (self.pipeline_window, self.batch_keys, self.cache_keys,
                   self.cache_ttl_us, int(self.read_spread),
                   int(self.onesided_reads)))


@dataclass(frozen=True)
class OverloadControl:
    """Contended CPUs and the controls that shed load (docs/OVERLOAD.md)."""

    cpu_slots: int = 0               # per-node CPU scheduler slots (0 = off)
    cpu_op_us: float = 10.0          # handler CPU per op once cpu_slots > 0
    admission: bool = False          # server-side admission control
    admit_queue: int = 32            # bounded accept-queue occupancy
    admit_deadline_us: float = 0.0   # queueing-delay budget (0 = no deadline)
    retry_budget: int = 0            # client retries after a rejection
    retry_base_us: float = 100.0     # backoff base (doubles per attempt)
    retry_jitter: float = 0.5        # jitter fraction on each backoff
    backpressure: bool = False       # adaptive open-loop rate trimming

    def __post_init__(self) -> None:
        if self.cpu_slots < 0:
            raise ValueError("cpu_slots must be >= 0")
        if self.cpu_op_us < 0.0:
            raise ValueError("cpu_op_us must be >= 0")
        if self.admit_queue < 1:
            raise ValueError("admit_queue must be >= 1")
        if self.admit_deadline_us < 0.0:
            raise ValueError("admit_deadline_us must be >= 0")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.retry_base_us <= 0.0:
            raise ValueError("retry_base_us must be positive")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")

    def overloaded(self) -> bool:
        """Whether any overload-control knob is non-default."""
        return (self.cpu_slots > 0 or self.admission
                or self.retry_budget > 0 or self.backpressure)

    def overload_label(self) -> str:
        """The spec-line suffix describing the overload configuration."""
        return ("overload cpu=%d op_us=%g admission=%d queue=%d "
                "deadline=%g retry=%d base=%g jitter=%g backpressure=%d"
                % (self.cpu_slots, self.cpu_op_us, int(self.admission),
                   self.admit_queue, self.admit_deadline_us,
                   self.retry_budget, self.retry_base_us, self.retry_jitter,
                   int(self.backpressure)))


@dataclass(frozen=True)
class Consistency:
    """Replica correctness (docs/REPLICATION.md)."""

    consistency: str = "eventual"    # "eventual" | "session" | "quorum"
    quorum_r: int = 0                # read quorum size (0 = majority)
    quorum_w: int = 0                # write quorum size (0 = majority)
    read_repair: bool = False        # repair stale replicas off-path
    staleness: bool = False          # measure the stale-read rate
    antientropy: bool = False        # background Merkle sweeper
    antientropy_interval_us: float = 2000.0  # gap between sweeps
    repl_queue_cap: int = 0          # bound replication queues (0 = inf)

    def __post_init__(self) -> None:
        if self.consistency not in ("eventual", "session", "quorum"):
            raise ValueError("unknown consistency mode %r"
                             % self.consistency)
        if self.quorum_r < 0 or self.quorum_w < 0:
            raise ValueError("quorum_r/quorum_w must be >= 0")
        if (self.quorum_r or self.quorum_w) and self.consistency != "quorum":
            raise ValueError("quorum_r/quorum_w apply to quorum mode only")
        if self.antientropy_interval_us <= 0.0:
            raise ValueError("antientropy_interval_us must be positive")
        if self.repl_queue_cap < 0:
            raise ValueError("repl_queue_cap must be >= 0")

    def versioned(self) -> bool:
        """Whether the run needs the v3 (versioned) shard interface."""
        return (self.consistency != "eventual" or self.read_repair
                or self.staleness)

    def consistent(self) -> bool:
        """Whether any replica-correctness knob is non-default."""
        return (self.versioned() or self.antientropy
                or self.repl_queue_cap > 0)

    def consistency_label(self) -> str:
        """The spec-line suffix describing the consistency configuration."""
        return ("consistency=%s r=%d w=%d repair=%d staleness=%d "
                "antientropy=%d ae_interval=%g repl_cap=%d"
                % (self.consistency, self.quorum_r, self.quorum_w,
                   int(self.read_repair), int(self.staleness),
                   int(self.antientropy), self.antientropy_interval_us,
                   self.repl_queue_cap))
