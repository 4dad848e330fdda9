"""Workload record & replay: frozen request streams for paired A/Bs.

The traffic engine is seed-deterministic, but a *seed* is a weak
artifact: change any sampler knob (load, mix, skew) and the stream it
implies changes wholesale.  A **recorded stream** freezes the actual
request sequence — arrival gaps, op kinds, keys, value sizes — into a
schema'd JSON artifact that replays *verbatim* against any serving
configuration.  Two replays of the same stream see byte-identical
offered traffic, so an A/B over transport or mitigation knobs compares
exactly-paired runs instead of merely same-seed runs.

:func:`record_stream` is the only request sampler.  The stream is a
pure function of the spec (dedicated ``random.Random`` streams,
spec.py), derived without a simulation run, and ``run_workload(spec)``
itself replays ``record_stream(spec)`` — so a live run and the replay
of its saved stream are the same run, report for report (pinned by
tests/workload/test_replay_fidelity.py).

Frozen streams are also the substrate for shaped scenarios no sampler
knob can express:

* :func:`flash_crowd` — compress the arrival gaps inside a window by a
  surge factor (a sudden crowd on otherwise-steady traffic);
* :func:`diurnal` — modulate gaps sinusoidally around the mean (a
  day/night load curve compressed into one run);
* :func:`skew_shift` — re-sample the keys of all requests after a cut
  point from a different popularity distribution (a mid-run hot-set
  migration), leaving gaps, ops, and sizes untouched.

See docs/WORKLOADS.md ("Record & replay") for the CLI round trip.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .spec import (
    KeySampler,
    ValueSizeSampler,
    WorkloadSpec,
    exponential_gap_us,
    key_name,
)

__all__ = [
    "SCHEMA", "RecordedStream", "record_stream", "load_stream",
    "save_stream", "flash_crowd", "diurnal", "skew_shift",
]

#: Artifact schema tag; bump on any incompatible layout change.
SCHEMA = "repro.workload.stream/v1"

# One open-loop entry: (gap_us, op, key, value_size, scan_limit).
# Gaps — not absolute times — so shaping transforms stay local and the
# replayed arrival instants re-accumulate exactly like the generator's.
OpenEntry = Tuple[float, str, str, int, int]
# One closed-loop entry: (op, key, value_size, scan_limit).
ClosedEntry = Tuple[str, str, int, int]


@dataclass
class RecordedStream:
    """A frozen request stream plus its provenance.

    ``requests`` holds open-loop entries (empty for closed streams);
    ``workers`` holds the per-worker closed-loop sequences (empty for
    open streams).  ``meta`` records where the stream came from — the
    source spec fields and any scenario transforms applied — purely for
    humans and reports; replay reads only the entries.
    """

    arrival: str                                  # "open" | "closed"
    requests: List[OpenEntry] = field(default_factory=list)
    workers: List[List[ClosedEntry]] = field(default_factory=list)
    meta: Dict = field(default_factory=dict)

    def __len__(self) -> int:
        """Total requests carried by the stream."""
        if self.arrival == "open":
            return len(self.requests)
        return sum(len(seq) for seq in self.workers)

    def describe(self) -> str:
        """One human line: shape, size, and applied scenarios."""
        scenarios = self.meta.get("scenarios", [])
        suffix = (" scenarios=" + "+".join(s["kind"] for s in scenarios)
                  if scenarios else "")
        return ("stream %s arrival=%s requests=%d%s"
                % (SCHEMA, self.arrival, len(self), suffix))


def _sample_entry(rng: random.Random, spec: WorkloadSpec,
                  keys: KeySampler, sizes: ValueSizeSampler) -> ClosedEntry:
    """One request ``(op, key, value_size, scan_limit)`` from ``rng``."""
    r = rng.random()
    key = key_name(keys.sample(rng))
    if r < spec.read_fraction:
        return ("get", key, 0, 0)
    if r < spec.read_fraction + spec.scan_fraction:
        return ("scan", key[:4], 0, spec.scan_limit)
    return ("put", key, sizes.sample(rng), 0)


def record_stream(spec: WorkloadSpec) -> RecordedStream:
    """Sample the request stream ``spec`` implies, without running it.

    Open loop: one ``random.Random(seed)`` draws each request's gap,
    then the request.  Closed loop: one generator per worker draws that
    worker's share of the requests.  ``run_workload(spec)`` replays
    exactly this stream.
    """
    spec.validate()
    keys = KeySampler(spec.keys, spec.key_distribution, spec.zipf_s)
    sizes = ValueSizeSampler(spec.value_sizes)
    meta = {
        "seed": spec.seed,
        "load": spec.load,
        "read_fraction": spec.read_fraction,
        "scan_fraction": spec.scan_fraction,
        "keys": spec.keys,
        "key_distribution": spec.key_distribution,
        "zipf_s": spec.zipf_s,
        "concurrency": spec.concurrency,
        "scenarios": [],
    }
    if spec.arrival == "open":
        rng = random.Random(spec.seed)
        entries: List[OpenEntry] = []
        for _ in range(spec.requests):
            gap = exponential_gap_us(rng, spec.load)
            op, key, size, limit = _sample_entry(rng, spec, keys, sizes)
            entries.append((gap, op, key, size, limit))
        return RecordedStream("open", requests=entries, meta=meta)
    workers: List[List[ClosedEntry]] = []
    for wid in range(spec.concurrency):
        rng = random.Random(spec.seed * 1_000_003 + wid)
        quota = spec.requests // spec.concurrency
        if wid < spec.requests % spec.concurrency:
            quota += 1
        workers.append([_sample_entry(rng, spec, keys, sizes)
                        for _ in range(quota)])
    return RecordedStream("closed", workers=workers, meta=meta)


def save_stream(stream: RecordedStream, path: str) -> None:
    """Write ``stream`` as a schema'd JSON artifact.

    Floats go through ``repr`` (the json module's default), which
    round-trips IEEE doubles exactly — a reloaded stream replays on the
    bit-identical arrival instants.
    """
    doc = {
        "schema": SCHEMA,
        "arrival": stream.arrival,
        "meta": stream.meta,
        "requests": [list(e) for e in stream.requests],
        "workers": [[list(e) for e in seq] for seq in stream.workers],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


def load_stream(path: str) -> RecordedStream:
    """Load a stream artifact written by :func:`save_stream`."""
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ValueError("unsupported stream schema %r (want %r)"
                         % (schema, SCHEMA))
    if doc.get("arrival") not in ("open", "closed"):
        raise ValueError("stream has unknown arrival %r" % doc.get("arrival"))
    return RecordedStream(
        arrival=doc["arrival"],
        requests=[(float(g), str(op), str(key), int(size), int(limit))
                  for g, op, key, size, limit in doc.get("requests", [])],
        workers=[[(str(op), str(key), int(size), int(limit))
                  for op, key, size, limit in seq]
                 for seq in doc.get("workers", [])],
        meta=doc.get("meta", {}),
    )


def _require_open(stream: RecordedStream, what: str) -> None:
    if stream.arrival != "open":
        raise ValueError("%s shapes arrival gaps, which closed-loop "
                         "streams do not have" % what)


def _noted(stream: RecordedStream, entries: List[OpenEntry],
           note: Dict) -> RecordedStream:
    meta = dict(stream.meta)
    meta["scenarios"] = list(meta.get("scenarios", [])) + [note]
    return RecordedStream("open", requests=entries, meta=meta)


def flash_crowd(stream: RecordedStream, start_us: float, duration_us: float,
                factor: float) -> RecordedStream:
    """A surge: gaps of arrivals inside the window shrink by ``factor``.

    The window is evaluated against the *original* arrival instants
    (accumulated gaps), so the crowd covers the intended stretch of the
    source timeline rather than drifting with its own compression.
    """
    _require_open(stream, "flash_crowd")
    if factor <= 0.0:
        raise ValueError("surge factor must be positive")
    entries: List[OpenEntry] = []
    at = 0.0
    for gap, op, key, size, limit in stream.requests:
        at += gap
        if start_us <= at < start_us + duration_us:
            gap = gap / factor
        entries.append((gap, op, key, size, limit))
    return _noted(stream, entries, {
        "kind": "flash_crowd", "start_us": start_us,
        "duration_us": duration_us, "factor": factor})


def diurnal(stream: RecordedStream, period_us: float,
            amplitude: float) -> RecordedStream:
    """A day/night curve: modulate gaps by ``1/(1 + A*sin(2πt/T))``.

    ``amplitude`` in [0, 1): at the sinusoid's peak the instantaneous
    offered load is ``(1+A)×`` the mean, at its trough ``(1-A)×``.
    """
    _require_open(stream, "diurnal")
    if period_us <= 0.0:
        raise ValueError("diurnal period must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("diurnal amplitude must be in [0, 1)")
    entries: List[OpenEntry] = []
    at = 0.0
    for gap, op, key, size, limit in stream.requests:
        at += gap
        scale = 1.0 + amplitude * math.sin(2.0 * math.pi * at / period_us)
        entries.append((gap / scale, op, key, size, limit))
    return _noted(stream, entries, {
        "kind": "diurnal", "period_us": period_us, "amplitude": amplitude})


def skew_shift(stream: RecordedStream, at_request: int,
               key_distribution: str = "zipf", zipf_s: float = 1.1,
               reseed: int = 1) -> RecordedStream:
    """A mid-run hot-set migration: re-key requests from ``at_request`` on.

    GET and PUT keys after the cut point are re-sampled from a fresh
    popularity distribution over the same keyspace (scan prefixes ride
    along untouched); gaps, op mix, and value sizes are preserved, so
    the A/B isolates *which keys are hot* from everything else.
    """
    _require_open(stream, "skew_shift")
    keyspace = int(stream.meta.get("keys", 0))
    if keyspace < 1:
        raise ValueError("stream meta lacks the keyspace size")
    if not 0 <= at_request <= len(stream.requests):
        raise ValueError("cut point outside the stream")
    sampler = KeySampler(keyspace, key_distribution, zipf_s)
    rng = random.Random(int(stream.meta.get("seed", 0)) * 2_000_003 + reseed)
    entries: List[OpenEntry] = []
    for index, (gap, op, key, size, limit) in enumerate(stream.requests):
        if index >= at_request and op in ("get", "put"):
            key = key_name(sampler.sample(rng))
        entries.append((gap, op, key, size, limit))
    return _noted(stream, entries, {
        "kind": "skew_shift", "at_request": at_request,
        "key_distribution": key_distribution, "zipf_s": zipf_s})
