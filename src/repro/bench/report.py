"""Result structures and text reports for the benchmark harness.

Every experiment (DESIGN.md section 4) produces a :class:`FigureResult`:
named series of (size, latency, bandwidth) points, printable as the
rows the paper's figures plot.

This module is also the single writer for the machine-readable bench
artifacts: every JSON document the CLI or CI emits
(``BENCH_capacity.json``, ``BENCH_antientropy.json``)
goes through :func:`write_bench_json`, which validates the payload
against its registered schema (``BENCH_SCHEMAS``) before a byte is
written — and :func:`load_bench_json` applies the same validation on
the way back in, so ``python -m repro diff --bench`` can ingest any of
them without per-artifact special cases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis import format_table

__all__ = ["SeriesPoint", "FigureSeries", "FigureResult", "format_table",
           "BENCH_SCHEMAS", "validate_bench_payload", "write_bench_json",
           "load_bench_json"]


@dataclass
class SeriesPoint:
    """One (message size -> performance) sample."""

    size: int
    latency_us: float

    @property
    def bandwidth_mb_s(self) -> float:
        return self.size / self.latency_us if self.latency_us > 0 else 0.0


@dataclass
class FigureSeries:
    """One curve of a figure (e.g. 'AU-1copy')."""

    name: str
    points: List[SeriesPoint] = field(default_factory=list)

    def add(self, size: int, latency_us: float) -> None:
        """Append one (size, latency) point."""
        self.points.append(SeriesPoint(size, latency_us))

    def latency_at(self, size: int) -> float:
        """Latency of the point with exactly this size."""
        for point in self.points:
            if point.size == size:
                return point.latency_us
        raise KeyError("no %d-byte point in series %s" % (size, self.name))

    def bandwidth_at(self, size: int) -> float:
        """size / latency for the point with this size."""
        return size / self.latency_at(size)

    @property
    def peak_bandwidth(self) -> float:
        return max(p.bandwidth_mb_s for p in self.points)


@dataclass
class FigureResult:
    """Everything one experiment regenerates."""

    figure_id: str
    title: str
    series: List[FigureSeries] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def series_named(self, name: str) -> FigureSeries:
        """The series with this name (KeyError if absent)."""
        for entry in self.series:
            if entry.name == name:
                return entry
        raise KeyError("no series %r in %s" % (name, self.figure_id))

    def report(self) -> str:
        """A text rendering: one latency table and one bandwidth table."""
        sizes = sorted({p.size for s in self.series for p in s.points})
        lines = ["%s — %s" % (self.figure_id, self.title), ""]

        def table(value_of, header, fmt):
            rows = [["size(B)"] + [s.name for s in self.series]]
            for size in sizes:
                row = ["%d" % size]
                for entry in self.series:
                    try:
                        row.append(fmt % value_of(entry, size))
                    except KeyError:
                        row.append("-")
                rows.append(row)
            return [header] + format_table(rows) + [""]

        lines += table(lambda s, n: s.latency_at(n), "one-way latency (us):", "%.2f")
        lines += table(lambda s, n: s.bandwidth_at(n), "bandwidth (MB/s):", "%.2f")
        for note in self.notes:
            lines.append("note: %s" % note)
        return "\n".join(lines)


#: Every bench-artifact schema this repo emits, with the top-level
#: keys a valid document must carry.  The capacity schema's
#: mode-specific structure gets a deeper check in
#: :func:`validate_bench_payload`.
BENCH_SCHEMAS: Dict[str, Sequence[str]] = {
    "repro.bench.capacity/v1": ("seed", "loads", "config", "mode"),
    "repro.antientropy.convergence/v1": ("seed", "interval_us",
                                         "staleness", "convergence",
                                         "spec_line"),
}

_POINT_KEYS = ("offered_load", "throughput", "p50_us", "p99_us")


def _check_points(sweep, where: str, problems: List[str]) -> None:
    if not isinstance(sweep, dict):
        problems.append("%s: expected a sweep object" % where)
        return
    points = sweep.get("points")
    if not isinstance(points, list) or not points:
        problems.append("%s: missing or empty 'points'" % where)
        return
    for i, pt in enumerate(points):
        for key in _POINT_KEYS:
            if not isinstance(pt, dict) or key not in pt:
                problems.append("%s: point %d missing %r"
                                % (where, i, key))


def validate_bench_payload(payload) -> List[str]:
    """Every schema violation in a bench document (empty = valid)."""
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    schema = payload.get("schema")
    if schema not in BENCH_SCHEMAS:
        return ["unknown bench schema %r (known: %s)"
                % (schema, ", ".join(sorted(BENCH_SCHEMAS)))]
    problems = []
    for key in BENCH_SCHEMAS[schema]:
        if key not in payload:
            problems.append("%s: missing top-level key %r"
                            % (schema, key))
    if schema == "repro.bench.capacity/v1" and "mode" in payload:
        mode = payload["mode"]
        if mode == "ab":
            for side in ("baseline", "mitigated"):
                if side not in payload:
                    problems.append("capacity ab: missing %r sweep"
                                    % side)
                else:
                    _check_points(payload[side], side, problems)
        elif mode == "sweep":
            _check_points(payload, "sweep", problems)
        else:
            problems.append("capacity: unknown mode %r" % mode)
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as exc:
        problems.append("payload is not JSON-serializable: %s" % exc)
    return problems


def write_bench_json(path: str, payload: dict) -> dict:
    """Validate ``payload`` and write it to ``path`` (sorted, indented).

    Raises ValueError listing the schema violations rather than
    writing an artifact a later ``repro diff --bench`` would reject.
    """
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError("refusing to write %s:\n  %s"
                         % (path, "\n  ".join(problems)))
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def load_bench_json(path: str) -> dict:
    """Read and validate one bench artifact (ValueError on violations)."""
    with open(path) as fh:
        payload = json.load(fh)
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError("%s is not a valid bench artifact:\n  %s"
                         % (path, "\n  ".join(problems)))
    return payload
