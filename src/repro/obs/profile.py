"""Fleet-wide profiling: fold one run's spans into flame + contention.

Where :func:`repro.obs.assemble.explain_trace` budgets ONE request,
:func:`build_profile` runs that exact partition over EVERY assembled
tree in a traced workload run and aggregates the result three ways:

* a **folded-stack flame profile** — each critical-path slice becomes
  one ``op;frame;...;[stage]`` stack keyed by the causal span chain,
  weighted by simulated microseconds; emitted as collapsed-stack text
  (:func:`render_folded`, flamegraph.pl-compatible integer values) and
  as an inline ASCII renderer (:func:`render_flame`);
* **per-stage totals** — the explain budget summed over all requests,
  with the ``cpu.*`` share split out of the vmmc stage so handler and
  DMA compute are visible separately (``PROFILE_STAGES``);
* **per-resource contention** — queueing delay vs service time,
  utilization, and time-weighted queue depth per registered resource,
  sourced from the metrics registry snapshot the engine attaches to
  traced reports, plus the top-k hottest spans per stage.

Conservation is by construction: the explain slices partition each
root interval exactly, and the engine tags each root span with its
dispatch ``arrival`` so open-loop queue wait (which precedes the root
span) is charged to queueing — per-request stage sums equal the
recorded completion-minus-arrival latency on the plain request path.

This module only CONSUMES spans — it never emits any, so it carries
no tracer guards (and is exempt from the span-guard audit the way
``obs/assemble.py`` is).  The one hook that runs inside the engine,
:func:`tag_root`, mutates an already-recorded span's data dict and is
called behind the engine's ``if traced:`` guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import format_table, percentile
from ..sim.trace import Span
from .assemble import TraceTree, assemble_traces, classify, explain_trace

__all__ = ["PROFILE_STAGES", "RequestProfile", "Profile", "build_profile",
           "render_folded", "render_flame", "tag_root"]

#: Profile stages, in report order: the explain budget's stages with
#: the CPU share of "vmmc" (``cpu.*`` categories: word stores, handler
#: compute, DMA programming) broken out as its own stage.
PROFILE_STAGES = ("library", "vmmc", "nic", "bus", "mesh", "cpu",
                  "queueing")

#: The folded-stack frame charged for open-loop dispatch-queue wait
#: (arrival to root-span start, before the client library runs).
DISPATCH_FRAME = "dispatch.wait"


def tag_root(client, arrival: Optional[float] = None) -> None:
    """Tag the client's most recent root span for the profiler.

    Called by the workload engine (behind its ``if traced:`` guard)
    right after a request completes: stamps the dispatch ``arrival``
    time into the root span's data dict, then clears the client's
    ``last_span`` slot so a later untagged request can never inherit a
    stale root.
    """
    span = getattr(client, "last_span", None)
    client.last_span = None
    if span is None:
        return
    tags = span.data if isinstance(span.data, dict) else {}
    if arrival is not None and arrival <= span.start:
        tags["arrival"] = arrival
    span.data = tags


def _stage_of(segment) -> str:
    """A path segment's profile stage: the explain stage, with the
    ``cpu.*`` share of vmmc split out."""
    if segment.stage == "vmmc" and segment.category.startswith("cpu."):
        return "cpu"
    return segment.stage


def _hot_stage(category: str) -> str:
    """A raw span category's profile stage (for the hot-span table):
    the explain classifier's, with ``cpu.*`` split out of vmmc."""
    return "cpu" if category.startswith("cpu.") else classify(category)


def _frames(tree: TraceTree, sid: Optional[int]) -> List[str]:
    """Span categories from just below the root down to ``sid``."""
    frames: List[str] = []
    while sid is not None and sid in tree.by_sid and len(frames) < 64:
        span = tree.by_sid[sid]
        if tree.root is not None and sid == tree.root.sid:
            break
        frames.append(span.category)
        ref = tree.parent_ref(span)
        if ref == sid:
            break
        sid = ref
    frames.reverse()
    return frames


@dataclass
class RequestProfile:
    """One request's stage decomposition (one assembled tree)."""

    tid: int
    op: str
    total_us: float                # dispatch wait + root span duration
    dispatch_us: float             # arrival -> root start (open loop)
    stages: Dict[str, float]       # PROFILE_STAGES -> microseconds


@dataclass
class Profile:
    """A whole run's time, folded: stages, stacks, contention."""

    requests: List[RequestProfile] = field(default_factory=list)
    stage_totals: Dict[str, float] = field(default_factory=dict)
    folded: Dict[str, float] = field(default_factory=dict)
    total_us: float = 0.0          # sum of per-request totals
    span_count: int = 0
    skipped_trees: int = 0         # trees without a closed root span
    problems: List[str] = field(default_factory=list)
    contention: List[dict] = field(default_factory=list)
    hot: Dict[str, List[tuple]] = field(default_factory=dict)
    now_us: float = 0.0            # registry snapshot time (0 = none)

    @property
    def conservation_error(self) -> float:
        """Relative gap between the stage totals and the request time.

        Zero by construction: the explain slices partition each root
        interval exactly and dispatch wait is charged to queueing; any
        drift here means the folding bookkeeping broke."""
        if self.total_us <= 0.0:
            return 0.0
        attributed = sum(self.stage_totals.values())
        return abs(attributed - self.total_us) / self.total_us

    def mean_us(self) -> float:
        """Mean per-request time (dispatch wait included)."""
        if not self.requests:
            return 0.0
        return self.total_us / len(self.requests)

    def stage_means(self) -> Dict[str, float]:
        """Per-request mean microseconds per stage."""
        n = len(self.requests) or 1
        return {s: self.stage_totals.get(s, 0.0) / n
                for s in PROFILE_STAGES}

    def p99_us(self) -> float:
        """p99 of the per-request totals (0 when empty)."""
        if not self.requests:
            return 0.0
        return percentile([r.total_us for r in self.requests], 99.0)

    def tail_requests(self) -> List[RequestProfile]:
        """The requests at or above the p99 total."""
        if not self.requests:
            return []
        cut = self.p99_us()
        return [r for r in self.requests if r.total_us >= cut]

    def report(self, top: int = 3, flame_lines: int = 24) -> str:
        """The deterministic text profile: stages, flame, contention."""
        lines = ["profile: %d requests, %d spans, %.2f us attributed "
                 "(conservation error %.4f%%)"
                 % (len(self.requests), self.span_count, self.total_us,
                    100.0 * self.conservation_error)]
        if self.skipped_trees:
            lines.append("  (%d trees without a closed root were skipped)"
                         % self.skipped_trees)
        n = len(self.requests) or 1
        rows = [["stage", "total us", "share", "us/request"]]
        for stage in PROFILE_STAGES:
            total = self.stage_totals.get(stage, 0.0)
            share = total / self.total_us if self.total_us > 0 else 0.0
            rows.append([stage, "%.2f" % total, "%.1f%%" % (100.0 * share),
                         "%.2f" % (total / n)])
        rows.append(["TOTAL", "%.2f" % self.total_us, "100.0%",
                     "%.2f" % self.mean_us()])
        lines.append("")
        lines.append("per-stage totals (queueing = dispatch wait + poll "
                     "gaps + remote queues):")
        lines.extend("  " + row for row in format_table(rows))
        lines.append("")
        lines.append("flame (folded causal stacks, hottest paths):")
        lines.append(render_flame(self, max_lines=flame_lines))
        if self.contention:
            lines.append("")
            lines.append("contention (service vs queueing per registered "
                         "resource):")
            crows = [["resource", "kind", "service us", "queueing us",
                      "util", "mean depth", "high", "count"]]
            for row in self.contention:
                crows.append([
                    row["name"], row["kind"],
                    "%.2f" % row["service_us"],
                    "%.2f" % row["queueing_us"],
                    "%.1f%%" % (100.0 * row["utilization"]),
                    "%.2f" % row["mean_depth"],
                    "%d" % row["high_water"],
                    "%d" % row["count"]])
            lines.extend("  " + row for row in format_table(crows))
        if self.hot:
            lines.append("")
            lines.append("hot spans (top %d by duration per stage):" % top)
            for stage in PROFILE_STAGES:
                for dur, cat, name, track, start in \
                        self.hot.get(stage, [])[:top]:
                    lines.append("  [%-8s] %9.2f us  %-12s %-18s %-14s "
                                 "@ %.1f"
                                 % (stage, dur, cat, name[:18], track,
                                    start))
        if self.problems:
            lines.append("")
            lines.append("audit problems:")
            lines.extend("  " + p for p in self.problems)
        return "\n".join(lines)


def build_profile(spans: Sequence[Span],
                  metrics: Optional[dict] = None,
                  top_k: int = 3) -> Profile:
    """Fold a traced run's spans into a :class:`Profile`.

    ``spans`` is ``WorkloadReport.spans``; ``metrics`` is the report's
    registry snapshot (``{"now": ..., "entries": [...]}``) and feeds
    the contention table when present.
    """
    profile = Profile(span_count=len(spans))
    trees = assemble_traces(spans)
    for tid in sorted(trees):
        tree = trees[tid]
        profile.problems.extend(tree.problems)
        if tree.root is None or tree.root.end is None:
            profile.skipped_trees += 1
            continue
        result = explain_trace(tree, spans)
        tags = tree.root.data if isinstance(tree.root.data, dict) else {}
        arrival = tags.get("arrival")
        dispatch = (max(0.0, tree.root.start - arrival)
                    if arrival is not None else 0.0)
        op = tree.root.name or tree.root.category
        stages = {s: 0.0 for s in PROFILE_STAGES}
        stages["queueing"] += dispatch
        if dispatch > 0.0:
            key = "%s;%s;[queueing]" % (op, DISPATCH_FRAME)
            profile.folded[key] = profile.folded.get(key, 0.0) + dispatch
        for seg in result.segments:
            if seg.duration_us <= 0.0:
                continue
            stage = _stage_of(seg)
            stages[stage] += seg.duration_us
            frames = [op] + _frames(tree, seg.sid) + ["[%s]" % stage]
            key = ";".join(frames)
            profile.folded[key] = (profile.folded.get(key, 0.0)
                                   + seg.duration_us)
        total = dispatch + tree.duration_us
        profile.requests.append(RequestProfile(
            tid=tid, op=op, total_us=total,
            dispatch_us=dispatch, stages=stages))
        profile.total_us += total
        for stage, us in stages.items():
            profile.stage_totals[stage] = (
                profile.stage_totals.get(stage, 0.0) + us)

    hot: Dict[str, List[tuple]] = {}
    for span in spans:
        if span.end is None:
            continue
        dur = span.end - span.start
        if dur <= 0.0:
            continue
        stage = _hot_stage(span.category)
        hot.setdefault(stage, []).append(
            (dur, span.category, span.name, span.track, span.start))
    for stage, entries in hot.items():
        entries.sort(key=lambda e: (-e[0], e[4], e[1]))
        profile.hot[stage] = entries[:max(top_k, 1)]

    if metrics:
        now = float(metrics.get("now", 0.0))
        profile.now_us = now
        rows = []
        for entry in metrics.get("entries", []):
            count = int(entry.get("count", 0) or 0)
            if count <= 0:
                continue
            service = float(entry.get("busy_time", 0.0) or 0.0)
            queueing = float(entry.get("wait_time", 0.0) or 0.0)
            rows.append({
                "name": entry.get("name", "?"),
                "kind": entry.get("kind", "?"),
                "service_us": service,
                "queueing_us": queueing,
                "utilization": service / now if now > 0 else 0.0,
                "mean_depth": float(entry.get("mean_depth", 0.0) or 0.0),
                "high_water": int(entry.get("high_water", 0) or 0),
                "count": count,
            })
        rows.sort(key=lambda r: (-(r["service_us"] + r["queueing_us"]),
                                 r["name"]))
        profile.contention = rows
    return profile


def render_folded(profile: Profile) -> str:
    """The profile as collapsed-stack text, one ``stack count`` line
    per unique stack — integer nanoseconds, so standard flamegraph
    tooling ingests it unchanged."""
    lines = []
    for stack in sorted(profile.folded):
        value = int(round(profile.folded[stack] * 1000.0))
        if value > 0:
            lines.append("%s %d" % (stack, value))
    return "\n".join(lines)


def render_flame(profile: Profile, width: int = 30,
                 max_lines: int = 24) -> str:
    """An inline ASCII flame rendering of the folded stacks.

    A depth-indented trie of the stack frames, each with a ``#`` bar
    scaled to its share of total attributed time; deterministic order
    (time descending, then name)."""
    if not profile.folded or profile.total_us <= 0.0:
        return "  (no samples)"
    root: dict = {}
    for stack, us in profile.folded.items():
        node = root
        for frame in stack.split(";"):
            node = node.setdefault(frame, [0.0, {}])
            node[0] += us
            node = node[1]
    lines: List[str] = []
    total = profile.total_us

    def visit(children: dict, depth: int) -> None:
        entries = sorted(children.items(),
                         key=lambda kv: (-kv[1][0], kv[0]))
        for frame, (us, sub) in entries:
            if len(lines) >= max_lines:
                return
            share = us / total
            bar = "#" * max(1, int(round(share * width)))
            lines.append("  %-48s %s %5.1f%% %10.2f us"
                         % ("  " * depth + frame, bar.ljust(width),
                            100.0 * share, us))
            visit(sub, depth + 1)

    visit(root, 0)
    if len(lines) >= max_lines:
        lines.append("  ... (%d stacks folded)" % len(profile.folded))
    return "\n".join(lines)
