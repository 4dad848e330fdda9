"""Reconstruct cross-node causal trees from exported spans.

Every request traced under :mod:`repro.obs` leaves three kinds of
links in span data (see "Causal trace context" in
:mod:`repro.sim.trace`):

* ``tid`` — which causal tree the span belongs to;
* ``cparent`` — same-process causal parent span id;
* ``xparent`` — cross-wire causal parent span id (the sender-side
  span that posted the context the receiver claimed).

Untagged spans (``cpu.store`` under an ``srpc.call``, ...) join a tree
through the tracer's ordinary same-track ``parent`` links: walking a
span's parent chain until it reaches a tagged span assigns it to that
span's tree.

:func:`assemble_traces` groups spans into :class:`TraceTree`\\ s;
:func:`audit` returns the invariant violations (the fault-sweep tests
assert it stays empty: exactly one root per tree, no orphans, no
duplicated deliveries from retransmits or reply replays);
:func:`partition` gives each slice of an interval to one span — library /
VMMC / NIC / bus / mesh / queueing — so the stages sum to the interval
by construction; :func:`explain_trace` runs it over one tree's root
interval for the request's critical path and stage budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis import LatencyBudget, Stage
from ..sim.trace import Span

__all__ = ["TraceTree", "PathSegment", "ExplainResult",
           "assemble_traces", "audit", "classify", "partition",
           "explain_trace", "format_tree", "STAGE_ORDER"]

#: Budget stages, in report order.
STAGE_ORDER = ("library", "vmmc", "nic", "bus", "mesh", "queueing")

# Delivery-side categories: a retransmitted or replayed frame must
# never create a second one of these with the same (tid, xparent).
_DELIVERY_CATEGORIES = ("srpc.serve", "vrpc.serve", "kv.serve", "nx.crecv")

# Call-side categories whose *own* (not-deeper-covered) time is the
# request waiting — poll-sleep gaps, remote queueing — rather than
# local compute.
_WAIT_CATEGORIES = ("srpc.call", "vrpc.call", "nx.crecv", "sock.recv",
                    "kv.client")

# Hardware overlay stages, by precedence when several are active.
_HARDWARE_RANK = {"bus": 0, "nic": 1, "mesh": 2}


def classify(category: str) -> str:
    """A span category's budget stage (hardware overlays come later)."""
    if category.startswith(("cpu.", "vmmc.")):
        return "vmmc"
    if category.startswith("nic."):
        return "nic"
    if category.startswith("mesh."):
        return "mesh"
    if category == "bus" or category.startswith("bus."):
        return "bus"
    return "library"


def node_of(track: str) -> Optional[str]:
    """The mesh-node label of a track (``"n3.cpu.p1"`` -> ``"n3"``)."""
    head = track.split(".", 1)[0]
    if len(head) > 1 and head[0] == "n" and head[1:].isdigit():
        return head
    return None


def _tags(span: Span) -> dict:
    return span.data if isinstance(span.data, dict) else {}


@dataclass
class TraceTree:
    """One request's causal tree: the root span and everything under it."""

    tid: int
    root: Optional[Span]
    spans: List[Span] = field(default_factory=list)
    children: Dict[int, List[Span]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    by_sid: Dict[int, Span] = field(default_factory=dict)
    _depths: Dict[int, int] = field(default_factory=dict)

    def nodes(self) -> List[str]:
        """Sorted mesh nodes this tree touches."""
        found = {node_of(s.track) for s in self.spans}
        found.discard(None)
        return sorted(found, key=lambda n: int(n[1:]))

    def parent_ref(self, span: Span) -> Optional[int]:
        """The causal parent sid: cparent > xparent > same-track parent."""
        tags = _tags(span)
        if "cparent" in tags:
            return tags["cparent"]
        if "xparent" in tags:
            return tags["xparent"]
        return span.parent

    def depth(self, span: Span) -> int:
        """Causal depth below the root (root = 0; unknown = 0)."""
        if not self._depths and self.root is not None:
            self._depths[self.root.sid] = 0
            frontier = [self.root]
            while frontier:
                parent = frontier.pop()
                d = self._depths[parent.sid] + 1
                for child in self.children.get(parent.sid, ()):
                    if child.sid not in self._depths:
                        self._depths[child.sid] = d
                        frontier.append(child)
        return self._depths.get(span.sid, 0)

    @property
    def duration_us(self) -> float:
        """The root span's measured latency (0 when open/missing)."""
        if self.root is None or self.root.end is None:
            return 0.0
        return self.root.end - self.root.start


def assemble_traces(spans: Sequence[Span]) -> Dict[int, TraceTree]:
    """Group spans into causal trees, keyed by trace id.

    Membership: spans tagged with ``tid``, plus untagged spans whose
    same-track parent chain reaches a tagged one.  Each tree's
    ``problems`` list records invariant violations (see :func:`audit`).
    """
    by_sid: Dict[int, Span] = {s.sid: s for s in spans}
    tid_of: Dict[int, Optional[int]] = {}
    for span in spans:
        tags = _tags(span)
        if "tid" in tags:
            tid_of[span.sid] = tags["tid"]
    for span in spans:
        if span.sid in tid_of:
            continue
        chain = []
        sid: Optional[int] = span.sid
        tid: Optional[int] = None
        while sid is not None and sid not in tid_of:
            chain.append(sid)
            parent = by_sid.get(sid)
            sid = parent.parent if parent is not None else None
            if sid in (c for c in chain):  # pragma: no cover - cycle guard
                sid = None
        if sid is not None:
            tid = tid_of[sid]
        for c in chain:
            tid_of[c] = tid

    trees: Dict[int, TraceTree] = {}
    members: Dict[int, List[Span]] = {}
    for span in spans:
        tid = tid_of.get(span.sid)
        if tid is not None:
            members.setdefault(tid, []).append(span)

    for tid, spans_of_tid in sorted(members.items()):
        spans_of_tid.sort(key=lambda s: s.sid)
        member_sids = {s.sid for s in spans_of_tid}
        tree = TraceTree(tid=tid, root=None, spans=spans_of_tid,
                         by_sid={s.sid: s for s in spans_of_tid})
        roots = []
        for span in spans_of_tid:
            tags = _tags(span)
            is_root = ("tid" in tags and "cparent" not in tags
                       and "xparent" not in tags
                       and span.parent not in member_sids)
            if is_root:
                roots.append(span)
                continue
            ref = tree.parent_ref(span)
            if ref is None or ref not in member_sids:
                tree.problems.append(
                    "trace %d: span #%d (%s) is an orphan (parent ref %r "
                    "not in tree)" % (tid, span.sid, span.category, ref))
                continue
            tree.children.setdefault(ref, []).append(span)
        if len(roots) == 1:
            tree.root = roots[0]
        elif not roots:
            tree.problems.append("trace %d: no root span" % tid)
        else:
            tree.root = roots[0]
            tree.problems.append(
                "trace %d: %d root spans (%s)"
                % (tid, len(roots),
                   ", ".join("#%d %s" % (r.sid, r.category) for r in roots)))
        for parent_sid in tree.children:
            tree.children[parent_sid].sort(key=lambda s: (s.start, s.sid))

        seen_delivery: Dict[Tuple[str, int], int] = {}
        for span in spans_of_tid:
            tags = _tags(span)
            if span.category in _DELIVERY_CATEGORIES and "xparent" in tags:
                key = (span.category, tags["xparent"])
                if key in seen_delivery:
                    tree.problems.append(
                        "trace %d: duplicated delivery %s for sender span "
                        "#%d (spans #%d and #%d)"
                        % (tid, span.category, tags["xparent"],
                           seen_delivery[key], span.sid))
                else:
                    seen_delivery[key] = span.sid
        trees[tid] = tree
    return trees


def audit(spans: Sequence[Span]) -> List[str]:
    """Every causal-tree invariant violation across all trees.

    Empty means: one root per trace id, every member span reaches its
    root, and no delivery-side span was duplicated by a retransmission
    or reply replay.
    """
    problems: List[str] = []
    for tid, tree in sorted(assemble_traces(spans).items()):
        problems.extend(tree.problems)
    return problems


@dataclass
class PathSegment:
    """One critical-path piece: the span that owned this slice.

    ``owner`` is the member or hardware span the slice went to (None
    for a slice no span covers); ``sid`` is its causal frame, the
    deepest covering member (on a *vmmc* slice, the owner itself).
    """

    start: float
    end: float
    stage: str
    owner: Optional[Span]
    sid: Optional[int]

    @property
    def category(self) -> str:
        return self.owner.category if self.owner is not None else "(gap)"

    @property
    def duration_us(self) -> float:
        return self.end - self.start


@dataclass
class ExplainResult:
    """One explained request: tree, critical path, stage budget."""

    tree: TraceTree
    segments: List[PathSegment]
    budget: LatencyBudget

    @property
    def measured_us(self) -> float:
        return self.tree.duration_us

    @property
    def budget_error(self) -> float:
        """Relative gap between the stage sum and the measured latency."""
        if self.measured_us <= 0.0:
            return 0.0
        return abs(self.budget.total - self.measured_us) / self.measured_us


def partition(t0: float, t1: float, members: Sequence[Span],
              hardware: Sequence[Span], depth: Callable[[Span], int]
              ) -> Tuple[List[PathSegment], Dict[str, float]]:
    """Give each slice of ``[t0, t1]`` to one span; returns the
    segments and the per-stage totals (every stage of
    :data:`STAGE_ORDER`).

    The interval is cut at every boundary of a closed member or
    hardware span inside it, and each elementary slice goes to:

    * the deepest covering ``cpu.*``/``vmmc.*`` member -> *vmmc*;
    * else the active ``hardware`` span (``mesh.*`` > ``nic.*`` >
      ``bus``) -> that stage;
    * else the deepest covering member -> *library* (dispatch and
      marshaling compute), or *queueing* when it is a call-side span
      (poll-sleep gaps, remote queueing);
    * else (nothing covers it) -> *queueing*.

    Spans in ``hardware`` that are not ``nic.*``, ``mesh.*`` or ``bus``
    are ignored.  ``depth`` ranks covering members; ties go to the later start, then
    the higher sid (the same tie rule picks among active hardware spans
    of one stage).  A segment is a run of slices with one stage, owner
    and causal frame.  The slices partition the interval exactly, so
    the stage totals sum to ``t1 - t0``.
    """
    totals = {name: 0.0 for name in STAGE_ORDER}
    segments: List[PathSegment] = []
    if t1 <= t0:
        return segments, totals

    def clipped(span: Span) -> Optional[Tuple[float, float]]:
        if span.end is None:
            return None
        s, e = max(span.start, t0), min(span.end, t1)
        return (s, e) if e > s else None

    member_iv: List[Tuple[float, float, Span]] = []
    for span in members:
        iv = clipped(span)
        if iv is not None:
            member_iv.append((iv[0], iv[1], span))
    hw_iv: List[Tuple[float, float, str, Span]] = []
    for span in hardware:
        stage = classify(span.category)
        iv = clipped(span)
        if stage in _HARDWARE_RANK and iv is not None:
            hw_iv.append((iv[0], iv[1], stage, span))

    bounds = {t0, t1}
    for s, e, _ in member_iv:
        bounds.add(s)
        bounds.add(e)
    for s, e, _, _ in hw_iv:
        bounds.add(s)
        bounds.add(e)
    cuts = sorted(bounds)

    for lo, hi in zip(cuts, cuts[1:]):
        covering = [(depth(span), span.start, span.sid, span)
                    for s, e, span in member_iv if s <= lo and e >= hi]
        deepest = max(covering)[3] if covering else None
        sid = deepest.sid if deepest is not None else None
        vmmc_cover = [span for _, _, _, span in covering
                      if classify(span.category) == "vmmc"]
        if vmmc_cover:
            owner = max((depth(s), s.start, s.sid, s) for s in vmmc_cover)[3]
            stage, sid = "vmmc", owner.sid
        else:
            active = [(_HARDWARE_RANK[st], span.start, span.sid, st, span)
                      for s, e, st, span in hw_iv if s <= lo and e >= hi]
            if active:
                _, _, _, stage, owner = max(active)
            elif deepest is None:
                stage, owner = "queueing", None
            elif deepest.category in _WAIT_CATEGORIES:
                stage, owner = "queueing", deepest
            else:
                stage, owner = "library", deepest
        totals[stage] += hi - lo
        last = segments[-1] if segments else None
        if (last is not None and last.stage == stage and last.owner is owner
                and last.sid == sid):
            last.end = hi
        else:
            segments.append(PathSegment(lo, hi, stage, owner, sid))
    return segments, totals


def explain_trace(tree: TraceTree,
                  all_spans: Sequence[Span]) -> ExplainResult:
    """Critical path and stage budget for one assembled tree.

    :func:`partition` of the root span's interval among the tree's
    spans, with the overlay of every mesh span and the ``nic.*``/
    ``bus`` spans of the nodes the tree touches.  Because the slices
    partition the root interval exactly, the stage totals sum to the
    measured request latency exactly.
    """
    if tree.root is None or tree.root.end is None:
        raise ValueError("trace %d has no closed root span" % tree.tid)
    involved = set(tree.nodes())
    hardware: List[Span] = []
    for span in all_spans:
        stage = classify(span.category)
        if stage not in _HARDWARE_RANK:
            continue
        node = node_of(span.track)
        if stage != "mesh" and node is not None and node not in involved:
            continue
        hardware.append(span)
    segments, totals = partition(tree.root.start, tree.root.end,
                                 tree.spans, hardware, tree.depth)
    budget = LatencyBudget(
        "request trace %d stage budget" % tree.tid,
        [Stage(name, totals[name]) for name in STAGE_ORDER])
    return ExplainResult(tree, segments, budget)


def format_tree(tree: TraceTree, max_spans: int = 200) -> str:
    """The tree as indented text, children in start order."""
    lines: List[str] = []
    if tree.root is None:
        return "trace %d: no root" % tree.tid

    def visit(span: Span, depth: int) -> None:
        if len(lines) >= max_spans:
            return
        tags = _tags(span)
        link = ""
        if "xparent" in tags:
            link = "  <-wire- #%d" % tags["xparent"]
        lines.append("%s#%-5d %-12s %-18s %-16s %9.2f us%s"
                     % ("  " * depth, span.sid, span.category,
                        span.name[:18], span.track,
                        span.duration(span.start), link))
        for child in tree.children.get(span.sid, ()):
            visit(child, depth + 1)

    visit(tree.root, 0)
    if len(lines) >= max_spans:
        lines.append("... (%d spans total)" % len(tree.spans))
    return "\n".join(lines)
