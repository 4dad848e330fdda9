"""Property tests: profile folding conserves time on arbitrary trees.

`build_profile` must be a lossless re-binning of span time no matter
what shape the causal trees take: for randomized forests of nested
spans the per-stage totals, the folded stacks, and the per-request
decompositions must all sum to exactly the same microseconds as the
root intervals (plus tagged dispatch waits) they partition, up to
float-summation ulps on arbitrary inputs (the real-engine tests in
tests/obs/test_profile.py pin exact zero).

`derandomize=True` keeps the sweeps fixed-seed, like the repo's other
property suites.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import PROFILE_STAGES, build_profile, render_folded
from repro.obs.diff import diff_profiles
from repro.sim.trace import Span

# Categories spanning every profile stage, including the cpu.* split.
CATEGORIES = ("srpc.call", "srpc.serve", "vmmc.send", "cpu.store",
              "cpu.poll", "nic.dma", "mesh.hop", "bus", "kv.serve")


@st.composite
def span_forest(draw):
    """A forest of request trees: roots with nested child chains."""
    spans = []
    sid = 0
    n_trees = draw(st.integers(min_value=1, max_value=6))
    for tid in range(1, n_trees + 1):
        start = draw(st.floats(min_value=0.0, max_value=1000.0))
        length = draw(st.floats(min_value=0.5, max_value=500.0))
        wait = draw(st.floats(min_value=0.0, max_value=50.0))
        sid += 1
        data = {"tid": tid, "arrival": start - wait}
        root = Span(sid, None, "kv.client",
                    draw(st.sampled_from(["get", "put"])),
                    "n0.cpu.p%d" % tid, start, start + length, data=data)
        spans.append(root)
        # A chain of nested children strictly inside the root.
        parent, lo, hi = root, start, start + length
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            pad = (hi - lo) * 0.1
            lo, hi = lo + pad, hi - pad
            if hi - lo < 1e-6:
                break
            sid += 1
            child = Span(sid, parent.sid,
                         draw(st.sampled_from(CATEGORIES)), "work",
                         parent.track, lo, hi)
            spans.append(child)
            parent = child
    return spans


@given(span_forest())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_folding_conserves_time_exactly(spans):
    profile = build_profile(spans)
    roots = [s for s in spans
             if isinstance(s.data, dict) and "tid" in s.data]
    assert len(profile.requests) == len(roots)
    # A few ulps of summation noise on arbitrary floats; the
    # real-engine tests (tests/obs/test_profile.py) pin exact zero.
    assert profile.conservation_error < 1e-12
    # Stage totals, folded stacks, and per-request decompositions all
    # carry the same total microseconds.
    expected = sum((s.end - s.start)
                   + max(0.0, s.start - s.data["arrival"])
                   for s in roots)
    assert abs(profile.total_us - expected) < 1e-6 * max(1.0, expected)
    assert abs(sum(profile.stage_totals.values())
               - profile.total_us) < 1e-9 * max(1.0, profile.total_us)
    assert abs(sum(profile.folded.values())
               - profile.total_us) < 1e-6 * max(1.0, profile.total_us)
    for req in profile.requests:
        assert abs(sum(req.stages.values()) - req.total_us) < 1e-6


@given(span_forest())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_every_stage_lands_in_the_profile_vocabulary(spans):
    profile = build_profile(spans)
    assert set(profile.stage_totals) <= set(PROFILE_STAGES)
    for stack in profile.folded:
        leaf = stack.split(";")[-1]
        assert leaf.strip("[]") in PROFILE_STAGES
    # Rendering never crashes and never invents negative values.
    for line in render_folded(profile).splitlines():
        assert int(line.rsplit(" ", 1)[1]) > 0


@given(span_forest(), span_forest())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_diff_attribution_closes_on_profile_means(spans_a, spans_b):
    a, b = build_profile(spans_a), build_profile(spans_b)
    diff = diff_profiles(a, b)
    # Without measured overrides the stage deltas must sum to the
    # profile mean delta exactly (the plain-path closure property).
    assert abs(diff.attributed_delta_us
               - (b.mean_us() - a.mean_us())) < 1e-6
    assert diff.closure_error < 1e-6
