"""Traced-journey cross-check: spans must reproduce the analytic budget.

This is the acceptance bar of the observability layer: `python -m repro
trace` replays a Figure 3 one-word transfer with tracing on, and the
measured budget partitioned from its spans must agree with
`repro.analysis`'s analytic decomposition to within 1% (in the
uncontended case they agree exactly).
"""

import json

import pytest

from repro.__main__ import main
from repro.bench import tracing
from repro.bench.tracing import trace_one_word
from repro.hardware.config import CacheMode
from repro.sim import validate_chrome_trace


@pytest.mark.parametrize("mode", ["au", "du"])
@pytest.mark.parametrize(
    "cache_mode", [CacheMode.WRITE_THROUGH, CacheMode.UNCACHED],
    ids=lambda cm: cm.value)
def test_measured_budget_agrees_with_analytic(mode, cache_mode):
    result = trace_one_word(mode=mode, cache_mode=cache_mode)
    assert result.agreement_error <= 0.01
    assert result.measured.total == pytest.approx(result.analytic.total,
                                                  rel=0.01)


@pytest.mark.parametrize("mode", ["au", "du"])
def test_each_measured_row_is_its_span(mode):
    """Uncontended, every owning span holds the journey alone while it
    runs: one row per span, in datapath order, each its span's whole
    duration."""
    result = trace_one_word(mode=mode)
    spans = {"%s on %s" % (s.category, s.track): s
             for s in result.tracer.spans}
    rows = result.measured.stages
    journey = [spans[row.name] for row in rows]
    assert journey == sorted(journey, key=lambda s: s.start)
    for row, span in zip(rows, journey):
        assert row.microseconds == span.duration()


def test_a_lost_journey_span_raises(monkeypatch):
    """A slice no span covers is instrumentation drift, not a row."""
    partition = tracing.partition

    def without_mesh(t0, t1, members, hardware, depth):
        kept = [s for s in hardware if s.category != "mesh.transit"]
        return partition(t0, t1, members, kept, depth)

    monkeypatch.setattr(tracing, "partition", without_mesh)
    with pytest.raises(RuntimeError, match="drifted"):
        trace_one_word(mode="au")


def test_au_write_through_hits_the_paper_headline():
    result = trace_one_word(mode="au", cache_mode=CacheMode.WRITE_THROUGH)
    assert result.measured.total == pytest.approx(4.75, abs=0.05)


def test_trace_exports_valid_chrome_json():
    result = trace_one_word(mode="du")
    text = result.chrome_json()
    assert validate_chrome_trace(text) == []
    events = json.loads(text)["traceEvents"]
    span_events = [e for e in events if e["ph"] == "X"]
    cats = {e["cat"] for e in span_events}
    journey = [row.name.split(" on ")[0] for row in result.measured.stages]
    assert journey == ["vmmc.send", "nic.packetize", "nic.inject",
                       "mesh.transit", "nic.dma_in", "cpu.poll"]
    for category in journey:
        assert category in cats
    # Setup traffic was cleared: one journey only, so one mesh transit.
    assert sum(1 for e in span_events if e["cat"] == "mesh.transit") == 1


def test_report_and_utilization_render():
    result = trace_one_word(mode="au")
    report = result.report()
    assert "traced" in report and "agreement:" in report
    util = result.utilization_report()
    assert util.startswith("utilization @ t=")
    assert "eisa" in util


def test_rejects_unknown_mode():
    with pytest.raises(ValueError):
        trace_one_word(mode="multicast")


class TestTraceCli:
    def test_trace_command_writes_and_agrees(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "agreement:" in printed
        assert "utilization @" in printed
        assert validate_chrome_trace(out.read_text()) == []

    def test_trace_command_can_skip_writing(self, capsys):
        assert main(["trace", "--mode", "du", "--uncached", "--out", ""]) == 0
        assert "agreement:" in capsys.readouterr().out

    def test_trace_check_validates_files(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text('{"traceEvents": []}')
        assert main(["trace", "--check", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert main(["trace", "--check", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
