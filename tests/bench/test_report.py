"""Unit tests for the benchmark result structures and text reports."""

import pytest

from repro.bench.report import FigureResult, FigureSeries, SeriesPoint, format_table


def make_figure():
    result = FigureResult("Figure X", "test figure")
    series = FigureSeries("fast")
    series.add(4, 2.0)
    series.add(1024, 64.0)
    result.series.append(series)
    slow = FigureSeries("slow")
    slow.add(4, 4.0)
    result.series.append(slow)
    return result


def test_series_point_bandwidth():
    assert SeriesPoint(1024, 64.0).bandwidth_mb_s == 16.0
    assert SeriesPoint(0, 0.0).bandwidth_mb_s == 0.0


def test_series_lookup():
    figure = make_figure()
    fast = figure.series_named("fast")
    assert fast.latency_at(4) == 2.0
    assert fast.bandwidth_at(1024) == 16.0
    assert fast.peak_bandwidth == 16.0
    with pytest.raises(KeyError):
        fast.latency_at(999)
    with pytest.raises(KeyError):
        figure.series_named("missing")


def test_report_renders_all_series_and_gaps():
    figure = make_figure()
    figure.notes.append("a note")
    text = figure.report()
    assert "Figure X" in text
    assert "fast" in text and "slow" in text
    # The slow series has no 1024-point: rendered as '-'.
    assert "-" in text
    assert "note: a note" in text


def test_round_trip_figures_head_their_latency_table_so():
    figure = make_figure()
    assert "one-way latency (us):" in figure.report()
    figure.round_trip = True
    text = figure.report()
    assert "round-trip time (us):" in text
    assert "one-way" not in text


def test_format_table_alignment():
    rows = [["a", "bbbb"], ["cccc", "d"]]
    lines = format_table(rows)
    assert len(lines) == 2
    assert len(lines[0]) == len(lines[1])
    assert format_table([]) == []


class TestStrategyValidation:
    def test_au_without_sender_copy_rejected(self):
        from repro.bench.pingpong import Strategy

        with pytest.raises(ValueError):
            Strategy("bogus", automatic=True, sender_copy=False, receiver_copy=False)

    def test_pingpong_rejects_bad_sizes(self):
        from repro.bench.pingpong import STRATEGIES, vmmc_pingpong

        with pytest.raises(ValueError):
            vmmc_pingpong(STRATEGIES["DU-0copy"], 0)
        with pytest.raises(ValueError):
            vmmc_pingpong(STRATEGIES["DU-0copy"], 3)  # not a word multiple

    def test_srpc_fig8_bound(self):
        from repro.bench.libraries import srpc_inout_rtt

        with pytest.raises(ValueError):
            srpc_inout_rtt(2000)


def test_pingpong_result_fields():
    from repro.bench.pingpong import STRATEGIES, vmmc_pingpong

    result = vmmc_pingpong(STRATEGIES["AU-1copy"], 64, iterations=3)
    assert result.strategy == "AU-1copy"
    assert result.size == 64
    assert result.iterations == 3
    assert result.bandwidth_mb_s == pytest.approx(64 / result.one_way_latency_us)
