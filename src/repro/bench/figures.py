"""One harness per figure of the paper's evaluation (DESIGN.md section 4).

Each ``figure_*`` function regenerates the corresponding figure's
series and returns a :class:`~repro.bench.report.FigureResult` whose
``report()`` prints the rows the paper plots.  Absolute values come
from the calibrated simulator; shape expectations (who wins, where the
crossovers are) are asserted by ``benchmarks/``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..analysis import format_table
from ..hardware.config import CacheMode
from .libraries import (
    nx_pingpong,
    socket_oneway,
    socket_pingpong,
    srpc_inout_rtt,
    vrpc_pingpong,
)
from .pingpong import STRATEGIES, one_word_latency, vmmc_pingpong
from .report import FigureResult, FigureSeries

__all__ = [
    "LATENCY_SIZES",
    "BANDWIDTH_SIZES",
    "figure3_raw_vmmc",
    "figure4_nx",
    "figure5_vrpc",
    "figure7_sockets",
    "figure8_rpc_comparison",
    "ttcp_results",
    "headline_scalars",
    "PAPER_TABLE",
    "paper_ladder",
    "paper_table",
]

# The paper's x-axes: latency up to 64 B, bandwidth up to 10 KB.
LATENCY_SIZES = (4, 8, 16, 32, 48, 64)
BANDWIDTH_SIZES = (256, 1024, 2048, 4096, 7168, 10240)

#: Every number of the paper's text the reproduction is compared with,
#: each once, in the paper's section order: (key of :func:`paper_ladder`,
#: row label, paper value).  The first four are the hardware anchors
#: docs/CALIBRATION.md tunes the model on.
PAPER_TABLE: Tuple[Tuple[str, str, float], ...] = (
    ("au_word_wt_us", "AU one-word latency, write-through (us)", 4.75),
    ("au_word_uncached_us", "AU one-word latency, uncached (us)", 3.7),
    ("du_word_us", "DU one-word latency (us)", 7.6),
    ("du_0copy_peak_mb_s", "DU-0copy peak bandwidth (MB/s)", 23.0),
    ("nx_overhead_us", "NX small-message overhead over raw (us)", 6.0),
    ("vrpc_null_rtt_us", "VRPC null round trip (us)", 29.0),
    ("socket_overhead_us", "socket small-message overhead over raw (us)",
     13.0),
    ("ttcp_7k_mb_s", "ttcp @ 7 KB (MB/s)", 8.6),
    ("micro_7k_mb_s", "microbenchmark @ 7 KB (MB/s)", 9.8),
    ("ttcp_70b_mb_s", "ttcp @ 70 B (MB/s)", 1.3),
    ("srpc_null_inout_rtt_us", "SHRIMP RPC null round trip (us)", 9.5),
)
#: The table's paper values by key.
PAPER: Dict[str, float] = {key: value for key, _, value in PAPER_TABLE}


def _sweep(series: FigureSeries, sizes: Sequence[int], measure) -> FigureSeries:
    for size in sizes:
        series.add(size, measure(size))
    return series


def figure3_raw_vmmc(sizes: Optional[Sequence[int]] = None,
                     iterations: int = 8) -> FigureResult:
    """Figure 3: latency and bandwidth of the raw VMMC layer."""
    sizes = tuple(sizes or (LATENCY_SIZES + BANDWIDTH_SIZES))
    result = FigureResult(
        "Figure 3",
        "Latency and bandwidth delivered by the SHRIMP VMMC layer",
    )
    for name in ("AU-1copy", "AU-2copy", "DU-0copy", "DU-1copy"):
        strategy = STRATEGIES[name]
        series = FigureSeries(name)
        for size in sizes:
            measured = vmmc_pingpong(strategy, size, iterations=iterations)
            series.add(size, measured.one_way_latency_us)
        result.series.append(series)
    result.notes.append(
        "one-word AU latency: %.2f us write-through / %.2f us uncached "
        "(paper: %g / %g); one-word DU: %.2f us (paper: %g)"
        % (
            one_word_latency(True, CacheMode.WRITE_THROUGH),
            one_word_latency(True, CacheMode.UNCACHED),
            PAPER["au_word_wt_us"],
            PAPER["au_word_uncached_us"],
            one_word_latency(False, CacheMode.WRITE_THROUGH),
            PAPER["du_word_us"],
        )
    )
    return result


def figure4_nx(sizes: Optional[Sequence[int]] = None,
               iterations: int = 8) -> FigureResult:
    """Figure 4: NX latency and bandwidth, five variants.

    The protocol-switch 'bump' sits at the packet-buffer payload size
    (2048 B): above it every variant runs the zero-copy scout protocol.
    """
    sizes = tuple(sizes or (LATENCY_SIZES + BANDWIDTH_SIZES + (2052,)))
    result = FigureResult("Figure 4", "NX latency and bandwidth")
    for name in ("AU-1copy", "AU-2copy", "DU-0copy", "DU-1copy", "DU-2copy"):
        series = _sweep(
            FigureSeries(name), sorted(sizes),
            lambda size, name=name: nx_pingpong(name, size, iterations=iterations),
        )
        result.series.append(series)
    return result


def figure5_vrpc(sizes: Optional[Sequence[int]] = None,
                 iterations: int = 6) -> FigureResult:
    """Figure 5: VRPC round-trip latency / bandwidth vs arg+result size.

    The paper plots round-trip time (an RPC is inherently a round trip);
    bandwidth counts the argument bytes one way, as the paper does.
    """
    sizes = tuple(sizes or ((4, 16, 64) + BANDWIDTH_SIZES))
    result = FigureResult("Figure 5", "VRPC latency and bandwidth",
                          round_trip=True)
    for name, automatic in (("DU-1copy", False), ("AU-1copy", True)):
        series = _sweep(
            FigureSeries(name), sorted(sizes),
            lambda size, automatic=automatic: vrpc_pingpong(
                size, automatic=automatic, iterations=iterations
            ),
        )
        result.series.append(series)
    result.notes.append("latencies are round-trip times (RPC semantics)")
    return result


def figure7_sockets(sizes: Optional[Sequence[int]] = None,
                    iterations: int = 8) -> FigureResult:
    """Figure 7: stream-socket latency and bandwidth, three variants."""
    sizes = tuple(sizes or (LATENCY_SIZES + BANDWIDTH_SIZES))
    result = FigureResult("Figure 7", "Socket latency and bandwidth")
    for name in ("AU-2copy", "DU-1copy", "DU-2copy"):
        series = _sweep(
            FigureSeries(name), sorted(sizes),
            lambda size, name=name: socket_pingpong(name, size, iterations=iterations),
        )
        result.series.append(series)
    return result


def figure8_rpc_comparison(sizes: Optional[Sequence[int]] = None,
                           iterations: int = 6) -> FigureResult:
    """Figure 8: compatible (VRPC) vs non-compatible (SHRIMP RPC)
    round-trip time for a null call with one INOUT argument."""
    sizes = tuple(sizes or (0, 4, 100, 200, 400, 600, 800, 1000))
    result = FigureResult(
        "Figure 8",
        "Round-trip time for null RPC with a single INOUT argument",
        round_trip=True,
    )
    compatible = FigureSeries("compatible")
    non_compatible = FigureSeries("non-compatible")
    for size in sizes:
        compatible.add(max(size, 1), vrpc_pingpong(size, automatic=True,
                                                   iterations=iterations))
        non_compatible.add(max(size, 1), srpc_inout_rtt(size, iterations=iterations))
    result.series.extend([compatible, non_compatible])
    result.notes.append(
        "size 0 is recorded as 1 so bandwidth math stays defined; the"
        " latency value is the true null-argument round trip"
    )
    result.notes.append(
        "non-compatible OUT/INOUT args the server never writes cost"
        " nothing on the return path (implicit AU return)"
    )
    return result


def ttcp_results() -> Dict[str, float]:
    """Section 4.3's ttcp paragraph: one-way socket bandwidth.

    Returns MB/s for ttcp at 7 KB, the bare microbenchmark at 7 KB,
    ttcp at 70 B, and Ethernet's peak, which the paper's 70 B figure
    tops ('higher than Ethernet's peak bandwidth').  The paper's values
    are in :data:`PAPER_TABLE`.
    """
    # ttcp does malloc'd-buffer bookkeeping around every write; the bare
    # microbenchmark does not — that's the ttcp vs microbenchmark gap.
    ttcp_overhead = 32.0
    return {
        "ttcp_7k_mb_s": socket_oneway("DU-1copy", 7168,
                                      per_write_overhead=ttcp_overhead),
        "micro_7k_mb_s": socket_oneway("DU-1copy", 7168),
        "ttcp_70b_mb_s": socket_oneway("DU-1copy", 70, count=100,
                                       per_write_overhead=ttcp_overhead),
        "ethernet_peak_mb_s": 1.25,
    }


def headline_scalars() -> Dict[str, float]:
    """Every scalar the paper's text reports, measured."""
    return {
        "au_word_wt_us": one_word_latency(True, CacheMode.WRITE_THROUGH),
        "au_word_uncached_us": one_word_latency(True, CacheMode.UNCACHED),
        "du_word_us": one_word_latency(False, CacheMode.WRITE_THROUGH),
        "du_0copy_peak_mb_s": vmmc_pingpong(
            STRATEGIES["DU-0copy"], 10240, iterations=5
        ).bandwidth_mb_s,
        "nx_small_au_us": nx_pingpong("AU-1copy", 8, iterations=8),
        "raw_small_au_us": vmmc_pingpong(
            STRATEGIES["AU-1copy"], 8, iterations=8
        ).one_way_latency_us,
        "socket_small_au_us": socket_pingpong("AU-2copy", 4, iterations=8),
        "vrpc_null_rtt_us": vrpc_pingpong(0, automatic=True),
        "srpc_null_inout_rtt_us": srpc_inout_rtt(0),
    }


def paper_ladder() -> Dict[str, float]:
    """Every measured value :data:`PAPER_TABLE` names, and the rest of
    the ladder they come from: :func:`headline_scalars`,
    :func:`ttcp_results`, and the NX and socket small-message overheads,
    both taken over raw AU-1copy VMMC at 8 B (``raw_small_au_us``)."""
    values = dict(headline_scalars())
    values.update(ttcp_results())
    raw = values["raw_small_au_us"]
    values["nx_overhead_us"] = values["nx_small_au_us"] - raw
    values["socket_overhead_us"] = values["socket_small_au_us"] - raw
    return values


def paper_table(measured: Optional[Dict[str, float]] = None) -> str:
    """The paper-vs-measured table: one row per :data:`PAPER_TABLE`
    entry, then the compatible over non-compatible null round trip,
    taken of the paper's two values and of the measured two.

    ``measured`` is a :func:`paper_ladder` result (measured when None).
    """
    if measured is None:
        measured = paper_ladder()
    rows = [(label, paper, measured[key]) for key, label, paper in PAPER_TABLE]
    rows.append(("VRPC / SHRIMP RPC null round trip",) + tuple(
        side["vrpc_null_rtt_us"] / side["srpc_null_inout_rtt_us"]
        for side in (PAPER, measured)))
    return "\n".join(format_table(
        [["row", "paper", "measured", "ratio"]]
        + [[label, "%.2f" % paper, "%.2f" % value, "%.2f" % (value / paper)]
           for label, paper, value in rows]))
