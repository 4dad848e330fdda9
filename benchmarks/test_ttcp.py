"""Section 4.3's ttcp paragraph: one-way socket streaming bandwidth.

Shape claims checked:

* ttcp (with its per-write bookkeeping) is slower than the bare one-way
  microbenchmark at 7 KB messages, as in the paper;
* at 70-byte messages ttcp lands near Ethernet's peak bandwidth, as the
  paper's does — per-message costs dominate;
* absolute 7 KB numbers run higher here than the paper's because the
  simulated receive path pipelines the copy-out with incoming DMA more
  aggressively than the prototype did (recorded in EXPERIMENTS.md).

The paper-vs-measured rows are in the paper table
(test_headline_scalars.py writes it).
"""

from conftest import run_once

from repro.bench import ttcp_results


def test_ttcp(benchmark):
    results = run_once(benchmark, ttcp_results)

    assert results["ttcp_7k_mb_s"] < results["micro_7k_mb_s"]
    # The bookkeeping gap is real but modest (paper: ~12%).
    gap = 1 - results["ttcp_7k_mb_s"] / results["micro_7k_mb_s"]
    assert 0.03 < gap < 0.30, gap
    # Small messages: in the Ethernet-peak neighbourhood.
    assert 0.9 < results["ttcp_70b_mb_s"] < 1.8

    for key, value in results.items():
        benchmark.extra_info[key] = round(value, 2)
