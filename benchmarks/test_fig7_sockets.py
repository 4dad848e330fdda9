"""Figure 7: stream-socket latency and bandwidth, three variants.

Shape claims checked:

* small messages run ~13 us above the raw hardware limit: AU-2copy at
  4 B is 10-16 us slower one way than a raw AU-1copy transfer;
* DU-2copy has the lowest latency up to 16 B, and AU-2copy a lower one
  than DU-1copy at 4 B;
* AU-2copy is faster than DU-1copy at 2 KB and slower at 4 KB, so their
  crossover lies between 2 and 4 KB;
* DU-2copy pays for its staging copy: at 10 KB it has a higher latency
  and a lower bandwidth than DU-1copy;
* a zero-copy socket is impossible (protection), so no curve reaches
  the DU-0copy raw limit of ~23 MB/s at 10 KB.
"""

from conftest import run_once

from repro.bench import STRATEGIES, figure7_sockets, vmmc_pingpong


def test_fig7_sockets(benchmark, save_report):
    result = run_once(benchmark, figure7_sockets)

    au2 = result.series_named("AU-2copy")
    du1 = result.series_named("DU-1copy")
    du2 = result.series_named("DU-2copy")

    # ~13 us over the raw AU hardware limit for small messages.
    raw = vmmc_pingpong(STRATEGIES["AU-1copy"], 4, iterations=8)
    overhead = au2.latency_at(4) - raw.one_way_latency_us
    assert 10.0 < overhead < 16.0, overhead

    # Small messages: DU-2copy fastest, AU-2copy ahead of DU-1copy.
    for size in (4, 8, 16):
        assert du2.latency_at(size) < min(au2.latency_at(size),
                                          du1.latency_at(size)), size
    assert au2.latency_at(4) < du1.latency_at(4)

    # The AU-2copy / DU-1copy crossover lies between 2 and 4 KB.
    assert au2.latency_at(2048) < du1.latency_at(2048)
    assert au2.latency_at(4096) > du1.latency_at(4096)

    # The staging copy costs at 10 KB.
    assert du2.latency_at(10240) > du1.latency_at(10240)

    # Large-message ordering and the protection ceiling.
    assert du1.bandwidth_at(10240) > du2.bandwidth_at(10240)
    for series in (au2, du1, du2):
        assert series.bandwidth_at(10240) < 23.0

    benchmark.extra_info["small_overhead_us"] = round(overhead, 2)
    benchmark.extra_info["du1_10k_bw_mb_s"] = round(du1.bandwidth_at(10240), 2)
    save_report("figure7.txt", result.report())
