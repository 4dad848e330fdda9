"""Every number the paper reports, measured, in one table.

The table is ``python -m repro scalars``'s output, and EXPERIMENTS.md
shows it (tests/test_docs_links.py pins both to this report); tight
tolerances live in tests/calibration, this harness writes the table.
"""

from conftest import run_once

from repro.bench import PAPER_TABLE, paper_ladder, paper_table

#: The two 7 KB socket-streaming rows run about 2x the paper, a known
#: deviation (docs/CALIBRATION.md); test_ttcp.py checks their shape.
STREAMING_7K = ("ttcp_7k_mb_s", "micro_7k_mb_s")


def test_headline_scalars(benchmark, save_report):
    measured = run_once(benchmark, paper_ladder)

    for key, _, paper in PAPER_TABLE:
        if key in STREAMING_7K:
            continue
        # Broad sanity: within 40% of the paper (tight checks live in
        # tests/calibration where the model pins them closely).
        assert 0.6 < measured[key] / paper < 1.4, (key, measured[key])

    for key, value in measured.items():
        benchmark.extra_info[key] = round(value, 3)
    save_report("headline_scalars.txt", paper_table(measured))
